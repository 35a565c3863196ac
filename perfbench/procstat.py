"""CPU time and peak memory of a process tree, read from ``/proc``."""

from __future__ import annotations

import os

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def tree(pid: int) -> "list[int]":
    """``pid`` and all its live descendants."""
    pids = [pid]
    index = 0
    while index < len(pids):
        current = pids[index]
        index += 1
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    pids.extend(int(child) for child in handle.read().split())
            except OSError:
                continue
    return pids


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of one process (all its threads)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # fields[0] is the state (field 3); utime and stime are fields 14, 15
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def task_runtimes(pid: int) -> "dict[tuple[int, int], float]":
    """On-CPU seconds of every live thread in the tree rooted at ``pid``,
    keyed by ``(pid, tid)``, from ``schedstat`` (nanosecond resolution;
    ``/proc/<pid>/stat`` counts clock ticks, too coarse for short spans).
    """
    times: "dict[tuple[int, int], float]" = {}
    for member in tree(pid):
        try:
            tasks = os.listdir(f"/proc/{member}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{member}/task/{task}/schedstat") as handle:
                    times[(member, int(task))] = int(handle.read().split()[0]) / 1e9
            except (OSError, ValueError, IndexError):
                continue
    return times


def peak_rss_mib(pid: int) -> float:
    """Peak resident set size (VmHWM) of one process, in MiB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def snapshot(pid: int) -> "dict[int, float]":
    """CPU seconds of every process in the tree rooted at ``pid``."""
    return {member: cpu_seconds(member) for member in tree(pid)}
