"""The repository benchmark: the validation server under four served-path
workloads, measured from outside.

Usage::

    python3 perfbench/run.py --workload bulk_frame --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --describe      # rewrite perfbench/meta.json

One run prepares the workload (fitted pipeline, seeded request bodies
and their expected results, all computed in this process), starts the
server (``perfbench/server.py``) in its own process, drives it from this
process over raw keep-alive sockets, checks every response against the
in-process result, and prints one JSON object as the last line of
stdout.

* ``--trace 0``: the server starts ``LAUNCHES`` times. Each launch is
  timed from process start to the first correct answer to a small
  warm-up request (``setup_s``), serves the workload's warm-up requests,
  and is then measured for an equal share of ``--seconds``. The timed
  window is cut into segments of the workload's ``segment_requests``
  requests. Prints the end-to-end metrics: throughput, latency
  percentiles and CPU per row of each segment, each as the median over
  the segments of all launches (a host stall then moves a few segments,
  not the figure), and the set-up figures as medians over the launches.
* ``--trace 1``: half the window runs against an untraced server, half
  against a traced one (``perfbench/tracing.py``); prints the span
  table, the per-layer metrics of ``perfbench/layers.py`` and the
  tracing overhead, and fails when a layer expected on the workload
  recorded no call.

Any wrong or failed response makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import procstat  # noqa: E402
import workloads  # noqa: E402
from loadgen import LoadGenerator  # noqa: E402

#: server launches per untraced run
LAUNCHES = 3
#: how long a server may take to print its port or answer its warm-up
START_TIMEOUT = 120.0

END_TO_END = [
    ("rows_per_s", "rows/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("setup_rss_mb", "MiB"),
    ("server_cpu_ms_per_krow", "ms/krow"),
]


@dataclass
class Prepared:
    """Everything a run builds before the first server starts."""

    workload: workloads.Workload
    archive: Path
    rules: "Path | None"
    bodies: list
    warm: workloads.Body


def prepare(workload: workloads.Workload, seed: int) -> Prepared:
    archive = workloads.pipeline_archive(workload.pipeline)
    pipeline = workloads.DQuaG().load_weights(archive)
    return Prepared(
        workload,
        archive,
        workloads.rules_file() if workload.rules else None,
        workloads.build_bodies(workload, pipeline, seed),
        workloads.warmup_body(workload, pipeline, seed),
    )


# ---------------------------------------------------------------------------
# the served process
# ---------------------------------------------------------------------------
class Server:
    """One ``perfbench/server.py`` process serving a workload's pipeline."""

    def __init__(self, prepared: Prepared, trace_out: "Path | None" = None) -> None:
        workload = prepared.workload
        command = [
            sys.executable, str(HERE / "server.py"),
            "--archive", str(prepared.archive),
            "--name", workload.pipeline,
            "--monitor-window", str(workload.monitor_window),
            "--shard-workers", str(workload.shard_workers),
        ]
        if prepared.rules is not None:
            command += ["--rules", str(prepared.rules)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        tmp = workloads.WORK / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.log = open(workloads.WORK / "server.log", "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log,
            env=dict(os.environ, TMPDIR=str(tmp)), cwd=str(ROOT),
        )
        self.pid = self.proc.pid
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        line = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while not line.endswith(b"\n"):
                if not selector.select(timeout=max(0.0, deadline - time.monotonic())):
                    raise RuntimeError("server did not report its port in time")
                piece = os.read(self.proc.stdout.fileno(), 256)
                if not piece:
                    raise RuntimeError(f"server exited early (code {self.proc.poll()}); see server.log")
                line += piece
        return int(line.split()[1])

    def stop(self) -> None:
        """SIGTERM the server and wait until its whole process tree is gone."""
        members = procstat.tree(self.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.monotonic() + 10.0
        while alive := [pid for pid in members if procstat.alive(pid)]:
            if time.monotonic() > deadline:
                for pid in alive:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
            time.sleep(0.02)
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()

    def wait_ready(self, prepared: Prepared) -> float:
        """Seconds from launch to the first correct warm-up response;
        also records the tree's memory at that point in ``ready_rss_mib``."""
        generator = LoadGenerator(self.port, [prepared.warm])
        try:
            samples, errors, _, _ = generator.run(START_TIMEOUT, max_requests=1)
        finally:
            generator.close()
        if errors or not samples or samples[0].status != 200:
            raise RuntimeError(f"warm-up request failed: {errors or samples[0].status}")
        if not workloads.check_response(prepared.workload, prepared.warm, samples[0].response):
            raise RuntimeError("warm-up response does not match the in-process result")
        self.ready_rss_mib = sum(procstat.peak_rss_mib(pid) for pid in procstat.tree(self.pid))
        return samples[0].end - self.started


# ---------------------------------------------------------------------------
# one timed window
# ---------------------------------------------------------------------------
@dataclass
class Segment:
    """Consecutive requests of a window: its wall time, the rows and
    latencies of its correct responses and the server tree's CPU time."""

    wall_s: float
    rows: int
    latencies: "list[float]"
    cpu_s: float


class Window:
    """Requests of one timed window and what the server tree spent on them."""

    def __init__(self, server: Server, prepared: Prepared, seconds: float) -> None:
        workload, bodies = prepared.workload, prepared.bodies
        generator = LoadGenerator(server.port, bodies)
        marks: list = []

        def mark(done: int) -> None:
            marks.append((done, time.perf_counter(), procstat.task_runtimes(server.pid)))

        try:
            # Warm-up requests first: caches fill, lazily sized buffers and
            # the gateway's thread pool settle before the clock starts.
            warm, warm_errors, _, _ = generator.run(START_TIMEOUT, max_requests=workload.warm_requests)
            before = procstat.snapshot(server.pid)
            samples, errors, self.start, self.end = generator.run(
                seconds, mark_every=workload.segment_requests, on_mark=mark
            )
            after = procstat.snapshot(server.pid)
        finally:
            generator.close()
        self.peak_rss_mib = sum(procstat.peak_rss_mib(pid) for pid in after)
        self.parent_cpu_s = after.get(server.pid, 0.0) - before.get(server.pid, 0.0)
        workers = [pid for pid in after if "spawn_main" in procstat.cmdline(pid)]
        self.worker_cpu_s = sum(after[pid] - before.get(pid, 0.0) for pid in workers)
        self.n_workers = len(workers)
        self.errors = warm_errors + errors
        self.attempted = len(warm) + len(samples) + len(self.errors)

        verdicts: dict = {}

        def correct(sample) -> bool:
            if sample.status != 200:
                return False
            key = (sample.body_index, sample.response)
            if key not in verdicts:
                verdicts[key] = workloads.check_response(
                    workload, bodies[sample.body_index], sample.response
                )
            return verdicts[key]

        self.failed = len(self.errors) + sum(not correct(sample) for sample in warm)
        self.latencies: "dict[int, float]" = {}
        self.rows = 0
        for sample in samples:
            if correct(sample):
                self.rows += bodies[sample.body_index].rows
                self.latencies[sample.request_id] = sample.latency_ms
            else:
                self.failed += 1

        # Segments run from mark to mark: ``segment_requests`` requests
        # each, the last one also taking the requests left over, or the
        # whole window when the workload has no segment size.
        if len(marks) > 2 and marks[-1][0] - marks[-2][0] < workload.segment_requests:
            del marks[-2]
        self.segments: "list[Segment]" = []
        for (_, t0, cpu0), (_, t1, cpu1) in zip(marks, marks[1:]):
            inside = [s for s in samples if t0 <= s.start < t1 and s.request_id in self.latencies]
            self.segments.append(Segment(
                t1 - t0,
                sum(bodies[s.body_index].rows for s in inside),
                [s.latency_ms for s in inside],
                sum(cpu1[task] - cpu0.get(task, 0.0) for task in cpu1),
            ))

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def rows_per_s(self) -> float:
        return self.rows / self.wall_s if self.wall_s > 0 else 0.0


def serve_window(prepared: Prepared, seconds: float, trace_out: "Path | None" = None):
    """Launch a server, time its set-up, measure one window, stop it.

    Returns ``(setup_s, rss_at_ready_mib, window)``.
    """
    server = Server(prepared, trace_out)
    try:
        setup = server.wait_ready(prepared)
        return setup, server.ready_rss_mib, Window(server, prepared, seconds)
    finally:
        server.stop()


def percentile(values: "list[float]", q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------
def run_untraced(prepared: Prepared, seconds: float):
    launches = [serve_window(prepared, seconds / LAUNCHES) for _ in range(LAUNCHES)]
    setups = [setup for setup, _, _ in launches]
    ready_rss = [rss for _, rss, _ in launches]
    windows = [window for _, _, window in launches]
    latencies = [latency for window in windows for latency in window.latencies.values()]
    n = len(latencies)
    attempted = sum(window.attempted for window in windows)
    failed = sum(window.failed for window in windows)
    segments = [segment for window in windows for segment in window.segments if segment.rows]
    if not segments:
        print(f"{prepared.workload.name}: no complete segment was measured")
        return False, max(attempted, 1), failed, {}
    rates = [segment.rows / segment.wall_s for segment in segments]
    p50s = [percentile(segment.latencies, 50) for segment in segments]
    p90s = [percentile(segment.latencies, 90) for segment in segments]
    cpu = [segment.cpu_s * 1e6 / segment.rows for segment in segments]
    peak_rss = [window.peak_rss_mib for window in windows]
    window_rates = [window.rows_per_s for window in windows]
    size = prepared.workload.segment_requests
    per = f"{size}+ requests" if size else "a launch's window"
    of_segments = f"median over {len(segments)} segments of {per}"

    def listed(values, fmt="{:.1f}") -> str:
        return ", ".join(fmt.format(value) for value in values)

    metrics = {
        "rows_per_s": (statistics.median(rates),
                       f"{n} requests, {sum(w.rows for w in windows)} rows; {of_segments}; "
                       f"whole windows {listed(window_rates)}"),
        "latency_p50_ms": (statistics.median(p50s),
                           f"p50 of each segment, {of_segments}; p50 of all {n} requests "
                           f"{percentile(latencies, 50):.2f}"),
        "latency_p90_ms": (statistics.median(p90s),
                           f"p90 of each segment, {of_segments}; p90 of all {n} requests "
                           f"{percentile(latencies, 90):.2f}"),
        "setup_s": (statistics.median(setups), f"median of {listed(setups, '{:.3f}')}"),
        "setup_rss_mb": (statistics.median(ready_rss),
                         f"VmHWM summed over the serving tree at ready; median of {listed(ready_rss)}"),
        "server_cpu_ms_per_krow": (statistics.median(cpu), of_segments),
    }
    print(f"{prepared.workload.name}: attempted {attempted}, failed {failed}, "
          f"error_rate {failed / max(attempted, 1):.4f}")
    for name, unit in END_TO_END:
        value, detail = metrics[name]
        print(f"  {name:<24} {value:>14.4f} {unit:<8} ({detail})")
    # Not a bounded metric: the peak under load grows by one engine
    # workspace for every gateway thread that happens to run the engine,
    # which the thread pool decides, not the code under test.
    print(f"  peak RSS under load (MiB, per launch, unbounded): {listed(peak_rss)}")
    for window in windows:
        for error in window.errors[:5]:
            print(f"  error: {error}")
    result = {name: {"value": metrics[name][0], "unit": unit} for name, unit in END_TO_END}
    return failed == 0, attempted, failed, result


def run_traced(prepared: Prepared, seconds: float):
    name = prepared.workload.name
    _, _, plain = serve_window(prepared, seconds / 2)
    dump_path = workloads.WORK / f"spans-{name}.json"
    dump_path.unlink(missing_ok=True)
    _, _, traced = serve_window(prepared, seconds / 2, trace_out=dump_path)
    with open(dump_path) as handle:
        dump = json.load(handle)
    proc = {
        "peak_rss_mib": plain.peak_rss_mib,
        "parent_busy_share": traced.parent_cpu_s / traced.wall_s,
        "worker_cpu_share": (
            traced.worker_cpu_s / (traced.wall_s * traced.n_workers) if traced.n_workers else 0.0
        ),
    }
    overhead = traced.rows_per_s / plain.rows_per_s if plain.rows_per_s else 0.0
    values, table = layers.compute(dump, traced.latencies, traced.rows, proc, overhead)
    missing = layers.coverage_failures(name, table)

    print(f"{name} traced: {len(traced.latencies)} requests; untraced "
          f"{plain.rows_per_s:.1f} rows/s, traced {traced.rows_per_s:.1f} rows/s "
          f"(ratio {overhead:.4f})")
    print(f"  {'span':<32} {'calls':>8} {'busy_ms':>12} {'self_ms':>12} {'failed':>7}")
    for span_name, entry in sorted(table.items()):
        print(f"  {span_name:<32} {entry['calls']:>8} {entry['busy_ms']:>12.2f} "
              f"{entry['self_ms']:>12.2f} {entry['failed']:>7}")
    for metric in layers.LAYER_METRICS:
        print(f"  {metric.name:<44} {values[metric.name]:>12.4f} {metric.unit}")
    for problem in missing:
        print(f"  coverage: {problem}")
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    result = {
        metric.name: {"value": values[metric.name], "unit": metric.unit}
        for metric in layers.LAYER_METRICS
    }
    correct = failed == 0 and not missing and bool(traced.latencies) and bool(plain.latencies)
    return correct, attempted, failed, result


# ---------------------------------------------------------------------------
# self-description
# ---------------------------------------------------------------------------
def host_fingerprint() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            sha = target.read_text().strip() if target.exists() else ref[5:]
        else:
            sha = ref
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


def describe() -> dict:
    return {
        "workloads": {
            w.name: {
                "why": w.why,
                "loop": "closed: the next request is sent when the reply is in",
                "connections": 1,
                "warm_requests_per_launch": w.warm_requests,
                "segment_requests": w.segment_requests,
                "rows_per_request": w.rows,
                "endpoint": w.action,
                "wire": w.wire,
            }
            for w in workloads.WORKLOADS.values()
        },
        "per_layer": {
            m.name: {"unit": m.unit, "moves": m.moves, "expected_on": list(m.expected)}
            for m in layers.LAYER_METRICS
        },
        "host": host_fingerprint(),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="rewrite perfbench/meta.json (workloads, layer targets, host)")
    args = parser.parse_args(argv)

    if args.describe:
        (HERE / "meta.json").write_text(json.dumps(describe(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print(f"host: {json.dumps(host_fingerprint(), sort_keys=True)}", file=sys.stderr)
    prepared = prepare(workloads.WORKLOADS[args.workload], args.seed)
    runner = run_traced if args.trace else run_untraced
    correct, attempted, failed, metrics = runner(prepared, args.seconds)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
