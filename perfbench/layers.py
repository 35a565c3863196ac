"""Per-layer metrics of the traced run, computed from a span dump.

Each :class:`LayerMetric` names the span(s) it reads, the workloads on
which those spans must record calls (the coverage check), and the
end-to-end metric it should move, on which workload.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from tracing import ROUTE

ALL = ("bulk_frame", "small_json", "repair_frame", "stream_cat_sharded")
ENGINE = ("bulk_frame", "small_json", "repair_frame")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: span names whose calls the metric reads
    spans: tuple
    #: workloads on which those spans must record at least one call
    expected: tuple
    #: the end-to-end metric (and workload) the layer metric should move
    moves: str


LAYER_METRICS = [
    LayerMetric("runtime.engine.reconstruction_ms_per_krow", "ms/krow", "lower",
                ("runtime.engine.reconstruction",), ENGINE, "rows_per_s on bulk_frame"),
    LayerMetric("runtime.engine.repair_ms_per_krow", "ms/krow", "lower",
                ("runtime.engine.repair",), ("repair_frame",), "rows_per_s on repair_frame"),
    LayerMetric("runtime.engine.share", "ratio", "lower",
                ("runtime.engine.reconstruction",), ENGINE,
                "rows_per_s on bulk_frame; on repair_frame via the repair term"),
    LayerMetric("runtime.engine.threads", "count", "lower",
                ("runtime.engine.reconstruction",), ENGINE,
                "peak_rss_mb on repair_frame: each engine thread keeps its own workspace"),
    LayerMetric("serve.peak_rss_mb", "MiB", "lower", (), (),
                "setup_rss_mb: memory the serving tree adds under load (untraced half)"),
    LayerMetric("gnn.gat.ms_per_krow", "ms/krow", "lower", ("gnn.gat",), ENGINE,
                "rows_per_s on bulk_frame"),
    LayerMetric("gnn.gin.ms_per_krow", "ms/krow", "lower", ("gnn.gin",), ENGINE,
                "rows_per_s on bulk_frame"),
    LayerMetric("gnn.activation.ms_per_krow", "ms/krow", "lower", ("gnn.encoder",), ENGINE,
                "rows_per_s on bulk_frame"),
    LayerMetric("nn.decoder.ms_per_krow", "ms/krow", "lower", ("nn.decoder",), ENGINE,
                "rows_per_s on bulk_frame"),
    LayerMetric("data.plan.transform_ms_per_krow", "ms/krow", "lower",
                ("data.plan.transform",), ALL,
                "rows_per_s on stream_cat_sharded and repair_frame"),
    LayerMetric("core.validator.assemble_ms_per_krow", "ms/krow", "lower",
                ("core.validator.assemble",), ENGINE, "latency_p50_ms on bulk_frame"),
    LayerMetric("core.repair.self_ms_per_krow", "ms/krow", "lower",
                ("core.repair",), ("repair_frame",), "rows_per_s on repair_frame"),
    LayerMetric("core.repair.cells_per_req", "count/req", "higher",
                ("core.repair",), ("repair_frame",), "rows_per_s on repair_frame"),
    LayerMetric("api.framing.decode_ms_per_req", "ms/req", "lower",
                ("api.framing.decode",), ("bulk_frame", "repair_frame", "stream_cat_sharded"),
                "latency_p50_ms on bulk_frame and repair_frame"),
    LayerMetric("api.framing.encode_ms_per_req", "ms/req", "lower",
                ("api.framing.encode",), ("bulk_frame", "repair_frame"),
                "latency_p50_ms on bulk_frame and repair_frame"),
    LayerMetric("api.framing.bytes_per_row", "bytes/row", "lower",
                ("api.framing.decode",), ("bulk_frame", "repair_frame", "stream_cat_sharded"),
                "latency_p50_ms on bulk_frame and repair_frame"),
    LayerMetric("data.table.from_records_ms_per_req", "ms/req", "lower",
                ("data.table.from_records",), ("small_json",), "latency_p50_ms on small_json"),
    LayerMetric("api.protocol.to_dict_ms_per_req", "ms/req", "lower",
                ("api.protocol.to_dict",), ("small_json", "repair_frame", "stream_cat_sharded"),
                "latency_p50_ms on small_json"),
    LayerMetric("serve.scheduler.wait_ms", "ms", "lower",
                ("serve.scheduler.wait",), ("bulk_frame", "small_json"), "latency_p50_ms on small_json"),
    LayerMetric("serve.scheduler.batch_size_mean", "req/batch", "higher",
                ("serve.scheduler.slab",), ("bulk_frame", "small_json"),
                "latency_p50_ms on small_json (1 while every workload uses one connection)"),
    LayerMetric("serve.scheduler.rejected", "count", "lower",
                ("serve.scheduler.slab",), ("bulk_frame", "small_json"), "latency_p50_ms on small_json"),
    LayerMetric("runtime.service.get_calls_per_req", "count/req", "lower",
                ("runtime.service.get",), ALL, "latency_p50_ms on small_json"),
    LayerMetric("runtime.service.validate_self_ms_per_req", "ms/req", "lower",
                ("runtime.service.validate",), ("bulk_frame", "repair_frame"),
                "latency_p50_ms on small_json"),
    LayerMetric("rules.apply_ms_per_req", "ms/req", "lower",
                ("rules.apply",), ("small_json",), "latency_p50_ms on small_json"),
    LayerMetric("monitor.observe_ms_per_req", "ms/req", "lower",
                ("monitor.observe",), ("small_json",), "latency_p50_ms on small_json"),
    LayerMetric("serve.transport.residual_ms", "ms", "lower",
                (ROUTE,), ALL, "latency_p50_ms on small_json"),
    LayerMetric("runtime.sharding.parent_busy_share", "ratio", "lower",
                ("runtime.sharding.dispatch",), ("stream_cat_sharded",),
                "rows_per_s on stream_cat_sharded"),
    LayerMetric("runtime.sharding.worker_cpu_share", "ratio", "higher",
                ("runtime.sharding.dispatch",), ("stream_cat_sharded",),
                "rows_per_s on stream_cat_sharded"),
    LayerMetric("runtime.shm.shm_shard_ratio", "ratio", "higher",
                ("runtime.sharding.dispatch",), ("stream_cat_sharded",),
                "rows_per_s on stream_cat_sharded"),
    LayerMetric("runtime.streaming.fold_ms_per_stream", "ms/stream", "lower",
                ("runtime.streaming.fold",), ("stream_cat_sharded",),
                "latency_p50_ms on stream_cat_sharded"),
    LayerMetric("trace.rows_per_s_ratio", "ratio", "higher", (), (),
                "tracing overhead: traced over untraced rows_per_s on the same workload"),
]


def _union_ns(intervals, low=None, high=None) -> int:
    """Total length covered by ``intervals``, clipped to [low, high]."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if low is not None:
            start = max(start, low)
        if high is not None:
            end = min(end, high)
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def span_table(spans: list, window_ids: set) -> "dict[str, dict]":
    """Per span name: calls, failures, busy and self time (ms), summed attrs.

    Only spans serving a request of the timed window count. ``busy`` sums
    the outermost span of each same-name nesting; ``self`` subtracts the
    time child spans cover.
    """
    kept = [s for s in spans if s[5] and not window_ids.isdisjoint(s[5])]
    by_id = {s[0]: s for s in kept}
    children = defaultdict(list)
    for s in kept:
        if s[1] is not None:
            children[s[1]].append((s[3], s[4]))
    table: "dict[str, dict]" = defaultdict(
        lambda: {"calls": 0, "failed": 0, "busy_ms": 0.0, "self_ms": 0.0,
                 "attrs": defaultdict(float), "threads": set()}
    )
    for span_id, parent, name, start, end, _, attrs, failed in kept:
        entry = table[name]
        entry["calls"] += 1
        entry["failed"] += int(bool(failed))
        parent_span = by_id.get(parent)
        if parent_span is None or parent_span[2] != name:
            entry["busy_ms"] += (end - start) / 1e6
        entry["self_ms"] += (end - start - _union_ns(children.get(span_id, ()), start, end)) / 1e6
        for key, value in (attrs or {}).items():
            if key == "thread":
                entry["threads"].add(value)
            else:
                entry["attrs"][key] += value
    return dict(table)


def residual_ms(spans: list, latencies: "dict[int, float]") -> float:
    """Mean client latency not covered by any timed server span."""
    covered = defaultdict(list)
    for s in spans:
        if s[2] == ROUTE or not s[5]:
            continue
        for request_id in s[5]:
            if request_id in latencies:
                covered[request_id].append((s[3], s[4]))
    residuals = [
        latency - _union_ns(covered.get(request_id, ())) / 1e6
        for request_id, latency in latencies.items()
    ]
    return sum(residuals) / len(residuals)


def compute(dump: dict, latencies: "dict[int, float]", rows: int, proc: dict, overhead: float):
    """All per-layer metric values plus the span table they came from."""
    table = span_table(dump["spans"], set(latencies))
    n = max(len(latencies), 1)
    krows = max(rows, 1) / 1000.0
    empty = {"calls": 0, "failed": 0, "busy_ms": 0.0, "self_ms": 0.0, "attrs": {}, "threads": set()}

    def span(name: str) -> dict:
        return table.get(name, empty)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    recon, repair = span("runtime.engine.reconstruction"), span("runtime.engine.repair")
    decode = span("api.framing.decode")
    slab = span("serve.scheduler.slab")
    shm = dump.get("shm_stats") or {}
    shm_shards = shm.get("shm_tables", 0) + shm.get("shm_stream_shards", 0)
    sharded = span("runtime.sharding.dispatch")["calls"] > 0
    values = {
        "runtime.engine.reconstruction_ms_per_krow": recon["busy_ms"] / krows,
        "runtime.engine.repair_ms_per_krow": repair["busy_ms"] / krows,
        "runtime.engine.share": ratio(recon["busy_ms"] + repair["busy_ms"], span(ROUTE)["busy_ms"]),
        "runtime.engine.threads": float(len(recon["threads"] | repair["threads"])),
        "serve.peak_rss_mb": proc["peak_rss_mib"],
        "gnn.gat.ms_per_krow": span("gnn.gat")["busy_ms"] / krows,
        "gnn.gin.ms_per_krow": span("gnn.gin")["busy_ms"] / krows,
        "gnn.activation.ms_per_krow": span("gnn.encoder")["self_ms"] / krows,
        "nn.decoder.ms_per_krow": span("nn.decoder")["busy_ms"] / krows,
        "data.plan.transform_ms_per_krow": span("data.plan.transform")["busy_ms"] / krows,
        "core.validator.assemble_ms_per_krow": span("core.validator.assemble")["busy_ms"] / krows,
        "core.repair.self_ms_per_krow": span("core.repair")["self_ms"] / krows,
        "core.repair.cells_per_req": span("core.repair")["attrs"].get("cells", 0.0) / n,
        "api.framing.decode_ms_per_req": decode["busy_ms"] / n,
        "api.framing.encode_ms_per_req": span("api.framing.encode")["busy_ms"] / n,
        "api.framing.bytes_per_row": ratio(decode["attrs"].get("bytes", 0.0), decode["attrs"].get("rows", 0.0)),
        "data.table.from_records_ms_per_req": span("data.table.from_records")["busy_ms"] / n,
        "api.protocol.to_dict_ms_per_req": span("api.protocol.to_dict")["busy_ms"] / n,
        "serve.scheduler.wait_ms": ratio(span("serve.scheduler.wait")["busy_ms"],
                                         span("serve.scheduler.wait")["calls"]),
        "serve.scheduler.batch_size_mean": ratio(slab["attrs"].get("size", 0.0), slab["calls"]),
        "serve.scheduler.rejected": float((dump.get("scheduler") or {}).get("rejected", 0)),
        "runtime.service.get_calls_per_req": span("runtime.service.get")["calls"] / n,
        "runtime.service.validate_self_ms_per_req": span("runtime.service.validate")["self_ms"] / n,
        "rules.apply_ms_per_req": span("rules.apply")["busy_ms"] / n,
        "monitor.observe_ms_per_req": span("monitor.observe")["busy_ms"] / n,
        "serve.transport.residual_ms": residual_ms(dump["spans"], latencies),
        "runtime.sharding.parent_busy_share": proc["parent_busy_share"] if sharded else 0.0,
        "runtime.sharding.worker_cpu_share": proc["worker_cpu_share"] if sharded else 0.0,
        "runtime.shm.shm_shard_ratio": ratio(shm_shards, shm_shards + shm.get("fallbacks", 0)),
        "runtime.streaming.fold_ms_per_stream": span("runtime.streaming.fold")["busy_ms"] / n,
        "trace.rows_per_s_ratio": overhead,
    }
    return values, table


def coverage_failures(workload: str, table: dict) -> "list[str]":
    """Expected per-layer metrics whose spans recorded no call."""
    failures = []
    for metric in LAYER_METRICS:
        if workload not in metric.expected:
            continue
        for name in metric.spans:
            if name not in table or table[name]["calls"] == 0:
                failures.append(f"{metric.name}: no call to {name} on {workload}")
    return failures
