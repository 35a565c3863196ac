"""Workload preparation: fitted pipelines, seeded inputs, pre-encoded
request bodies and the expected result of every request.

Everything here runs before the timed window. The server only ever sees
the request bytes built here; the load generator only compares response
bytes against the expectations built here.

Pipelines are fitted with the library in ``src/`` of the same checkout
and cached in ``perfbench/.work/`` under a key that hashes every library
source file and this one, so a changed library is always refitted. The fit uses a fixed
seed: ``--seed`` picks the request data, not the model.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api import framing
from repro.api.protocol import report_from_dict
from repro.core import DQuaG, DQuaGConfig
from repro.data import ColumnKind, ColumnSpec, Table, TableSchema
from repro.datasets import TaxiGenerator
from repro.errors import MissingValueInjector, NumericAnomalyInjector

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"

#: numeric columns that receive injected anomalies in taxi requests
TAXI_ANOMALY_COLUMNS = ["fare_amount", "trip_distance", "tip_amount"]

#: rule set attached to the ``small_json`` pipeline: one range, one
#: not_null and one membership predicate
TAXI_RULES = {
    "name": "perfbench-taxi",
    "rules": [
        {"id": "distance-range", "severity": "error",
         "predicate": {"type": "range", "column": "trip_distance", "min": 0.0, "max": 60.0}},
        {"id": "fare-present", "severity": "warn",
         "predicate": {"type": "not_null", "column": "fare_amount"}},
        {"id": "payment-known", "severity": "error",
         "predicate": {"type": "in_set", "column": "payment_type", "values": ["Card", "Cash"]}},
    ],
}

#: wide categorical layout of the sharded stream workload
WIDE_NUMERIC = 6
WIDE_CATEGORICAL = 10
WIDE_CATEGORIES = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot")


@dataclass(frozen=True)
class PipelineSpec:
    """How one served pipeline is fitted (fixed, seed-independent)."""

    name: str
    train_rows: int
    hidden_dim: int
    epochs: int


PIPELINES = {
    # Figure-4 taxi-18 `gat_gin` pipeline at the paper's hidden size.
    "taxi": PipelineSpec("taxi", train_rows=2000, hidden_dim=64, epochs=5),
    # The wide categorical shape of the shared-memory data plane.
    "wide": PipelineSpec("wide", train_rows=2000, hidden_dim=32, epochs=4),
}


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str
    #: "validate", "repair" or "validate_stream"
    action: str
    #: "frame" or "json" request body
    wire: str
    rows: int
    #: distinct request bodies cycled through during the run
    distinct: int
    rules: bool = False
    monitor_window: int = 0
    shard_workers: int = 0
    #: rows per frame inside one stream body
    frame_rows: int = 0
    #: requests served before each launch's timed window
    warm_requests: int = 1
    #: requests per segment of the timed window (the last segment of a
    #: launch also takes the requests left over); 0 makes each launch's
    #: whole window one segment
    segment_requests: int = 0
    why: str = ""


WORKLOADS = {
    "bulk_frame": Workload(
        "bulk_frame", "taxi", "validate", "frame", rows=2048, distinct=4,
        warm_requests=2, segment_requests=10,
        why="2048-row frame /validate, closed loop, 1 connection: engine-bound, so engine work shows",
    ),
    "small_json": Workload(
        "small_json", "taxi", "validate", "json", rows=16, distinct=64,
        rules=True, monitor_window=32, warm_requests=32, segment_requests=128,
        why="16-row JSON /validate with rules and drift monitor, closed loop, 1 connection: per-request fixed costs",
    ),
    "repair_frame": Workload(
        "repair_frame", "taxi", "repair", "frame", rows=1024, distinct=4,
        warm_requests=8, segment_requests=10,
        why="1024-row frame /repair with missing categoricals, closed loop, 1 connection: both decoders and the snap loop",
    ),
    "stream_cat_sharded": Workload(
        "stream_cat_sharded", "wide", "validate_stream", "frame", rows=65536,
        distinct=1, shard_workers=2, frame_rows=4096,
        why="65536-row framed stream of a wide categorical table to 2 shard workers, closed loop, 1 connection",
    ),
}


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------
def wide_schema() -> TableSchema:
    specs = [
        ColumnSpec(f"n{i}", ColumnKind.NUMERIC, f"numeric signal {i}")
        for i in range(WIDE_NUMERIC)
    ]
    specs += [
        ColumnSpec(f"c{i}", ColumnKind.CATEGORICAL, f"band {i}", categories=WIDE_CATEGORIES)
        for i in range(WIDE_CATEGORICAL)
    ]
    return TableSchema(specs)


def make_wide(n: int, rng: np.random.Generator) -> Table:
    base = rng.uniform(0.0, 1.0, n)
    columns: dict = {}
    for i in range(WIDE_NUMERIC):
        columns[f"n{i}"] = (i + 1.0) * base + rng.normal(0, 0.01, n)
    edges = np.linspace(0.0, 1.0, len(WIDE_CATEGORIES) + 1)[1:-1]
    for i in range(WIDE_CATEGORICAL):
        shifted = np.clip(base + rng.normal(0, 0.02, n), 0.0, 1.0)
        columns[f"c{i}"] = np.array(WIDE_CATEGORIES, dtype=object)[np.digitize(shifted, edges)]
    return Table(wide_schema(), columns)


def clean_rows(pipeline: str, n: int, rng: np.random.Generator) -> Table:
    if pipeline == "taxi":
        return TaxiGenerator().generate_clean(n, rng=rng)
    return make_wide(n, rng)


def dirty_rows(workload: Workload, rng: np.random.Generator) -> Table:
    """One request's rows: clean rows plus seeded injected errors."""
    table = clean_rows(workload.pipeline, workload.rows, rng)
    if workload.pipeline == "wide":
        columns = ["n0", "n3"]
    else:
        columns = TAXI_ANOMALY_COLUMNS
    table, _ = NumericAnomalyInjector(columns, fraction=0.05).inject(table, rng=rng)
    if workload.action == "repair":
        table, _ = MissingValueInjector(["payment_type", "rate_code"], fraction=0.03).inject(
            table, rng=rng
        )
    return table


# ---------------------------------------------------------------------------
# fitted pipelines (cached per source tree)
# ---------------------------------------------------------------------------
def source_digest() -> str:
    """Hash of every library source file and of this file (which defines
    the training data): the pipeline cache key."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [Path(__file__).resolve()]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def pipeline_archive(name: str) -> Path:
    """Fit (or reuse this source tree's fit of) a pipeline; return its archive."""
    spec = PIPELINES[name]
    key = f"{spec.name}-{spec.train_rows}-{spec.hidden_dim}-{spec.epochs}-{source_digest()}"
    archive = WORK / f"pipeline-{key}.npz"
    if archive.exists():
        return archive
    WORK.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(1234)
    train = clean_rows(name, spec.train_rows, rng)
    config = DQuaGConfig(hidden_dim=spec.hidden_dim, epochs=spec.epochs, seed=0)
    edges = TaxiGenerator().knowledge_edges() if name == "taxi" else None
    pipeline = DQuaG(config).fit(train, rng=0, knowledge_edges=edges)
    partial = archive.with_suffix(f".{os.getpid()}.partial.npz")
    pipeline.save(partial)
    os.replace(partial, archive)
    return archive


def rules_file() -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / "rules-taxi.json"
    path.write_text(json.dumps(TAXI_RULES, sort_keys=True))
    return path


# ---------------------------------------------------------------------------
# request bodies and expectations
# ---------------------------------------------------------------------------
@dataclass
class Body:
    """One pre-encoded request and the check of its response body."""

    rows: int
    path: str
    content_type: str
    accept: str
    payload: bytes
    expected: dict = field(default_factory=dict)


def _flags_of(report) -> dict:
    return {
        "row_flags": np.asarray(report.row_flags, dtype=bool),
        "n_flagged": int(report.n_flagged),
        "is_problematic": bool(report.is_problematic),
    }


def _same_flags(got, expected: dict) -> bool:
    return (
        int(got.n_flagged) == expected["n_flagged"]
        and bool(got.is_problematic) == expected["is_problematic"]
        and np.array_equal(np.asarray(got.row_flags, dtype=bool), expected["row_flags"])
    )


def _same_table(got: Table, expected: Table) -> bool:
    if got.schema.names != expected.schema.names or got.n_rows != expected.n_rows:
        return False
    for spec in expected.schema:
        a, b = got.column(spec.name), expected.column(spec.name)
        if spec.is_numeric:
            if not np.array_equal(np.asarray(a, float), np.asarray(b, float), equal_nan=True):
                return False
        elif list(a) != list(b):
            return False
    return True


def build_bodies(workload: Workload, pipeline: DQuaG, seed: int) -> "list[Body]":
    """The workload's distinct request bodies with their expected results."""
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    ruleset = TAXI_RULES if workload.rules else None
    return [
        _body(workload, pipeline, dirty_rows(workload, rng), ruleset)
        for _ in range(workload.distinct)
    ]


def warmup_body(workload: Workload, pipeline: DQuaG, seed: int) -> Body:
    """A small request on the workload's endpoint: the readiness probe."""
    rng = np.random.default_rng([seed, 7])
    table = clean_rows(workload.pipeline, 16, rng)
    if workload.action == "validate_stream":
        return _stream_body(workload, pipeline, table, frame_rows=16)
    return _body(workload, pipeline, table, TAXI_RULES if workload.rules else None)


def _body(workload: Workload, pipeline: DQuaG, table: Table, ruleset) -> Body:
    name = workload.pipeline
    if workload.action == "validate_stream":
        return _stream_body(workload, pipeline, table, workload.frame_rows)
    if workload.action == "repair":
        repaired, summary = pipeline.repair(table)
        report = pipeline.validate(table)
        expected = _flags_of(report)
        expected.update(table=repaired, cells=int(summary.n_cells_repaired))
        payload = framing.encode_frame(table=table, extra={})
        return Body(table.n_rows, f"/v1/pipelines/{name}/repair",
                    framing.FRAME_CONTENT_TYPE, framing.FRAME_CONTENT_TYPE, payload, expected)
    report = pipeline.validate(table, rules=ruleset)
    expected = _flags_of(report)
    if workload.wire == "frame":
        payload = framing.encode_frame(table=table, extra={})
        return Body(table.n_rows, f"/v1/pipelines/{name}/validate",
                    framing.FRAME_CONTENT_TYPE, framing.FRAME_CONTENT_TYPE, payload, expected)
    if report.rule_report is not None:
        expected["rule_report"] = report.rule_report.to_dict()
    payload = json.dumps({"records": table.to_records()}).encode()
    return Body(table.n_rows, f"/v1/pipelines/{name}/validate",
                "application/json", "application/json", payload, expected)


def _stream_body(workload: Workload, pipeline: DQuaG, table: Table, frame_rows: int) -> Body:
    report = pipeline.validate(table)
    expected = _flags_of(report)
    expected["flagged_rows"] = np.flatnonzero(expected.pop("row_flags")).tolist()
    expected["n_rows"] = table.n_rows
    payload = b"".join(
        framing.encode_frame(table=table.slice_rows(start, start + frame_rows), extra={})
        for start in range(0, table.n_rows, frame_rows)
    )
    workers = workload.shard_workers
    return Body(table.n_rows, f"/v1/pipelines/{workload.pipeline}/validate_stream?workers={workers}",
                framing.FRAME_CONTENT_TYPE, "application/x-ndjson", payload, expected)


def check_response(workload: Workload, body: Body, raw: bytes) -> bool:
    """True when ``raw`` (a 200 response body) carries the expected result."""
    expected = body.expected
    if workload.action == "validate_stream":
        summary = json.loads(raw.rstrip(b"\n").rsplit(b"\n", 1)[-1])
        return (
            summary.get("n_rows") == expected["n_rows"]
            and summary.get("n_flagged") == expected["n_flagged"]
            and bool(summary.get("is_problematic")) == expected["is_problematic"]
            and summary["flagged_rows"]["data"] == expected["flagged_rows"]
        )
    if workload.action == "repair":
        frame = framing.decode_frame(raw)
        report = report_from_dict(frame.extra["report"])
        return (
            _same_flags(report, expected)
            and int(frame.extra["repair"]["n_cells_repaired"]) == expected["cells"]
            and _same_table(frame.table, expected["table"])
        )
    if workload.wire == "frame":
        return _same_flags(framing.report_from_frame(framing.decode_frame(raw)), expected)
    report = report_from_dict(json.loads(raw))
    if not _same_flags(report, expected):
        return False
    if "rule_report" in expected:
        return report.rule_report is not None and report.rule_report.to_dict() == expected["rule_report"]
    return True
