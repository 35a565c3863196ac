"""Span tracing of the served process, from outside the library.

:func:`install` patches the public functions of each layer (and every
module that bound one of them by name) with wrappers that record one
span per call: name, start, end, parent span and the request ids the
call served. Nothing in ``src/`` changes; the wrappers exist only in a
traced server process.

* Request ids come from the ``X-Request-Id`` header the load generator
  sends and travel in a context variable; thread-pool submissions copy
  the context, and the scheduler's fused slabs carry the ids of every
  request they hold.
* Kernel closures are wrapped where they are exported, so the server
  must call :func:`install` before it loads an archive.
* Spans stay in memory; :meth:`Tracer.dump` writes them at exit.

:func:`layers.compute` turns a dump into the per-layer metrics.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

_span = contextvars.ContextVar("perfbench_span", default=None)
_request_ids = contextvars.ContextVar("perfbench_request_ids", default=None)

ROUTE = "serve.route"


class Tracer:
    def __init__(self) -> None:
        #: (id, parent, name, start_ns, end_ns, request_ids, attrs, failed)
        self.spans: list = []
        self._ids = itertools.count(1)
        self.sites: "dict[str, list[str]]" = {}
        self.shm_stats: dict = {}

    def record(self, name, start, end, parent=None, request_ids=None, attrs=None, failed=False):
        self.spans.append(
            (next(self._ids), parent, name, start, end, request_ids, attrs, failed)
        )

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` with one span per call; ``attrs(args, result)`` adds fields."""
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = _span.get()
            token = _span.set(span_id)
            start = clock()
            result = failed = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                _span.reset(token)
                extra = attrs(args, result) if attrs is not None and not failed else None
                spans.append(
                    (span_id, parent, name, start, end, _request_ids.get(), extra, bool(failed))
                )

        return traced

    def dump(self, path: str, gateway=None) -> None:
        payload = {
            "spans": self.spans,
            "sites": self.sites,
            "shm_stats": self.shm_stats,
            "scheduler": None if gateway is None else gateway.scheduler.stats_snapshot().to_dict(),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------
def _patch_function(tracer: Tracer, module, attr: str, name: str, attrs=None) -> None:
    """Replace ``module.attr`` at every ``repro`` module that binds it."""
    original = getattr(module, attr)
    traced = tracer.wrap(name, original, attrs)
    sites = []
    for loaded in list(sys.modules.values()):
        if not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, traced)
                sites.append(f"{loaded.__name__}.{key}")
    tracer.sites.setdefault(name, []).extend(sites)


def _patch_method(tracer: Tracer, cls, attr: str, name: str, attrs=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(tracer.wrap(name, raw.__func__, attrs)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, attrs))
    tracer.sites.setdefault(name, []).append(f"{cls.__module__}.{cls.__qualname__}.{attr}")


def _patch_export(tracer: Tracer, cls, attr: str, name: str) -> None:
    """Wrap the kernel closures an export method returns."""
    export = cls.__dict__[attr]

    @functools.wraps(export)
    def traced_export(*args, **kwargs):
        return tracer.wrap(name, export(*args, **kwargs))

    setattr(cls, attr, traced_export)
    tracer.sites.setdefault(name, []).append(f"{cls.__module__}.{cls.__qualname__}.{attr}")


def _engine_call(args, result):
    return {"rows": int(args[1].shape[0]), "thread": threading.get_ident()}


def _frame_size(args, result):
    table = getattr(result, "table", None)
    return {"bytes": len(args[0]), "rows": 0 if table is None else int(table.n_rows)}


def _repaired_cells(args, result):
    return {"cells": int(result[1].n_cells_repaired)}


def _propagate_context() -> None:
    """Thread-pool work runs in a copy of the submitter's context (as
    ``asyncio.to_thread`` does), so request ids follow it."""
    submit = ThreadPoolExecutor.submit

    @functools.wraps(submit)
    def submit_in_context(self, fn, /, *args, **kwargs):
        return submit(self, contextvars.copy_context().run, fn, *args, **kwargs)

    ThreadPoolExecutor.submit = submit_in_context


def _patch_route(tracer: Tracer, gateway_cls) -> None:
    route = gateway_cls._route

    @functools.wraps(route)
    async def traced_route(self, request, body, writer):
        header = request.header("x-request-id")
        ids_token = _request_ids.set((int(header),) if header and header.isdigit() else None)
        span_id = next(tracer._ids)
        span_token = _span.set(span_id)
        start = time.perf_counter_ns()
        failed = True
        try:
            await route(self, request, body, writer)
            failed = False
        finally:
            tracer.spans.append(
                (span_id, None, ROUTE, start, time.perf_counter_ns(), _request_ids.get(), None, failed)
            )
            _span.reset(span_token)
            _request_ids.reset(ids_token)

    gateway_cls._route = traced_route
    tracer.sites.setdefault(ROUTE, []).append(f"{gateway_cls.__module__}.{gateway_cls.__qualname__}._route")


def _patch_scheduler(tracer: Tracer, scheduler_module) -> None:
    pending_init = scheduler_module._Pending.__init__
    run_batch = tracer.wrap(
        "serve.scheduler.slab",
        scheduler_module.RequestScheduler._run_batch,
        lambda args, result: {"size": len(args[2])},
    )

    @functools.wraps(pending_init)
    def traced_pending_init(self, table, future, enqueued_at):
        # Runs inside submit(), in the submitting request's context and
        # before the request is queued.
        pending_init(self, table, future, enqueued_at)
        future.perfbench_submitted = (_request_ids.get(), time.perf_counter_ns(), _span.get())

    @functools.wraps(scheduler_module.RequestScheduler._run_batch)
    def traced_run_batch(self, name, batch):
        start = time.perf_counter_ns()
        ids = []
        for pending in batch:
            request_ids, submitted, parent = getattr(
                pending.future, "perfbench_submitted", (None, start, None)
            )
            tracer.record("serve.scheduler.wait", submitted, start, parent, request_ids)
            ids.extend(request_ids or ())
        token = _request_ids.set(tuple(ids) or None)
        try:
            return run_batch(self, name, batch)
        finally:
            _request_ids.reset(token)

    scheduler_module._Pending.__init__ = traced_pending_init
    scheduler_module.RequestScheduler._run_batch = traced_run_batch
    where = scheduler_module.__name__
    tracer.sites["serve.scheduler.wait"] = [f"{where}._Pending.__init__"]
    tracer.sites["serve.scheduler.slab"] = [f"{where}.RequestScheduler._run_batch"]


def _patch_sharding(tracer: Tracer, parallel_cls) -> None:
    validate_stream = parallel_cls.validate_stream

    @functools.wraps(validate_stream)
    def keep_shm_stats(self, *args, **kwargs):
        try:
            return validate_stream(self, *args, **kwargs)
        finally:
            tracer.shm_stats = dict(self.shm_stats)

    parallel_cls.validate_stream = tracer.wrap("runtime.sharding.dispatch", keep_shm_stats)
    tracer.sites["runtime.sharding.dispatch"] = [
        f"{parallel_cls.__module__}.{parallel_cls.__qualname__}.validate_stream"
    ]


def install() -> Tracer:
    """Patch every traced layer; call before any archive is loaded."""
    import repro.api.framing as framing
    import repro.api.protocol as protocol
    import repro.core.validator as validator
    import repro.rules.report as rules_report
    import repro.runtime.streaming as streaming
    import repro.serve  # noqa: F401 - binds every serving module by name
    from repro.core.repair import RepairEngine
    from repro.data.plan import TransformPlan
    from repro.data.table import Table
    from repro.gnn.encoder import GNNEncoder
    from repro.gnn.gat import GATConv
    from repro.gnn.gin import GINConv
    from repro.monitor.monitor import DriftMonitor
    from repro.runtime.engine import InferenceEngine
    from repro.runtime.service import ValidationService
    from repro.runtime.sharding import ParallelValidator
    from repro.serve import scheduler
    from repro.serve.transport import AsyncGateway

    tracer = Tracer()
    _propagate_context()
    _patch_route(tracer, AsyncGateway)
    _patch_scheduler(tracer, scheduler)
    _patch_sharding(tracer, ParallelValidator)

    _patch_method(tracer, InferenceEngine, "reconstruction_errors", "runtime.engine.reconstruction", _engine_call)
    _patch_method(tracer, InferenceEngine, "repair_values", "runtime.engine.repair", _engine_call)
    _patch_export(tracer, GNNEncoder, "export_kernel", "gnn.encoder")
    _patch_export(tracer, GATConv, "export_kernel", "gnn.gat")
    _patch_export(tracer, GATConv, "export_folded_kernel", "gnn.gat")
    _patch_export(tracer, GINConv, "export_kernel", "gnn.gin")
    # The engine folds the embeddings into the decoder's first affine and
    # compiles its own closure, so the decoder is wrapped where the engine
    # builds it rather than at MLP.export_kernel.
    _patch_export(tracer, InferenceEngine, "_compile_decoder", "nn.decoder")
    _patch_method(tracer, TransformPlan, "transform_into", "data.plan.transform")
    _patch_method(tracer, RepairEngine, "repair", "core.repair", _repaired_cells)
    _patch_method(tracer, Table, "from_records", "data.table.from_records")
    _patch_method(tracer, ValidationService, "get", "runtime.service.get")
    _patch_method(tracer, ValidationService, "validate", "runtime.service.validate")
    for attr in ("observe_matrix", "observe_table", "observe_flags"):
        _patch_method(tracer, DriftMonitor, attr, "monitor.observe")

    _patch_function(tracer, validator, "assemble_report", "core.validator.assemble")
    _patch_function(tracer, framing, "decode_frame", "api.framing.decode", _frame_size)
    _patch_function(tracer, framing, "report_to_frame", "api.framing.encode")
    _patch_function(tracer, framing, "encode_frame", "api.framing.encode")
    _patch_function(tracer, protocol, "report_to_dict", "api.protocol.to_dict")
    _patch_function(tracer, protocol, "stream_summary_to_dict", "api.protocol.to_dict")
    _patch_function(tracer, rules_report, "apply_rules", "rules.apply")
    _patch_function(tracer, streaming, "fold_partials", "runtime.streaming.fold")
    return tracer
