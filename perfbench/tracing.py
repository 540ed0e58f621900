"""In-memory span tracer that wraps each layer's public entry points at run time.

Nothing under ``src/`` knows about it: :func:`traced` swaps the entry points
below for timing wrappers and restores the originals on exit.  Every call
records one span ``(id, parent, layer, start, end, request)``; the parent is
the innermost open span of the same thread, and ``request`` is the label the
benchmark set for the solve or service operation in flight, so the server
thread's session spans share the client request's label.  Spans stay in a
list until the benchmark writes them out at the end of the run.

A layer's *self* time is the duration of its spans minus the time covered by
their direct children; summed over layers, self times add up to the wall
time of the wrapped root span.  A call nested directly inside a span of its
own layer (``BlockedPlan.batch_block`` falling back to the reference kernel)
adds time but is not counted again as a call.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.algorithms.base import BaseScheduler
from repro.analysis import blocks
from repro.core import execution, scoring, storage
from repro.core.scoring import ScoringEngine
from repro.service.session import SchedulingSession

#: Span record fields, in order.
SPAN_FIELDS = ("id", "parent", "layer", "start", "end", "request")


def _block_bytes(args, result) -> Dict[str, float]:
    mu_rows, value_mu_rows = result
    return {"bytes": float(mu_rows.nbytes + value_mu_rows.nbytes)}


def _classes_per_user(args, result) -> Dict[str, float]:
    return {"classes_per_user": result.num_classes / max(result.num_users, 1)}


def _kernel_cells(rows: int, columns: int) -> Dict[str, float]:
    # Operands the arithmetic reads: the µ and value·µ blocks plus four
    # per-column vectors (competing, σ, scheduled, scheduled value), float64.
    return {"cells": float(rows * columns), "bytes": 8.0 * (2 * rows * columns + 4 * columns)}


def _direct_kernel_cells(args, result) -> Dict[str, float]:
    rows, columns = args[0].shape
    return _kernel_cells(rows, columns)


def _blocked_kernel_cells(args, result) -> Dict[str, float]:
    plan, _interval, mu_rows = args[0], args[1], args[2]
    return _kernel_cells(mu_rows.shape[0], plan.structure.num_classes)


def _grid_cells(args, result) -> Dict[str, float]:
    return {"cells": float(result.size)}


def _payload_size(buffer) -> int:
    with memoryview(buffer) as view:
        return view.nbytes


def _sent_bytes(args, result) -> Dict[str, float]:
    return {"bytes_sent": float(_payload_size(args[1]))}


def _received_bytes(args, result) -> Dict[str, float]:
    with result.getbuffer() as view:
        return {"bytes_recv": float(view.nbytes)}


#: (owner, attribute, layer, measure) of every wrapped entry point.  The
#: kernel and the miner are module functions looked up as globals of the
#: modules that call them, so they are swapped in those modules.
ENTRY_POINTS: Tuple[Tuple[object, str, str, Optional[Callable]], ...] = (
    (storage.StoreEventRows, "block", "storage", _block_bytes),
    (storage.DenseEventRows, "block", "storage", _block_bytes),
    (scoring, "mine_structure", "patterns", _classes_per_user),
    (blocks, "mine_structure", "patterns", _classes_per_user),
    (ScoringEngine, "interval_score_bound", "bound", None),
    (execution, "score_block_kernel", "kernel", _direct_kernel_cells),
    (blocks.BlockedPlan, "batch_block", "kernel", _blocked_kernel_cells),
    (ScoringEngine, "score_matrix", "grid", _grid_cells),
    (ScoringEngine, "interval_scores", "refresh", None),
    (BaseScheduler, "schedule", "select", None),
    (SchedulingSession, "apply", "session.apply", None),
    (SchedulingSession, "resolve", "session.resolve", None),
)

#: The client side of the wire: ``send``/``recv`` move every request through
#: these two methods.  Only calls from the tracing thread (the client) are
#: recorded — the server's connection threads use the same class.
WIRE_POINTS: Tuple[Tuple[object, str, str, Callable], ...] = (
    (mp_connection.Connection, "_send_bytes", "wire.send", _sent_bytes),
    (mp_connection.Connection, "_recv_bytes", "wire.recv", _received_bytes),
)


class Tracer:
    """Collects spans and per-span measures from the wrapped entry points."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.measures: Dict[int, Dict[str, float]] = {}
        self.request: Optional[str] = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, func: Callable, measure: Optional[Callable], thread=None):
        """``func`` recording one span per call (only on ``thread`` when given)."""
        tracer = self

        def wrapper(*args, **kwargs):
            if thread is not None and threading.current_thread() is not thread:
                return func(*args, **kwargs)
            stack = tracer._stack()
            span = [
                next(tracer._ids),
                stack[-1][0] if stack else None,
                layer,
                time.perf_counter(),
                0.0,
                tracer.request,
            ]
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = time.perf_counter()
                tracer.spans.append(span)
            if measure is not None:
                tracer.measures[span[0]] = measure(args, result)
            return result

        return wrapper


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install the tracer's wrappers for the duration of the block."""
    client_thread = threading.current_thread()
    swapped = []
    try:
        for owner, name, layer, measure in ENTRY_POINTS:
            original = getattr(owner, name)
            swapped.append((owner, name, original))
            setattr(owner, name, tracer.wrap(layer, original, measure))
        for owner, name, layer, measure in WIRE_POINTS:
            original = getattr(owner, name)
            swapped.append((owner, name, original))
            setattr(owner, name, tracer.wrap(layer, original, measure, client_thread))
        yield tracer
    finally:
        for owner, name, original in reversed(swapped):
            setattr(owner, name, original)


def layer_totals(tracer: Tracer, request_prefix: str) -> Dict[str, float]:
    """Per-layer self time, call count and summed measures of matching requests.

    Returns a flat mapping ``{"<layer>.s": self seconds, "<layer>.calls": n,
    "<layer>.total_s": inclusive seconds, "<layer>.<measure>": sum}`` over the
    spans whose request label starts with ``request_prefix``.
    """
    spans = [span for span in tracer.spans if (span[5] or "").startswith(request_prefix)]
    by_id = {span[0]: span for span in spans}
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[1] in by_id:
            child_time[span[1]] += span[4] - span[3]
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        layer, duration = span[2], span[4] - span[3]
        totals[f"{layer}.s"] += duration - child_time[span[0]]
        parent = by_id.get(span[1])
        if parent is not None and parent[2] == layer:
            continue
        totals[f"{layer}.total_s"] += duration
        totals[f"{layer}.calls"] += 1
        for key, value in tracer.measures.get(span[0], {}).items():
            totals[f"{layer}.{key}"] += value
    return dict(totals)


__all__ = ["SPAN_FIELDS", "Tracer", "layer_totals", "traced"]
