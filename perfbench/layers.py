"""Per-layer timing for the traced run, installed from outside ``src/``.

:class:`LayerTracer` wraps the public functions of each measured layer
and records one span per call: ``(layer, window, start, end, thread,
work)``.  A function imported by name into several modules is replaced
at *every* module attribute that holds it, so ``k_smallest_in_rows``
is timed whether ``core.knearest``, ``core.large_bandwidth`` or
``serve.oracle`` calls it.  Methods are replaced on their class, which
covers every instance.  The wrappers are process-wide, so the service's
worker threads see them as long as :meth:`LayerTracer.install` runs
before the service is built.

Spans stay in memory; :meth:`LayerTracer.chrome_events` renders them
as Chrome trace events when the run ends.  Recording is switched by
:attr:`LayerTracer.window`: ``None`` (the benchmark's own reference
checks) records nothing, ``"solve"`` and ``"load"`` tag the span.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer name -> (module, function) for module-level functions.
FUNCTIONS: Dict[str, Tuple[str, str]] = {
    "core.knearest_call": ("repro.core.knearest", "knearest_iterated"),
    "semiring.gather": ("repro.semiring.kernels", "minplus_gather"),
    "semiring.minplus": ("repro.semiring.kernels", "minplus"),
    "semiring.select": ("repro.semiring.minplus", "k_smallest_in_rows"),
    "spanners.spanner": (
        "repro.spanners.baswana_sengupta", "baswana_sengupta_spanner",
    ),
    "core.hopset": ("repro.core.hopsets", "build_knearest_hopset"),
    "core.scaling": ("repro.core.weight_scaling", "build_scaled_graph"),
    "graphs.exact": ("repro.graphs.distances", "exact_apsp"),
    "serve.route": ("repro.serve.engine", "route_batch"),
}

#: layer name -> (module, class, method) for methods.
METHODS: Dict[str, Tuple[str, str, str]] = {
    "semiring.densify": ("repro.semiring.minplus", "RowSparse", "to_dense"),
    "serve.query": ("repro.serve.oracle", "DistanceOracle", "query_many"),
    "serve.knn": ("repro.serve.oracle", "DistanceOracle", "k_nearest"),
    "serve.build": ("repro.serve.oracle", "DistanceOracle", "build"),
    "serve.warm": ("repro.serve.service", "OracleService", "warm"),
}


def _gather_work(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> float:
    """Computed element-ops of one ``minplus_gather``: rows * k * cols."""
    weights = kwargs.get("weights", args[0] if args else None)
    dense = kwargs.get("dense", args[2] if len(args) > 2 else None)
    rows, k = weights.shape
    return float(rows * k * dense.shape[1])


class LayerTracer:
    """In-memory span recorder over the wrapped layer functions."""

    def __init__(self) -> None:
        self.window: Optional[str] = None
        self.spans: List[Tuple[str, str, float, float, int, float]] = []
        #: Submit time per in-flight request payload, keyed by ``id``.
        self._submitted: Dict[int, float] = {}
        #: Queue waits (seconds) per window: submit -> engine call start.
        self.queue_waits: Dict[str, List[float]] = defaultdict(list)

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #

    def install(self) -> int:
        """Wrap every target once; returns the number of attributes replaced."""
        replaced = 0
        for layer, (module_name, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._timed(layer, original)
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        replaced += 1
        for layer, (module_name, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[module_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._timed(layer, raw.__func__)))
            else:
                setattr(cls, attr, self._timed(layer, raw))
            replaced += 1
        replaced += self._install_queue_probe()
        return replaced

    def _timed(self, layer: str, func: Callable[..., Any]) -> Callable[..., Any]:
        work_fn = _gather_work if layer == "semiring.gather" else None
        spans = self.spans

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            window = self.window
            if window is None:
                return func(*args, **kwargs)
            work = work_fn(args, kwargs) if work_fn is not None else 0.0
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                spans.append((
                    layer, window, start, time.perf_counter(),
                    threading.get_ident(), work,
                ))

        return wrapper

    def _install_queue_probe(self) -> int:
        """Stamp each batched request at submit and at its engine call.

        ``MicroBatcher.submit`` stamps the payload; the service's
        per-flush ``_execute`` (the function every batcher is built
        around) pops the stamps of the payloads it was handed, so the
        wait is exact per request, whichever worker thread runs it.
        """
        from repro.serve.batching import MicroBatcher
        from repro.serve.service import OracleService

        submitted = self._submitted
        submit = MicroBatcher.submit
        execute = OracleService._execute

        @functools.wraps(submit)
        def stamped_submit(batcher: Any, payload: Any) -> Any:
            if self.window is not None:
                submitted[id(payload)] = time.perf_counter()
            return submit(batcher, payload)

        @functools.wraps(execute)
        def probed_execute(service: Any, endpoint: str, tenant: str,
                           handle: str, payloads: List[Any]) -> Any:
            window = self.window
            if window is not None:
                start = time.perf_counter()
                waits = self.queue_waits[window]
                for payload in payloads:
                    stamp = submitted.pop(id(payload), None)
                    if stamp is not None:
                        waits.append(start - stamp)
            return execute(service, endpoint, tenant, handle, payloads)

        MicroBatcher.submit = stamped_submit
        OracleService._execute = probed_execute
        return 2

    # ------------------------------------------------------------------ #
    # Aggregation and export
    # ------------------------------------------------------------------ #

    def totals(self, window: str) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "seconds", "work"}}`` over one window."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0.0, "seconds": 0.0, "work": 0.0}
        )
        for layer, span_window, start, end, _, work in self.spans:
            if span_window != window:
                continue
            entry = out[layer]
            entry["calls"] += 1
            entry["seconds"] += end - start
            entry["work"] += work
        return out

    def chrome_events(self, origin: float) -> List[Dict[str, Any]]:
        """Spans as Chrome trace-event ``X`` records (microseconds)."""
        return [
            {
                "name": layer,
                "cat": window,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": thread,
                "args": {"work": work} if work else {},
            }
            for layer, window, start, end, thread, work in self.spans
        ]
