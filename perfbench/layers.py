"""Per-layer self time, measured from outside the program.

Every layer is timed by wrapping the public call the service makes into
that layer's module; nothing inside ``src/`` is modified.  A span's
*self time* is its wall duration minus the part its nested spans cover,
so the self times of all layers plus the ``service`` remainder add up
exactly to the wall time of the root calls (submissions, completes,
alert ticks and metric scrapes) the benchmark makes.

Wrappers go on instances wherever the class allows it.  The chunk and
scalar kernels declare ``__slots__``, so they cannot take an instance
attribute; they are timed through :class:`KernelProxy`, assigned to
``service.kernel``.  ``HistogramTree.fit`` runs on trees built inside
``GBTClassifier.fit``, so it is the one class-level patch, undone on
exit like every other.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Layers with a span, in report order.  ``service`` is the root span of
#: a submission; ``complete``, ``alerts`` and ``metrics`` are root spans
#: of the other calls the client makes.
LAYERS = (
    "service", "features", "binner", "forest", "policy.decide",
    "policy.observe", "kernel", "log", "wal", "alerts", "metrics",
    "tracing", "router", "transport", "complete", "gbdt.fit", "tree.fit",
)

#: Layers timed while the model trains, not while it serves.
FIT_LAYERS = ("gbdt.fit", "tree.fit")

_KERNEL_METHODS = ("open_chunk", "run_chunk", "release_until", "admit", "cancel")


class LayerClock:
    """Call counts and self time per layer, from nested wrappers."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.transport_roundtrips = 0
        self.transport_bytes = 0
        self._stack: list[float] = []

    def wrap(self, layer: str, fn):
        """``fn`` timed as one span of ``layer``."""
        calls, busy, stack = self.calls, self.busy, self._stack

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                busy[layer] += dt - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += dt

        return timed

    def root_seconds(self) -> float:
        """Summed self time of the serving layers: the root calls' wall time."""
        return sum(self.busy[n] for n in LAYERS if n not in FIT_LAYERS)


class KernelProxy:
    """Delegating stand-in for a kernel whose class forbids new attributes.

    The service reads the kernel's state (``free``, counters) through
    plain attribute access, which :meth:`__getattr__` forwards; only the
    admission calls are replaced by timed wrappers.
    """

    def __init__(self, inner, clock: LayerClock, layer: str):
        self._inner = inner
        for name in _KERNEL_METHODS:
            method = getattr(inner, name, None)
            if method is not None:
                setattr(self, name, clock.wrap(layer, method))

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _array_bytes(d) -> int:
    return sum(v.nbytes for v in d.values() if isinstance(v, np.ndarray))


class Instrumented:
    """Context manager that wraps one service's layers and undoes it.

    Models and forests are shared by every service a pipeline builds,
    so each wrapper is removed on exit to keep the next pass from
    timing a wrapper inside a wrapper.
    """

    def __init__(self, clock: LayerClock, service=None, model=None):
        self.clock = clock
        self.service = service
        self.model = model
        self._undo: list = []

    def _wrap(self, obj, name: str, layer: str) -> None:
        if obj is None or not hasattr(obj, name):
            return
        if isinstance(obj, type):
            original = obj.__dict__[name]
            if isinstance(original, classmethod):
                patched = classmethod(self.clock.wrap(layer, original.__func__))
            else:
                patched = self.clock.wrap(layer, original)
            setattr(obj, name, patched)
            self._undo.append(lambda: setattr(obj, name, original))
        else:
            setattr(obj, name, self.clock.wrap(layer, getattr(obj, name)))
            self._undo.append(lambda: delattr(obj, name))

    def _wrap_transport(self, pool) -> None:
        clock = self.clock
        scatter, request = pool.scatter, pool.request

        # Bytes are summed from the op and reply arrays' nbytes, never by
        # re-pickling the messages: pickling here would cost as much as
        # the transport it measures.
        def counted_scatter(ops):
            replies = scatter(ops)
            clock.transport_roundtrips += len(ops)
            clock.transport_bytes += sum(_array_bytes(op) for op in ops.values())
            clock.transport_bytes += sum(_array_bytes(r) for r in replies.values())
            return replies

        def counted_request(w, op):
            reply = request(w, op)
            clock.transport_roundtrips += 1
            clock.transport_bytes += _array_bytes(op) + _array_bytes(reply)
            return reply

        pool.scatter = clock.wrap("transport", counted_scatter)
        pool.request = clock.wrap("transport", counted_request)
        self._undo.append(lambda: (delattr(pool, "scatter"), delattr(pool, "request")))

    def __enter__(self) -> "Instrumented":
        svc = self.service
        if self.model is not None:
            from repro.ml.tree import HistogramTree

            self._wrap(self.model, "fit", "gbdt.fit")
            self._wrap(HistogramTree, "fit", "tree.fit")
        if svc is None:
            return self
        self._wrap(svc.log, "append_block", "log")
        self._wrap(svc.log, "append_job", "log")
        self._wrap(svc.wal, "append", "wal")
        self._wrap(svc.tracer, "add", "tracing")
        self._wrap(svc.tracer, "event", "tracing")
        for name in ("decide_batch", "decide_one"):
            self._wrap(svc.policy, name, "policy.decide")
        for name in ("observe_batch", "observe_one"):
            self._wrap(svc.policy, name, "policy.observe")
        cat = svc.categorizer
        if cat is not None:
            self._wrap(cat.extractor, "push", "features")
            self._wrap(cat.extractor, "push_block", "features")
            self._wrap(cat.gbt.binner_, "transform", "binner")
            self._wrap(cat.gbt.binner_, "transform_one", "binner")
            self._wrap(cat.gbt.packed_, "decision_scores", "forest")
            self._wrap(cat.gbt.packed_, "decision_scores_one", "forest")
        pool = getattr(svc, "pool", None)
        layer = "kernel" if pool is None else "router"
        inner = svc.kernel
        svc.kernel = KernelProxy(inner, self.clock, layer)
        self._undo.append(lambda: setattr(svc, "kernel", inner))
        if pool is not None:
            self._wrap_transport(pool)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()
