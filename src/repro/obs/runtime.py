"""Global observability state and the zero-cost-when-off entry points.

Observability is **off by default**.  Every instrumentation site in the
hot paths is written against this module's tiny contract:

* ``state()`` returns ``None`` when disabled — one global read.  Hot
  wrappers (:meth:`repro.gpu.GPUDevice.run_batch`,
  :meth:`repro.stream.buffer.ReorderBuffer.push`) check it once and
  tail-call the raw implementation, so the disabled overhead is a
  function call and a branch (< 2 % of the hot path, asserted by
  ``benchmarks/bench_batch.py --overhead-only``).
* ``span(name)`` returns a shared no-op context manager when disabled,
  so colder call sites can instrument unconditionally.

``enable()`` installs a fresh :class:`~repro.obs.metrics.MetricsRegistry`
plus :class:`~repro.obs.trace.Tracer`; ``disable()`` removes them (and
stops any attached profiler).  :func:`start_profiling` /
:func:`stop_profiling` attach the span-linked sampling profiler
(:mod:`repro.obs.profiling`) on top.  The cross-process helpers
(:func:`export_context`, :func:`run_traced`, :func:`absorb`) are what
:func:`repro.parallel.chunked_map` uses to carry spans, metrics, and
profile samples across worker processes — all folded back in chunk
order, so every collected artifact is worker-count invariant.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .metrics import MetricsRegistry
from .trace import _CURRENT, NOOP_SPAN, Tracer


class ObsState:
    """The enabled bundle: one registry + one tracer (+ profiler)."""

    __slots__ = ("registry", "tracer", "profiler")

    def __init__(self, registry: MetricsRegistry, tracer: Tracer) -> None:
        self.registry = registry
        self.tracer = tracer
        #: Optional :class:`repro.obs.profiling.SamplingProfiler`,
        #: attached by :func:`start_profiling`.
        self.profiler = None


_STATE: Optional[ObsState] = None


def enable(*, root_parent: Optional[str] = None,
           max_spans: int = 100_000) -> ObsState:
    """Turn observability on with fresh state; returns the state."""
    global _STATE
    _STATE = ObsState(
        MetricsRegistry(),
        Tracer(root_parent=root_parent, max_spans=max_spans),
    )
    return _STATE


def disable() -> None:
    """Turn observability off (instrumentation reverts to no-ops)."""
    global _STATE
    st = _STATE
    if st is not None and st.profiler is not None:
        st.profiler.stop()
    _STATE = None


def start_profiling(*, interval_s: float = 0.005,
                    memory: bool = False):
    """Attach a span-linked sampling profiler to the live state.

    Enables observability first if needed (the profiler tags samples
    with the tracer's active span, so a tracer must exist).  Idempotent:
    a second call returns the already-running profiler.  With
    ``memory=True``, :mod:`tracemalloc` span hooks stamp per-span
    ``mem_net_kb``/``mem_peak_kb`` attributes and the top allocation
    sites are captured at stop.
    """
    st = _STATE if _STATE is not None else enable()
    if st.profiler is not None:
        return st.profiler
    from .profiling import SamplingProfiler

    st.profiler = SamplingProfiler(
        tracer=st.tracer, interval_s=interval_s, memory=memory,
    ).start()
    return st.profiler


def stop_profiling():
    """Stop the attached profiler (if any) and return it, still attached.

    The profiler stays on the state so artifact writers can read its
    samples until :func:`disable` tears everything down.
    """
    st = _STATE
    if st is None or st.profiler is None:
        return None
    return st.profiler.stop()


def enabled() -> bool:
    return _STATE is not None


def state() -> Optional[ObsState]:
    """The live state, or ``None`` when observability is disabled."""
    return _STATE


def span(name: str, **attrs):
    """A tracing span, or the shared no-op when disabled."""
    st = _STATE
    if st is None:
        return NOOP_SPAN
    return st.tracer.span(name, **attrs)


def counter_inc(name: str, amount: float = 1.0, **labels) -> None:
    st = _STATE
    if st is not None:
        st.registry.counter(name, **labels).inc(amount)


def gauge_set(name: str, value: float, **labels) -> None:
    st = _STATE
    if st is not None:
        st.registry.gauge(name, **labels).set(value)


def observe(name: str, value: float, **labels) -> None:
    st = _STATE
    if st is not None:
        st.registry.histogram(name, **labels).observe(value)


# -- cross-process propagation ---------------------------------------------------


def export_context() -> Optional[dict]:
    """Picklable trace context for worker processes (None when off)."""
    st = _STATE
    if st is None:
        return None
    context: dict = {"parent_span_id": st.tracer.current_id()}
    if st.profiler is not None:
        context["profile"] = st.profiler.export_config()
    return context


def run_traced(fn, args: Sequence, context: dict,
               attrs: Optional[dict] = None) -> Tuple[object, dict]:
    """Run ``fn(*args)`` in a worker under a fresh traced state.

    Enables observability rooted at the parent's exported span id, wraps
    the call in a ``parallel.task`` span, and returns
    ``(result, payload)`` where the payload carries the worker's metric
    state and finished spans back for :func:`absorb`.  Always disables
    on the way out so pooled workers start clean on their next task.
    """
    st = enable(root_parent=context.get("parent_span_id"))
    profile_config = context.get("profile")
    if profile_config is not None:
        from .profiling import SamplingProfiler

        st.profiler = SamplingProfiler(
            tracer=st.tracer, **profile_config
        ).start()
    # Forked pool workers inherit the parent's context variables; clear
    # the current-span slot so parentage comes from the exported context.
    token = _CURRENT.set(None)
    try:
        with st.tracer.span("parallel.task", **(attrs or {})):
            result = fn(*args)
        payload = {
            "metrics": st.registry.state(),
            "spans": st.tracer.finished,
            "dropped": st.tracer.dropped,
        }
        if st.profiler is not None:
            payload["profile"] = st.profiler.stop().state_dict()
    finally:
        _CURRENT.reset(token)
        disable()
    return result, payload


def absorb(payload: Optional[dict]) -> None:
    """Fold a worker payload from :func:`run_traced` into this process."""
    st = _STATE
    if st is None or payload is None:
        return
    st.registry.merge_state(payload["metrics"])
    st.tracer.absorb(payload["spans"], payload.get("dropped", 0))
    profile_state = payload.get("profile")
    if profile_state is not None and st.profiler is not None:
        st.profiler.absorb_state(profile_state)
