"""Where the benchmark wraps the program, and how the frames become the
per-layer metrics.

:func:`install` replaces each layer's public entry points with
:class:`~tracer.LayerTracer` wrappers.  Callers look these functions up
through their module or class at call time, so swapping the attribute is
enough; ``src/`` is never edited.  BiSMO binds its hypergradient function
when it is built, so :func:`install` must run before the solvers are.

Two existing ``repro.obs`` hooks are read as well: the ``imaging.vjp``
span site (re-routed through a frame, so the streamed backward pass gets
self-time like any wrapped call) and the ``imaging.*`` counters.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List

from tracer import LayerStat, LayerTracer, patch

#: Layers whose tracemalloc peak the memory pass reports.
PEAK_LAYERS = frozenset(
    {"smo.ctx", "smo.basis", "autodiff.grad_create_graph", "imaging.forward"}
)


def _grad_layer(args: tuple, kwargs: Dict[str, Any]) -> str:
    create = kwargs.get("create_graph", args[3] if len(args) > 3 else False)
    return "autodiff.grad_create_graph" if create else "autodiff.grad"


class _FramedSpan:
    """An obs span that also opens a tracer frame around its body."""

    def __init__(self, tracer: LayerTracer, name: str, inner: Any) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner
        self._frame: Any = None

    def __enter__(self) -> Any:
        self._frame = self._tracer.enter(self._name)
        return self._inner.__enter__()

    def __exit__(self, *exc: Any) -> Any:
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._tracer.exit(self._frame)

    def set(self, **attrs: Any) -> None:
        self._inner.set(**attrs)


def install(tracer: LayerTracer) -> None:
    """Wrap every traced layer of the program."""
    import repro.autodiff as ad
    from repro import layouts
    from repro.autodiff import functional
    from repro.optics import cache, fftlib
    from repro.smo import bismo, cg, fd, nmn, objective

    def framed(name: Any) -> Callable[[Any], Any]:
        return lambda original: tracer.wrap(name, original)

    # smo: the hypergradient context, its oracles, and the three IFT
    # hypergradient strategies
    ctx = bismo.HypergradientContext
    patch(ctx, "__init__", framed("smo.ctx"))
    patch(ctx, "hvp", framed("smo.hvp"))
    patch(ctx, "mixed_vjp", framed("smo.mixed"))
    patch(fd, "fd_hypergradient", framed("smo.hypergrad"))
    patch(nmn, "neumann_hypergradient", framed("smo.hypergrad"))
    patch(cg, "cg_hypergradient", framed("smo.hypergrad"))

    # smo.objective: the source-only basis factory, its closure, and loss
    def basis_factory(original: Callable[..., Any]) -> Callable[..., Any]:
        def source_only_loss(self: Any, theta_m: Any) -> Any:
            closure = tracer.call("smo.basis", original, self, theta_m)
            return None if closure is None else tracer.wrap("smo.so_loss", closure)

        return source_only_loss

    for cls in (objective.BatchedSMOObjective, objective.ProcessWindowSMOObjective):
        patch(cls, "source_only_loss", basis_factory)
    for cls in (
        objective.AbbeSMOObjective,
        objective.BatchedSMOObjective,
        objective.ProcessWindowSMOObjective,
        objective.HopkinsMOObjective,
    ):
        patch(cls, "loss", framed("smo.objective.loss"))

    # autodiff: every backward pass, split by create_graph
    patch(ad, "grad", framed(_grad_layer))

    # imaging: the fused forward primitives and the streamed-VJP span site
    patch(functional, "incoherent_image", framed("imaging.forward"))
    patch(functional, "incoherent_image_stack", framed("imaging.forward"))

    def span_site(original: Callable[..., Any]) -> Callable[..., Any]:
        def obs_span(name: str, **attrs: Any) -> Any:
            inner = original(name, **attrs)
            if name != "imaging.vjp" or not tracer.records(name):
                return inner
            return _FramedSpan(tracer, name, inner)

        return obs_span

    patch(functional, "_obs_span", span_site)

    # optics.fftlib: transforms and the condition-axis fan-out
    patch(fftlib, "fft2", framed("fftlib.fft2"))
    patch(fftlib, "ifft2", framed("fftlib.ifft2"))

    def fanout(original: Callable[..., Any]) -> Callable[..., Any]:
        def map_conditions(fn: Callable[[int], Any], num_tasks: int) -> list:
            if not tracer.records("fftlib.map_conditions"):
                return original(fn, num_tasks)
            workers = fftlib.effective_condition_workers(num_tasks)
            busy: List[float] = []
            lock = threading.Lock()

            def task(i: int) -> Any:
                t0 = tracer.clock()
                try:
                    return fn(i)
                finally:
                    with lock:
                        busy.append(tracer.clock() - t0)

            frame = tracer.enter("fftlib.map_conditions")
            try:
                return original(task, num_tasks)
            finally:
                wall = tracer.exit(frame)
                tracer.add("fanout.busy_s", sum(busy))
                tracer.add("fanout.capacity_s", wall * workers)

        return map_conditions

    patch(fftlib, "map_conditions", fanout)

    # optics.cache and layouts: the set-up steps
    patch(cache, "warmup", framed("optics.cache.warmup"))
    patch(layouts, "tile_stack", framed("layouts.tile_stack"))


def cache_totals(stats: Dict[str, Dict[str, int]]) -> Dict[str, int]:
    """Sum ``cache.stats()`` hits and misses over every category."""
    return {
        "hits": sum(s.get("hits", 0) for s in stats.values()),
        "misses": sum(s.get("misses", 0) for s in stats.values()),
    }


def layer_metrics(
    traced: Dict[str, LayerStat],
    totals: Dict[str, float],
    peaks: Dict[str, LayerStat],
    setup: Dict[str, LayerStat],
    counters: Dict[str, Any],
    cache_delta: Dict[str, int],
    solver_layers: List[str],
) -> Dict[str, float]:
    """Per-layer metrics from the traced round's frames.

    The entry points that orchestrate work report inclusive time, the
    wall-clock spent inside the call: every ``smo.*`` time,
    ``harness.judge_s`` and ``fftlib.map_conditions_s`` (whose tasks run
    on pool threads).  The work layers under them report self-time, so
    each of their seconds counts once: ``autodiff.*``, ``imaging.*`` and
    ``fftlib.fft_s``.  ``unattributed_frac`` is the solvers' own
    self-time (time in ``run()`` outside every wrapped call) over the
    traced solve time.
    """

    def stat(name: str) -> LayerStat:
        return traced.get(name, LayerStat())

    def peak_mb(name: str) -> float:
        return peaks.get(name, LayerStat()).peak_bytes / 2**20

    out: Dict[str, float] = {}
    for layer in ("smo.ctx", "smo.hvp", "smo.mixed", "smo.basis"):
        out[f"{layer}_s"] = stat(layer).total_s
        out[f"{layer}_calls"] = stat(layer).calls
    out["smo.hypergrad_s"] = stat("smo.hypergrad").total_s
    out["smo.so_loss_s"] = stat("smo.so_loss").total_s
    out["smo.objective.loss_s"] = stat("smo.objective.loss").total_s
    out["smo.objective.loss_calls"] = stat("smo.objective.loss").calls
    for layer in ("autodiff.grad", "autodiff.grad_create_graph"):
        out[f"{layer}_s"] = stat(layer).self_s
        out[f"{layer}_calls"] = stat(layer).calls
    out["imaging.forward_s"] = stat("imaging.forward").self_s
    out["imaging.forward_calls"] = stat("imaging.forward").calls
    out["imaging.vjp_s"] = stat("imaging.vjp").self_s
    for name in ("imaging.chunks", "imaging.fft2", "imaging.ifft2"):
        out[name] = int(counters.get(name, 0))
    for layer in sorted(PEAK_LAYERS):
        out[f"{layer}.peak_mb"] = peak_mb(layer)
    out["fftlib.fft2_calls"] = stat("fftlib.fft2").calls
    out["fftlib.ifft2_calls"] = stat("fftlib.ifft2").calls
    out["fftlib.fft_s"] = stat("fftlib.fft2").self_s + stat("fftlib.ifft2").self_s
    out["fftlib.map_conditions_s"] = stat("fftlib.map_conditions").total_s
    capacity = totals.get("fanout.capacity_s", 0.0)
    out["fftlib.fanout_busy_frac"] = (
        totals.get("fanout.busy_s", 0.0) / capacity if capacity > 0.0 else 0.0
    )
    out["optics.cache.warmup_s"] = setup.get("optics.cache.warmup", LayerStat()).total_s
    out["optics.cache.hits"] = cache_delta["hits"]
    out["optics.cache.misses"] = cache_delta["misses"]
    out["layouts.tile_stack_s"] = setup.get("layouts.tile_stack", LayerStat()).total_s
    out["harness.judge_s"] = stat("harness.judge").total_s
    whole = sum(stat(n).total_s for n in solver_layers) + stat("harness.judge").total_s
    unattributed = sum(stat(n).self_s for n in solver_layers)
    out["unattributed_frac"] = unattributed / whole if whole > 0.0 else 0.0
    return out


def top_layers(traced: Dict[str, LayerStat]) -> List[str]:
    """Layer names ranked by self-time, largest first (ties by name)."""
    ranked = sorted(traced.items(), key=lambda kv: (-kv[1].self_s, kv[0]))
    return [name for name, _ in ranked]
