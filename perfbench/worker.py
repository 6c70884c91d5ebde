"""One fresh benchmark process: set up one workload, run it once.

``run.py`` starts this script once per sample and reads the JSON object
it prints as its last line.  A fresh process per sample means every
round pays what a user's job pays: imports, set-up and cold
source-keyed caches.  Modes:

* ``setup`` — set up and exit; reports ``setup_s`` only.
* ``run`` — set up, then run every solver of the workload once and
  judge it, with tracing off.
* ``trace`` — as ``run``, with every layer wrapped and traced (set-up
  included), plus the optics-cache hit/miss deltas.
* ``memory`` — as ``run``, with tracemalloc on, only the layers whose
  peak is reported framed, and the ``repro.obs`` counters on.  The
  counters take a lock per increment, which slows the condition-axis
  fan-out; counting them here keeps that cost out of traced times.

Every solve is checked after the round (``Workload.check``).
``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` includes interpreter start-up and
imports.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent

from layers import PEAK_LAYERS, cache_totals, install  # noqa: E402
from tracer import LayerTracer  # noqa: E402
from workload import Workload, load_specs  # noqa: E402

MODES = ("setup", "run", "trace", "memory")


def _configure() -> None:
    """Pin the settings the benchmark defines, whatever the environment:
    observability off and a worker budget of one thread per usable CPU."""
    from repro import obs
    from repro.optics import fftlib

    obs.disable()
    fftlib.set_worker_budget(len(os.sched_getaffinity(0)))


def _fingerprint() -> Dict[str, Any]:
    import numpy
    import scipy
    from repro.optics import fftlib

    return {"fftlib": fftlib.describe(), "numpy": numpy.__version__, "scipy": scipy.__version__}


def _stats(tracer: LayerTracer) -> Dict[str, Any]:
    return {name: dataclasses.asdict(stat) for name, stat in tracer.stats.items()}


def measure(mode: str, workload: Workload, spawned_at: float) -> Dict[str, Any]:
    tracer = workload.tracer
    tracer.active = mode == "trace"
    workload.setup()
    tracer.active = False
    out: Dict[str, Any] = {"setup_s": time.monotonic() - spawned_at}
    if mode == "setup":
        return out
    if mode == "trace":
        out["setup_layers"] = _stats(tracer)
        tracer.reset()
    if mode == "memory":
        tracer.memory, tracer.only = True, PEAK_LAYERS
        tracemalloc.start()

    from repro import obs
    from repro.optics import cache

    cache0 = cache_totals(cache.stats())
    with obs.use(metrics=mode == "memory"):
        before = obs.values()
        tracer.active = mode in ("trace", "memory")
        try:
            solves = workload.run_round()
        finally:
            tracer.active = False
            if mode == "memory":
                tracemalloc.stop()
        counters = obs.metric_delta(before, obs.values())
    cache1 = cache_totals(cache.stats())
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for solve in solves:
        workload.check(solve)
    out["ops"] = [dataclasses.asdict(s.op) for s in solves]
    if mode in ("trace", "memory"):
        out["layers"] = _stats(tracer)
    if mode == "trace":
        out["totals"] = dict(tracer.totals)
        out["cache"] = {k: cache1[k] - cache0[k] for k in cache1}
    if mode == "memory":
        out["counters"] = {k: v for k, v in counters.items() if k.startswith("imaging.")}
    out["fingerprint"] = _fingerprint()
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    spec = load_specs()[args.workload]
    tracer = LayerTracer()
    if args.mode in ("trace", "memory"):
        install(tracer)
    _configure()
    out = measure(args.mode, Workload(spec, args.seed, tracer), args.spawned_at)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
