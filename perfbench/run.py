"""The repository benchmark: one command, one workload per call.

    python3 perfbench/run.py --workload bilevel_small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (``src/repro`` must be there).
Every sample is a fresh process (``worker.py``) that sets the workload
up and runs each of its solvers once, as one user job would:

* ``--trace 0`` measures the end-to-end metrics with tracing off.  It
  starts ``run`` samples while the next one should still end within
  ``--seconds``, then ``setup``-only samples until there are
  ``SETUP_SAMPLES`` set-up times.  Each metric is the median over the samples; every sample
  must reproduce the first one's losses and judged quality exactly.
* ``--trace 1`` starts one untraced, one traced and one tracemalloc
  sample and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero when a worker fails, a check
rejects an output, or the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from checks import Operation, check_repeat, count_failed, is_correct
from layers import layer_metrics, top_layers
from tracer import LayerStat
from workload import SLUGS, load_specs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up times per untraced run (``run`` samples count too).
SETUP_SAMPLES = 5
#: Every worker must have finished this long after the run started.
DEADLINE_S = 170.0

#: Units of the end-to-end metrics, in reporting order.
E2E_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "time_to_target_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_ms_p50"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_nm2"):
        return "nm2"
    return "count"


class WorkerError(RuntimeError):
    pass


def spawn(mode: str, args: argparse.Namespace, deadline: float) -> Dict[str, Any]:
    """Run one worker process to completion and parse its last line."""
    spawned_at = time.monotonic()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--mode", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--spawned-at", repr(spawned_at),
    ]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker timed out") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError(f"{mode} worker printed nothing")
    return json.loads(lines[-1])


def operations(sample: Dict[str, Any]) -> List[Operation]:
    return [Operation(**op) for op in sample["ops"]]


def layer_stats(raw: Dict[str, Any]) -> Dict[str, LayerStat]:
    return {name: LayerStat(**stat) for name, stat in raw.items()}


def end_to_end(args: argparse.Namespace, deadline: float) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
    """Untraced samples for ``--seconds``, then set-up-only samples.

    A new sample starts only if, at the mean length of the samples so
    far, it would end within ``--seconds``.
    """
    samples: List[Dict[str, Any]] = []
    begin = time.monotonic()
    while True:
        samples.append(spawn("run", args, deadline))
        elapsed = time.monotonic() - begin
        if elapsed * (len(samples) + 1) / len(samples) > args.seconds:
            break
    setups = [s["setup_s"] for s in samples]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn("setup", args, deadline)["setup_s"])
    solve = [sum(op.solve_s for op in operations(s)) for s in samples]
    to_target = [sum(op.time_to_target_s for op in operations(s)) for s in samples]
    print(f"samples: {len(samples)} in {time.monotonic() - begin:.2f} s")
    print(f"per sample solve_s: {', '.join(f'{v:.3f}' for v in solve)}")
    print(f"per sample time_to_target_s: {', '.join(f'{v:.3f}' for v in to_target)}")
    print(f"per sample set-up s: {', '.join(f'{v:.3f}' for v in setups)}")
    values = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(solve),
        "time_to_target_s": statistics.median(to_target),
        "peak_rss_mb": statistics.median([s["peak_rss_mb"] for s in samples]),
    }
    return values, samples


def per_layer(args: argparse.Namespace, deadline: float) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
    """One untraced, one traced and one tracemalloc sample."""
    base, traced, mem = (spawn(m, args, deadline) for m in ("run", "trace", "memory"))
    traced_layers = layer_stats(traced["layers"])
    print(f"layer ranking by self-time: {' > '.join(top_layers(traced_layers)[:8])}")
    spec = load_specs()[args.workload]
    values = layer_metrics(
        traced_layers,
        traced["totals"],
        layer_stats(mem["layers"]),
        layer_stats(traced["setup_layers"]),
        mem["counters"],
        traced["cache"],
        [f"solver.{SLUGS[name]}" for name in spec.solvers],
    )
    ops = {op.solver: op for op in operations(base)}
    for name, slug in SLUGS.items():
        op = ops.get(name)
        values[f"solver.{slug}.solve_s"] = op.run_s if op else 0.0
        iters = op.iteration_s if op else []
        values[f"solver.{slug}.iter_ms_p50"] = statistics.median(iters) * 1e3 if iters else 0.0
        values[f"solver.{slug}.iterations_to_target"] = (op.hit_iteration or 0) if op else 0
    base_s = sum(op.solve_s for op in operations(base))
    values["trace_overhead_frac"] = sum(op.solve_s for op in operations(traced)) / base_s - 1.0
    values.update({f"quality.{k}": v for k, v in quality(operations(base)).items()})
    return values, [base, traced, mem]


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        values, samples = per_layer(args, deadline)
        units = {k: layer_unit(k) for k in sorted(values)}
    else:
        values, samples = end_to_end(args, deadline)
        units = E2E_UNITS
    print(f"fingerprint: {json.dumps(samples[0]['fingerprint'], sort_keys=True)}")
    ops = [operations(s) for s in samples]
    for repeat in ops[1:]:
        check_repeat(ops[0], repeat)
    for name, value in quality(ops[0]).items():
        print(f"quality {name}: {value!r} {layer_unit(name)}")
    hits = ", ".join(f"{op.solver} {op.hit_iteration}/{len(op.losses)}" for op in ops[0])
    print(f"iterations to target: {hits}")
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name}: {m['value']:.6g} {m['unit']}")
    flat = [op for sample in ops for op in sample]
    missed = sorted({op.solver for op in flat if op.missed_target})
    if missed:
        print(f"missed target: {', '.join(missed)}")
    for err in sorted({f"{op.solver}: {e}" for op in flat for e in op.errors}):
        print(f"CHECK FAILED {err}")
    return {
        "correct": is_correct(flat),
        "attempted": len(flat),
        "failed": count_failed(flat),
        "metrics": metrics,
    }


def quality(ops: Sequence[Operation]) -> Dict[str, float]:
    """Judged quality of one sample: L2 and PVB averaged over solves
    (each already a mean over tiles), EPE violations summed.  Solves
    that raised have no quality and are left out."""
    judged = [op.quality for op in ops if op.quality] or [
        {"l2_nm2": 0.0, "pvb_nm2": 0.0, "epe_violations": 0.0}
    ]
    return {
        "l2_nm2": statistics.fmean(q["l2_nm2"] for q in judged),
        "pvb_nm2": statistics.fmean(q["pvb_nm2"] for q in judged),
        "epe_violations": sum(q["epe_violations"] for q in judged),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    specs = load_specs()
    if args.workload not in specs:
        print(f"unknown workload {args.workload!r}; choose from {sorted(specs)}", file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed}: {specs[args.workload].why}")
    try:
        result = measure(args)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
