"""Cross-solver benchmark grid — solvers x windows x scales, one trajectory.

A benchopt-style comparison matrix: every solver runs against every
process window at every scale with *time-to-target-loss* stopping — the
callback watches the per-iteration :class:`~repro.smo.IterationRecord`
trace and stops the solve as soon as the loss reaches a fixed fraction
of its starting value (or when the relative per-step improvement stays
below ``rtol`` for ``patience`` steps, the sufficient-progress rule).
Solvers are therefore compared on *seconds to reach the target*, not on
a fixed iteration budget that flatters cheap-but-slow-converging
methods.  Results append to ``BENCH_grid.json`` via
:mod:`bench_runner`, whose entries carry the ``fftlib.describe()``
threading fingerprint, so one file accumulates a comparable performance
trajectory across PRs and machines.

The module is also the perf gate for the condition-axis fan-out: a
C=9 / F=3 process window at ``small`` scale must evaluate the robust
loss + gradients >= ``FANOUT_GATE``x faster with condition workers than
with the serial streamed path, at <= 1e-12 forward/grad parity (the
implementation is bitwise-identical by construction; the bench asserts
the tolerance and records the bitwise flag).  The timing gate only
arms on >= 4 cores and is skipped in ``--check`` mode (parity always
runs).

Run as a script::

    PYTHONPATH=src python benchmarks/bench_grid.py          # full gate
    PYTHONPATH=src python benchmarks/bench_grid.py --check  # parity only

or through pytest like the other bench modules::

    PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_grid.py

Knobs: ``BISMO_GRID_SCALES`` (comma list of presets, default ``tiny``),
``BISMO_GRID_TILES`` (batch size, default 2), ``BISMO_GRID_CHECK_ONLY=1``
(parity-only mode for shared CI runners).
"""

from __future__ import annotations

import argparse
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.autodiff as ad
from repro.baselines import NILTBaseline
from repro.harness.runner import _annular_source
from repro.layouts import dataset_by_name, tile_stack
from repro.optics import OpticalConfig, ProcessWindow, fftlib
from repro.smo import BiSMO, ProcessWindowSMOObjective
from repro.smo.convergence import RelativeImprovementStopper
from repro.smo.mo_only import AbbeMO
from repro.smo.parametrization import init_theta_mask, init_theta_source
from repro.smo.state import IterationRecord, SMOResult
from bench_env import env_flag, env_int, env_list

SCALES = tuple(env_list("BISMO_GRID_SCALES", "tiny"))
NUM_TILES = env_int("BISMO_GRID_TILES", 2)
CHECK_ONLY = env_flag("BISMO_GRID_CHECK_ONLY")

DOSES = (0.96, 1.0, 1.04)
FOCUS = (0.0, 40.0, 80.0)

#: Stop a solve once loss <= TARGET_FRACTION * first-iteration loss.
TARGET_FRACTION = 0.5
#: Sufficient-progress fallback: stop after ``patience`` consecutive
#: steps improving less than ``rtol`` relative.
PROGRESS_RTOL = 1e-3
PROGRESS_PATIENCE = 5
#: Hard per-cell iteration ceilings (time-to-target usually stops first).
MAX_ITERS = {"BiSMO-NMN": 6, "Abbe-MO": 12, "NILT": 12}

#: Condition fan-out must beat serial streaming by this factor on the
#: C=9/F=3 small-scale window (armed only on >= FANOUT_MIN_CPUS cores).
FANOUT_GATE = 2.0
FANOUT_MIN_CPUS = 4
PARITY_ATOL = 1e-12


def _clips(cfg: OpticalConfig, num_tiles: int) -> np.ndarray:
    from conftest import rescale_clips

    ds = rescale_clips(dataset_by_name("ICCAD13", num_clips=num_tiles), cfg)
    return tile_stack(ds, cfg)


def _windows(cfg: OpticalConfig) -> Dict[str, ProcessWindow]:
    # No nominal cell: an Abbe solver without a window optimizes dose3.
    return {
        "dose3": ProcessWindow.from_config(cfg),
        "dose3xfocus3": ProcessWindow.from_grid(DOSES, FOCUS),
    }


class _TimeToTarget:
    """Early-stop callback: target-loss or sufficient-progress."""

    def __init__(self) -> None:
        self.loss0: Optional[float] = None
        self.target: Optional[float] = None
        self.elapsed = 0.0
        self.time_to_target: Optional[float] = None
        self.iterations = 0
        self.reason = "budget"
        self._progress = RelativeImprovementStopper(
            rtol=PROGRESS_RTOL, patience=PROGRESS_PATIENCE
        )

    def __call__(self, rec: IterationRecord) -> bool:
        self.elapsed += rec.seconds
        self.iterations += 1
        if self.loss0 is None:
            self.loss0 = rec.loss
            self.target = TARGET_FRACTION * rec.loss
        if rec.loss <= self.target:
            self.time_to_target = self.elapsed
            self.reason = "target"
            return True
        if self._progress.update(rec.loss):
            self.reason = "progress"
            return True
        return False


def _make_solver(
    name: str,
    cfg: OpticalConfig,
    targets: np.ndarray,
    source: np.ndarray,
    window: ProcessWindow,
) -> Tuple[Callable[..., SMOResult], Dict]:
    """Return ``(run, kwargs)`` so every solver shares one call shape."""
    iters = MAX_ITERS[name]
    if name == "BiSMO-NMN":
        solver = BiSMO(cfg, targets, method="nmn", process_window=window)
        return solver.run, {"source_template": source, "iterations": iters}
    if name == "Abbe-MO":
        solver = AbbeMO(cfg, targets, source, process_window=window)
        return solver.run, {"iterations": iters}
    if name == "NILT":
        solver = NILTBaseline(cfg, targets, source, process_window=window)
        return solver.run, {"iterations": iters}
    raise ValueError(f"unknown solver {name!r}")


def run_grid(
    scales=SCALES, num_tiles: int = NUM_TILES, solvers=tuple(MAX_ITERS)
) -> List[Dict]:
    """The solvers x windows x scales matrix with time-to-target stops."""
    cells: List[Dict] = []
    for scale in scales:
        cfg = OpticalConfig.preset(scale)
        targets = _clips(cfg, num_tiles)
        source = _annular_source(cfg)
        for wname, window in _windows(cfg).items():
            for sname in solvers:
                run, kwargs = _make_solver(sname, cfg, targets, source, window)
                stopper = _TimeToTarget()
                t0 = time.perf_counter()
                result = run(callback=stopper, **kwargs)
                total = time.perf_counter() - t0
                cells.append(
                    {
                        "solver": sname,
                        "scale": scale,
                        "window": wname,
                        "corners": window.num_corners,
                        "conditions": len(window.conditions()),
                        "tiles": int(num_tiles),
                        "iterations": stopper.iterations,
                        "stop_reason": stopper.reason,
                        "loss0": stopper.loss0,
                        "loss_final": result.history[-1].loss,
                        "target_loss": stopper.target,
                        "time_to_target_s": stopper.time_to_target,
                        "solve_seconds": total,
                    }
                )
                ttt = stopper.time_to_target
                print(
                    f"grid: {sname:<10} {scale:<6} {wname:<12} "
                    f"C={cells[-1]['corners']} "
                    f"iters={stopper.iterations:>3} ({stopper.reason}) "
                    f"loss {stopper.loss0:10.4g} -> "
                    f"{cells[-1]['loss_final']:10.4g}  "
                    + (f"target in {ttt:.2f}s" if ttt is not None else "no target")
                )
    return cells


# ----------------------------------------------------------------------
# condition fan-out gate: parallel vs serial streaming
# ----------------------------------------------------------------------
def _windowed_grads(
    objective: ProcessWindowSMOObjective,
    theta_j: np.ndarray,
    theta_m: np.ndarray,
) -> Tuple[float, np.ndarray, np.ndarray]:
    tj = ad.Tensor(theta_j, requires_grad=True)
    tm = ad.Tensor(theta_m, requires_grad=True)
    loss = objective.loss(tj, tm)
    gj, gm = ad.grad(loss, [tj, tm])
    return float(loss.data), gj.data, gm.data


def run_fanout(
    scale: str = "small", num_tiles: int = NUM_TILES, rounds: int = 3
) -> Dict[str, float]:
    """Serial vs fanned condition axis on the C=9/F=3 window.

    Returns timings plus parity metrics; callers decide whether the
    speedup gate is armed (cores / check mode).
    """
    cfg = OpticalConfig.preset(scale)
    targets = _clips(cfg, num_tiles)
    window = ProcessWindow.from_grid(DOSES, FOCUS)
    objective = ProcessWindowSMOObjective(cfg, targets, window)
    theta_j = init_theta_source(_annular_source(cfg), cfg)
    theta_m = init_theta_mask(targets, cfg)

    def best_of() -> Tuple[float, Tuple[float, np.ndarray, np.ndarray]]:
        times, out = [], None
        for _ in range(rounds):
            t0 = time.perf_counter()
            out = _windowed_grads(objective, theta_j, theta_m)
            times.append(time.perf_counter() - t0)
        return min(times), out

    with fftlib.use(condition_workers=1):
        t_serial, (ls, gjs, gms) = best_of()
    with fftlib.use(condition_workers=0):  # auto: fill the budget
        t_fan, (lf, gjf, gmf) = best_of()
        workers = fftlib.effective_condition_workers(
            len(window.focus_values())
        )
    np.testing.assert_allclose(lf, ls, rtol=0.0, atol=PARITY_ATOL)
    np.testing.assert_allclose(gjf, gjs, rtol=0.0, atol=PARITY_ATOL)
    np.testing.assert_allclose(gmf, gms, rtol=0.0, atol=PARITY_ATOL)
    return {
        "scale": scale,
        "tiles": int(num_tiles),
        "corners": window.num_corners,
        "focus_values": len(window.focus_values()),
        "condition_workers": int(workers),
        "serial_ms": t_serial * 1e3,
        "fanout_ms": t_fan * 1e3,
        "speedup": t_serial / t_fan,
        "bitwise": bool(
            lf == ls and np.array_equal(gjf, gjs) and np.array_equal(gmf, gms)
        ),
        "grad_maxdiff": float(
            max(np.abs(gjf - gjs).max(), np.abs(gmf - gms).max())
        ),
    }


def _gate_armed() -> bool:
    return (os.cpu_count() or 1) >= FANOUT_MIN_CPUS


def _record(payload: Dict) -> None:
    try:
        from bench_runner import record_bench
    except ImportError:  # script run without benchmarks/ on sys.path
        import sys

        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from bench_runner import record_bench

    path = record_bench("grid", payload)
    print(f"recorded -> {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="parity mode: run the matrix + parity asserts, skip the "
        "fan-out timing gate (still records measurements)",
    )
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--scales",
        default=",".join(SCALES),
        help="comma list of optical presets (default: %(default)s)",
    )
    parser.add_argument(
        "--tiles", type=int, default=NUM_TILES, help="batch size B"
    )
    parser.add_argument(
        "--fanout-scale",
        default="small",
        help="preset for the fan-out gate cell (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    scales = tuple(s.strip() for s in args.scales.split(",") if s.strip())

    payload: Dict = {
        "scales": list(scales),
        "tiles": args.tiles,
        "doses": list(DOSES),
        "focus_nm": list(FOCUS),
        "target_fraction": TARGET_FRACTION,
        "check_only": bool(args.check),
        "cells": run_grid(scales, args.tiles),
    }
    fanout = run_fanout(args.fanout_scale, args.tiles, rounds=args.rounds)
    payload["fanout"] = fanout
    print(
        f"fanout: C={fanout['corners']}/F={fanout['focus_values']} "
        f"{args.fanout_scale}, {fanout['condition_workers']} workers: "
        f"serial {fanout['serial_ms']:.1f} ms vs fanned "
        f"{fanout['fanout_ms']:.1f} ms ({fanout['speedup']:.2f}x, "
        f"grad maxdiff {fanout['grad_maxdiff']:.1e}, "
        f"bitwise={fanout['bitwise']})"
    )
    _record(payload)
    if not args.check and _gate_armed():
        assert fanout["speedup"] >= FANOUT_GATE, (
            f"condition fan-out only {fanout['speedup']:.2f}x over serial "
            f"streaming (gate: {FANOUT_GATE}x)"
        )
        print(f"gate passed: >= {FANOUT_GATE}x over serial streaming")
    elif not args.check:
        print(
            f"gate skipped: {os.cpu_count()} cores < {FANOUT_MIN_CPUS} "
            "(parity still asserted)"
        )
    return 0


# ----------------------------------------------------------------------
# pytest entry points (same checks, bench-suite conventions)
# ----------------------------------------------------------------------
try:
    import pytest
except ImportError:  # pragma: no cover - script mode needs no pytest
    pytest = None


def test_grid_matrix():
    cells = run_grid(scales=("tiny",), num_tiles=NUM_TILES)
    # every (solver, window) cell ran and stopped for a recorded reason
    assert len(cells) == 3 * len(MAX_ITERS)
    assert all(c["stop_reason"] in ("target", "progress", "budget") for c in cells)
    assert all(c["iterations"] >= 1 for c in cells)


def test_grid_fanout_parity():
    # tiny keeps CI cheap; parity asserts run inside run_fanout
    run_fanout(scale="tiny", rounds=1)


def test_grid_fanout_speedup():
    if CHECK_ONLY:
        pytest.skip("BISMO_GRID_CHECK_ONLY=1: parity-only mode")
    if not _gate_armed():
        pytest.skip(f"needs >= {FANOUT_MIN_CPUS} cores for the timing gate")
    fanout = run_fanout(scale="small")
    print(f"\nfanout speedup: {fanout['speedup']:.2f}x")
    assert fanout["speedup"] >= FANOUT_GATE


if __name__ == "__main__":
    raise SystemExit(main())
