"""The workloads: their inputs, solvers, judge and output checks.

A :class:`Workload` is built once per process.  :meth:`Workload.setup`
generates the seed's synthetic ICCAD13 clips, rasterises them, warms the
optics cache and constructs every solver; :meth:`Workload.run_round`
then runs each solver once and judges its result; :meth:`Workload.check`
verifies a finished solve outside any timed region.

The program is reached only through its public modules, looked up at
call time, so the wrappers of :mod:`layers` see every call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from checks import LOSS_RTOL, Operation, TargetClock, losses_match
from tracer import LayerTracer

SPEC_FILE = Path(__file__).resolve().parent / "workloads.json"

#: Solver name (as in the paper's tables) -> metric slug.
SLUGS = {
    "BiSMO-FD": "bismo_fd",
    "BiSMO-CG": "bismo_cg",
    "BiSMO-NMN": "bismo_nmn",
    "Abbe-MO": "abbe_mo",
    "NILT": "nilt",
    "DAC23-MILT": "dac23_milt",
    "AM-SMO(Abbe-Hopkins)": "am_smo_abbe_hopkins",
}

#: Hyper-parameters shared by every solver: the harness defaults
#: (``RunSettings``) that the paper's tables use.
LR = 0.1
UNROLL_STEPS = 3
TERMS = 5
CG_DAMPING = 1.0
AM_SO_STEPS, AM_MO_STEPS = 5, 10


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    scale: str
    tiles: int
    solvers: Tuple[str, ...]
    iterations: int
    target_frac: float
    doses: Optional[Tuple[float, ...]] = None
    focus_nm: Optional[Tuple[float, ...]] = None

    @property
    def windowed(self) -> bool:
        return self.doses is not None


def load_specs(path: Path = SPEC_FILE) -> Dict[str, WorkloadSpec]:
    data = json.loads(path.read_text())
    specs = {}
    for name, raw in data["workloads"].items():
        window = raw.get("window")
        specs[name] = WorkloadSpec(
            name=name,
            why=raw["why"],
            scale=raw["scale"],
            tiles=int(raw["tiles"]),
            solvers=tuple(raw["solvers"]),
            iterations=int(raw["iterations"]),
            target_frac=float(raw["target_frac"]),
            doses=tuple(window["doses"]) if window else None,
            focus_nm=tuple(window["focus_nm"]) if window else None,
        )
    return specs


@dataclass
class Solve:
    """One finished solve, kept for the checks that run after timing."""

    op: Operation
    result: Any  # None when the solve raised
    solver: Any


class Workload:
    def __init__(self, spec: WorkloadSpec, seed: int, tracer: LayerTracer) -> None:
        self.spec = spec
        self.seed = seed
        self.tracer = tracer

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        from repro import layouts
        from repro.optics import OpticalConfig, ProcessWindow, SourceGrid, annular, cache

        spec = self.spec
        cfg = self.config = OpticalConfig.preset(spec.scale)
        self.clips = list(
            layouts.dataset_by_name("ICCAD13", num_clips=spec.tiles, seed=self.seed)
        )
        self.targets = layouts.tile_stack(self.clips, cfg)
        self.source = annular(SourceGrid.from_config(cfg), cfg.sigma_out, cfg.sigma_in)
        self.window = (
            ProcessWindow.from_grid(spec.doses, spec.focus_nm) if spec.windowed else None
        )
        cache.warmup(cfg, process_window=self.window)
        self.solvers = [(name, self._build(name)) for name in spec.solvers]

    def _build(self, name: str) -> Any:
        from repro.baselines import MultiLevelILT, NILTBaseline
        from repro.smo import AMSMO, AbbeMO, BiSMO

        cfg, targets, window = self.config, self.targets, self.window
        if name.startswith("BiSMO-"):
            kind = name.split("-", 1)[1].lower()
            return BiSMO(
                cfg,
                targets,
                method=kind,
                unroll_steps=UNROLL_STEPS,
                terms=TERMS,
                inner_lr=LR,
                outer_lr=LR,
                outer_optimizer="adam",
                hvp_mode="exact",
                damping=CG_DAMPING if kind == "cg" else 0.0,
                process_window=window,
                seed=self.seed,
            )
        if name == "Abbe-MO":
            return AbbeMO(cfg, targets, self.source, lr=LR, process_window=window)
        if name == "NILT":
            return NILTBaseline(cfg, targets, self.source, lr=LR, process_window=window)
        if name == "DAC23-MILT":
            return MultiLevelILT(cfg, targets, self.source, lr=LR, process_window=window)
        if name == "AM-SMO(Abbe-Hopkins)":
            return AMSMO(
                cfg,
                targets,
                mode="abbe-hopkins",
                rounds=max(1, self.spec.iterations // AM_MO_STEPS),
                so_steps=AM_SO_STEPS,
                mo_steps=AM_MO_STEPS,
                lr_so=LR,
                lr_mo=LR,
                process_window=window,
            )
        raise KeyError(f"unknown solver {name!r}")

    # -- one round: every solver once, each judged ------------------------
    def _run(self, name: str, solver: Any, clock: TargetClock) -> Any:
        iters = self.spec.iterations
        if name.startswith("BiSMO-"):
            return solver.run(self.source, iterations=iters, callback=clock)
        if name.startswith("AM-SMO"):
            return solver.run(self.source, callback=clock)
        return solver.run(iterations=iters, callback=clock)

    def run_round(self) -> List[Solve]:
        tracer = self.tracer
        solves = []
        for name, solver in self.solvers:
            clock = TargetClock(self.spec.target_frac, tracer.clock)
            clock.start()
            result, quality, errors = None, {}, []
            run_s = 0.0
            try:
                result = tracer.call(f"solver.{SLUGS[name]}", self._run, name, solver, clock)
                run_s = tracer.clock() - clock.t0
                quality = tracer.call("harness.judge", self.judge, result)
            except Exception as exc:  # a solve that raises is a failed operation
                result = None
                errors.append(f"raised {type(exc).__name__}: {exc}")
            solve_s = tracer.clock() - clock.t0
            op = Operation(
                solver=name,
                solve_s=solve_s,
                run_s=run_s,
                hit_s=clock.hit_s,
                hit_iteration=clock.hit_iteration,
                iteration_s=clock.iteration_seconds(),
                losses=clock.losses,
                quality=quality,
                errors=errors,
            )
            solves.append(Solve(op, result, solver))
        return solves

    def judge(self, result: Any) -> Dict[str, float]:
        """Judge every tile of a joint result under the lossless Abbe
        model: mean L2 and PVB, summed EPE violations.

        The windowed judge reports each tile's worst-corner L2, the
        window-wide band as PVB, and EPE violations over all corners.
        """
        from repro.harness import process_window, runner
        from repro.smo import SMOResult

        cfg = self.config
        settings = runner.RunSettings(config=cfg, process_window=self.window)
        l2, pvb, epe = [], [], 0
        for i, clip in enumerate(self.clips):
            tile = SMOResult(
                method=result.method,
                theta_m=result.theta_m[i],
                theta_j=result.theta_j,
                history=result.history,
                runtime_seconds=result.runtime_seconds,
            )
            if self.window is None:
                m = runner.evaluate_final(tile, clip, settings, self.source)
                l2.append(m["l2_nm2"])
                pvb.append(m["pvb_nm2"])
                epe += int(m["epe_violations"])
            else:
                rec = process_window.evaluate_process_window(
                    tile, clip, settings, source_fallback=self.source
                )
                l2.append(float(np.max(rec.corner_l2_nm2)))
                pvb.append(float(rec.band_nm2))
                epe += int(np.sum(rec.corner_epe))
        return {
            "l2_nm2": float(np.mean(l2)),
            "pvb_nm2": float(np.mean(pvb)),
            "epe_violations": float(epe),
        }

    # -- checks (outside every timed region) ------------------------------
    def reference_losses(self, solve: Solve) -> Tuple[float, float]:
        """The fast path's loss and the reference objective's loss at the
        solve's final parameters.

        Nominal workloads compare the solver's fused batched objective
        with ``LoopedSMOObjective`` (one graph per tile).  The windowed
        workload compares ``ProcessWindowSMOObjective.loss`` (the fused
        condition stack) with its per-condition ``loss_reference``; the
        Hopkins-model solvers (NILT, DAC23-MILT) have no Abbe objective
        of their own, so they are checked on the windowed Abbe objective
        at their final mask and the fixed source.
        """
        from repro import autodiff as ad
        from repro.smo import LoopedSMOObjective, ProcessWindowSMOObjective, init_theta_source

        result = solve.result
        theta_j = result.theta_j
        if theta_j is None:
            theta_j = init_theta_source(self.source, self.config)
        tj, tm = ad.Tensor(theta_j), ad.Tensor(result.theta_m)
        with ad.no_grad():
            if self.window is None:
                fast_obj = solve.solver.objective
                ref = LoopedSMOObjective(self.config, self.targets, engine=fast_obj.engine)
                return float(fast_obj.loss(tj, tm).data), float(ref.loss(tj, tm).data)
            obj = getattr(solve.solver, "objective", None)
            if not isinstance(obj, ProcessWindowSMOObjective):
                obj = ProcessWindowSMOObjective(self.config, self.targets, self.window)
            return float(obj.loss(tj, tm).data), float(obj.loss_reference(tj, tm).data)

    def check(self, solve: Solve) -> None:
        """Append to ``solve.op.errors`` every way the solve is wrong."""
        op = solve.op
        if solve.result is None:
            return  # it raised; the error is already recorded
        if not op.losses or not all(math.isfinite(v) for v in op.losses):
            op.errors.append("non-finite loss")
        if not all(math.isfinite(v) for v in op.quality.values()):
            op.errors.append("non-finite judged quality")
        fast, ref = self.reference_losses(solve)
        if not losses_match(fast, ref):
            op.errors.append(
                f"fast loss {fast!r} != reference {ref!r} (rtol {LOSS_RTOL})"
            )
