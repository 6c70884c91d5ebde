"""Mask-only optimization (MO / ILT) solvers.

Two engines, one loop:

* :class:`AbbeMO` — the paper's "Abbe-MO": lossless Abbe imaging with a
  fixed source, mask parameters optimized by gradient descent/Adam.
* :class:`HopkinsMO` — conventional SOCS-truncated ILT (the substrate of
  the NILT / DAC23-MILT comparators).

Both minimize the same process-window loss with the source held fixed
— Eq. (9)'s three dose corners unless a window is given (their Abbe
and Hopkins objectives, :class:`ProcessWindowSMOObjective` and
:class:`HopkinsMOObjective`, share that default) — so their gap
isolates the Hopkins truncation error discussed in Section 4.1.  Both ride their engine's fused imaging
forward (streamed, hand-written VJP), single-tile
or batched.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .. import autodiff as ad
from ..obs import observe_iteration
from ..obs import span as obs_span
from ..opt import make_optimizer
from ..utils.timing import tick
from ..optics import OpticalConfig, ProcessWindow
from .objective import (
    HopkinsMOObjective,
    ProcessWindowSMOObjective,
    adaptive_corner_update,
)
from .parametrization import init_theta_mask, init_theta_source
from .state import IterationRecord, SMOResult

__all__ = ["AbbeMO", "HopkinsMO"]

#: Per-iteration observer; a truthy return requests an early stop
#: (time-to-target benchmarking), ``None`` keeps the legacy behavior.
Callback = Callable[[IterationRecord], Optional[bool]]


class AbbeMO:
    """Abbe-model inverse lithography with a fixed source.

    ``target`` may be a single ``(N, N)`` tile or a ``(B, N, N)`` stack;
    a stack optimizes a ``theta_M`` batch jointly through the fused
    multi-tile forward, and records carry per-tile losses.

    The loss is the robust dose x aberration reduction of
    :class:`ProcessWindowSMOObjective` across ``process_window`` (Eq.
    (8)'s dose corners when ``None``), unless a pre-built ``objective``
    is passed; ``robust`` / ``robust_tau``
    pick weighted-sum, smooth worst-case, or the adaptive minimax
    ascent — ``robust="adaptive"`` EG-steps the corner weights once per
    iteration and stashes the trajectory in the records.
    """

    method_name = "Abbe-MO"

    def __init__(
        self,
        config: OpticalConfig,
        target: np.ndarray,
        source: np.ndarray,
        lr: float = 0.1,
        optimizer: str = "adam",
        objective: Optional[ProcessWindowSMOObjective] = None,
        process_window: Optional[ProcessWindow] = None,
        robust: str = "sum",
        robust_tau: float = 1.0,
    ):
        self.config = config
        target = np.asarray(target, dtype=np.float64)
        self.objective = objective or ProcessWindowSMOObjective(
            config, target, process_window, robust=robust, tau=robust_tau
        )
        self._theta_j_fixed = ad.Tensor(init_theta_source(source, config))
        self._opt = make_optimizer(optimizer, lr)
        self.target = target

    def run(
        self,
        iterations: int = 50,
        theta_m0: Optional[np.ndarray] = None,
        callback: Optional[Callback] = None,
    ) -> SMOResult:
        theta_m = (
            init_theta_mask(self.target, self.config)
            if theta_m0 is None
            else np.array(theta_m0, dtype=np.float64, copy=True)
        )
        self._opt.reset()
        history = []
        start = tick()
        for it in range(iterations):
            t0 = tick()
            with obs_span(
                "solver.iter", solver=self.method_name, iteration=it
            ):
                tm = ad.Tensor(theta_m, requires_grad=True)
                loss = self.objective.loss(self._theta_j_fixed, tm)
                (gm,) = ad.grad(loss, [tm])
                tiles = getattr(self.objective, "last_tile_losses", None)
                theta_m = self._opt.step(theta_m, gm.data)
                corner_w = adaptive_corner_update(self.objective)
            rec = IterationRecord(
                it,
                float(loss.data),
                tick() - t0,
                "mo",
                tile_losses=tiles,
                corner_weights=corner_w,
            )
            observe_iteration(rec, grad=gm)
            history.append(rec)
            if callback and callback(rec):
                break
        return SMOResult(
            method=self.method_name,
            theta_m=theta_m,
            theta_j=self._theta_j_fixed.data.copy(),
            history=history,
            runtime_seconds=tick() - start,
        )


class HopkinsMO:
    """SOCS-truncated Hopkins ILT with a fixed source (MO baseline).

    Accepts a ``(B, N, N)`` target stack for joint batched ILT (the
    Hopkins objective fuses the batch into one SOCS FFT stack).
    """

    method_name = "Hopkins-MO"

    def __init__(
        self,
        config: OpticalConfig,
        target: np.ndarray,
        source: np.ndarray,
        lr: float = 0.1,
        optimizer: str = "adam",
        num_kernels: Optional[int] = None,
        process_window: Optional[ProcessWindow] = None,
        robust: str = "sum",
        robust_tau: float = 1.0,
    ):
        self.config = config
        self.objective = HopkinsMOObjective(
            config,
            target,
            source,
            num_kernels,
            window=process_window,
            robust=robust,
            robust_tau=robust_tau,
        )
        self._opt = make_optimizer(optimizer, lr)
        self.target = target

    def run(
        self,
        iterations: int = 50,
        theta_m0: Optional[np.ndarray] = None,
        callback: Optional[Callback] = None,
    ) -> SMOResult:
        theta_m = (
            init_theta_mask(self.target, self.config)
            if theta_m0 is None
            else np.array(theta_m0, dtype=np.float64, copy=True)
        )
        self._opt.reset()
        history = []
        start = tick()
        for it in range(iterations):
            t0 = tick()
            with obs_span(
                "solver.iter", solver=self.method_name, iteration=it
            ):
                tm = ad.Tensor(theta_m, requires_grad=True)
                loss = self.objective.loss(tm)
                (gm,) = ad.grad(loss, [tm])
                tiles = self.objective.last_tile_losses
                theta_m = self._opt.step(theta_m, gm.data)
                corner_w = adaptive_corner_update(self.objective)
            rec = IterationRecord(
                it,
                float(loss.data),
                tick() - t0,
                "mo",
                tile_losses=tiles,
                corner_weights=corner_w,
            )
            observe_iteration(rec, grad=gm)
            history.append(rec)
            if callback and callback(rec):
                break
        return SMOResult(
            method=self.method_name,
            theta_m=theta_m,
            theta_j=None,
            history=history,
            runtime_seconds=tick() - start,
        )
