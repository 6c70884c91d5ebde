"""Source-only optimization (SO) with the mask held fixed.

SO is only possible with Abbe's model (the paper's core observation:
Hopkins bakes the source into the TCC).  Used standalone and as the
inner phase of AM-SMO.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .. import autodiff as ad
from ..obs import observe_iteration
from ..obs import span as obs_span
from ..opt import make_optimizer
from ..utils.timing import tick
from ..optics import OpticalConfig
from .objective import ProcessWindowSMOObjective
from .parametrization import init_theta_source
from .state import IterationRecord, SMOResult

__all__ = ["SourceOptimizer"]


class SourceOptimizer:
    """Gradient-based SO: minimize L_so over theta_J with theta_M fixed.

    The loss is :class:`ProcessWindowSMOObjective` on its default
    window (Eq. (8)'s dose corners) unless a pre-built ``objective`` is
    passed.  A ``(B, N, N)`` target stack optimizes one shared source
    against a fixed ``theta_M`` batch (the joint SO that motivates
    multi-clip SMO); records then carry per-tile losses.
    """

    method_name = "SO"

    def __init__(
        self,
        config: OpticalConfig,
        target: np.ndarray,
        lr: float = 0.1,
        optimizer: str = "sgd",
        objective: Optional[ProcessWindowSMOObjective] = None,
    ):
        self.config = config
        self.objective = objective or ProcessWindowSMOObjective(config, target)
        self._opt = make_optimizer(optimizer, lr)

    def run(
        self,
        theta_m: np.ndarray,
        theta_j0: np.ndarray,
        iterations: int = 30,
        callback: Optional[Callable[[IterationRecord], Optional[bool]]] = None,
    ) -> SMOResult:
        theta_j = np.array(theta_j0, dtype=np.float64, copy=True)
        tm_fixed = ad.Tensor(theta_m)
        self._opt.reset()
        history = []
        start = tick()
        for it in range(iterations):
            t0 = tick()
            with obs_span(
                "solver.iter", solver=self.method_name, iteration=it
            ):
                tj = ad.Tensor(theta_j, requires_grad=True)
                loss = self.objective.loss(tj, tm_fixed)
                (gj,) = ad.grad(loss, [tj])
                tiles = getattr(self.objective, "last_tile_losses", None)
                theta_j = self._opt.step(theta_j, gj.data)
            rec = IterationRecord(
                it,
                float(loss.data),
                tick() - t0,
                "so",
                tile_losses=tiles,
            )
            observe_iteration(rec, grad=gj)
            history.append(rec)
            if callback and callback(rec):
                break
        return SMOResult(
            method=self.method_name,
            theta_m=np.array(theta_m, copy=True),
            theta_j=theta_j,
            history=history,
            runtime_seconds=tick() - start,
        )
