"""BiSMO-UNROLL: reverse-mode differentiation through the inner loop.

Section 3.2.1 notes that unrolling many inner SO steps and
differentiating through the optimization path "results in a linear
increase in memory and computational load" — this module implements
that reference strategy (reverse-mode / RMD hypergradients, as in early
DARTS-second-order and MAML) so the IFT-based methods can be compared
against it.  Through T plain SGD steps it is a backward sweep of
oracle products (:class:`repro.smo.bismo.HypergradientContext`) at the
stored iterates: from ``lambda = dL/dtheta_J``, ``hyper = dL/dtheta_M``
at ``theta_T``, for t = T-1 .. 0 ``hyper -= xi * mixed_t(lambda)`` and
``lambda -= xi * hvp_t(lambda)``; imaging is never differentiated twice.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..opt import make_optimizer
from .bismo import HypergradientContext, inner_iterates
from .objective import AbbeSMOObjective

__all__ = ["unrolled_hypergradient", "reverse_sweep_hypergradient"]


def reverse_sweep_hypergradient(
    ctx: HypergradientContext,
    inner_lr: float,
    terms: int,
    damping: float,
    warm: Optional[np.ndarray],
    iterates: Sequence[np.ndarray],
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Reverse sweep from ``ctx`` at ``theta_T`` over the inner iterates
    ``theta_0 .. theta_{T-1}``; ``terms``, ``damping`` and ``warm`` are
    accepted for interface parity with the IFT strategies but unused."""
    del terms, damping  # not used by the unrolled strategy
    lam = ctx.grad_j
    hyper = ctx.grad_m
    for t in range(len(iterates) - 1, -1, -1):
        ctx_t = ctx.at(iterates[t])
        hyper = hyper - inner_lr * ctx_t.mixed_vjp(lam)
        if t > 0:  # theta_0 does not depend on theta_M
            lam = lam - inner_lr * ctx_t.hvp(lam)
    return hyper, warm


def unrolled_hypergradient(
    objective: AbbeSMOObjective,
    theta_j: np.ndarray,
    theta_m: np.ndarray,
    steps: int,
    inner_lr: float,
    inner_optimizer: str = "sgd",
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Differentiate L_mo through ``steps`` unrolled inner SGD updates.

    Returns ``(hypergradient_wrt_theta_m, new_theta_j, loss_value)``.

    Only plain SGD inner updates can be unrolled here (a stateful inner
    optimizer would need its state in the reverse sweep), so any other
    ``inner_optimizer`` is rejected instead of being silently replaced
    by SGD.
    """
    if steps < 1:
        raise ValueError("unrolled differentiation needs at least one inner step")
    if inner_optimizer.lower() != "sgd":
        raise ValueError(
            "unrolled_hypergradient supports inner_optimizer='sgd' only; "
            f"got {inner_optimizer!r}"
        )
    iterates, so_loss = inner_iterates(
        objective, theta_j, theta_m, steps, make_optimizer("sgd", inner_lr)
    )
    ctx = HypergradientContext(
        objective, iterates[-1], theta_m, so_loss_fn=so_loss
    )
    hyper, _ = reverse_sweep_hypergradient(
        ctx, inner_lr, 0, 0.0, None, iterates[:-1]
    )
    return hyper, iterates[-1], ctx.loss_value
