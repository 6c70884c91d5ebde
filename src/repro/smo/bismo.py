"""BiSMO — bilevel SMO (Section 3.2, Algorithm 2).

SMO is posed as the bilevel program (Eq. (11))

    min_{theta_M}  L_mo(theta_J*(theta_M), theta_M)
    s.t.  theta_J*(theta_M) = argmin_{theta_J} L_so(theta_J, theta_M)

The outer (MO) gradient is the *hypergradient* (Eq. (12)): the direct
term plus the best-response term through theta_J*.  Three approximations
of the inverse inner Hessian are implemented, keyed ``"fd"`` /
``"nmn"`` / ``"cg"`` — finite-difference (:mod:`repro.smo.fd`),
truncated Neumann series (:mod:`repro.smo.nmn`) and conjugate gradient
(:mod:`repro.smo.cg`), plus the ``"unroll"`` reverse-mode reference
(:mod:`repro.smo.unroll`); each outer iteration

1. unrolls ``T`` inner SO steps to track theta_J* (Alg. 2 line 2),
2. builds a :class:`HypergradientContext` — the direct gradients and
   exact HVP / mixed-JVP oracles that split the loss at the aerial
   image: the aerial stack and the FFT-free Hessian products come from
   the intensity basis the inner steps built, and each mask gradient is
   one streamed mask VJP (no imaging forward, no create-graph imaging
   graph),
3. forms the hypergradient and updates theta_M (Alg. 2 line 13).

Since the paper sets ``L_so := L_mo := L_smo`` (Eq. (9)), one loss graph
serves both levels.

Both levels optimize one objective,
:class:`repro.smo.objective.ProcessWindowSMOObjective`: Eq. (8)'s dose
corners by default, or an explicit process window.

Joint multi-clip SMO: passing a ``(B, N, N)`` target stack optimizes one shared
``theta_J`` against a ``(B, N, N)`` ``theta_M`` stack; hypergradients
and HVPs cover the whole stack at once and every
:class:`IterationRecord` carries the per-tile loss vector.  Every
solver, UNROLL included, takes its second-order products from these
oracles: fused imaging is once-differentiable.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import Callable, List, Optional, Tuple

import numpy as np

from .. import autodiff as ad
from ..autodiff import functional as F
from ..obs import observe_iteration
from ..obs import span as obs_span
from ..opt import Optimizer, make_optimizer
from ..optics import OpticalConfig, ProcessWindow
from ..optics.abbe import AbbeImaging
from ..utils.timing import tick
from .objective import ProcessWindowSMOObjective, adaptive_corner_update
from .parametrization import (
    init_theta_mask,
    init_theta_source,
    mask_from_theta,
    source_from_theta,
)
from .state import IterationRecord, SMOResult

__all__ = ["HypergradientContext", "BiSMO"]

class HypergradientContext:
    """First-order state at (theta_J, theta_M) plus exact second-order
    oracles.

    Exposes:

    * ``grad_j`` / ``grad_m`` — direct gradients (numpy copies; the
      split path's ``grad_m`` is computed on first read),
    * :meth:`hvp` — exact inner Hessian-vector products
      ``(d^2 L_so / d theta_J^2) @ p``,
    * :meth:`mixed_vjp` — exact mixed products
      ``(d^2 L_so / d theta_M d theta_J) @ w`` (shape of theta_M).

    The oracles feed every hypergradient strategy: finite-difference
    (:mod:`repro.smo.fd`), truncated Neumann series (:mod:`repro.smo.nmn`),
    conjugate gradient (:mod:`repro.smo.cg`) and the unrolled reverse
    sweep (:mod:`repro.smo.unroll`).

    An objective that splits at the aerial image (``loss_from_aerial``
    over ``conditions``, ``check_theta_m``, and an
    :class:`repro.optics.abbe.AbbeImaging` engine) takes the matrix-free
    path (:attr:`split` is True).  The aerial stack is linear in the
    normalized source weights, ``A = X jn(theta_J)`` with ``X`` the
    per-condition intensity bases at the fixed mask, and the loss
    ``l(A)`` is an FFT-free function of ``A``.  With ``g_A = dl/dA``,
    ``H_l`` its Hessian, ``J = d jn / d theta_J`` and ``phi(theta_J) =
    <X^T g_A, jn(theta_J)>``:

    * ``grad_m`` is the mask-chain VJP of ``VJP_M[weights=jn,
      upstream=g_A]``;
    * ``hvp(p) = J^T X^T H_l X J p + hess(phi) p`` — FFT-free;
    * ``mixed_vjp(w)`` is the mask-chain VJP of
      ``VJP_M[weights=J w, upstream=g_A] + VJP_M[weights=jn,
      upstream=H_l X J w]``.

    Each ``VJP_M`` sum is one graph-free streamed mask VJP
    (:func:`repro.autodiff.functional.incoherent_stack_mask_vjp`).  No
    imaging forward runs: ``A`` comes from the bases ``X`` (the solver's
    ``so_loss_fn.bases``, or built from the engine), and the only
    create-graph graphs are small ones over ``A`` and ``jn``.

    Objectives without the split (duck-typed toys, the per-tile
    :class:`repro.smo.objective.LoopedSMOObjective` reference) take the
    generic path: one loss evaluation with ``create_graph=True`` and
    both products by a second backward pass through the gradient graph
    — the double-backward reference the split path is tested against
    (on a composed engine, ``AbbeImaging(config, fused=False)``).

    ``objective`` is any SMO objective exposing ``loss(theta_j,
    theta_m)`` — normally a :class:`ProcessWindowSMOObjective` on an
    ``(N, N)`` tile or a ``(B, N, N)`` stack (``theta_m`` then a
    matching stack).
    """

    def __init__(
        self,
        objective: ProcessWindowSMOObjective,
        theta_j: np.ndarray,
        theta_m: np.ndarray,
        so_loss_fn: Optional[Callable[[ad.Tensor], ad.Tensor]] = None,
    ):
        self.objective = objective
        self._tj = ad.Tensor(theta_j, requires_grad=True)
        self._tm = ad.Tensor(theta_m, requires_grad=True)
        # ``so_loss_fn`` lets the solver share one intensity basis across
        # the whole outer iteration (and :meth:`at` across iterates).
        self._so_loss_fn = so_loss_fn
        #: True when the oracles run on the matrix-free split path: it
        #: needs Abbe's linear-in-``jn`` bases and source normalization.
        self.split = hasattr(objective, "loss_from_aerial") and isinstance(
            getattr(objective, "engine", None), AbbeImaging
        )
        if self.split:
            self._init_split()
            return
        loss = objective.loss(self._tj, self._tm)
        self.loss_value = float(loss.data)
        gj, gm = ad.grad(loss, [self._tj, self._tm], create_graph=True)
        self._gj_graph = gj
        self.grad_j = gj.data.copy()
        self.grad_m = gm.data.copy()

    def _init_split(self) -> None:
        objective = self.objective
        # ``loss`` checks this too; the split path never calls it, and the
        # post-aerial loss would broadcast a wrong-shaped mask silently.
        objective.check_theta_m(self._tm)
        cfg = objective.config
        engine = objective.engine
        self._stacks = engine.condition_stacks(objective.conditions)
        self._mask = mask_from_theta(self._tm, cfg)
        # 1. the per-condition intensity bases at this theta_M.
        bases = getattr(self._so_loss_fn, "bases", None)
        if bases is None:
            bases = tuple(
                engine.source_intensity_basis(self._mask.data, st.data)
                for st, _ in self._stacks
            )
        self._bases = bases
        # 2. the source chain jn(theta_J), and the aerial stack X jn as a
        #    leaf through the post-aerial loss: an FFT-free create-graph
        #    graph giving g_A and H_l-products.
        self._jn = engine.normalized_source_weights(
            source_from_theta(self._tj, cfg)
        )
        self._a = ad.Tensor(self._basis_apply(self._jn.data), requires_grad=True)
        loss = objective.loss_from_aerial(self._a)
        self.loss_value = float(loss.data)
        (self._ga,) = ad.grad(loss, [self._a], create_graph=True)
        # 3. jt_v = J^T v at v = X^T g_A is grad_j, and differentiating
        #    <jt_v, p> gives hess(phi) p (w.r.t. theta_J) and J p (w.r.t.
        #    v) in one backward.
        self._v = ad.Tensor(self._basis_adjoint(self._ga.data), requires_grad=True)
        (self._jt_v,) = ad.grad(
            self._jn, [self._tj], grad_output=self._v, create_graph=True
        )
        self.grad_j = self._jt_v.data.copy()

    @cached_property
    def grad_m(self) -> np.ndarray:
        """Direct gradient w.r.t. theta_M.  On the split path it is one
        streamed mask VJP with upstream g_A, run on first read: the
        reverse sweep's per-iterate contexts (:meth:`at`) never read it.
        The generic path sets it in ``__init__``."""
        return self._mask_vjp([(self._jn.data, self._ga.data)])

    def at(self, theta_j: np.ndarray) -> "HypergradientContext":
        """This context's oracles at another theta_J (same theta_M and
        source-only closure, so the bases are shared)."""
        return HypergradientContext(
            self.objective, theta_j, self._tm.data, self._so_loss_fn
        )

    # -- split-path building blocks --------------------------------------
    def _basis_apply(self, u: np.ndarray) -> np.ndarray:
        """``X u``: the aerial stack at source weights ``u`` (FFT-free)."""
        planes = [
            u @ x.reshape(x.shape[0], x.shape[1], -1) for x in self._bases
        ]
        return np.stack(planes).reshape((len(self._bases),) + self._tm.shape)

    def _basis_adjoint(self, h: np.ndarray) -> np.ndarray:
        """``X^T h`` for an aerial-stack-shaped ``h``: ``(S,)``."""
        nn = h.shape[-2] * h.shape[-1]
        hf = h.reshape(len(self._bases), -1, nn, 1)
        out = np.zeros(self._bases[0].shape[1])
        for x, hb in zip(self._bases, hf):
            out += (x.reshape(x.shape[0], x.shape[1], nn) @ hb)[..., 0].sum(axis=0)
        return out

    def _loss_hvp(self, da: np.ndarray) -> np.ndarray:
        """``H_l @ da`` through the FFT-free post-aerial graph."""
        inner = F.dot(self._ga, ad.Tensor(da))
        (h,) = ad.grad(inner, [self._a], allow_unused=True)
        return np.zeros_like(da) if h is None else h.data

    def _source_products(
        self, p: np.ndarray, wrt: List[ad.Tensor]
    ) -> List[np.ndarray]:
        """One backward of ``<J^T v, p>``: ``hess(phi) p`` w.r.t. theta_J,
        ``J p`` w.r.t. ``v`` (both exact; the graph is linear in ``v``)."""
        inner = F.dot(self._jt_v, ad.Tensor(p))
        return [g.data for g in ad.grad(inner, wrt)]

    def _mask_vjp(self, terms: List[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """``d/d theta_M`` of ``sum_k <g_k, image(weights=w_k)>`` for
        ``terms = [(w_k, g_k), ...]``: one streamed mask VJP, then the
        mask chain."""
        g_mask = F.incoherent_stack_mask_vjp(
            self._mask.data,
            [st for st, _ in self._stacks],
            terms,
            conj_pairs=[pairs for _, pairs in self._stacks],
        )
        (m,) = ad.grad(self._mask, [self._tm], grad_output=ad.Tensor(g_mask))
        return m.data

    # -- second-order oracles -------------------------------------------
    def hvp(self, p: np.ndarray) -> np.ndarray:
        """(d^2 L_so / d theta_J^2) @ p."""
        with obs_span("solver.hvp", split=self.split):
            if self.split:
                h_phi, jp = self._source_products(p, [self._tj, self._v])
                h_a = self._loss_hvp(self._basis_apply(jp))
                (h_src,) = ad.grad(
                    self._jn,
                    [self._tj],
                    grad_output=ad.Tensor(self._basis_adjoint(h_a)),
                )
                return h_phi + h_src.data
            inner = F.dot(self._gj_graph, ad.Tensor(p))
            (h,) = ad.grad(inner, [self._tj], allow_unused=True)
            return np.zeros_like(p) if h is None else h.data

    def mixed_vjp(self, w: np.ndarray) -> np.ndarray:
        """(d^2 L_so / d theta_M d theta_J) @ w — gradient-fusion term."""
        with obs_span("solver.mixed", split=self.split):
            if self.split:
                (u,) = self._source_products(w, [self._v])
                h_a = self._loss_hvp(self._basis_apply(u))
                return self._mask_vjp([(self._jn.data, h_a), (u, self._ga.data)])
            inner = F.dot(self._gj_graph, ad.Tensor(w))
            (m,) = ad.grad(inner, [self._tm], allow_unused=True)
            return np.zeros_like(self._tm.data) if m is None else m.data


def inner_iterates(
    objective: ProcessWindowSMOObjective,
    theta_j: np.ndarray,
    theta_m: np.ndarray,
    steps: int,
    optimizer: Optimizer,
) -> Tuple[List[np.ndarray], Optional[Callable[[ad.Tensor], ad.Tensor]]]:
    """``[theta_0, ..., theta_T]`` of ``steps`` inner SO steps at fixed
    theta_M (Alg. 2 line 2), and the source-only closure (or None) that
    carried them and whose bases the oracles reuse."""
    factory = getattr(objective, "source_only_loss", None)
    so_loss = factory(theta_m) if factory is not None else None
    tm_fixed = ad.Tensor(theta_m)
    iterates = [theta_j]
    for _ in range(steps):
        tj = ad.Tensor(iterates[-1], requires_grad=True)
        loss = so_loss(tj) if so_loss is not None else objective.loss(tj, tm_fixed)
        (gj,) = ad.grad(loss, [tj])
        iterates.append(optimizer.step(iterates[-1], gj.data))
    return iterates, so_loss


HypergradientFn = Callable[
    [HypergradientContext, float, int, float, Optional[np.ndarray]],
    Tuple[np.ndarray, Optional[np.ndarray]],
]


def _resolve_method(method: str) -> HypergradientFn:
    from .cg import cg_hypergradient
    from .fd import fd_hypergradient
    from .nmn import neumann_hypergradient
    from .unroll import reverse_sweep_hypergradient

    table = {
        "fd": fd_hypergradient,
        "nmn": neumann_hypergradient,
        "cg": cg_hypergradient,
        "unroll": reverse_sweep_hypergradient,
    }
    key = method.lower()
    if key not in table:
        raise KeyError(
            f"unknown BiSMO method {method!r}; choose from {sorted(table)}"
        )
    return table[key]


class BiSMO:
    """Bilevel SMO driver (Algorithm 2).

    Parameters
    ----------
    target:
        Binary target image ``(N, N)``, or a ``(B, N, N)`` stack for
        joint multi-clip SMO (one shared source, a ``theta_M`` stack).
    method:
        ``"fd"`` (Eq. (13)), ``"nmn"`` (truncated Neumann, Eq. (16)),
        ``"cg"`` (Eq. (18)) or ``"unroll"`` (reverse-mode reference).
    unroll_steps:
        Inner SO steps ``T`` per outer iteration (paper: 3).
    terms:
        Neumann terms / CG iterations ``K`` (paper: 5).
    inner_lr / outer_lr:
        Step sizes ``xi_J`` and ``xi_M`` (paper: 0.1 each).
    inner_optimizer / outer_optimizer:
        ``"sgd"`` or ``"adam"`` ("// Or Adam" in Alg. 2).  The
        ``"unroll"`` method differentiates through plain SGD inner
        updates, so it accepts ``inner_optimizer="sgd"`` only.
    hvp_mode:
        ``"exact"``, the only mode: every method takes its second-order
        products from the exact oracles of
        :class:`HypergradientContext`.  Kept as a keyword for existing
        callers; any other value raises ``ValueError``.
    damping:
        Tikhonov damping added to the inner Hessian in the CG solve.
    objective:
        Optional pre-built objective; overrides the default
        :class:`ProcessWindowSMOObjective` built from the arguments below.
    process_window:
        The :class:`repro.optics.ProcessWindow` both bilevel levels
        optimize the robust loss across (one fused condition stack per
        evaluation; hypergradients and HVPs flow through the condition
        axis).  ``None`` is Eq. (8)'s three dose corners, whose
        weighted sum is the paper's loss.  ``robust`` / ``robust_tau``
        select the corner reduction — weighted sum, smooth worst case,
        or ``"adaptive"``: an outer exponentiated-gradient ascent on the
        corner weights (one step per outer iteration, trajectory in the
        records) that closes the loop on true worst-case SMO.
    """

    def __init__(
        self,
        config: OpticalConfig,
        target: np.ndarray,
        method: str = "nmn",
        unroll_steps: int = 3,
        terms: int = 5,
        inner_lr: float = 0.1,
        outer_lr: float = 0.1,
        inner_optimizer: str = "sgd",
        outer_optimizer: str = "adam",
        hvp_mode: str = "exact",
        damping: float = 0.0,
        objective: Optional[ProcessWindowSMOObjective] = None,
        process_window: Optional[ProcessWindow] = None,
        robust: str = "sum",
        robust_tau: float = 1.0,
        seed: int = 0,
    ):
        self.config = config
        self.target = np.asarray(target, dtype=np.float64)
        self.objective = objective or ProcessWindowSMOObjective(
            config, self.target, process_window, robust=robust, tau=robust_tau
        )
        self.method = method.lower()
        self.seed = int(seed)
        self._hyper_fn = _resolve_method(method)
        if self.method == "nmn":
            # nmn's safeguard draws a power-iteration start vector; key
            # it on the solver's seed (routed via repro.utils.seed).
            self._hyper_fn = partial(self._hyper_fn, seed=self.seed)
        if hvp_mode != "exact":
            raise ValueError(
                f"unknown hvp_mode {hvp_mode!r}; the only mode is 'exact'"
            )
        if self.method == "unroll" and inner_optimizer.lower() != "sgd":
            raise ValueError(
                "BiSMO-UNROLL differentiates through plain SGD inner "
                f"updates; inner_optimizer={inner_optimizer!r} is not "
                "supported on the unroll path (use 'sgd' or an IFT method)"
            )
        if self.method == "unroll" and unroll_steps < 1:
            raise ValueError(f"BiSMO-UNROLL needs {unroll_steps=} >= 1")
        self.unroll_steps = unroll_steps
        self.terms = terms
        self.inner_lr = inner_lr
        self.outer_lr = outer_lr
        self.inner_optimizer = inner_optimizer
        self.outer_optimizer = outer_optimizer
        self.damping = damping
        self.method_name = f"BiSMO-{self.method.upper()}"

    def run(
        self,
        source_template: np.ndarray,
        iterations: int = 40,
        theta_m0: Optional[np.ndarray] = None,
        theta_j0: Optional[np.ndarray] = None,
        callback: Optional[Callable[[IterationRecord], Optional[bool]]] = None,
    ) -> SMOResult:
        cfg = self.config
        theta_m = (
            init_theta_mask(self.target, cfg)
            if theta_m0 is None
            else np.array(theta_m0, dtype=np.float64, copy=True)
        )
        theta_j = (
            init_theta_source(source_template, cfg)
            if theta_j0 is None
            else np.array(theta_j0, dtype=np.float64, copy=True)
        )
        inner_opt = make_optimizer(self.inner_optimizer, self.inner_lr)
        outer_opt = make_optimizer(self.outer_optimizer, self.outer_lr)
        warm: Optional[np.ndarray] = None
        history = []
        start = tick()
        for it in range(iterations):
            t0 = tick()
            with obs_span(
                "solver.iter", solver=self.method_name, iteration=it
            ):
                # ---- Alg. 2 line 2: unroll T inner SO steps -----------
                # theta_M is fixed for the whole outer iteration, so one
                # source-only closure (one intensity basis) carries every
                # inner step and Hessian product of this iteration.
                iterates, so_loss = inner_iterates(
                    self.objective, theta_j, theta_m, self.unroll_steps, inner_opt
                )
                theta_j = iterates[-1]
                # ---- Alg. 2 lines 5-12: hypergradient -----------------
                ctx = HypergradientContext(
                    self.objective, theta_j, theta_m, so_loss_fn=so_loss
                )
                # Capture per-tile losses and the corner matrix now: they
                # belong to ctx's loss evaluation, and the unrolled
                # sweep's contexts re-evaluate the objective at other
                # points below (clobbering the stashed diagnostics).
                tile_losses = getattr(self.objective, "last_tile_losses", None)
                corner_matrix = getattr(
                    self.objective, "last_corner_losses", None
                )
                # BiSMO-UNROLL sweeps back through the inner iterates.
                sweep = (
                    {"iterates": iterates[:-1]} if self.method == "unroll" else {}
                )
                with obs_span("solver.hypergrad", solver=self.method_name):
                    hyper, warm = self._hyper_fn(
                        ctx, self.inner_lr, self.terms, self.damping, warm, **sweep
                    )
                # ---- Alg. 2 line 13: outer MO step --------------------
                theta_m = outer_opt.step(theta_m, hyper)
                # Minimax ascent on the corner weights (robust="adaptive"):
                # one EG step per outer iteration, from the corner losses
                # of ctx's evaluation at the pre-step parameters.
                corner_w = adaptive_corner_update(self.objective, corner_matrix)
            rec = IterationRecord(
                it,
                ctx.loss_value,
                tick() - t0,
                "bilevel",
                tile_losses=tile_losses,
                corner_weights=corner_w,
            )
            observe_iteration(rec, grad=hyper)
            history.append(rec)
            if callback and callback(rec):
                break
        return SMOResult(
            method=self.method_name,
            theta_m=theta_m,
            theta_j=theta_j,
            history=history,
            runtime_seconds=tick() - start,
        )
