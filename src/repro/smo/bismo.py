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
2. builds a :class:`HypergradientContext` — one fused forward and one
   streamed backward giving the direct gradients, plus exact HVP /
   mixed-JVP oracles that split the loss at the aerial image (FFT-free
   Hessian products through the intensity basis, streamed mask VJPs
   for the mixed term; no create-graph imaging graph),
3. forms the hypergradient and updates theta_M (Alg. 2 line 13).

Since the paper sets ``L_so := L_mo := L_smo`` (Eq. (9)), one loss graph
serves both levels.

Joint multi-clip SMO: passing a ``(B, N, N)`` target stack (or a
:class:`repro.smo.objective.BatchedSMOObjective`) optimizes one shared
``theta_J`` against a ``(B, N, N)`` ``theta_M`` stack; hypergradients
and HVPs flow through the fused batched forward and every
:class:`IterationRecord` carries the per-tile loss vector.  Every
solver, UNROLL included, takes its second-order products from these
oracles: fused imaging is once-differentiable.
"""

from __future__ import annotations

from functools import partial
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
from .objective import (
    AbbeSMOObjective,
    BatchedSMOObjective,
    ProcessWindowSMOObjective,
    adaptive_corner_update,
)
from .parametrization import (
    init_theta_mask,
    init_theta_source,
    mask_from_theta,
    source_from_theta,
)
from .state import IterationRecord, SMOResult

__all__ = ["HypergradientContext", "BiSMO"]

#: Second-order oracle modes of :class:`HypergradientContext`.
HVP_MODES = ("exact", "fd")


class HypergradientContext:
    """First-order state at (theta_J, theta_M) plus exact second-order
    oracles.

    Exposes:

    * ``grad_j`` / ``grad_m`` — direct gradients (numpy copies),
    * :meth:`hvp` — exact inner Hessian-vector products
      ``(d^2 L_so / d theta_J^2) @ p``,
    * :meth:`mixed_vjp` — exact mixed products
      ``(d^2 L_so / d theta_M d theta_J) @ w`` (shape of theta_M).

    The oracles feed every hypergradient strategy: finite-difference
    (:mod:`repro.smo.fd`), truncated Neumann series (:mod:`repro.smo.nmn`)
    and conjugate gradient (:mod:`repro.smo.cg`).

    ``hvp_mode="exact"`` on an objective that splits at the aerial image
    (``loss_from_aerial`` over ``conditions``, ``check_theta_m``, and an
    :class:`repro.optics.abbe.AbbeImaging` engine) takes the matrix-free path
    (:attr:`split` is True).  The aerial stack is linear in the
    normalized source weights, ``A = X jn(theta_J)`` with ``X`` the
    per-condition intensity bases at the fixed mask, and the loss
    ``l(A)`` is an FFT-free function of ``A``.  With ``g_A = dl/dA``,
    ``H_l`` its Hessian, ``J = d jn / d theta_J`` and ``phi(theta_J) =
    <X^T g_A, jn(theta_J)>``:

    * ``hvp(p) = J^T X^T H_l X J p + hess(phi) p`` — FFT-free;
    * ``mixed_vjp(w)`` is the mask-chain VJP of
      ``VJP_M[weights=J w, upstream=g_A] + VJP_M[weights=jn,
      upstream=H_l X J w]``: two graph-free streamed mask VJPs
      (:func:`repro.autodiff.functional.incoherent_stack_mask_vjp`).

    The context keeps no create-graph imaging graph: one fused
    first-order forward, one streamed backward for ``grad_m``, and
    small create-graph graphs over the aerial stack (``l``) and the
    source chain (``jn``).  ``X`` comes from ``so_loss_fn.bases`` (the
    solver's source-only closure) or is built from the engine.

    Objectives without the split (duck-typed toys, the per-tile
    :class:`repro.smo.objective.LoopedSMOObjective` reference) take the
    generic path: one loss evaluation with ``create_graph=True`` and
    both products by a second backward pass through the gradient graph
    — the double-backward reference the split path is tested against
    (on a composed engine, ``AbbeImaging(config, fused=False)``).
    ``hvp_mode="fd"`` uses central differences of fresh gradient
    evaluations instead (cheaper in memory — the DARTS trick).

    ``objective`` is any SMO objective exposing ``loss(theta_j,
    theta_m)`` — single-tile :class:`AbbeSMOObjective`, a batched
    multi-clip objective (``theta_m`` is then a ``(B, N, N)`` stack) or
    a process-window objective.
    """

    def __init__(
        self,
        objective: AbbeSMOObjective,
        theta_j: np.ndarray,
        theta_m: np.ndarray,
        hvp_mode: str = "exact",
        fd_eps: float = 1e-2,
        so_loss_fn: Optional[Callable[[ad.Tensor], ad.Tensor]] = None,
    ):
        if hvp_mode not in HVP_MODES:
            raise ValueError(f"unknown hvp_mode {hvp_mode!r}")
        self.objective = objective
        self.hvp_mode = hvp_mode
        self.fd_eps = fd_eps
        self._tj = ad.Tensor(theta_j, requires_grad=True)
        self._tm = ad.Tensor(theta_m, requires_grad=True)
        # ``so_loss_fn`` lets the solver share one intensity basis across
        # the whole outer iteration; otherwise the objective's
        # ``source_only_loss`` factory is used (FD mode's cheap inner
        # gradients, the split path's bases).
        if so_loss_fn is None:
            factory = getattr(objective, "source_only_loss", None)
            so_loss_fn = factory(theta_m) if factory is not None else None
        self._so_loss_fn = so_loss_fn
        #: True when the oracles run on the matrix-free split path.
        self.split = hvp_mode == "exact" and _splits_at_aerial(objective)
        if self.split:
            self._init_split()
            return
        loss = objective.loss(self._tj, self._tm)
        self.loss_value = float(loss.data)
        create = hvp_mode == "exact"
        gj, gm = ad.grad(loss, [self._tj, self._tm], create_graph=create)
        self._gj_graph = gj if create else None
        self.grad_j = gj.data.copy()
        self.grad_m = gm.data.copy()

    def _init_split(self) -> None:
        objective = self.objective
        # ``loss`` checks this too; the split path never calls it, and the
        # post-aerial loss would broadcast a wrong-shaped mask silently.
        objective.check_theta_m(self._tm)
        cfg = objective.config
        engine = objective.engine
        conditions = objective.conditions
        self._stacks = engine.condition_stacks(conditions)
        # 1. one fused first-order forward (the source is a constant
        #    here, so the streamed backward skips the weight gradient).
        source = source_from_theta(ad.Tensor(self._tj.data), cfg)
        self._mask = mask_from_theta(self._tm, cfg)
        stack = engine.aerial_conditions(self._mask, source, conditions)
        # 2. the post-aerial loss on a leaf copy of the stack: an
        #    FFT-free create-graph graph giving g_A and H_l-products.
        self._a = ad.Tensor(stack.data, requires_grad=True)
        loss = objective.loss_from_aerial(self._a)
        self.loss_value = float(loss.data)
        (self._ga,) = ad.grad(loss, [self._a], create_graph=True)
        # 3. grad_m from one streamed backward with upstream g_A.
        (gm,) = ad.grad(stack, [self._tm], grad_output=ad.Tensor(self._ga.data))
        self.grad_m = gm.data.copy()
        # 4. the per-condition intensity bases at this theta_M.
        bases = getattr(self._so_loss_fn, "bases", None)
        if bases is None:
            bases = tuple(
                engine.source_intensity_basis(self._mask.data, st.data)
                for st, _ in self._stacks
            )
        self._bases = bases
        # 5. the source chain: jt_v = J^T v at v = X^T g_A is grad_j, and
        #    differentiating <jt_v, p> gives hess(phi) p (w.r.t. theta_J)
        #    and J p (w.r.t. v) in one backward.
        self._jn = engine.normalized_source_weights(
            source_from_theta(self._tj, cfg)
        )
        self._v = ad.Tensor(self._basis_adjoint(self._ga.data), requires_grad=True)
        (self._jt_v,) = ad.grad(
            self._jn, [self._tj], grad_output=self._v, create_graph=True
        )
        self.grad_j = self._jt_v.data.copy()

    def at(self, theta_j: np.ndarray) -> "HypergradientContext":
        """This context's oracles at another theta_J (same theta_M,
        mode and source-only closure, so the bases are shared)."""
        return HypergradientContext(
            self.objective, theta_j, self._tm.data, self.hvp_mode,
            self.fd_eps, self._so_loss_fn,
        )

    # -- split-path building blocks --------------------------------------
    def _basis_apply(self, u: np.ndarray) -> np.ndarray:
        """``X u``: the aerial stack at source weights ``u`` (FFT-free)."""
        planes = [
            u @ x.reshape(x.shape[0], x.shape[1], -1) for x in self._bases
        ]
        return np.stack(planes).reshape(self._a.shape)

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

    # -- second-order oracles -------------------------------------------
    def hvp(self, p: np.ndarray) -> np.ndarray:
        """(d^2 L_so / d theta_J^2) @ p."""
        with obs_span("solver.hvp", mode=self.hvp_mode, split=self.split):
            if self.split:
                h_phi, jp = self._source_products(p, [self._tj, self._v])
                h_a = self._loss_hvp(self._basis_apply(jp))
                (h_src,) = ad.grad(
                    self._jn,
                    [self._tj],
                    grad_output=ad.Tensor(self._basis_adjoint(h_a)),
                )
                return h_phi + h_src.data
            if self.hvp_mode == "exact":
                inner = F.dot(self._gj_graph, ad.Tensor(p))
                (h,) = ad.grad(inner, [self._tj], allow_unused=True)
                return np.zeros_like(p) if h is None else h.data
            return self._fd_second_order(p, wrt="j")

    def mixed_vjp(self, w: np.ndarray) -> np.ndarray:
        """(d^2 L_so / d theta_M d theta_J) @ w — gradient-fusion term."""
        with obs_span("solver.mixed", mode=self.hvp_mode, split=self.split):
            if self.split:
                (u,) = self._source_products(w, [self._v])
                h_a = self._loss_hvp(self._basis_apply(u))
                g_mask = F.incoherent_stack_mask_vjp(
                    self._mask.data,
                    [st for st, _ in self._stacks],
                    [(self._jn.data, h_a), (u, self._ga.data)],
                    conj_pairs=[pairs for _, pairs in self._stacks],
                )
                (m,) = ad.grad(
                    self._mask, [self._tm], grad_output=ad.Tensor(g_mask)
                )
                return m.data
            if self.hvp_mode == "exact":
                inner = F.dot(self._gj_graph, ad.Tensor(w))
                (m,) = ad.grad(inner, [self._tm], allow_unused=True)
                return np.zeros_like(self._tm.data) if m is None else m.data
            return self._fd_second_order(w, wrt="m")

    def _fd_second_order(self, vec: np.ndarray, wrt: str) -> np.ndarray:
        """Central difference of the relevant first-order gradient while
        perturbing theta_J along ``vec`` (:func:`repro.autodiff.hvp_fd` /
        :func:`repro.autodiff.mixed_jvp_fd`, DARTS-style step scaling)."""
        if float(np.linalg.norm(vec.ravel())) == 0.0:
            # mixed_jvp_fd rejects a zero direction; the product is zero.
            return np.zeros_like(vec if wrt == "j" else self._tm.data)
        # theta_M is fixed along this perturbation: the FFT-free
        # source-only graph gives the same theta_J gradient, cheaper.
        so_loss = self._so_loss_fn if wrt == "j" else None

        def grad_fn(t: ad.Tensor) -> ad.Tensor:
            tj = ad.Tensor(t.data, requires_grad=True)
            if so_loss is not None:
                return ad.grad(so_loss(tj), [tj])[0]
            tm = ad.Tensor(self._tm.data, requires_grad=True)
            target = tj if wrt == "j" else tm
            return ad.grad(self.objective.loss(tj, tm), [target])[0]

        fd = ad.hvp_fd if wrt == "j" else ad.mixed_jvp_fd
        return fd(grad_fn, self._tj, ad.Tensor(vec), eps=self.fd_eps).data


def _splits_at_aerial(objective) -> bool:
    """Does ``objective`` split at the aerial stack over an Abbe engine
    (the matrix-free oracle path)?  The path needs Abbe's linear-in-
    ``jn`` intensity bases and its source normalization."""
    return hasattr(objective, "loss_from_aerial") and isinstance(
        getattr(objective, "engine", None), AbbeImaging
    )


def inner_iterates(
    objective: AbbeSMOObjective,
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
        joint multi-clip SMO (one shared source, a ``theta_M`` stack;
        the default objective becomes :class:`BatchedSMOObjective`).
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
        ``"exact"`` (exact second-order oracles; see
        :class:`HypergradientContext`) or ``"fd"`` (finite differences).
    damping:
        Tikhonov damping added to the inner Hessian in the CG solve.
    process_window:
        Optional :class:`repro.optics.ProcessWindow`: both bilevel
        levels then optimize the robust loss across the dose x
        aberration corner grid (:class:`ProcessWindowSMOObjective`; one
        fused condition stack per evaluation, hypergradients and HVPs
        flow through the condition axis).  ``robust`` / ``robust_tau``
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
        objective: Optional[AbbeSMOObjective] = None,
        process_window: Optional[ProcessWindow] = None,
        robust: str = "sum",
        robust_tau: float = 1.0,
        seed: int = 0,
    ):
        self.config = config
        self.target = np.asarray(target, dtype=np.float64)
        if objective is not None:
            self.objective = objective
        elif process_window is not None:
            self.objective = ProcessWindowSMOObjective(
                config, self.target, process_window, robust=robust, tau=robust_tau
            )
        elif self.target.ndim == 3:
            self.objective = BatchedSMOObjective(config, self.target)
        else:
            self.objective = AbbeSMOObjective(config, self.target)
        self.method = method.lower()
        self.seed = int(seed)
        self._hyper_fn = _resolve_method(method)
        if self.method == "nmn":
            # nmn's safeguard draws a power-iteration start vector; key
            # it on the solver's seed (routed via repro.utils.seed).
            self._hyper_fn = partial(self._hyper_fn, seed=self.seed)
        if hvp_mode not in HVP_MODES:
            raise ValueError(f"unknown hvp_mode {hvp_mode!r}; choose {HVP_MODES}")
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
        self.hvp_mode = hvp_mode
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
                    self.objective,
                    theta_j,
                    theta_m,
                    hvp_mode=self.hvp_mode,
                    so_loss_fn=so_loss,
                )
                # Capture per-tile losses and the corner matrix now: they
                # belong to ctx's loss evaluation, and FD-mode products
                # and the unrolled sweep's contexts re-evaluate the
                # objective at other points below (clobbering the
                # stashed diagnostics).
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
