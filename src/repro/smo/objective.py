"""SMO objectives — Equations (7)-(9) of the paper.

``L_smo := L_so := L_mo = gamma * L2 + eta * L_pvb`` where

* ``L2``   = || Z - Z_t ||^2 at nominal dose (Eq. (7)),
* ``L_pvb`` = || Z_max - Z_t ||^2 + || Z_min - Z_t ||^2 at the +/-2 %
  dose corners (Eq. (8)).

That is a weighted sum over three dose corners — nominal at weight
``gamma``, +/-2 % at weight ``eta`` — so it *is* a three-corner process
window (:meth:`repro.optics.ProcessWindow.from_config`).  There is one
objective per imaging model: :class:`ProcessWindowSMOObjective` (Abbe,
differentiable in source and mask) and :class:`HopkinsMOObjective`
(Hopkins/SOCS, mask only).  Without an explicit window both optimize
Eq. (8)'s corners at their engine's own aberration;
:class:`AbbeSMOObjective` / :class:`BatchedSMOObjective` are that
default on an ``(N, N)`` tile / a ``(B, N, N)`` stack.
:func:`smo_loss_from_aerial` spells Eqs. (7)-(8) out literally, as the
independent reference the objectives are tested against.

Dose handling: the paper substitutes ``M_min = d_min * sigma(alpha_m
theta_M)`` into the forward model.  Because Abbe/Hopkins intensity is a
quadratic form in the mask transmission, scaling the mask by ``d``
scales the whole aerial image by ``d^2`` *exactly*; we therefore image
once per pupil condition and evaluate the dose corners as
``sigmoid(beta * (d^2 * I - I_tr))``, which is algebraically identical
to one forward pass per corner.

All objectives consume any :class:`repro.optics.ImagingEngine`; default
engines come from the shared optics cache, and every inference-only
entry point (``images()``) rides the engines' graph-free fast path.
Every objective images through the fused
:func:`repro.autodiff.functional.incoherent_image_stack` node over the
window's distinct pupil conditions (streamed forward, hand-written
VJP), so neither the loss nor its backward retains a ``(B, S, N, N)``
field stack.  The Abbe objective splits at that stack:
``loss(theta_j, theta_m) == loss_from_aerial(engine.aerial_conditions(
mask, source, conditions))``, with ``loss_from_aerial`` an FFT-free
function of the aerial stack — the seam BiSMO's matrix-free
second-order oracles (:class:`repro.smo.bismo.HypergradientContext`)
are built on.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import autodiff as ad
from ..autodiff import functional as F
from ..optics import (
    ImagingEngine,
    OpticalConfig,
    ProcessWindow,
    SourceGrid,
    engine_for,
)
from .parametrization import mask_from_theta, source_from_theta

__all__ = [
    "dose_resist",
    "smo_loss_from_aerial",
    "robust_corner_loss",
    "robust_tile_losses",
    "windowed_corner_loss",
    "AdaptiveCornerWeights",
    "adaptive_corner_update",
    "AbbeSMOObjective",
    "HopkinsMOObjective",
    "BatchedSMOObjective",
    "LoopedSMOObjective",
    "ProcessWindowSMOObjective",
    "ROBUST_MODES",
]


def dose_resist(
    aerial: ad.Tensor,
    config: OpticalConfig,
    dose: float,
    intensity_threshold: Optional[float] = None,
) -> ad.Tensor:
    """Resist image at a given dose: sigmoid(beta * (dose^2 * I - I_tr)).

    ``intensity_threshold`` overrides the config's shared ``I_tr`` —
    the per-corner resist calibration a
    :class:`repro.optics.ProcessCorner` can carry; ``None`` keeps the
    config value.
    """
    threshold = (
        config.intensity_threshold
        if intensity_threshold is None
        else float(intensity_threshold)
    )
    scaled = F.mul(aerial, dose * dose) if dose != 1.0 else aerial
    return F.sigmoid(F.mul(F.sub(scaled, threshold), config.beta))


def smo_loss_from_aerial(
    aerial: ad.Tensor, target: ad.Tensor, config: OpticalConfig
) -> ad.Tensor:
    """gamma * L2 + eta * L_pvb evaluated from one aerial image.

    Eqs. (7)-(8) written out term by term, independent of the window
    machinery: the reference the default-window objectives are tested
    against.  Shapes broadcast: a ``(B, N, N)`` aerial/target pair
    yields the summed loss over the whole batch (one scalar, one graph).
    """
    z_nom = dose_resist(aerial, config, 1.0)
    z_min = dose_resist(aerial, config, config.dose_min)
    z_max = dose_resist(aerial, config, config.dose_max)
    l2 = F.sum(F.power(F.sub(z_nom, target), 2.0))
    pvb = F.add(
        F.sum(F.power(F.sub(z_max, target), 2.0)),
        F.sum(F.power(F.sub(z_min, target), 2.0)),
    )
    return F.add(F.mul(l2, config.gamma), F.mul(pvb, config.eta))


def _resist_images_fast(
    aerial_np: np.ndarray, config: OpticalConfig
) -> Dict[str, np.ndarray]:
    """Dose-corner resist images from a numpy aerial (no graph)."""
    with ad.no_grad():
        aerial = ad.Tensor(aerial_np)
        return {
            "aerial": aerial_np,
            "resist": dose_resist(aerial, config, 1.0).data,
            "resist_min": dose_resist(aerial, config, config.dose_min).data,
            "resist_max": dose_resist(aerial, config, config.dose_max).data,
        }


# ----------------------------------------------------------------------
# process-window robustness: corner losses + robust reductions
# ----------------------------------------------------------------------
#: Supported robust reductions across process corners.  ``"adaptive"``
#: is the weighted sum under live :class:`AdaptiveCornerWeights` — the
#: soft-minimax ascent loop the solvers step once per outer iteration.
ROBUST_MODES = ("sum", "max", "adaptive")


def _corner_loss_terms(
    aerials: Sequence[ad.Tensor],
    target: ad.Tensor,
    window: ProcessWindow,
    config: OpticalConfig,
) -> Tuple[List[ad.Tensor], np.ndarray]:
    """Per-corner squared-error scalars from per-condition aerial images.

    ``aerials[i]`` is the (differentiable) aerial image at the window's
    i-th distinct pupil condition; each corner applies its exact
    post-aerial ``dose**2`` scaling (and its calibrated resist
    threshold, when set) through :func:`dose_resist` and contributes
    ``L_c = || Z_c - Z_t ||^2``.  Returns the list of C scalar loss
    tensors plus the ``(C, B)`` per-tile loss matrix (harvested from the
    already-computed resist data at no extra imaging cost).
    """
    fidx = window.condition_index()
    losses: List[ad.Tensor] = []
    matrix_rows = []
    for ci, corner in enumerate(window.corners):
        z = dose_resist(
            aerials[int(fidx[ci])],
            config,
            corner.dose,
            corner.intensity_threshold,
        )
        sq = F.power(F.sub(z, target), 2.0)
        losses.append(F.sum(sq))
        d = sq.data
        matrix_rows.append(
            d.sum(axis=(-2, -1)).reshape(-1) if d.ndim == 3 else [d.sum()]
        )
    return losses, np.asarray(matrix_rows, dtype=np.float64)


def _resolve_corner_weights(
    window: ProcessWindow, weights: Optional[np.ndarray]
) -> np.ndarray:
    if weights is None:
        return window.weights
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.shape != (window.num_corners,):
        raise ValueError(
            f"corner weights must be ({window.num_corners},); got {w.shape}"
        )
    return w


def robust_corner_loss(
    corner_losses: Sequence[ad.Tensor],
    window: ProcessWindow,
    robust: str = "sum",
    tau: float = 1.0,
    weights: Optional[np.ndarray] = None,
) -> ad.Tensor:
    """Reduce per-corner scalar losses to one robust objective.

    * ``"sum"`` — the weighted sum ``sum_c w_c L_c``.  With the paper's
      window (:meth:`ProcessWindow.from_config`) this *is* the classic
      ``gamma * L2 + eta * L_pvb`` loss.
    * ``"max"`` — the smooth worst case ``tau * log sum_c w_c
      exp(L_c / tau)``: a log-sum-exp upper bound on the (weighted) worst
      corner that stays differentiable.  Evaluated with the standard
      constant max-shift, which leaves value and all derivatives exact.
      Smaller ``tau`` tracks the hard max more tightly; ``tau`` is in
      loss units.
    * ``"adaptive"`` — a weighted sum under the *live* weights of an
      :class:`AdaptiveCornerWeights` ascent (passed via ``weights``):
      within one evaluation the weights are constants, so the graph is
      the ``"sum"`` graph; the minimax behavior comes from the outer
      weight updates between iterations.

    ``weights`` overrides the window's static corner weights for the
    reduction (any mode); ``None`` uses ``window.weights``.
    """
    if robust not in ROBUST_MODES:
        raise ValueError(f"unknown robust mode {robust!r}; choose {ROBUST_MODES}")
    w_arr = _resolve_corner_weights(window, weights)
    if robust in ("sum", "adaptive"):
        total: Optional[ad.Tensor] = None
        for loss, w in zip(corner_losses, w_arr):
            term = F.mul(loss, float(w))
            total = term if total is None else F.add(total, term)
        if total is None:
            raise ValueError("robust_corner_loss needs at least one corner loss")
        return total
    if tau <= 0.0:
        raise ValueError(f"tau must be positive; got {tau}")
    shift = max(float(loss.data) for loss in corner_losses)
    acc: Optional[ad.Tensor] = None
    for loss, w in zip(corner_losses, w_arr):
        term = F.mul(F.exp(F.div(F.sub(loss, shift), float(tau))), float(w))
        acc = term if acc is None else F.add(acc, term)
    if acc is None:
        raise ValueError("robust_corner_loss needs at least one corner loss")
    return F.add(F.mul(F.log(acc), float(tau)), shift)


def robust_tile_losses(
    matrix: np.ndarray,
    window: ProcessWindow,
    robust: str = "sum",
    tau: float = 1.0,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-tile robust losses ``(B,)`` from a ``(C, B)`` corner matrix."""
    if robust not in ROBUST_MODES:
        raise ValueError(f"unknown robust mode {robust!r}; choose {ROBUST_MODES}")
    w = _resolve_corner_weights(window, weights)
    if robust in ("sum", "adaptive"):
        return w @ matrix
    shift = matrix.max(axis=0)
    return tau * np.log(
        (w[:, None] * np.exp((matrix - shift) / tau)).sum(axis=0)
    ) + shift


def _default_window(
    config: OpticalConfig, engine: ImagingEngine, pvb: bool = True
) -> ProcessWindow:
    """Every objective's default window: Eq. (8)'s dose corners
    (:meth:`ProcessWindow.from_config`) at ``engine``'s own aberration.

    Its ``robust="sum"`` loss *is* ``gamma * L2 + eta * L_pvb`` imaged
    at the engine's own pupil condition.  ``pvb=False`` keeps the
    nominal corner alone: ``gamma * L2``, Neural-ILT's printability loss.
    """
    corners = ProcessWindow.from_config(config).corners
    return ProcessWindow(
        tuple(
            replace(c, aberrations=engine.aberration)
            for c in (corners if pvb else corners[:1])
        )
    )


def windowed_corner_loss(
    engine: ImagingEngine,
    config: OpticalConfig,
    mask: ad.Tensor,
    target: ad.Tensor,
    window: ProcessWindow,
    robust: str = "sum",
    tau: float = 1.0,
    source: Optional[ad.Tensor] = None,
    weights: Optional[np.ndarray] = None,
) -> Tuple[ad.Tensor, np.ndarray]:
    """One fused condition-axis evaluation of a robust window loss.

    The single shared implementation behind every windowed objective
    (:class:`ProcessWindowSMOObjective`, the windowed
    :class:`HopkinsMOObjective`, the robust NILT baseline): one
    ``engine.aerial_conditions`` stack (shared mask spectrum across the
    window's distinct pupil conditions — defocus *and* general Zernike
    aberrations), per-corner ``dose**2`` resists with per-corner
    thresholds, and the robust reduction.  Pass ``source=None`` for
    baked-source (Hopkins) engines and ``weights`` for live adaptive
    corner weights.  Returns ``(robust_loss, corner_matrix)`` with the
    matrix shaped ``(C, B)``.
    """
    stack = engine.aerial_conditions(mask, source, window.conditions())
    return _windowed_loss_from_stack(
        stack, target, window, config, robust, tau, weights
    )


def _windowed_loss_from_stack(
    stack: ad.Tensor,
    target: ad.Tensor,
    window: ProcessWindow,
    config: OpticalConfig,
    robust: str = "sum",
    tau: float = 1.0,
    weights: Optional[np.ndarray] = None,
) -> Tuple[ad.Tensor, np.ndarray]:
    """Robust window loss from an ``(F, [B,] N, N)`` aerial stack.

    ``stack[f]`` is the aerial image at ``window.conditions()[f]``; each
    corner applies its ``dose**2`` resist (and calibrated threshold)
    and the per-corner losses reduce through
    :func:`robust_corner_loss`.  FFT-free.  Returns ``(robust_loss,
    corner_matrix)`` with the matrix shaped ``(C, B)``.
    """
    aerials = [F.getitem(stack, fi) for fi in range(stack.shape[0])]
    losses, matrix = _corner_loss_terms(aerials, target, window, config)
    return robust_corner_loss(losses, window, robust, tau, weights), matrix


class AdaptiveCornerWeights:
    """Soft-minimax corner reweighting by exponentiated-gradient ascent.

    ``robust="adaptive"`` closes the loop on true worst-case
    optimization: instead of a fixed weighted sum (``"sum"``) or a fixed
    log-sum-exp temperature (``"max"``), the corner weights themselves
    are a simplex variable ``lambda`` ascending the inner maximization
    of

        min_theta  max_{lambda in simplex}  sum_c lambda_c L_c(theta).

    After each outer iteration the solvers call :meth:`update` with the
    current per-corner losses, taking the mirror-ascent (EG) step

        lambda_c  <-  lambda_c * exp(rate * L_c / mean(L)) / Z

    — the multiplicative-weights update on the corner loss *shares*
    (normalizing by ``mean(L)`` makes ``rate`` scale-free).  ``lambda``
    is seeded from the window's normalized static weights, and
    :attr:`weights` rescales it by the window's total weight mass so
    adaptive losses stay magnitude-comparable with ``robust="sum"``.
    ``floor`` lower-bounds every corner's simplex share at ``floor / C``
    (one ``floor``-th of the uniform share) so no corner ever stops
    being monitored entirely (a dead corner could silently regress).
    """

    @classmethod
    def maybe(
        cls,
        window: Optional[ProcessWindow],
        robust: str,
        rate: float,
    ) -> Optional["AdaptiveCornerWeights"]:
        """The standard consumer wiring: an ascent instance iff
        ``robust == "adaptive"`` and a window exists, else ``None``.
        Every windowed objective/baseline builds (or inherits) its
        adaptive weights through this one idiom."""
        if robust != "adaptive" or window is None:
            return None
        return cls(window, rate=rate)

    def __init__(
        self, window: ProcessWindow, rate: float = 1.0, floor: float = 1e-3
    ):
        if rate <= 0.0:
            raise ValueError(f"adaptive rate must be positive; got {rate}")
        if not 0.0 <= floor < 1.0:
            raise ValueError(f"floor must be in [0, 1); got {floor}")
        base = window.weights
        self.window = window
        self.rate = float(rate)
        self.floor = float(floor)
        self.total_mass = float(base.sum())
        self.lam = base / self.total_mass
        self._apply_floor()

    def _apply_floor(self) -> None:
        if self.floor > 0.0:
            self.lam = np.maximum(self.lam, self.floor / self.lam.size)
            self.lam = self.lam / self.lam.sum()

    @property
    def weights(self) -> np.ndarray:
        """Current corner weights ``(C,)`` (simplex * total mass)."""
        return self.total_mass * self.lam

    def update(self, corner_losses: np.ndarray) -> np.ndarray:
        """One EG ascent step from per-corner losses; returns the new
        weights.  Non-finite or non-positive loss vectors leave the
        weights unchanged (nothing to ascend)."""
        losses = np.asarray(corner_losses, dtype=np.float64).reshape(-1)
        if losses.shape != self.lam.shape:
            raise ValueError(
                f"corner losses must be ({self.lam.size},); got {losses.shape}"
            )
        mean = losses.mean()
        if not np.isfinite(mean) or mean <= 0.0:
            return self.weights
        z = self.rate * losses / mean
        z -= z.max()  # constant shift cancels in the normalization
        self.lam = self.lam * np.exp(z)
        self.lam = self.lam / self.lam.sum()
        self._apply_floor()
        return self.weights


def live_corner_weights(
    adaptive: Optional[AdaptiveCornerWeights],
) -> Optional[np.ndarray]:
    """Current weight override of an (optional) adaptive ascent.

    The shared accessor behind every objective's ``_robust_weights``:
    ``None`` (use the window's static weights) when no ascent is
    attached, the live weight vector otherwise.
    """
    return None if adaptive is None else adaptive.weights


def adaptive_corner_update(
    objective, matrix: Optional[np.ndarray] = None
) -> Optional[np.ndarray]:
    """Step an objective's adaptive corner weights (solver helper).

    Looks for ``objective.adaptive_weights`` (an
    :class:`AdaptiveCornerWeights`, present when the objective was built
    with ``robust="adaptive"``) and EG-updates it from a ``(C, B)``
    corner-loss matrix summed over tiles.  ``matrix`` defaults to the
    objective's stashed ``last_corner_losses``; solvers whose iteration
    re-evaluates the objective at *perturbed* points after the iterate's
    own evaluation (BiSMO's FD hypergradient oracles) must capture the
    matrix at the iterate and pass it explicitly, or the ascent would
    run on perturbed losses.  Returns a copy of the current weights for
    the iteration record, or ``None`` when the objective is not
    adaptive — solvers call this unconditionally once per outer
    iteration.
    """
    adaptive = getattr(objective, "adaptive_weights", None)
    if adaptive is None:
        return None
    if matrix is None:
        matrix = getattr(objective, "last_corner_losses", None)
    if matrix is not None:
        adaptive.update(np.asarray(matrix).sum(axis=1))
    return adaptive.weights.copy()


class ProcessWindowSMOObjective:
    """The Abbe SMO loss ``L_smo(theta_J, theta_M)`` across a dose x
    aberration :class:`ProcessWindow` — the one Abbe SMO objective.

    One evaluation images every distinct pupil condition of the window
    — defocus and general Zernike aberrations alike — through the
    engine's fused ``aerial_conditions`` stack (a single mask-spectrum
    FFT shared by all conditions), applies each corner's exact
    ``dose**2`` scaling (and calibrated resist threshold, when set) in
    the resist model, and reduces the per-corner losses with
    :func:`robust_corner_loss`.  Without ``window`` the window is Eq.
    (8)'s three dose corners at the engine's own aberration, so under
    ``robust="sum"`` the loss *is* the paper's ``gamma * L2 + eta *
    L_pvb`` (Eqs. (7)-(9)); :class:`AbbeSMOObjective` and
    :class:`BatchedSMOObjective` are this default on an ``(N, N)`` tile
    and a ``(B, N, N)`` stack.  ``robust="adaptive"`` attaches an
    :class:`AdaptiveCornerWeights` ascent (``tau`` becomes the EG rate)
    that solvers step once per outer iteration via
    :func:`adaptive_corner_update`.

    ``target`` may be a single ``(N, N)`` tile or a ``(B, N, N)`` stack
    (joint multi-clip SMO — per-tile losses ride every iteration
    record, and the ``(C, B)`` corner matrix is stashed on
    ``last_corner_losses`` for the harness report).  Differentiable in
    both parameters.  The loss splits at the aerial stack
    (:meth:`loss_from_aerial` over :attr:`conditions`), which is what
    BiSMO's matrix-free second-order oracles build on, and the
    objective exposes the FFT-free ``source_only_loss`` inner oracle
    through per-condition intensity bases.
    """

    def __init__(
        self,
        config: OpticalConfig,
        target: np.ndarray,
        window: Optional[ProcessWindow] = None,
        engine: Optional[ImagingEngine] = None,
        robust: str = "sum",
        tau: float = 1.0,
        reduction: str = "sum",
    ):
        if robust not in ROBUST_MODES:
            raise ValueError(
                f"unknown robust mode {robust!r}; choose {ROBUST_MODES}"
            )
        if reduction not in ("sum", "mean"):
            raise ValueError(f"unknown reduction {reduction!r}")
        target = np.asarray(target, dtype=np.float64)
        n = config.mask_size
        if target.ndim not in (2, 3) or target.shape[-2:] != (n, n):
            raise ValueError(
                f"target must be ({n}, {n}) or (B, {n}, {n}); got {target.shape}"
            )
        self.config = config
        self.engine = engine or engine_for(config, "abbe")
        if not hasattr(self.engine, "source_weights"):
            raise ValueError(
                "ProcessWindowSMOObjective needs a source-differentiable "
                "engine (the loss is a function of theta_J); for "
                "baked-source Hopkins engines use "
                "HopkinsMOObjective(..., window=...) instead"
            )
        self.window = window or _default_window(config, self.engine)
        self.robust = robust
        self.tau = float(tau)
        self.reduction = reduction
        self._batched = target.ndim == 3
        self.num_tiles = target.shape[0] if self._batched else 1
        self.target = self.targets = ad.Tensor(target)
        #: ``(C, B)`` per-corner / per-tile loss matrix of the latest
        #: :meth:`loss` call (C follows ``window.corners`` order).
        self.last_corner_losses: Optional[np.ndarray] = None
        #: Per-tile robust loss vector of the latest call (batched only).
        self.last_tile_losses: Optional[np.ndarray] = None
        #: Live minimax corner weights (``robust="adaptive"`` only).
        self.adaptive_weights = AdaptiveCornerWeights.maybe(
            self.window, robust, self.tau
        )

    # ------------------------------------------------------------------
    def _robust_weights(self) -> Optional[np.ndarray]:
        """Current corner-weight override (live adaptive weights)."""
        return live_corner_weights(self.adaptive_weights)

    def check_theta_m(self, theta_m) -> None:
        """Raise ``ValueError`` unless ``theta_m`` is shaped like the
        target (``(B, N, N)`` batched, ``(N, N)`` otherwise).

        The corner losses broadcast an aerial against the targets, so a
        single ``(N, N)`` mask against ``(B, N, N)`` targets would
        silently optimize one mask for the sum of all targets.
        """
        if tuple(theta_m.shape) != tuple(self.target.shape):
            raise ValueError(
                f"theta_m must be shaped like the target "
                f"{tuple(self.target.shape)}; got {tuple(theta_m.shape)}"
            )

    def _reduce(self, total: ad.Tensor, matrix: np.ndarray) -> ad.Tensor:
        self.last_corner_losses = matrix
        self.last_tile_losses = (
            robust_tile_losses(
                matrix, self.window, self.robust, self.tau,
                weights=self._robust_weights(),
            )
            if self._batched
            else None
        )
        if self.reduction == "mean":
            total = F.div(total, float(self.num_tiles))
        return total

    @property
    def conditions(self) -> tuple:
        """The window's distinct pupil conditions: the condition axis of
        the aerial stack :meth:`loss_from_aerial` consumes."""
        return self.window.conditions()

    def loss_from_aerial(self, stack: ad.Tensor) -> ad.Tensor:
        """Robust L_smo from the ``(F, [B,] N, N)`` aerial stack over
        :attr:`conditions` (FFT-free; stashes the corner matrix and the
        per-tile losses like :meth:`loss`)."""
        total, matrix = _windowed_loss_from_stack(
            stack,
            self.target,
            self.window,
            self.config,
            self.robust,
            self.tau,
            weights=self._robust_weights(),
        )
        return self._reduce(total, matrix)

    def loss(self, theta_j: ad.Tensor, theta_m: ad.Tensor) -> ad.Tensor:
        """Robust L_smo across the window (one fused condition stack)."""
        self.check_theta_m(theta_m)
        source = source_from_theta(theta_j, self.config)
        mask = mask_from_theta(theta_m, self.config)
        return self.loss_from_aerial(
            self.engine.aerial_conditions(mask, source, self.conditions)
        )

    def loss_reference(self, theta_j: ad.Tensor, theta_m: ad.Tensor) -> ad.Tensor:
        """Per-condition reference loop: one independent imaging pass per
        distinct pupil condition (no shared mask spectrum, no fused
        stack).

        The parity/benchmark oracle for :meth:`loss` — mathematically
        identical, structurally the pre-condition-axis consumer pattern.
        It evaluates *this objective's engine* (its pupil stacks and
        source grid), so parity holds for custom engines too.
        """
        self.check_theta_m(theta_m)
        source = source_from_theta(theta_j, self.config)
        mask = mask_from_theta(theta_m, self.config)
        jn = self.engine.normalized_source_weights(source)
        aerials = [
            F.incoherent_image(mask, stack, jn, conj_pairs=pairs)
            for stack, pairs in self.engine.condition_stacks(self.conditions)
        ]
        losses, matrix = _corner_loss_terms(
            aerials, self.target, self.window, self.config
        )
        total = robust_corner_loss(
            losses, self.window, self.robust, self.tau,
            weights=self._robust_weights(),
        )
        return self._reduce(total, matrix)

    # ------------------------------------------------------------------
    def corner_loss_matrix(
        self, theta_j: np.ndarray, theta_m: np.ndarray
    ) -> np.ndarray:
        """``(C, B)`` per-corner / per-tile losses via the fast path.

        Derived from the :meth:`images` resist stack so the per-corner
        loss definition lives in one place.
        """
        resists = self.images(theta_j, theta_m)["corner_resists"]
        sq = (resists - self.target.data) ** 2
        return sq.sum(axis=(-2, -1)).reshape(self.window.num_corners, -1)

    def tile_losses(self, theta_j: np.ndarray, theta_m: np.ndarray) -> np.ndarray:
        """Per-tile loss vector ``(B,)`` via the inference fast path."""
        return robust_tile_losses(
            self.corner_loss_matrix(theta_j, theta_m),
            self.window, self.robust, self.tau,
            weights=self._robust_weights(),
        )

    def source_only_loss(self, theta_m: np.ndarray):
        """FFT-free robust source-only closure at fixed ``theta_M``.

        Abbe's aerial is linear in the normalized source weights at
        *every* pupil condition, so at fixed masks one intensity basis
        per distinct condition makes the whole robust loss an FFT-free
        function of ``theta_J``, exactly equal to ``loss(theta_j,
        theta_m)`` — the cheap inner-SO / inner-Hessian oracle BiSMO
        uses.  Adaptive corner weights are read at *call* time, so the
        closure tracks the minimax ascent across outer iterations.  Returns ``None`` for custom engines that do not
        expose an intensity basis.
        """
        engine = self.engine
        if not (
            hasattr(engine, "source_intensity_basis")
            and hasattr(engine, "aerial_from_basis")
            and hasattr(engine, "condition_stacks")
        ):
            return None
        with ad.no_grad():
            masks = mask_from_theta(ad.Tensor(theta_m), self.config).data
        bases = [
            ad.Tensor(engine.source_intensity_basis(masks, stack.data))
            for stack, _ in engine.condition_stacks(self.conditions)
        ]

        def loss_j(theta_j: ad.Tensor) -> ad.Tensor:
            source = source_from_theta(theta_j, self.config)
            aerials = [
                engine.aerial_from_basis(basis, source) for basis in bases
            ]
            losses, matrix = _corner_loss_terms(
                aerials, self.target, self.window, self.config
            )
            total = robust_corner_loss(
                losses, self.window, self.robust, self.tau,
                weights=self._robust_weights(),
            )
            if self.reduction == "mean":
                total = F.div(total, float(self.num_tiles))
            return total

        #: One basis per entry of :attr:`conditions`, reused by BiSMO's
        #: second-order oracles at the same ``theta_M``.
        loss_j.bases = tuple(basis.data for basis in bases)
        return loss_j

    def images(
        self, theta_j: np.ndarray, theta_m: np.ndarray
    ) -> Dict[str, np.ndarray]:
        """Nominal-dose images plus the full per-corner resist stack.

        The nominal keys (``aerial``/``resist``/``resist_min``/
        ``resist_max``) feed every downstream consumer (harness judge,
        metrics): they are evaluated at the window's pupil condition
        *closest to nominal* (smallest aberration magnitude — exactly
        the unaberrated condition whenever the window contains one, and
        the engine's own condition for the default window) and at the
        config's nominal/min/max doses; ``corner_resists`` adds the
        ``(C, [B,] N, N)`` stack across the window's actual corners
        (honoring per-corner resist thresholds) and ``corner_aerials``
        the per-condition aerial stack.
        """
        with ad.no_grad():
            source = source_from_theta(ad.Tensor(theta_j), self.config).data
            mask = mask_from_theta(ad.Tensor(theta_m), self.config).data
        conditions = self.conditions
        stack = self.engine.aerial_conditions_fast(mask, source, conditions)
        nominal_fi = int(
            np.argmin([ab.magnitude_nm(self.config) for ab in conditions])
        )
        images = _resist_images_fast(stack[nominal_fi], self.config)
        fidx = self.window.condition_index()
        with ad.no_grad():
            corner_resists = np.stack(
                [
                    dose_resist(
                        ad.Tensor(stack[int(fidx[ci])]),
                        self.config,
                        c.dose,
                        c.intensity_threshold,
                    ).data
                    for ci, c in enumerate(self.window.corners)
                ]
            )
        images.update(
            source=source,
            mask=mask,
            target=self.target.data,
            corner_aerials=stack,
            corner_resists=corner_resists,
        )
        return images


class AbbeSMOObjective(ProcessWindowSMOObjective):
    """Single-tile ``L_smo(theta_J, theta_M)`` on an ``(N, N)`` target:
    the default-window objective, which backs SO, MO and both BiSMO
    levels (the paper uses one loss at both levels, Eq. (9))."""

    # perfbench/layers.py patches ``loss`` through each class's own
    # ``__dict__``; this binding keeps that patch point on the subclass.
    loss = ProcessWindowSMOObjective.loss

    def __init__(
        self,
        config: OpticalConfig,
        target: np.ndarray,
        engine: Optional[ImagingEngine] = None,
    ):
        target = np.asarray(target, dtype=np.float64)
        if target.shape != (config.mask_size, config.mask_size):
            raise ValueError(
                f"target shape {target.shape} != mask grid "
                f"({config.mask_size}, {config.mask_size})"
            )
        super().__init__(config, target, engine=engine)


class BatchedSMOObjective(ProcessWindowSMOObjective):
    """Joint ``L_smo`` over a ``(B, N, N)`` target stack sharing one
    source: the default-window objective on a tile batch (one fused
    forward, one graph; ``reduction`` is ``"sum"`` or ``"mean"``)."""

    # perfbench/layers.py patches ``loss`` and ``source_only_loss``
    # through each class's own ``__dict__``; these bindings keep them.
    loss = ProcessWindowSMOObjective.loss
    source_only_loss = ProcessWindowSMOObjective.source_only_loss

    def __init__(
        self,
        config: OpticalConfig,
        targets: np.ndarray,
        engine: Optional[ImagingEngine] = None,
        reduction: str = "sum",
    ):
        targets = np.asarray(targets, dtype=np.float64)
        n = config.mask_size
        if targets.ndim != 3 or targets.shape[-2:] != (n, n):
            raise ValueError(
                f"targets must be (B, {n}, {n}); got shape {targets.shape}"
            )
        super().__init__(config, targets, engine=engine, reduction=reduction)


class HopkinsMOObjective:
    """Hopkins/SOCS mask-only objective (for MO baselines & hybrid AM-SMO).

    The source is frozen into the TCC at construction;
    :meth:`rebuild_source` re-assembles the TCC after an SO phase — the
    expensive, non-differentiable step that motivates the paper's
    Abbe-only framework.  Engines resolve through the shared optics
    cache, so a repeated (config, source, Q) triple decomposes once.

    ``target`` may be a single ``(N, N)`` tile or a ``(B, N, N)`` stack;
    a stack makes the objective joint over the batch (``theta_m`` must
    then be a matching ``(B, N, N)`` parameter stack and the loss is the
    sum over tiles, riding the engine's fused multi-tile forward).

    The loss is the robust dose x aberration reduction of
    :func:`robust_corner_loss` across ``window`` — by default Eq. (8)'s
    dose corners at the engine's own aberration, whose ``"sum"`` is the
    paper's ``gamma * L2 + eta * L_pvb``.  Aberration corners ride the engine's fused
    ``aerial_conditions`` stack (the aberrated SOCS kernels are exact
    phase multiplies of the nominal decomposition — the arbitrary-D
    identity, no TCC rebuild), dose corners share each condition pass.
    ``robust`` / ``robust_tau`` pick weighted-sum, smooth worst-case, or
    the adaptive minimax ascent (``adaptive_weights`` lets a driver like
    AM-SMO share one live :class:`AdaptiveCornerWeights` across phases /
    rebuilds; otherwise ``robust="adaptive"`` creates its own).
    """

    def __init__(
        self,
        config: OpticalConfig,
        target: np.ndarray,
        source: np.ndarray,
        num_kernels: Optional[int] = None,
        source_grid: Optional[SourceGrid] = None,
        engine: Optional[ImagingEngine] = None,
        window: Optional[ProcessWindow] = None,
        robust: str = "sum",
        robust_tau: float = 1.0,
        adaptive_weights: Optional[AdaptiveCornerWeights] = None,
    ):
        if robust not in ROBUST_MODES:
            raise ValueError(
                f"unknown robust mode {robust!r}; choose {ROBUST_MODES}"
            )
        self.config = config
        target = np.asarray(target, dtype=np.float64)
        n = config.mask_size
        if target.ndim not in (2, 3) or target.shape[-2:] != (n, n):
            raise ValueError(
                f"target must be ({n}, {n}) or (B, {n}, {n}); got {target.shape}"
            )
        self.num_tiles = target.shape[0] if target.ndim == 3 else 1
        self._batched = target.ndim == 3
        self.target = ad.Tensor(target)
        self._source_grid = source_grid
        self._num_kernels = num_kernels
        self.robust = robust
        self.robust_tau = float(robust_tau)
        self.engine = engine or self._build_engine(source)
        self.window = window or _default_window(config, self.engine)
        #: Per-tile losses of the latest :meth:`loss` call (batched only).
        self.last_tile_losses: Optional[np.ndarray] = None
        #: ``(C, B)`` corner/tile matrix of the latest :meth:`loss` call.
        self.last_corner_losses: Optional[np.ndarray] = None
        #: Live minimax corner weights (``robust="adaptive"`` only); a
        #: caller-supplied instance (AM-SMO, MILT) takes precedence so
        #: the dual variable survives phases / rebuilds.
        if adaptive_weights is not None and robust != "adaptive":
            raise ValueError(
                "adaptive_weights requires robust='adaptive' (a live "
                "ascent would silently override the static corner "
                f"weights under robust={robust!r})"
            )
        self.adaptive_weights = (
            adaptive_weights
            if adaptive_weights is not None
            else AdaptiveCornerWeights.maybe(self.window, robust, robust_tau)
        )

    def _robust_weights(self) -> Optional[np.ndarray]:
        return live_corner_weights(self.adaptive_weights)

    def _build_engine(self, source: np.ndarray) -> ImagingEngine:
        if self._source_grid is not None:
            from ..optics.hopkins import HopkinsImaging

            return HopkinsImaging(
                self.config, source, self._num_kernels, self._source_grid
            )
        return engine_for(
            self.config, "hopkins", source=source, num_kernels=self._num_kernels
        )

    def rebuild_source(self, source: np.ndarray) -> None:
        """Re-derive TCC + SOCS kernels for a new source (slow path)."""
        self.engine = self._build_engine(source)

    def loss(self, theta_m: ad.Tensor) -> ad.Tensor:
        if self._batched and (
            theta_m.ndim != 3 or theta_m.shape[0] != self.num_tiles
        ):
            raise ValueError(
                f"theta_m must be ({self.num_tiles}, N, N); got {theta_m.shape}"
            )
        mask = mask_from_theta(theta_m, self.config)
        total, matrix = windowed_corner_loss(
            self.engine,
            self.config,
            mask,
            self.target,
            self.window,
            self.robust,
            self.robust_tau,
            weights=self._robust_weights(),
        )
        self.last_corner_losses = matrix
        if self._batched:
            self.last_tile_losses = robust_tile_losses(
                matrix, self.window, self.robust, self.robust_tau,
                weights=self._robust_weights(),
            )
        return total

    def tile_losses(self, theta_m: np.ndarray) -> np.ndarray:
        """Per-tile loss vector ``(B,)`` of :meth:`loss` (no graph)."""
        if not self._batched:
            raise ValueError("tile_losses needs a (B, N, N) target stack")
        with ad.no_grad():
            mask = mask_from_theta(ad.Tensor(theta_m), self.config)
            _, matrix = windowed_corner_loss(
                self.engine, self.config, mask, self.target, self.window,
                self.robust, self.robust_tau, weights=self._robust_weights(),
            )
        return robust_tile_losses(
            matrix, self.window, self.robust, self.robust_tau,
            weights=self._robust_weights(),
        )

    def images(self, theta_m: np.ndarray) -> Dict[str, np.ndarray]:
        with ad.no_grad():
            mask = mask_from_theta(ad.Tensor(theta_m), self.config).data
        images = _resist_images_fast(self.engine.aerial_fast(mask), self.config)
        images.update(mask=mask, target=self.target.data)
        return images


class LoopedSMOObjective:
    """Reference joint SMO loss: a Python loop over per-tile objectives.

    Mathematically identical to :class:`BatchedSMOObjective` (same shared
    ``theta_J``, same summed loss over the ``(B, N, N)`` ``theta_M``
    stack) but each tile builds its own single-tile graph — the
    pre-batching consumer pattern.  Each per-tile graph still rides the
    engine's fused imaging node, so the loop-vs-batch gap
    it measures isolates graph-count overhead, not op fusion.  It also deliberately omits the
    FFT-free ``source_only_loss`` HVP oracle, exactly as the per-clip
    code it stands in for.  Kept as the equivalence oracle for the
    batched solver tests and the wall-clock baseline of
    ``benchmarks/bench_joint_smo.py``; production code should use the
    fused batched objective.  Without the aerial split, BiSMO's exact
    oracles differentiate it twice, so build it on a composed engine
    (``AbbeImaging(config, fused=False)``) for exact-mode BiSMO.
    """

    def __init__(
        self,
        config: OpticalConfig,
        targets: np.ndarray,
        engine: Optional[ImagingEngine] = None,
        reduction: str = "sum",
    ):
        self._batched = BatchedSMOObjective(config, targets, engine, reduction)
        self.config = config
        self.reduction = reduction
        self.num_tiles = self._batched.num_tiles
        self.targets = self._batched.targets
        self.engine = self._batched.engine
        self._per_tile = [
            AbbeSMOObjective(config, t, engine=self.engine)
            for t in self.targets.data
        ]
        #: Per-tile loss vector of the most recent :meth:`loss` call.
        self.last_tile_losses: Optional[np.ndarray] = None

    def loss(self, theta_j: ad.Tensor, theta_m: ad.Tensor) -> ad.Tensor:
        """Sum of B independent single-tile graphs (the slow path)."""
        if theta_m.ndim != 3 or theta_m.shape[0] != self.num_tiles:
            raise ValueError(
                f"theta_m must be ({self.num_tiles}, N, N); got {theta_m.shape}"
            )
        total: Optional[ad.Tensor] = None
        per_tile = np.empty(self.num_tiles)
        for i, objective in enumerate(self._per_tile):
            li = objective.loss(theta_j, F.getitem(theta_m, i))
            per_tile[i] = float(li.data)
            total = li if total is None else F.add(total, li)
        if total is None:
            raise RuntimeError("LoopedSMOObjective has no tiles to accumulate")
        self.last_tile_losses = per_tile
        if self.reduction == "mean":
            total = F.div(total, float(self.num_tiles))
        return total

    def tile_losses(self, theta_j: np.ndarray, theta_m: np.ndarray) -> np.ndarray:
        return self._batched.tile_losses(theta_j, theta_m)

    def images(self, theta_j: np.ndarray, theta_m: np.ndarray) -> Dict[str, np.ndarray]:
        return self._batched.images(theta_j, theta_m)
