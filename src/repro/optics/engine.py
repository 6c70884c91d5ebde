"""Unified imaging-engine interface with batched multi-tile evaluation.

Every forward-model consumer in the codebase — the SMO objectives, the
MO baselines, the benchmark harness — talks to a lithography simulator
through the same small surface, the :class:`ImagingEngine` protocol:

``aerial_conditions(mask, source, conditions)``
    A differentiable ``(F, B, N, N)`` aerial stack across distinct
    pupil conditions — defocus floats or general
    :class:`~repro.optics.zernike.PupilAberration` specs — evaluated as
    one fused ``incoherent_image_stack`` node sharing a single
    mask-spectrum FFT.  ``mask`` is one ``(N, N)`` tile or a
    ``(B, N, N)`` batch, imaged as one fused FFT stack (the paper's
    Abbe batching, extended across tiles).  Engines with a baked-in
    source (Hopkins/SOCS) take ``source=None``.  Dose corners never
    reach the engines: dose is an exact post-aerial ``dose**2`` scaling
    applied by the resist model.

``aerial_conditions_fast(...)``
    The graph-free counterpart on numpy arrays; kernels/source points
    with exactly zero weight are skipped (an *exact* reduction).  Used
    by ``images()``, metric evaluation and the harness judge.

``aerial(mask, source=None)`` / ``aerial_fast(...)``
    Nominal imaging: the ``F == 1`` condition stack at the engine's own
    aberration, condition axis dropped — one imaging path, not two.

Routing every consumer through this protocol is what lets batching and
caching (:mod:`repro.optics.cache`) land everywhere at once.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence, Tuple, Union, runtime_checkable

import numpy as np

from .. import autodiff as ad
from ..autodiff import functional as F
from ..obs import span as obs_span
from . import backend as abk
from . import fftlib
from .config import OpticalConfig

__all__ = [
    "ImagingEngine",
    "MaskLike",
    "as_tile_batch",
    "incoherent_sum_fast",
    "composed_condition_stack",
    "condition_stack_fast",
    "stack_conditions",
    "drop_condition_axis",
    "engine_for",
    "CONDITION_MEMO_MAX",
]

MaskLike = Union[np.ndarray, "ad.Tensor"]

#: Per-engine bound on memoized per-focus kernel/pupil stacks.  Cached
#: engine instances are shared module-wide, so an unbounded memo would
#: grow outside the optics cache's byte accounting; real windows use a
#: handful of focus values, so a small FIFO (an engine's own focus is
#: never evicted) keeps memory flat without thrashing.
CONDITION_MEMO_MAX = 8


@runtime_checkable
class ImagingEngine(Protocol):
    """Structural type implemented by :class:`AbbeImaging` and
    :class:`HopkinsImaging` (and any future backend)."""

    config: OpticalConfig

    def aerial(
        self, mask: "ad.Tensor", source: Optional["ad.Tensor"] = None
    ) -> "ad.Tensor":
        """Differentiable aerial image for ``(N, N)`` or ``(B, N, N)``
        masks: :meth:`aerial_conditions` at the engine's own aberration,
        condition axis dropped."""
        ...

    def aerial_fast(
        self, mask: MaskLike, source: Optional[MaskLike] = None
    ) -> np.ndarray:
        """Graph-free nominal image: :meth:`aerial_conditions_fast` at
        the engine's own aberration, condition axis dropped."""
        ...

    def aerial_conditions(
        self,
        mask: "ad.Tensor",
        source: Optional["ad.Tensor"] = None,
        conditions=(0.0,),
    ) -> "ad.Tensor":
        """Differentiable ``(F, [B,] N, N)`` aerial stack across pupil
        conditions (defocus floats or aberration specs), sharing one
        mask-spectrum FFT — the one imaging path of the engine."""
        ...

    def aerial_conditions_fast(
        self,
        mask: MaskLike,
        source: Optional[MaskLike] = None,
        conditions=(0.0,),
    ) -> np.ndarray:
        """Graph-free counterpart of :meth:`aerial_conditions`,
        numerically matching it."""
        ...


def drop_condition_axis(stack):
    """The nominal image of a one-condition ``(1, ...)`` aerial stack.

    A reshape (a view for arrays, one cheap node for tensors), so the
    nominal image is exactly the stack's only plane.
    """
    return stack.reshape(stack.shape[1:])


def composed_condition_stack(
    mask: "ad.Tensor", kernel_stacks, weights: "ad.Tensor"
) -> "ad.Tensor":
    """Composed-op reference for a condition stack (``fused=False``).

    One :func:`~repro.autodiff.functional.incoherent_image_composed`
    graph per kernel stack, stacked by :func:`stack_conditions`: the
    pre-fusion oracle the fused primitive is tested and benchmarked
    against.
    """
    return stack_conditions(
        [F.incoherent_image_composed(mask, k, weights) for k in kernel_stacks]
    )


def stack_conditions(aerials: "Sequence[ad.Tensor]") -> "ad.Tensor":
    """Differentiable ``(F, ...)`` stack of per-condition aerial tensors:
    each one scattered into its slot of the condition axis and summed."""
    shape = (len(aerials),) + aerials[0].shape
    total = None
    for fi, aerial in enumerate(aerials):
        part = F.scatter(aerial, fi, shape)
        total = part if total is None else F.add(total, part)
    return total


def condition_stack_fast(
    mask: MaskLike,
    mask_size: int,
    kernel_stacks,
    weights: np.ndarray,
    norm: float,
    engine: str,
) -> np.ndarray:
    """Graph-free ``(F, [B,] N, N)`` aerial stack, one
    :func:`incoherent_sum_fast` pass per kernel stack, fanned out across
    the :func:`repro.optics.fftlib.map_conditions` thread pool (the
    engines' ``aerial_conditions_fast``)."""
    tiles, single = as_tile_batch(mask, mask_size)

    def _one_condition(fi: int) -> np.ndarray:
        with obs_span("engine.condition", index=fi):
            return incoherent_sum_fast(tiles, kernel_stacks[fi], weights, norm)

    with obs_span("engine.conditions", engine=engine, n=len(kernel_stacks)):
        out = np.stack(fftlib.map_conditions(_one_condition, len(kernel_stacks)))
    return out[:, 0] if single else out


def as_tile_batch(mask: MaskLike, mask_size: int) -> Tuple[np.ndarray, bool]:
    """Normalize a mask argument to a ``(B, N, N)`` float64 batch.

    Returns ``(batch, was_single)`` so callers can unwrap single-tile
    results; raises on any shape other than ``(N, N)`` / ``(B, N, N)``.
    """
    arr = mask.data if isinstance(mask, ad.Tensor) else np.asarray(mask)
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 2:
        single = True
        arr = arr[None, :, :]
    elif arr.ndim == 3:
        single = False
    else:
        raise ValueError(
            f"mask must be (N, N) or (B, N, N); got shape {arr.shape}"
        )
    if arr.shape[-2:] != (mask_size, mask_size):
        raise ValueError(
            f"mask tiles must be ({mask_size}, {mask_size}); got {arr.shape[-2:]}"
        )
    return arr, single


def incoherent_sum_fast(
    tiles: np.ndarray,
    kernel_stack: np.ndarray,
    weights: np.ndarray,
    norm: float,
) -> np.ndarray:
    """Shared numpy kernel of both engines' fast paths.

    Computes ``sum_k w_k |IFFT(kernel_k * FFT(tile))|^2 / norm`` for a
    ``(B, N, N)`` tile batch.  Kernels with exactly zero weight are
    pruned (exact), and tiles are processed one at a time so the working
    set stays cache-sized instead of materializing a ``(B*K, N, N)``
    intermediate.

    All array ops route through the active
    :mod:`repro.optics.backend` seam (the default numpy backend
    dispatches transforms through :mod:`repro.optics.fftlib`).  Inputs
    are coerced to float64, or complex128 when complex, before the
    transforms.
    """
    bk = abk.active_backend()
    active = np.nonzero(weights)[0]
    if active.size < weights.size:
        kernel_stack = kernel_stack[active]
        weights = weights[active]
    out = abk.HOST.empty(tiles.shape, np.float64)
    if active.size == 0:
        out.fill(0.0)
        return out
    tiles = tiles.astype(
        np.complex128 if np.iscomplexobj(tiles) else np.float64, copy=False
    )
    kernel_stack = kernel_stack.astype(
        np.complex128 if np.iscomplexobj(kernel_stack) else np.float64, copy=False
    )
    weights = weights.astype(np.float64, copy=False)
    flat = weights.size
    n2 = tiles.shape[-2] * tiles.shape[-1]
    kernels = bk.from_host(kernel_stack)
    w = bk.from_host(weights)
    spectra = bk.fft2(bk.from_host(tiles))  # (B, N, N)
    for b in range(tiles.shape[0]):
        fields = bk.ifft2(kernels * spectra[b], overwrite_x=True)
        intensity = bk.abs2(fields)
        out[b] = bk.to_host(
            (w @ intensity.reshape(flat, n2)).reshape(tiles.shape[1:])
        )
    out /= norm
    return out


def engine_for(
    config: OpticalConfig,
    model: str = "abbe",
    source: Optional[np.ndarray] = None,
    num_kernels: Optional[int] = None,
    defocus_nm: float = 0.0,
) -> "ImagingEngine":
    """Resolve a shared engine instance from the module-level optics cache.

    ``model="abbe"`` ignores ``source``/``num_kernels`` (the source stays
    a free, differentiable input); ``model="hopkins"`` requires the
    ``source`` it bakes into the TCC.
    """
    from . import cache

    if model == "abbe":
        return cache.abbe_engine(config, defocus_nm=defocus_nm)
    if model == "hopkins":
        if source is None:
            raise ValueError("hopkins engines require a fixed source image")
        return cache.hopkins_engine(config, source, num_kernels, defocus_nm)
    raise KeyError(f"unknown imaging model {model!r}; choose 'abbe' or 'hopkins'")
