"""Differentiable functional ops for :mod:`repro.autodiff`.

Every op follows the same pattern: compute the forward result with numpy,
then (if grad mode is on and any input requires grad) attach a VJP closure.
VJP closures are written **in terms of these same functional ops**, so a
backward pass executed with graph recording enabled (``create_graph=True``
in :func:`repro.autodiff.grad.grad`) is itself differentiable.  That
property gives exact Hessian-vector products by double backward — the
reference BiSMO's oracles are tested against.  The exception is the
fused imaging node: its streamed VJP is graph-free, so fused imaging is
**once-differentiable** (:class:`FusedDoubleBackwardError`).

Complex gradients use the convention ``grad(z) = dL/dRe(z) + 1j*dL/dIm(z)``
for a real-valued loss ``L``; under this convention the VJP of a
holomorphic op ``f`` is ``g * conj(f'(z))`` and the VJP of a complex-linear
map ``A`` is ``A^H g``.
"""

from __future__ import annotations

import builtins
from typing import Any, Callable, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import counter as _obs_counter
from ..obs import span as _obs_span
from .tensor import Tensor, as_tensor, is_grad_enabled

__all__ = [
    "FusedDoubleBackwardError",
    "tensor",
    "zeros",
    "ones",
    "zeros_like",
    "ones_like",
    "identity",
    "add",
    "sub",
    "neg",
    "mul",
    "div",
    "power",
    "exp",
    "log",
    "sqrt",
    "sin",
    "cos",
    "tanh",
    "sigmoid",
    "relu",
    "sum",
    "mean",
    "reshape",
    "broadcast_to",
    "real",
    "imag",
    "conj",
    "abs2",
    "absolute",
    "make_complex",
    "fft2",
    "ifft2",
    "incoherent_image",
    "incoherent_image_stack",
    "incoherent_image_composed",
    "incoherent_stack_mask_vjp",
    "getitem",
    "scatter",
    "matmul",
    "dot",
    "sum_to",
    "clip_for_stability",
]

ArrayLike = Union[Tensor, np.ndarray, float, int, complex, list, tuple]


# ----------------------------------------------------------------------
# construction helpers
# ----------------------------------------------------------------------
def tensor(data: Any, requires_grad: bool = False) -> Tensor:
    """Create a new leaf tensor from ``data``."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape: Union[int, Tuple[int, ...]], dtype: Any = np.float64) -> Tensor:
    return Tensor(_get_backend().HOST.zeros(shape, dtype=dtype))


def ones(shape: Union[int, Tuple[int, ...]], dtype: Any = np.float64) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype))


def zeros_like(x: ArrayLike) -> Tensor:
    x = as_tensor(x)
    return Tensor(np.zeros_like(x.data))


def ones_like(x: ArrayLike) -> Tensor:
    x = as_tensor(x)
    return Tensor(np.ones_like(x.data))


def _make(
    out_data: np.ndarray,
    inputs: Tuple[Tensor, ...],
    vjp: Callable[[Tensor], Sequence[Optional[Tensor]]],
    op: str,
) -> Tensor:
    """Assemble an op output, recording the graph edge when appropriate."""
    requires = is_grad_enabled() and builtins.any(t.requires_grad for t in inputs)
    if requires:
        return Tensor(out_data, requires_grad=True, _inputs=inputs, _vjp=vjp, _op=op)
    return Tensor(out_data)


# ----------------------------------------------------------------------
# broadcasting support
# ----------------------------------------------------------------------
def sum_to(x: Tensor, shape: Tuple[int, ...]) -> Tensor:
    """Reduce ``x`` by summation so its shape becomes ``shape``.

    This is the adjoint of numpy broadcasting and is used by every binary
    op's VJP; it is built from ``sum``/``reshape`` so it stays
    differentiable.
    """
    x = as_tensor(x)
    if x.shape == tuple(shape):
        return x
    ndim_extra = x.ndim - len(shape)
    if ndim_extra < 0:
        raise ValueError(f"cannot sum_to from {x.shape} to {shape}")
    axes = tuple(range(ndim_extra)) + tuple(
        i + ndim_extra for i, n in enumerate(shape) if n == 1 and x.shape[i + ndim_extra] != 1
    )
    out = sum(x, axis=axes, keepdims=True) if axes else x
    return reshape(out, tuple(shape))


def _binary_inputs(a: ArrayLike, b: ArrayLike) -> Tuple[Tensor, Tensor]:
    return as_tensor(a), as_tensor(b)


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
def identity(x: ArrayLike) -> Tensor:
    x = as_tensor(x)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (g,)

    return _make(x.data.copy(), (x,), vjp, "identity")


def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = _binary_inputs(a, b)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (sum_to(g, a.shape), sum_to(g, b.shape))

    return _make(a.data + b.data, (a, b), vjp, "add")


def sub(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = _binary_inputs(a, b)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (sum_to(g, a.shape), sum_to(neg(g), b.shape))

    return _make(a.data - b.data, (a, b), vjp, "sub")


def neg(x: ArrayLike) -> Tensor:
    x = as_tensor(x)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (neg(g),)

    return _make(-x.data, (x,), vjp, "neg")


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = _binary_inputs(a, b)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        ga = sum_to(mul(g, conj(b)), a.shape)
        gb = sum_to(mul(g, conj(a)), b.shape)
        return (ga, gb)

    return _make(a.data * b.data, (a, b), vjp, "mul")


def div(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = _binary_inputs(a, b)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        ga = sum_to(div(g, conj(b)), a.shape)
        gb = sum_to(neg(mul(g, conj(div(a, mul(b, b))))), b.shape)
        return (ga, gb)

    return _make(a.data / b.data, (a, b), vjp, "div")


def power(x: ArrayLike, p: float) -> Tensor:
    """Elementwise ``x**p`` for a real scalar exponent ``p``."""
    x = as_tensor(x)
    p = float(p)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (mul(g, conj(mul(power(x, p - 1.0), p))),)

    return _make(x.data**p, (x,), vjp, f"power[{p}]")


# ----------------------------------------------------------------------
# transcendental
# ----------------------------------------------------------------------
def exp(x: ArrayLike) -> Tensor:
    x = as_tensor(x)
    out_data = np.exp(x.data)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (mul(g, conj(exp(x))),)

    return _make(out_data, (x,), vjp, "exp")


def log(x: ArrayLike) -> Tensor:
    x = as_tensor(x)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (div(g, conj(x)),)

    return _make(np.log(x.data), (x,), vjp, "log")


def sqrt(x: ArrayLike) -> Tensor:
    x = as_tensor(x)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (div(g, conj(mul(sqrt(x), 2.0))),)

    return _make(np.sqrt(x.data), (x,), vjp, "sqrt")


def sin(x: ArrayLike) -> Tensor:
    x = as_tensor(x)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (mul(g, conj(cos(x))),)

    return _make(np.sin(x.data), (x,), vjp, "sin")


def cos(x: ArrayLike) -> Tensor:
    x = as_tensor(x)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (neg(mul(g, conj(sin(x)))),)

    return _make(np.cos(x.data), (x,), vjp, "cos")


def tanh(x: ArrayLike) -> Tensor:
    x = as_tensor(x)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        t = tanh(x)
        return (mul(g, conj(sub(1.0, mul(t, t)))),)

    return _make(np.tanh(x.data), (x,), vjp, "tanh")


def sigmoid(x: ArrayLike) -> Tensor:
    """Numerically stable logistic sigmoid ``1 / (1 + exp(-x))``."""
    x = as_tensor(x)
    if x.is_complex:
        raise TypeError("sigmoid expects a real tensor")
    out_data = _stable_sigmoid(x.data)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        s = sigmoid(x)
        return (mul(g, mul(s, sub(1.0, s))),)

    return _make(out_data, (x,), vjp, "sigmoid")


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def relu(x: ArrayLike) -> Tensor:
    x = as_tensor(x)
    if x.is_complex:
        raise TypeError("relu expects a real tensor")
    mask = (x.data > 0).astype(np.float64)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (mul(g, Tensor(mask)),)

    return _make(x.data * mask, (x,), vjp, "relu")


def clip_for_stability(x: ArrayLike, lo: float, hi: float) -> Tensor:
    """Clip values, passing gradients straight through (identity VJP).

    Used to guard sigmoid steepness products against overflow without
    killing gradients at the rails.
    """
    x = as_tensor(x)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (g,)

    return _make(np.clip(x.data, lo, hi), (x,), vjp, "clip_st")


# ----------------------------------------------------------------------
# reductions & shaping
# ----------------------------------------------------------------------
def sum(
    x: ArrayLike,
    axis: Optional[Union[int, Tuple[int, ...]]] = None,
    keepdims: bool = False,
) -> Tensor:
    x = as_tensor(x)
    out_data = np.sum(x.data, axis=axis, keepdims=keepdims)
    in_shape = x.shape

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        if axis is None:
            return (broadcast_to(g, in_shape),)
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(a % len(in_shape) for a in axes)
        if keepdims:
            mid = g
        else:
            kd_shape = tuple(
                1 if i in axes else n for i, n in enumerate(in_shape)
            )
            mid = reshape(g, kd_shape)
        return (broadcast_to(mid, in_shape),)

    return _make(out_data, (x,), vjp, "sum")


def mean(
    x: ArrayLike,
    axis: Optional[Union[int, Tuple[int, ...]]] = None,
    keepdims: bool = False,
) -> Tensor:
    x = as_tensor(x)
    if axis is None:
        count = x.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = 1
        for a in axes:
            count *= x.shape[a % x.ndim]
    return div(sum(x, axis=axis, keepdims=keepdims), float(count))


def reshape(x: ArrayLike, shape: Tuple[int, ...]) -> Tensor:
    x = as_tensor(x)
    in_shape = x.shape

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (reshape(g, in_shape),)

    return _make(x.data.reshape(shape), (x,), vjp, "reshape")


def broadcast_to(x: ArrayLike, shape: Tuple[int, ...]) -> Tensor:
    x = as_tensor(x)
    in_shape = x.shape

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (sum_to(g, in_shape),)

    return _make(np.broadcast_to(x.data, shape).copy(), (x,), vjp, "broadcast_to")


# ----------------------------------------------------------------------
# complex support
# ----------------------------------------------------------------------
def real(x: ArrayLike) -> Tensor:
    x = as_tensor(x)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (g,)

    return _make(np.real(x.data).copy(), (x,), vjp, "real")


def imag(x: ArrayLike) -> Tensor:
    x = as_tensor(x)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (mul(g, 1j),)

    return _make(np.imag(x.data).copy(), (x,), vjp, "imag")


def conj(x: ArrayLike) -> Tensor:
    x = as_tensor(x)
    if not x.is_complex:
        return x

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (conj(g),)

    return _make(np.conj(x.data), (x,), vjp, "conj")


def abs2(x: ArrayLike) -> Tensor:
    """Squared magnitude ``|x|**2`` (real output, works for complex x)."""
    x = as_tensor(x)
    out_data = (x.data * np.conj(x.data)).real

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (mul(mul(g, 2.0), x),)

    return _make(out_data, (x,), vjp, "abs2")


def absolute(x: ArrayLike) -> Tensor:
    """``|x|`` built from differentiable primitives (non-smooth at 0)."""
    return sqrt(add(abs2(x), 1e-30))


def make_complex(re: ArrayLike, im: ArrayLike) -> Tensor:
    re_t, im_t = _binary_inputs(re, im)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (real(g), imag(g))

    return _make(re_t.data + 1j * im_t.data, (re_t, im_t), vjp, "make_complex")


# ----------------------------------------------------------------------
# FFTs (always over the last two axes, numpy "backward" normalization)
# ----------------------------------------------------------------------
_fftlib: Any = None
_backend_mod: Any = None


def _get_fftlib() -> Any:
    """Resolve :mod:`repro.optics.fftlib` lazily.

    The import happens at first *call* rather than at module import so
    the autodiff package never participates in the
    ``repro.optics.__init__`` import cycle (fftlib itself has no repro
    dependencies).
    """
    global _fftlib
    if _fftlib is None:
        from ..optics import fftlib

        _fftlib = fftlib
    return _fftlib


def _get_backend() -> Any:
    """Resolve :mod:`repro.optics.backend` lazily (same cycle-avoidance
    rationale as :func:`_get_fftlib`; backend itself only imports
    fftlib)."""
    global _backend_mod
    if _backend_mod is None:
        from ..optics import backend

        _backend_mod = backend
    return _backend_mod


def fft2(x: ArrayLike) -> Tensor:
    x = as_tensor(x)
    ntot = x.shape[-1] * x.shape[-2]
    bk = _get_backend().active_backend()

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (mul(ifft2(g), float(ntot)),)

    out_data = bk.to_host(bk.fft2(bk.from_host(x.data)))
    return _make(out_data, (x,), vjp, "fft2")


def ifft2(x: ArrayLike) -> Tensor:
    x = as_tensor(x)
    ntot = x.shape[-1] * x.shape[-2]
    bk = _get_backend().active_backend()

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (div(fft2(g), float(ntot)),)

    out_data = bk.to_host(bk.ifft2(bk.from_host(x.data)))
    return _make(out_data, (x,), vjp, "ifft2")


# ----------------------------------------------------------------------
# fused incoherent imaging (the Abbe / SOCS hot path)
# ----------------------------------------------------------------------
class FusedDoubleBackwardError(RuntimeError):
    """A ``create_graph=True`` backward reached the fused imaging node,
    which is once-differentiable (its streamed VJP records no graph)."""


def _check_incoherent_args(
    mask: Tensor, pupil_stack: Tensor, weights: Tensor
) -> Tuple[int, int]:
    """Validate shapes/dtypes shared by the fused and composed variants."""
    if pupil_stack.ndim != 3 or pupil_stack.shape[-2] != pupil_stack.shape[-1]:
        raise ValueError(
            f"pupil_stack must be (S, N, N); got {pupil_stack.shape}"
        )
    s, n = pupil_stack.shape[0], pupil_stack.shape[-1]
    if mask.ndim not in (2, 3) or mask.shape[-2:] != (n, n):
        raise ValueError(
            f"mask must be ({n}, {n}) or (B, {n}, {n}); got {mask.shape}"
        )
    if weights.shape != (s,):
        raise ValueError(f"weights must be ({s},); got {weights.shape}")
    if weights.is_complex:
        raise TypeError("incoherent_image weights must be real")
    if pupil_stack.requires_grad:
        raise ValueError(
            "incoherent_image does not propagate gradients to the pupil "
            "stack (it is a cached optical constant); detach it first"
        )
    return s, n


def incoherent_image_composed(
    mask: ArrayLike, pupil_stack: ArrayLike, weights: ArrayLike
) -> Tensor:
    """Reference incoherent sum from six composed autodiff ops.

    Computes ``I[b] = sum_s w_s |IFFT2(H_s * FFT2(M_b))|^2`` as the
    pre-fusion graph ``fft2 -> mul -> ifft2 -> abs2 -> mul -> sum`` that
    the engines used through PR 2.  Every ``(B, S, N, N)`` intermediate
    is materialized and retained by the backward graph — this is the
    memory/time baseline :func:`incoherent_image` is benchmarked
    against, and the oracle its gradients are tested against.
    """
    mask = as_tensor(mask)
    pupil_stack = as_tensor(pupil_stack)
    weights = as_tensor(weights)
    s, n = _check_incoherent_args(mask, pupil_stack, weights)
    single = mask.ndim == 2
    m3 = reshape(mask, (1, n, n)) if single else mask
    b = m3.shape[0]
    spectra = mul(
        reshape(pupil_stack, (1, s, n, n)), reshape(fft2(m3), (b, 1, n, n))
    )
    intensities = abs2(ifft2(spectra))  # (B, S, N, N)
    out = sum(mul(reshape(weights, (1, s, 1, 1)), intensities), axis=1)
    return reshape(out, (n, n)) if single else out


def _pair_setup(
    conj_pairs: Any, s: int, real_path: bool
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Validate a conjugate pairing; return ``(cp, reps)`` or ``(None, None)``.

    ``conj_pairs[i] = j`` declares ``kernel_j(f) == kernel_i(-f)``; the
    map must be an involution over ``range(s)``.  Representatives are
    the indices with ``conj_pairs[i] >= i`` (each pair's lower index,
    plus every self-paired kernel).  A supplied pairing is always
    validated, but *used* only on the all-real path (``real_path``),
    where the conjugate field identity ``F_{-sigma} = conj(F_{+sigma})``
    holds.
    """
    if conj_pairs is None:
        return None, None
    cp = np.asarray(conj_pairs)
    if cp.shape != (s,) or not np.issubdtype(cp.dtype, np.integer):
        raise ValueError(f"conj_pairs must be ({s},) integer; got {cp.shape}")
    if not np.array_equal(cp[cp], np.arange(s)):
        raise ValueError("conj_pairs must be an involution over range(S)")
    if not real_path:
        return None, None
    return cp, np.nonzero(cp >= np.arange(s))[0]


def _stream_forward_one(
    bk: Any,
    fm: Any,
    kern: np.ndarray,
    w: np.ndarray,
    csize: int,
    cp: Any,
    reps: Any,
) -> np.ndarray:
    """Streamed weighted incoherent sum for ONE kernel stack.

    ``fm`` is the precomputed ``(B, N, N)`` mask spectrum (a backend
    array) — sharing it across kernel stacks is what lets the
    multi-condition primitive reuse one mask FFT for every process
    corner.  Kernel/weight selection runs host-side (``kern``/``w``
    are host constants); the chunk loop runs entirely on ``bk`` and
    the reduced ``(B, N, N)`` image returns to the host.
    """
    b, n = fm.shape[0], fm.shape[-1]
    if reps is None:
        kern_h, w_h, r = kern, w, kern.shape[0]
    else:
        kern_h = kern[reps]  # (R, N, N) representatives, R ~ S/2
        mates = cp[reps]
        w_h = w[reps] + np.where(mates != reps, w[mates], 0.0)
        r = reps.size
    kern_r = bk.from_host(kern_h)
    w_eff = bk.from_host(w_h)
    nn = n * n
    out = bk.zeros((b, n, n), bk.float64)
    chunks = _obs_counter("imaging.chunks")
    iffts = _obs_counter("imaging.ifft2")
    for lo in range(0, r, csize):
        hi = min(r, lo + csize)
        with _obs_span("fft.chunk", lo=lo, hi=hi, pass_="forward"):
            # One (B, C, N, N) transform block per chunk: big enough to
            # amortize dispatch, small enough to stay transient.
            fields = bk.ifft2(
                kern_r[lo:hi][None] * fm[:, None], overwrite_x=True
            )
            intens = bk.abs2(fields)
            out += (
                w_eff[lo:hi] @ intens.reshape(b, hi - lo, nn)
            ).reshape(b, n, n)
        chunks.inc()
        iffts.inc()
    return bk.to_host(out)


def _stream_backward_one(
    bk: Any,
    gd: np.ndarray,
    fm: Any,
    kern: np.ndarray,
    w: np.ndarray,
    csize: int,
    cp: Any,
    reps: Any,
    need_mask: bool,
    gw: Any,
) -> Optional[Any]:
    """One stack's streamed gradient contributions (graph-free).

    Recomputes the per-chunk coherent fields from ``fm`` (a backend
    array) and returns the *frequency-domain* mask-gradient accumulator
    as a backend array (the caller applies the final IFFT once, summed
    over stacks), adding weight-gradient contributions into the host
    vector ``gw`` in place when it is not None.
    """
    s, n = kern.shape[0], kern.shape[-1]
    b = fm.shape[0]
    nn = n * n
    need_w = gw is not None
    # Conjugate pairing additionally needs a real upstream gradient
    # (the mirrored-term identity conjugates g); fall back otherwise.
    gd_complex = np.iscomplexobj(gd)
    use_pairs = reps is not None and not gd_complex
    if use_pairs:
        kern_h = kern[reps]
        mates = cp[reps]
        is_pair = mates != reps
        w_direct, w_mirror = w[reps], np.where(is_pair, w[mates], 0.0)
        r = reps.size
    else:
        kern_h, r = kern, s
    kern_r = bk.from_host(kern_h)
    gd_dev = bk.from_host(gd)
    gdr = gd_dev.reshape(b, nn, 1)
    acc: Any = None
    acc_mirror: Any = None
    if need_mask:
        gd2 = 2.0 * gd_dev  # (B, N, N)
        acc = bk.zeros((b, n, n), bk.complex128)
        # The w_s factor commutes with the FFT, so it folds into the
        # per-chunk conj-kernel contraction (one pass fewer per block).
        # The weighted kernels are assembled host-side (cached real
        # constants) and transferred once per backward pass.
        if use_pairs:
            wkc = bk.from_host(w_direct[:, None, None] * kern_h)
            wkc_mirror = bk.from_host(w_mirror[:, None, None] * kern_h)
            acc_mirror = bk.zeros((b, n, n), bk.complex128)
        else:
            wkc = bk.from_host(w[:, None, None] * np.conj(kern))
    chunks = _obs_counter("imaging.chunks")
    iffts = _obs_counter("imaging.ifft2")
    ffts = _obs_counter("imaging.fft2")
    for lo in range(0, r, csize):
        hi = min(r, lo + csize)
        with _obs_span("fft.chunk", lo=lo, hi=hi, pass_="backward"):
            # Recomputed (B, C, N, N) block, never retained.
            fields = bk.ifft2(
                kern_r[lo:hi][None] * fm[:, None], overwrite_x=True
            )
            if need_w:
                intens = bk.abs2(fields)
                if gd_complex:
                    intens = bk.astype(intens, bk.complex128)
                val = bk.to_host(
                    bk.sum(
                        (intens.reshape(b, hi - lo, nn) @ gdr)[:, :, 0],
                        axis=0,
                    )
                )
                if use_pairs:
                    # |F[s']|^2 == |F[s]|^2, so mates share the contraction.
                    # reprolint: allow[R4] gw is a private per-stack accumulator the caller allocates; never a saved tensor
                    gw[reps[lo:hi]] += val
                    pc = is_pair[lo:hi]
                    # reprolint: allow[R4] gw is a private per-stack accumulator the caller allocates; never a saved tensor
                    gw[mates[lo:hi][pc]] += val[pc]
                else:
                    # reprolint: allow[R4] gw is a private per-stack accumulator the caller allocates; never a saved tensor
                    gw[lo:hi] += val
            if need_mask:
                fields *= gd2[:, None]  # in-place: no second block temp
                t = bk.fft2(fields, overwrite_x=True)
                acc += bk.einsum("cij,bcij->bij", wkc[lo:hi], t)
                if use_pairs:
                    acc_mirror += bk.einsum(
                        "cij,bcij->bij", wkc_mirror[lo:hi], t
                    )
        chunks.inc()
        iffts.inc()
        if need_mask:
            ffts.inc()
    if need_mask and use_pairs:
        # Mate term: conj(H_s')*FFT(2 w g conj(F_s)) == the direct
        # term conjugated and frequency-reversed (one pass total).
        acc += bk.conj(bk.freq_reverse(acc_mirror))
    return acc


def incoherent_image(
    mask: ArrayLike,
    pupil_stack: ArrayLike,
    weights: ArrayLike,
    chunk: Optional[int] = None,
    conj_pairs: Optional[np.ndarray] = None,
) -> Tensor:
    """Fused weighted incoherent sum ``I[b] = sum_s w_s |IFFT2(H_s FFT2(M_b))|^2``.

    The one-condition case of :func:`incoherent_image_stack` (same
    streamed forward, VJP and chunk fallback; no condition axis in the
    output), replacing the six ops of :func:`incoherent_image_composed`.
    ``conj_pairs`` is the stack's optional ``+/-sigma`` pairing.
    """
    return _incoherent_stack(
        mask, (pupil_stack,), weights, chunk, (conj_pairs,), stacked=False
    )


def incoherent_image_stack(
    mask: ArrayLike,
    pupil_stacks: Sequence[ArrayLike],
    weights: ArrayLike,
    chunk: Optional[int] = None,
    conj_pairs: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> Tensor:
    """Multi-condition fused incoherent imaging sharing ONE mask FFT.

    Computes ``out[f] = sum_s w_s |IFFT2(H^f_s FFT2(M))|^2`` for F
    kernel stacks (the process-condition axis), all sharing the real
    ``(S,)`` weights (normalized source weights for Abbe, SOCS
    eigenvalues for Hopkins); the stacks are constants.  ``mask`` is
    real or complex, ``(N, N)`` or ``(B, N, N)``; the output is
    ``(F, [B,] N, N)``.  Nominal imaging is the ``F == 1`` case
    (:func:`incoherent_image`).

    Streaming: ``FFT2(M)`` — the only saved activation — is computed
    once and streamed through every stack in source-axis chunks of
    ``chunk`` kernels (default :func:`repro.optics.fftlib.
    get_stream_chunk`), so peak working memory is one transient
    ``(B, chunk, N, N)`` block instead of the composed graph's retained
    ``O(B * S * N^2)`` intermediates.  A ``MemoryError`` in a stack's
    pass halves the chunk and retries once
    (:func:`repro.optics.fftlib.run_with_chunk_fallback`).

    The hand-written VJP *recomputes* the per-chunk coherent fields,
    emitting mask gradients

    ``gM[b] = IFFT2( sum_f sum_s conj(H^f_s) * FFT2(2 w_s g[f,b] F[f,b,s]) )``

    (normalization factors cancel; one frequency-domain accumulator for
    all stacks, closed by a single IFFT) and weight gradients
    ``gw[s] = sum_f sum_b <g[f,b], |F[f,b,s]|^2>``.

    ``conj_pairs`` is an optional per-stack sequence; entry ``cp``
    declares ``kernel_{cp[s]}(f) == kernel_s(-f)`` (Abbe's shifted
    pupils on a point-symmetric source grid).  For a real mask and real
    kernels the paired field is its mate's conjugate, so one kernel per
    pair is transformed, halving the FFT work in both directions; the
    pairing is ignored (exact fallback) for complex masks, complex
    kernels or a complex upstream gradient.

    The VJP is once-differentiable: under ``ad.grad(create_graph=True)``
    it raises :class:`FusedDoubleBackwardError` (BiSMO's oracles use
    :func:`incoherent_stack_mask_vjp`; double-backward references use
    ``AbbeImaging(config, fused=False)``).  The per-stack passes fan out
    across the
    :func:`repro.optics.fftlib.map_conditions` pool with private
    buffers and fixed-order reductions, so results are **bitwise
    identical** for any worker count.
    """
    return _incoherent_stack(
        mask, pupil_stacks, weights, chunk, conj_pairs, stacked=True
    )


def _stack_setup(
    mask: ArrayLike,
    pupil_stacks: Sequence[ArrayLike],
    weights: Sequence[ArrayLike],
    chunk: Optional[int],
    conj_pairs: Optional[Sequence[Optional[np.ndarray]]],
) -> Tuple[Tensor, Tuple[Tensor, ...], int, int, int, Tuple]:
    """Validate a condition-stack call; return ``(mask, stacks, s, n,
    chunk, pair_info)``.  Every entry of ``weights`` is checked against
    every stack."""
    mask = as_tensor(mask)
    stacks = tuple(as_tensor(p) for p in pupil_stacks)
    if not stacks:
        raise ValueError("incoherent_image_stack needs at least one stack")
    for st in stacks:
        for w in weights:
            s, n = _check_incoherent_args(mask, st, as_tensor(w))
    if conj_pairs is None:
        conj_pairs = (None,) * len(stacks)
    elif len(conj_pairs) != len(stacks):
        raise ValueError(
            f"conj_pairs must have one entry per stack "
            f"({len(stacks)}); got {len(conj_pairs)}"
        )
    csize = _get_fftlib().get_stream_chunk() if chunk is None else int(chunk)
    if csize < 1:
        raise ValueError(f"chunk must be >= 1; got {csize}")
    pair_info = tuple(
        _pair_setup(cp_f, s, not mask.is_complex and not st.is_complex)
        for st, cp_f in zip(stacks, conj_pairs)
    )
    return mask, stacks, s, n, csize, pair_info


def _incoherent_stack(
    mask: ArrayLike,
    pupil_stacks: Sequence[ArrayLike],
    weights: ArrayLike,
    chunk: Optional[int],
    conj_pairs: Optional[Sequence[Optional[np.ndarray]]],
    stacked: bool,
) -> Tensor:
    """The one implementation behind both public primitives.

    ``stacked=False`` drops the (length-one) condition axis from the
    output and expects an upstream gradient without it.
    """
    op = "incoherent_image_stack" if stacked else "incoherent_image"
    weights = as_tensor(weights)
    mask, stacks, s, n, csize, pair_info = _stack_setup(
        mask, pupil_stacks, (weights,), chunk, conj_pairs
    )
    fl = _get_fftlib()
    bk = _get_backend().active_backend()
    single = mask.ndim == 2
    tiles = mask.data[None] if single else mask.data
    b = tiles.shape[0]
    w = weights.data
    # ONE (B, N, N) spectrum for every condition — a read-only backend
    # array shared by the condition pool's threads and the VJP closure.
    fm = bk.fft2(bk.from_host(tiles))

    def _forward_one(fi: int) -> np.ndarray:
        cp_f, reps_f = pair_info[fi]
        with _obs_span("engine.condition", index=fi):
            return fl.run_with_chunk_fallback(
                lambda c: _stream_forward_one(
                    bk, fm, stacks[fi].data, w, c, cp_f, reps_f
                ),
                csize,
            )

    out = _get_backend().HOST.empty((len(stacks), b, n, n), np.float64)
    with _obs_span("imaging.forward", op=op, stacks=len(stacks), s=s, n=n):
        for fi, plane in enumerate(
            fl.map_conditions(_forward_one, len(stacks))
        ):
            out[fi] = plane
    out_data = out[:, 0] if single else out
    if not stacked:
        out_data = out_data[0]

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        if is_grad_enabled():
            raise FusedDoubleBackwardError(
                f"{op} is once-differentiable; for create_graph=True use "
                "BiSMO's HypergradientContext oracles or the composed "
                "engine AbbeImaging(config, fused=False)"
            )
        gd = g.data if stacked else g.data[None]
        gm, gw = _streamed_backward(
            bk,
            fm,
            tuple(st.data for st in stacks),
            pair_info,
            ((w, gd[:, None] if single else gd),),
            csize,
            mask.requires_grad,
            weights.requires_grad,
            op,
        )
        gm_out = None if gm is None else Tensor(gm[0] if single else gm)
        return (gm_out,) + (None,) * len(stacks) + (
            Tensor(gw) if gw is not None else None,
        )

    return _make(out_data, (mask,) + stacks + (weights,), vjp, op)


def _streamed_backward(
    bk: Any,
    fm: Any,
    kernels: Tuple[np.ndarray, ...],
    pair_info: Tuple,
    terms: Sequence[Tuple[np.ndarray, np.ndarray]],
    csize: int,
    need_mask: bool,
    need_w: bool,
    op: str,
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Graph-free streamed gradients of ``sum_k <g_k, stack(w_k)>``.

    Each term pairs ``(S,)`` weights ``w_k`` with a ``(F, B, N, N)``
    upstream gradient ``g_k``; every term streams from the one shared
    mask spectrum ``fm``.  Returns the host ``(B, N, N)`` mask gradient
    (complex; None unless ``need_mask``) summed over terms and
    conditions, and the ``(S,)`` weight gradient (None unless
    ``need_w``).  Each stack's pass fills *private* buffers on the
    condition pool; the cross-stack reductions run here in fixed stack
    order, so any thread count gives bitwise-identical gradients.
    """
    fl = _get_fftlib()
    host = _get_backend().HOST
    s = kernels[0].shape[0]
    gw_dtype = (
        np.complex128
        if builtins.any(np.iscomplexobj(gd) for _, gd in terms)
        else np.float64
    )

    def _backward_one(fi: int) -> Tuple[Any, Any]:
        cp_f, reps_f = pair_info[fi]

        def _attempt(c: int) -> Tuple[Any, Any]:
            # Fresh accumulators per attempt: a MemoryError mid-pass must
            # not leave half-accumulated gradients behind for the
            # halved-chunk retry to double-count.
            gw_f = host.zeros(s, gw_dtype) if need_w else None
            acc: Any = None
            for w, gd in terms:
                part = _stream_backward_one(
                    bk, gd[fi], fm, kernels[fi], w, c, cp_f, reps_f,
                    need_mask, gw_f,
                )
                acc = part if acc is None else acc + part
            return acc, gw_f

        with _obs_span("engine.condition", index=fi):
            return fl.run_with_chunk_fallback(_attempt, csize)

    with _obs_span("imaging.vjp", op=op, stacks=len(kernels), s=s):
        results = fl.map_conditions(_backward_one, len(kernels))
        gw: Any = host.zeros(s, gw_dtype) if need_w else None
        acc_total: Any = (
            bk.zeros(tuple(fm.shape), bk.complex128) if need_mask else None
        )
        for acc, gw_f in results:  # fixed stack-order reduction
            if need_mask:
                acc_total += acc
            if need_w:
                gw += gw_f
        gm = (
            bk.to_host(bk.ifft2(acc_total, overwrite_x=True))
            if need_mask
            else None
        )
    return gm, gw


def incoherent_stack_mask_vjp(
    mask: ArrayLike,
    pupil_stacks: Sequence[ArrayLike],
    terms: Sequence[Tuple[ArrayLike, ArrayLike]],
    conj_pairs: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> np.ndarray:
    """Graph-free mask gradient of ``sum_k <g_k, incoherent_image_stack(
    mask, pupil_stacks, w_k)>``.

    ``terms`` pairs real ``(S,)`` weights ``w_k`` (any sign) with
    upstream gradients ``g_k`` shaped like the stack output ``(F, [B,]
    N, N)``.  Every term reuses ONE mask spectrum and the primitive's
    streamed backward — conjugate pairing, source-axis chunks, the
    ``MemoryError`` chunk fallback and the condition-pool fan-out — and
    the summed frequency-domain accumulator is closed by one IFFT.
    Returns an array shaped like ``mask`` (real for a real mask).

    This is the mask half of BiSMO's exact mixed second-order product:
    the image is bilinear in the mask fields and the source weights, so
    differentiating ``<g, image(w)>`` along a weight direction ``u``
    is the same streamed VJP with ``u`` as the weights.
    """
    if not terms:
        raise ValueError("incoherent_stack_mask_vjp needs at least one term")
    m = as_tensor(mask)
    weights = tuple(as_tensor(w) for w, _ in terms)
    m, stacks, _, _, csize, pair_info = _stack_setup(
        m, pupil_stacks, weights, None, conj_pairs
    )
    single = m.ndim == 2
    out_shape = (len(stacks),) + m.shape
    ups = []
    for _, g in terms:
        gd = as_tensor(g).data
        if gd.shape != out_shape:
            raise ValueError(
                f"upstream gradient must be {out_shape}; got {gd.shape}"
            )
        ups.append(gd[:, None] if single else gd)
    bk = _get_backend().active_backend()
    tiles = m.data[None] if single else m.data
    fm = bk.fft2(bk.from_host(tiles))
    gm: Any
    gm, _ = _streamed_backward(
        bk,
        fm,
        tuple(st.data for st in stacks),
        pair_info,
        tuple((w.data, gd) for w, gd in zip(weights, ups)),
        csize,
        True,
        False,
        "incoherent_stack_mask_vjp",
    )
    gm = gm[0] if single else gm
    return gm if m.is_complex else gm.real


# ----------------------------------------------------------------------
# indexing
# ----------------------------------------------------------------------
def getitem(x: ArrayLike, idx: Any) -> Tensor:
    x = as_tensor(x)
    in_shape = x.shape
    complex_in = x.is_complex

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (scatter(g, idx, in_shape, complex_grad=complex_in),)

    return _make(x.data[idx].copy(), (x,), vjp, "getitem")


def scatter(
    x: ArrayLike, idx: Any, shape: Tuple[int, ...], complex_grad: bool = False
) -> Tensor:
    """Place ``x`` into a zeros array of ``shape`` at ``idx`` (adjoint of
    :func:`getitem`)."""
    x = as_tensor(x)
    dtype = np.complex128 if (complex_grad or x.is_complex) else np.float64
    out_data = _get_backend().HOST.zeros(shape, dtype)
    np.add.at(out_data, idx, x.data)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (getitem(g, idx),)

    return _make(out_data, (x,), vjp, "scatter")


# ----------------------------------------------------------------------
# linear algebra
# ----------------------------------------------------------------------
def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """2-D matrix product with complex-aware VJPs."""
    a, b = _binary_inputs(a, b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("matmul supports 2-D operands only")

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        ga = matmul(g, _transpose(conj(b)))
        gb = matmul(_transpose(conj(a)), g)
        return (ga, gb)

    return _make(a.data @ b.data, (a, b), vjp, "matmul")


def _transpose(x: Tensor) -> Tensor:
    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (_transpose(g),)

    return _make(x.data.T.copy(), (x,), vjp, "transpose")


def dot(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Real inner product ``sum(a * b)`` used by HVP helpers.

    Operands are flattened; for complex operands this is
    ``sum(Re(a)Re(b) + Im(a)Im(b))`` — the Euclidean inner product of the
    underlying real vector space, which is the pairing that makes
    grad/HVP compositions correct under our gradient convention.
    """
    a, b = _binary_inputs(a, b)
    af = reshape(a, (a.size,))
    bf = reshape(b, (b.size,))
    if a.is_complex or b.is_complex:
        return sum(real(mul(af, conj(bf))))
    return sum(mul(af, bf))
