"""BiSMO's matrix-free second-order oracles.

Objectives that split at the aerial image (``loss_from_aerial`` over
``conditions``) give :class:`HypergradientContext` its split path:
FFT-free Hessian products through the intensity basis and streamed mask
VJPs for the mixed term.  Every oracle is held to the double-backward
reference (the generic path, taken by objectives without the split; the
fused imaging node is once-differentiable, so the reference objectives
image through composed ops, ``AbbeImaging(cfg, fused=False)``), to
Hessian symmetry, to a finite difference of the gradient, and the
mask-VJP helper to a dot-product test against its own forward.
BiSMO-UNROLL's reverse sweep of those oracles is held to a taped
create-graph unroll on the composed objective.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.autodiff as ad
from repro import layouts
from repro.autodiff import functional as F
from repro.optics import OpticalConfig, ProcessWindow, SourceGrid, annular, fftlib
from repro.optics.abbe import AbbeImaging
from repro.optics.config import ProcessCorner
from repro.smo import (
    AbbeSMOObjective,
    BatchedSMOObjective,
    BiSMO,
    LoopedSMOObjective,
    ProcessWindowSMOObjective,
    init_theta_mask,
    init_theta_source,
)
from repro.opt import make_optimizer
from repro.smo.bismo import HypergradientContext, inner_iterates
from repro.smo.unroll import reverse_sweep_hypergradient, unrolled_hypergradient

RTOL = 1e-9
SRC = Path(__file__).resolve().parents[1] / "src"


class LossOnly:
    """The objective's loss without the aerial split: forces the
    generic double-backward path (the reference oracles).  Wrap an
    objective on a composed engine (:func:`composed`)."""

    def __init__(self, objective):
        self.loss = objective.loss


def composed(cfg):
    """A twice-differentiable (composed-op) Abbe engine."""
    return AbbeImaging(cfg, fused=False)


@pytest.fixture(scope="module")
def cfg():
    return OpticalConfig.preset("tiny")


@pytest.fixture(scope="module")
def point(cfg):
    """A perturbed (theta_J, theta_M) with B=3 tiles: non-trivial
    curvature in both parameters."""
    rng = np.random.default_rng(17)
    targets = (rng.random((3, cfg.mask_size, cfg.mask_size)) > 0.6).astype(
        np.float64
    )
    source = annular(SourceGrid.from_config(cfg), cfg.sigma_out, cfg.sigma_in)
    theta_j = init_theta_source(source, cfg) + 0.3 * rng.standard_normal(
        (cfg.source_size,) * 2
    )
    theta_m = init_theta_mask(targets, cfg) + 0.3 * rng.standard_normal(
        targets.shape
    )
    return targets, theta_j, theta_m


@pytest.fixture(scope="module")
def aberrated_window():
    """Nominal (real, conjugate-paired) plus a defocus and a coma
    condition (complex stacks, no pairing), one calibrated threshold."""
    return ProcessWindow(
        (
            ProcessCorner(dose=1.0, weight=1.0),
            ProcessCorner(dose=0.96, defocus_nm=40.0, weight=0.5),
            ProcessCorner(
                dose=1.04,
                aberrations={"Z7": 20.0},
                weight=0.5,
                intensity_threshold=0.25,
            ),
        )
    )


def _assert_oracles_match(fast, ref, theta_j, seed):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal(theta_j.shape)
    w = rng.standard_normal(theta_j.shape)
    assert fast.split and not ref.split
    assert fast.loss_value == pytest.approx(ref.loss_value, rel=RTOL)
    for got, want in (
        (fast.grad_j, ref.grad_j),
        (fast.grad_m, ref.grad_m),
        (fast.hvp(p), ref.hvp(p)),
        (fast.mixed_vjp(w), ref.mixed_vjp(w)),
    ):
        np.testing.assert_allclose(
            got, want, rtol=RTOL, atol=RTOL * np.abs(want).max()
        )


class TestSplitMatchesDoubleBackward:
    def test_batched_vs_looped(self, cfg, point):
        targets, theta_j, theta_m = point
        fast = HypergradientContext(
            BatchedSMOObjective(cfg, targets), theta_j, theta_m
        )
        ref = HypergradientContext(
            LoopedSMOObjective(cfg, targets, engine=composed(cfg)),
            theta_j,
            theta_m,
        )
        _assert_oracles_match(fast, ref, theta_j, seed=1)

    def test_single_tile(self, cfg, point):
        targets, theta_j, theta_m = point
        fast = HypergradientContext(
            AbbeSMOObjective(cfg, targets[0]), theta_j, theta_m[0]
        )
        ref = HypergradientContext(
            LossOnly(AbbeSMOObjective(cfg, targets[0], engine=composed(cfg))),
            theta_j,
            theta_m[0],
        )
        _assert_oracles_match(fast, ref, theta_j, seed=2)

    @pytest.mark.parametrize("robust", ["sum", "max", "adaptive"])
    def test_process_window(self, cfg, point, aberrated_window, robust):
        targets, theta_j, theta_m = point
        objective, reference = (
            ProcessWindowSMOObjective(
                cfg, targets, aberrated_window, robust=robust, tau=0.5,
                engine=engine,
            )
            for engine in (None, composed(cfg))
        )
        if objective.adaptive_weights is not None:
            # Off the uniform seed, so the live weights matter.
            for obj in (objective, reference):
                obj.adaptive_weights.update(np.array([1.0, 3.0, 2.0]))
        fast = HypergradientContext(objective, theta_j, theta_m)
        ref = HypergradientContext(LossOnly(reference), theta_j, theta_m)
        _assert_oracles_match(fast, ref, theta_j, seed=3)
        # The split path stashes the corner diagnostics like loss() does.
        assert objective.last_corner_losses.shape == (3, len(targets))

    def test_solver_bases_are_reused(self, cfg, point):
        """Bases handed over on the solver's source-only closure give the
        same oracles as bases the context builds itself."""
        targets, theta_j, theta_m = point
        objective = BatchedSMOObjective(cfg, targets)
        so_loss = objective.source_only_loss(theta_m)
        shared = HypergradientContext(
            objective, theta_j, theta_m, so_loss_fn=so_loss
        )
        assert shared._bases is so_loss.bases
        own = HypergradientContext(
            AbbeSMOObjective(cfg, targets[0]), theta_j, theta_m[0]
        )
        assert own._bases[0].shape[0] == 1  # built from the single mask
        p = np.random.default_rng(4).standard_normal(theta_j.shape)
        np.testing.assert_array_equal(
            shared.hvp(p),
            HypergradientContext(objective, theta_j, theta_m).hvp(p),
        )

    def test_wrong_theta_m_shape_raises(self, cfg, point, aberrated_window):
        """The split path never calls ``loss``, so it checks theta_m
        itself: a single mask for B targets would otherwise broadcast
        into one mask optimized for the sum of all targets."""
        targets, theta_j, theta_m = point
        for objective, bad in (
            (BatchedSMOObjective(cfg, targets), theta_m[0]),
            (ProcessWindowSMOObjective(cfg, targets, aberrated_window), theta_m[0]),
            (AbbeSMOObjective(cfg, targets[0]), theta_m),
        ):
            with pytest.raises(ValueError, match="theta_m must be shaped"):
                HypergradientContext(objective, theta_j, bad)
            with pytest.raises(ValueError, match="theta_m must be shaped"):
                objective.loss(ad.Tensor(theta_j), ad.Tensor(bad))


def test_split_oracles_never_run_the_imaging_forward(cfg, point, monkeypatch):
    """The split context images only through the intensity bases and
    streamed mask VJPs: the fused forward is never called."""
    targets, theta_j, theta_m = point
    objective = ProcessWindowSMOObjective(
        cfg, targets, ProcessWindow.from_grid((0.98, 1.02), (0.0, 40.0))
    )
    assert len(objective.conditions) == 2

    def forbidden(*args, **kwargs):
        raise AssertionError("the split oracles ran the imaging forward")

    monkeypatch.setattr(F, "incoherent_image_stack", forbidden)
    monkeypatch.setattr(F, "incoherent_image", forbidden)
    ctx = HypergradientContext(objective, theta_j, theta_m)
    assert ctx.split
    rng = np.random.default_rng(6)
    assert np.all(np.isfinite(ctx.hvp(rng.standard_normal(theta_j.shape))))
    assert np.all(np.isfinite(ctx.mixed_vjp(rng.standard_normal(theta_j.shape))))


def _taped_unroll(objective, theta_j, theta_m, steps, inner_lr, direct=True):
    """Reverse mode through ``steps`` SGD updates recorded on the tape
    (create_graph), the textbook unroll the reverse sweep replaces.
    ``direct=False`` evaluates the final loss at a constant theta_M, so
    the gradient is the best-response (indirect) term alone."""
    tm = ad.Tensor(theta_m, requires_grad=True)
    cur = ad.Tensor(theta_j, requires_grad=True)
    for _ in range(steps):
        (gj,) = ad.grad(objective.loss(cur, tm), [cur], create_graph=True)
        cur = F.sub(cur, F.mul(gj, inner_lr))
    loss = objective.loss(cur, tm if direct else ad.Tensor(theta_m))
    (gm,) = ad.grad(loss, [tm])
    return gm.data, cur.data, float(loss.data)


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("windowed", [False, True])
def test_unroll_sweep_matches_taped_unroll(
    cfg, point, aberrated_window, windowed, steps
):
    """The reverse sweep of exact oracles on the fused objective equals
    the taped create-graph unroll on the composed objective: the whole
    hypergradient, and the best-response term on its own (it is ~1e-8
    of the direct term on the window, below the whole-vector rtol)."""
    targets, theta_j, theta_m = point

    def build(engine):
        if windowed:
            return ProcessWindowSMOObjective(
                cfg, targets, aberrated_window, robust="max", tau=0.5,
                engine=engine,
            )
        return BatchedSMOObjective(cfg, targets, engine=engine)

    fused, reference = build(None), build(composed(cfg))
    hyper, tj, loss = unrolled_hypergradient(
        fused, theta_j, theta_m, steps=steps, inner_lr=0.1
    )
    want_hyper, want_tj, want_loss = _taped_unroll(
        reference, theta_j, theta_m, steps, 0.1
    )
    iterates, so_loss = inner_iterates(
        fused, theta_j, theta_m, steps, make_optimizer("sgd", 0.1)
    )
    ctx = HypergradientContext(fused, iterates[-1], theta_m, so_loss_fn=so_loss)
    ctx.grad_m = np.zeros_like(ctx.grad_m)  # sweep the indirect term alone
    indirect, _ = reverse_sweep_hypergradient(
        ctx, 0.1, 0, 0.0, None, iterates[:-1]
    )
    want_indirect, _, _ = _taped_unroll(
        reference, theta_j, theta_m, steps, 0.1, direct=False
    )
    assert loss == pytest.approx(want_loss, rel=RTOL)
    for got, want in (
        (hyper, want_hyper),
        (tj, want_tj),
        (indirect, want_indirect),
    ):
        np.testing.assert_allclose(
            got, want, rtol=RTOL, atol=RTOL * np.abs(want).max()
        )


def test_unroll_runs_one_mask_vjp_per_product(cfg, point, monkeypatch):
    """One BiSMO-UNROLL outer iteration (B=2, T=3) runs T + 1 streamed
    mask VJPs: the direct ``grad_m`` at theta_T and one per mixed
    product.  The per-iterate contexts compute no ``grad_m``."""
    targets, _, _ = point
    source = annular(SourceGrid.from_config(cfg), cfg.sigma_out, cfg.sigma_in)
    calls = []
    mask_vjp = F.incoherent_stack_mask_vjp

    def counted(*args, **kwargs):
        calls.append(None)
        return mask_vjp(*args, **kwargs)

    monkeypatch.setattr(F, "incoherent_stack_mask_vjp", counted)
    solver = BiSMO(cfg, targets[:2], method="unroll", unroll_steps=3, seed=11)
    solver.run(source, iterations=1)
    assert len(calls) == 4


@pytest.fixture(scope="module")
def window_ctx(cfg, point, aberrated_window):
    targets, theta_j, theta_m = point
    objective = ProcessWindowSMOObjective(
        cfg, targets, aberrated_window, robust="max", tau=0.5
    )
    return objective, HypergradientContext(objective, theta_j, theta_m)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_hessian_is_symmetric(window_ctx, seed):
    """<q, H p> == <p, H q> for the split inner Hessian."""
    _, ctx = window_ctx
    rng = np.random.default_rng(seed)
    p, q = rng.standard_normal((2,) + ctx.grad_j.shape)
    hp, hq = ctx.hvp(p), ctx.hvp(q)
    scale = np.linalg.norm(q) * np.linalg.norm(hp) + np.linalg.norm(
        p
    ) * np.linalg.norm(hq)
    assert abs(np.vdot(q, hp) - np.vdot(p, hq)) <= 1e-12 * scale


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mixed_product_is_the_adjoint_of_the_gradient_fd(window_ctx, point, seed):
    """<mixed_vjp(w), d> equals the central difference of <grad_j, w>
    along the theta_M direction d."""
    objective, ctx = window_ctx
    _, theta_j, theta_m = point
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(theta_j.shape)
    d = rng.standard_normal(theta_m.shape)
    h = 1e-5

    def grad_j_dot_w(tm):
        tj = ad.Tensor(theta_j, requires_grad=True)
        (gj,) = ad.grad(objective.loss(tj, ad.Tensor(tm)), [tj])
        return float(np.vdot(gj.data, w))

    fd = (grad_j_dot_w(theta_m + h * d) - grad_j_dot_w(theta_m - h * d)) / (2 * h)
    exact = float(np.vdot(ctx.mixed_vjp(w), d))
    assert exact == pytest.approx(fd, rel=1e-5, abs=1e-8)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    batched=st.booleans(),
    num_terms=st.integers(1, 3),
    chunk=st.sampled_from([None, 1, 5]),
)
def test_mask_vjp_dot_product(cfg, seed, batched, num_terms, chunk):
    """<incoherent_stack_mask_vjp(M; (w_k, g_k)), dM> equals the central
    difference of sum_k <g_k, image(M; w_k)> along dM (the image is
    quadratic in M, so the difference is exact up to rounding)."""
    engine = AbbeImaging(cfg)
    pairs = engine.condition_stacks(
        (0.0, 40.0, {"Z7": 20.0})
    )  # paired real + two complex stacks
    stacks = [stack for stack, _ in pairs]
    conj = [cp for _, cp in pairs]
    rng = np.random.default_rng(seed)
    shape = ((2,) if batched else ()) + (cfg.mask_size,) * 2
    mask = rng.uniform(size=shape)
    dm = rng.standard_normal(shape)
    s = engine.num_source_points
    terms = [
        (rng.standard_normal(s), rng.standard_normal((len(stacks),) + shape))
        for _ in range(num_terms)
    ]
    with fftlib.use(chunk=chunk):
        got = F.incoherent_stack_mask_vjp(mask, stacks, terms, conj_pairs=conj)
    assert got.shape == mask.shape and not np.iscomplexobj(got)

    def f(m):
        with ad.no_grad():
            return sum(
                float(
                    np.vdot(
                        g,
                        F.incoherent_image_stack(
                            m, stacks, w, conj_pairs=conj
                        ).data,
                    )
                )
                for w, g in terms
            )

    h = 1e-3
    fd = (f(mask + h * dm) - f(mask - h * dm)) / (2 * h)
    assert float(np.vdot(got, dm)) == pytest.approx(fd, rel=1e-8)


class TestMaskVjpHelper:
    def test_matches_primitive_vjp(self, cfg):
        """One term with the forward's weights is exactly the fused
        node's streamed mask gradient."""
        engine = AbbeImaging(cfg)
        pairs = engine.condition_stacks((0.0, 40.0))
        stacks = [stack for stack, _ in pairs]
        conj = [cp for _, cp in pairs]
        rng = np.random.default_rng(9)
        mask = rng.uniform(size=(2, cfg.mask_size, cfg.mask_size))
        w = rng.uniform(size=engine.num_source_points)
        g = rng.standard_normal((2, 2, cfg.mask_size, cfg.mask_size))
        mt = ad.Tensor(mask, requires_grad=True)
        out = F.incoherent_image_stack(mt, stacks, w, conj_pairs=conj)
        (want,) = ad.grad(out, [mt], grad_output=ad.Tensor(g))
        got = F.incoherent_stack_mask_vjp(mask, stacks, [(w, g)], conj_pairs=conj)
        np.testing.assert_array_equal(got, want.data)

    def test_rejects_bad_terms(self, cfg):
        engine = AbbeImaging(cfg)
        stack = engine.condition_stacks((0.0,))[0][0]
        mask = np.ones((cfg.mask_size,) * 2)
        w = np.ones(engine.num_source_points)
        with pytest.raises(ValueError, match="at least one term"):
            F.incoherent_stack_mask_vjp(mask, [stack], [])
        with pytest.raises(ValueError, match="upstream gradient"):
            F.incoherent_stack_mask_vjp(mask, [stack], [(w, mask)])


def test_basis_is_bitwise_chunk_invariant(cfg):
    engine = AbbeImaging(cfg)
    masks = np.random.default_rng(2).uniform(size=(2, cfg.mask_size, cfg.mask_size))
    with fftlib.use(chunk=1):
        one = engine.source_intensity_basis(masks)
    np.testing.assert_array_equal(one, engine.source_intensity_basis(masks))


def test_oracles_agree_on_indefinite_hessian():
    """At the BiSMO-CG ``bilevel_small`` seed-17 point (ICCAD13 small,
    B=4, after 9 outer iterations) the inner Hessian is indefinite, so
    CG amplifies rounding-level oracle differences into a trajectory
    drift.  The oracles themselves must still agree there: the split
    HVP matches the double-backward reference and is symmetric."""
    cfg = OpticalConfig.preset("small")
    clips = list(layouts.dataset_by_name("ICCAD13", num_clips=4, seed=17))
    targets = layouts.tile_stack(clips, cfg)
    source = annular(SourceGrid.from_config(cfg), cfg.sigma_out, cfg.sigma_in)
    run = BiSMO(
        cfg, targets, method="cg", unroll_steps=3, terms=5, inner_lr=0.1,
        outer_lr=0.1, outer_optimizer="adam", damping=1.0, seed=17,
    ).run(source, iterations=9)
    fast = HypergradientContext(
        BatchedSMOObjective(cfg, targets), run.theta_j, run.theta_m
    )
    ref = HypergradientContext(
        LossOnly(BatchedSMOObjective(cfg, targets, engine=composed(cfg))),
        run.theta_j,
        run.theta_m,
    )
    n = run.theta_j.size
    hess = np.stack(
        [fast.hvp(e.reshape(run.theta_j.shape)).ravel() for e in np.eye(n)],
        axis=1,
    )
    eig = np.linalg.eigvalsh((hess + hess.T) / 2)
    assert eig.min() < 0 < eig.max()
    assert np.abs(hess - hess.T).max() <= 1e-12 * np.abs(hess).max()
    rng = np.random.default_rng(17)
    for p in rng.standard_normal((4,) + run.theta_j.shape):
        want = ref.hvp(p)
        np.testing.assert_allclose(
            fast.hvp(p), want, rtol=RTOL, atol=RTOL * np.abs(want).max()
        )


def test_bilevel_spans_nest_under_solver_iter():
    """Traced tiny BiSMO-NMN and BiSMO-UNROLL iterations (REPRO_TRACE=1)
    attribute their hypergradient, HVPs and mixed products to named
    spans."""
    script = (
        "import json, numpy as np\n"
        "from repro import obs\n"
        "from repro.optics import OpticalConfig, SourceGrid, annular\n"
        "from repro.smo import BiSMO\n"
        "cfg = OpticalConfig.preset('tiny')\n"
        "rng = np.random.default_rng(0)\n"
        "t = (rng.random((2, cfg.mask_size, cfg.mask_size)) > 0.6) * 1.0\n"
        "src = annular(SourceGrid.from_config(cfg), cfg.sigma_out, cfg.sigma_in)\n"
        "out = {}\n"
        "for method in ('nmn', 'unroll'):\n"
        "    BiSMO(cfg, t, method=method, unroll_steps=2, terms=2).run(src, iterations=1)\n"
        "    out[method] = [[e['name'], e['parent']] for e in obs.drain_events()]\n"
        "print(json.dumps(out))\n"
    )
    env = dict(os.environ, REPRO_TRACE="1", PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    traced = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(traced) == {"nmn", "unroll"}
    for events in traced.values():
        parents = {}
        for name, parent in events:
            parents.setdefault(name, set()).add(parent)
        assert parents["solver.hypergrad"] == {"solver.iter"}
        assert parents["solver.hvp"] == {"solver.hypergrad"}
        assert parents["solver.mixed"] == {"solver.hypergrad"}
