"""Tests for the SMO loss (Eqs. (7)-(9)) and dose handling."""

import numpy as np
import pytest

import repro.autodiff as ad
from repro.autodiff import functional as F
from repro.optics import AbbeImaging, HopkinsImaging, OpticalConfig
from repro.smo import (
    AbbeSMOObjective,
    HopkinsMOObjective,
    ProcessWindowSMOObjective,
    dose_resist,
    init_theta_mask,
    init_theta_source,
    mask_from_theta,
    smo_loss_from_aerial,
    source_from_theta,
)


@pytest.fixture(scope="module")
def cfg():
    return OpticalConfig.preset("tiny")


@pytest.fixture(scope="module")
def objective(cfg, tiny_target):
    return AbbeSMOObjective(cfg, tiny_target)


@pytest.fixture(scope="module")
def thetas(cfg, tiny_target, tiny_source):
    return (
        init_theta_source(tiny_source, cfg),
        init_theta_mask(tiny_target, cfg),
    )


class TestDoseEquivalence:
    def test_dose_resist_equals_explicit_mask_scaling(self, cfg, objective, thetas):
        """sigmoid(beta(d^2 I - tr)) == imaging d*M explicitly (Eq. (8))."""
        tj, tm = thetas
        engine = objective.engine
        with ad.no_grad():
            src = source_from_theta(ad.Tensor(tj), cfg)
            mask = mask_from_theta(ad.Tensor(tm), cfg)
            aerial = engine.aerial(mask, src)
            fast = dose_resist(aerial, cfg, cfg.dose_min).data
            scaled = engine.aerial(F.mul(mask, cfg.dose_min), src)
            explicit = F.sigmoid(
                F.mul(F.sub(scaled, cfg.intensity_threshold), cfg.beta)
            ).data
        np.testing.assert_allclose(fast, explicit, atol=1e-12)

    def test_nominal_dose_identity(self, cfg):
        aerial = ad.Tensor(np.random.default_rng(0).random((4, 4)))
        z = dose_resist(aerial, cfg, 1.0)
        z2 = dose_resist(aerial, cfg, 1.0 + 1e-16)
        np.testing.assert_allclose(z.data, z2.data, atol=1e-12)

    def test_dose_ordering(self, cfg):
        """Higher dose prints more: Z_max >= Z_nom >= Z_min everywhere."""
        aerial = ad.Tensor(np.random.default_rng(1).random((8, 8)))
        z_min = dose_resist(aerial, cfg, cfg.dose_min).data
        z_nom = dose_resist(aerial, cfg, 1.0).data
        z_max = dose_resist(aerial, cfg, cfg.dose_max).data
        assert np.all(z_max >= z_nom - 1e-12)
        assert np.all(z_nom >= z_min - 1e-12)


class TestLossStructure:
    def test_loss_weights(self, cfg):
        """L = gamma*L2 + eta*PVB with the paper's gamma/eta."""
        aerial = ad.Tensor(np.random.default_rng(0).random((6, 6)))
        target = ad.Tensor((np.random.default_rng(1).random((6, 6)) > 0.5).astype(float))
        loss = smo_loss_from_aerial(aerial, target, cfg).item()
        z = dose_resist(aerial, cfg, 1.0).data
        zmin = dose_resist(aerial, cfg, cfg.dose_min).data
        zmax = dose_resist(aerial, cfg, cfg.dose_max).data
        l2 = ((z - target.data) ** 2).sum()
        pvb = ((zmax - target.data) ** 2).sum() + ((zmin - target.data) ** 2).sum()
        assert loss == pytest.approx(cfg.gamma * l2 + cfg.eta * pvb, rel=1e-12)

    def test_loss_positive(self, objective, thetas):
        tj, tm = thetas
        with ad.no_grad():
            loss = objective.loss(ad.Tensor(tj), ad.Tensor(tm)).item()
        assert loss > 0

    def test_gradients_flow_to_both_levels(self, objective, thetas):
        tj, tm = thetas
        a = ad.Tensor(tj, requires_grad=True)
        b = ad.Tensor(tm, requires_grad=True)
        gj, gm = ad.grad(objective.loss(a, b), [a, b])
        assert np.abs(gj.data).max() > 0
        assert np.abs(gm.data).max() > 0

    def test_target_shape_mismatch_raises(self, cfg):
        with pytest.raises(ValueError):
            AbbeSMOObjective(cfg, np.zeros((4, 4)))

    def test_images_keys(self, cfg, objective, thetas):
        tj, tm = thetas
        images = objective.images(tj, tm)
        assert set(images) == {
            "source",
            "mask",
            "aerial",
            "resist",
            "resist_min",
            "resist_max",
            "target",
            "corner_aerials",
            "corner_resists",
        }
        assert images["resist"].shape == images["target"].shape
        n = cfg.mask_size
        # The default window: three dose corners sharing one condition.
        assert images["corner_aerials"].shape == (1, n, n)
        assert images["corner_resists"].shape == (3, n, n)


class TestHopkinsObjective:
    def test_loss_and_gradient(self, cfg, tiny_target, tiny_source):
        obj = HopkinsMOObjective(cfg, tiny_target, tiny_source, num_kernels=8)
        tm = ad.Tensor(init_theta_mask(tiny_target, cfg), requires_grad=True)
        loss = obj.loss(tm)
        (g,) = ad.grad(loss, [tm])
        assert loss.item() > 0
        assert np.abs(g.data).max() > 0

    def test_rebuild_source_changes_loss(self, cfg, tiny_target, tiny_source):
        from repro.optics import SourceGrid, conventional

        obj = HopkinsMOObjective(cfg, tiny_target, tiny_source, num_kernels=8)
        tm = ad.Tensor(init_theta_mask(tiny_target, cfg))
        with ad.no_grad():
            l1 = obj.loss(tm).item()
        grid = SourceGrid.from_config(cfg)
        obj.rebuild_source(conventional(grid, 0.5))
        with ad.no_grad():
            l2 = obj.loss(tm).item()
        assert l1 != l2

    def test_images(self, cfg, tiny_target, tiny_source):
        obj = HopkinsMOObjective(cfg, tiny_target, tiny_source, num_kernels=8)
        images = obj.images(init_theta_mask(tiny_target, cfg))
        assert "resist" in images and "aerial" in images


class TestDefaultWindowFollowsEngineAberration:
    """Without an explicit window the objectives image Eq. (8)'s dose
    corners at their engine's own aberration, not in focus."""

    def test_abbe_default_window_on_defocused_engine(
        self, cfg, tiny_target, thetas
    ):
        tj, tm = thetas
        engine = AbbeImaging(cfg, defocus_nm=80.0)
        obj = ProcessWindowSMOObjective(cfg, tiny_target, engine=engine)
        assert obj.conditions == (engine.aberration,)
        with ad.no_grad():
            loss = obj.loss(ad.Tensor(tj), ad.Tensor(tm)).item()
            src = source_from_theta(ad.Tensor(tj), cfg)
            mask = mask_from_theta(ad.Tensor(tm), cfg)
            ref = smo_loss_from_aerial(
                engine.aerial(mask, src), ad.Tensor(tiny_target), cfg
            ).item()
        np.testing.assert_allclose(loss, ref, rtol=1e-12)

    def test_hopkins_default_window_on_defocused_engine(
        self, cfg, tiny_target, tiny_source, thetas
    ):
        _, tm = thetas
        engine = HopkinsImaging(cfg, tiny_source, num_kernels=8, defocus_nm=80.0)
        obj = HopkinsMOObjective(cfg, tiny_target, tiny_source, engine=engine)
        assert obj.window.conditions() == (engine.aberration,)
        with ad.no_grad():
            loss = obj.loss(ad.Tensor(tm)).item()
            mask = mask_from_theta(ad.Tensor(tm), cfg)
            ref = smo_loss_from_aerial(
                engine.aerial(mask), ad.Tensor(tiny_target), cfg
            ).item()
        np.testing.assert_allclose(loss, ref, rtol=1e-12)
