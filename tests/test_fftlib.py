"""Tests for the FFT dispatch layer (:mod:`repro.optics.fftlib`):
agreement with ``np.fft``, thread-count determinism, the scoped policy
override, env-knob validation, and the graph-free imaging fast path."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.optics import fftlib
from repro.optics.engine import incoherent_sum_fast


@pytest.fixture(autouse=True)
def _restore_policy():
    """Every test runs against the default policy and restores it."""
    with fftlib.use(chunk=16, condition_workers=0, budget=0):
        yield


@pytest.fixture()
def batch(rng) -> np.ndarray:
    return rng.standard_normal((3, 16, 16))


class TestBackends:
    """fftlib's pocketfft transforms against numpy's reference FFT."""

    def test_backends_agree(self, batch):
        np.testing.assert_allclose(
            fftlib.fft2(batch), np.fft.fft2(batch), atol=1e-12
        )
        np.testing.assert_allclose(
            fftlib.ifft2(batch.astype(np.complex128)),
            np.fft.ifft2(batch),
            atol=1e-12,
        )
        np.testing.assert_array_equal(
            fftlib.fftfreq(16, d=0.5), np.fft.fftfreq(16, d=0.5)
        )

    def test_use_restores_state(self):
        before = fftlib.describe()
        with fftlib.use(chunk=4, condition_workers=1, budget=1):
            assert fftlib.get_stream_chunk() == 4
            assert fftlib.get_condition_workers() == 1
            assert fftlib.get_worker_budget() == 1
            assert fftlib.effective_workers() == 1
        assert fftlib.describe() == before

    def test_use_restores_on_error(self):
        before = fftlib.describe()
        with pytest.raises(RuntimeError):
            with fftlib.use(budget=5):
                raise RuntimeError("boom")
        assert fftlib.describe() == before


class TestWorkers:
    def test_validation(self):
        with pytest.raises(ValueError):
            fftlib.set_worker_budget(-1)
        with pytest.raises(ValueError):
            fftlib.set_condition_workers(-1)
        fftlib.set_worker_budget(0)
        assert fftlib.effective_workers() >= 1
        fftlib.set_worker_budget(1)
        assert fftlib.effective_workers() == 1

    def test_multiworker_results_bitwise_identical(self, batch):
        """pocketfft threads across independent transforms — no
        cross-thread reductions, so results must be bitwise equal."""
        with fftlib.use(budget=1):
            assert fftlib.effective_workers() == 1
            serial = (fftlib.fft2(batch), fftlib.ifft2(batch))
        with fftlib.use(budget=4):
            threaded = (fftlib.fft2(batch), fftlib.ifft2(batch))
        for s, t in zip(serial, threaded):
            np.testing.assert_array_equal(s, t)


ENV_INT_KNOBS = ("REPRO_FFT_CHUNK", "REPRO_COND_WORKERS", "REPRO_WORKER_BUDGET")


@pytest.mark.parametrize("var", ENV_INT_KNOBS)
def test_env_int_error_names_variable(var):
    """A non-integer knob fails at import with an error naming the
    variable and the offending value."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "abc"})
    proc = subprocess.run(
        [sys.executable, "-c", "import repro.optics"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert f"ValueError: {var} must be an integer; got 'abc'" in proc.stderr


class TestPrecisionPolicy:
    """The fast path computes in double precision whatever its inputs."""

    def test_incoherent_sum_fast_zero_weight(self, rng):
        """Exact-zero weights are pruned without changing the sum."""
        tiles = rng.random((2, 16, 16))
        kernels = rng.standard_normal((4, 16, 16)) * 0.4
        weights = np.array([0.5, 0.0, 0.3, 0.2])  # includes an exact zero
        out = incoherent_sum_fast(tiles, kernels, weights, norm=1.0)
        fields = np.fft.ifft2(kernels[None] * np.fft.fft2(tiles)[:, None])
        ref = np.einsum("s,bsij->bij", weights, np.abs(fields) ** 2)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, ref, atol=1e-12)
        zero = incoherent_sum_fast(tiles, kernels, np.zeros(4), norm=1.0)
        np.testing.assert_array_equal(zero, np.zeros_like(tiles))

    def test_incoherent_sum_fast_complex_tiles(self, rng):
        """Complex (e.g. phase-shift) tiles keep their imaginary part
        through the complex128 cast."""
        tiles = rng.random((2, 16, 16)) + 1j * rng.random((2, 16, 16))
        kernels = rng.standard_normal((3, 16, 16)) * 0.4
        weights = np.array([0.6, 0.3, 0.1])
        out = incoherent_sum_fast(tiles, kernels, weights, norm=1.0)
        fields = np.fft.ifft2(kernels[None] * np.fft.fft2(tiles)[:, None])
        ref = np.einsum("s,bsij->bij", weights, np.abs(fields) ** 2)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_chunk_validation(self):
        with pytest.raises(ValueError):
            fftlib.set_stream_chunk(0)
        fftlib.set_stream_chunk(8)
        assert fftlib.get_stream_chunk() == 8


class TestAutodiffDispatch:
    def test_functional_ffts_follow_backend(self, batch, monkeypatch):
        """The differentiable fft2/ifft2 dispatch through fftlib."""
        from repro.autodiff import functional as F

        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(fftlib, "fft2", counted(fftlib.fft2))
        monkeypatch.setattr(fftlib, "ifft2", counted(fftlib.ifft2))
        np.testing.assert_allclose(
            F.fft2(batch).data, np.fft.fft2(batch), atol=1e-12
        )
        np.testing.assert_allclose(
            F.ifft2(batch).data, np.fft.ifft2(batch), atol=1e-12
        )
        assert calls == ["fft2", "ifft2"]

    def test_cache_freq_axes_match_numpy(self):
        from repro.optics import OpticalConfig
        from repro.optics import cache

        cfg = OpticalConfig.preset("tiny")
        f, _ = cache.freq_axes(cfg)
        np.testing.assert_allclose(
            f, np.fft.fftfreq(cfg.mask_size, d=cfg.pixel_nm)
        )
