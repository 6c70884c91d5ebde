"""Joint multi-clip BiSMO: fused batched bilevel path vs the per-clip loop.

The tentpole claim of the batch-native solver stack: running BiSMO-NMN
jointly over a B-clip stack through :class:`BatchedSMOObjective` beats
the mathematically identical per-clip loop
(:class:`LoopedSMOObjective`, B independent single-tile graphs summed
per evaluation) — the acceptance bar is >= 2x wall-clock at B = 8 with
per-tile final losses matching to 1e-8 relative.

Two fused-path advantages add up: (1) one ``(B, N, N)`` graph per loss /
HVP evaluation instead of B single-tile graphs, and (2) the batched
objective's ``source_only_loss`` oracle — Abbe's aerial is linear in the
normalized source weights, so with theta_M fixed across an outer
iteration every inner SO step and inner-Hessian product rides one
FFT-free intensity-basis graph.  The per-clip loop, faithful to the
pre-batching consumer pattern, has neither: it takes its exact HVPs by
double backward, which needs the composed-op engine
(``AbbeImaging(cfg, fused=False)``; fused imaging is
once-differentiable).  Solver knobs are the
paper's Algorithm 2 defaults (T = 3 inner steps, K = 5 Neumann terms).

Run like every other bench module, e.g.::

    PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_joint_smo.py \
        --benchmark-json=joint_smo.json

``BISMO_JOINT_SCALE`` picks the optical preset.  The default is
``tiny`` (32 px tiles) — the per-graph-overhead-bound regime the fused
path targets, where the win is ~3x; at ``small`` (the 64 px
reproduction scale) the run is increasingly FFT-bound and the win is
~2x.  ``BISMO_JOINT_CLIPS`` / ``BISMO_JOINT_ITERS`` override the batch
size and the outer-iteration budget.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.harness.runner import _annular_source
from repro.layouts import dataset_by_name, tile_stack
from repro.optics import AbbeImaging, OpticalConfig
from repro.smo import BatchedSMOObjective, BiSMO, LoopedSMOObjective

from conftest import rescale_clips
from bench_env import env_flag, env_int, env_str

JOINT_SCALE = env_str("BISMO_JOINT_SCALE", "tiny")
NUM_CLIPS = env_int("BISMO_JOINT_CLIPS", 8)
ITERATIONS = env_int("BISMO_JOINT_ITERS", 2)
#: Set to 1 to keep the exact parity asserts but skip the wall-clock
#: gate — for CI runners whose shared cores make sub-second timings
#: unreliable.
CHECK_ONLY = env_flag("BISMO_JOINT_CHECK_ONLY")


@pytest.fixture(scope="module")
def setup():
    cfg = OpticalConfig.preset(JOINT_SCALE)
    ds = rescale_clips(dataset_by_name("ICCAD13", num_clips=NUM_CLIPS), cfg)
    targets = tile_stack(ds, cfg)
    source = _annular_source(cfg)
    return cfg, targets, source


def _looped(cfg, targets) -> LoopedSMOObjective:
    """The per-clip reference on the twice-differentiable engine."""
    return LoopedSMOObjective(cfg, targets, engine=AbbeImaging(cfg, fused=False))


def _solve(cfg, targets, source, objective) -> "BiSMO":
    solver = BiSMO(
        cfg,
        targets,
        method="nmn",
        unroll_steps=3,  # paper: T = 3
        terms=5,  # paper: K = 5
        objective=objective,
    )
    return solver.run(source, iterations=ITERATIONS)


def test_joint_batched(benchmark, setup):
    """One fused (B, N, N) graph per loss/HVP evaluation."""
    cfg, targets, source = setup
    result = benchmark(
        lambda: _solve(cfg, targets, source, BatchedSMOObjective(cfg, targets))
    )
    benchmark.extra_info["clips"] = NUM_CLIPS
    benchmark.extra_info["iterations"] = ITERATIONS
    assert result.num_tiles == NUM_CLIPS


def test_joint_per_clip_loop(benchmark, setup):
    """The status-quo pattern: B independent single-tile graphs summed."""
    cfg, targets, source = setup
    result = benchmark(
        lambda: _solve(cfg, targets, source, _looped(cfg, targets))
    )
    benchmark.extra_info["clips"] = NUM_CLIPS
    assert result.num_tiles == NUM_CLIPS


def test_joint_speedup_and_parity(setup):
    """The acceptance bar: batched >= 2x over the per-clip loop, per-tile
    final losses matching to 1e-8 relative."""
    cfg, targets, source = setup
    batched = _solve(cfg, targets, source, BatchedSMOObjective(cfg, targets))
    looped = _solve(cfg, targets, source, _looped(cfg, targets))
    np.testing.assert_allclose(
        batched.final_tile_losses, looped.final_tile_losses, rtol=1e-8
    )
    np.testing.assert_allclose(batched.theta_m, looped.theta_m, atol=1e-8)
    if CHECK_ONLY:
        pytest.skip("BISMO_JOINT_CHECK_ONLY=1: parity verified, timing skipped")

    def best_of(fn, rounds=3):
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_batch = best_of(
        lambda: _solve(cfg, targets, source, BatchedSMOObjective(cfg, targets))
    )
    t_loop = best_of(
        lambda: _solve(cfg, targets, source, _looped(cfg, targets))
    )
    speedup = t_loop / t_batch
    print(
        f"\njoint BiSMO-NMN: B={NUM_CLIPS} iters={ITERATIONS} "
        f"loop={t_loop:.2f} s batched={t_batch:.2f} s speedup={speedup:.2f}x"
    )
    assert speedup >= 2.0, f"batched bilevel only {speedup:.2f}x over the loop"
