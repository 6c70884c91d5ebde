"""Tests of the benchmark's own logic: self-time accounting over nested
and threaded calls, time to target and failure counting, and the output
checks.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from checks import (  # noqa: E402
    LOSS_RTOL,
    Operation,
    TargetClock,
    check_repeat,
    count_failed,
    is_correct,
    losses_match,
)
from layers import layer_metrics  # noqa: E402
from tracer import LayerStat, LayerTracer, patch  # noqa: E402


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _op(solver: str = "s", hit_s=1.0, hit_iteration=2, losses=(4.0, 1.0), quality=None) -> Operation:
    return Operation(
        solver=solver,
        solve_s=3.0,
        run_s=2.5,
        hit_s=hit_s,
        hit_iteration=hit_iteration,
        iteration_s=[0.5, 0.5],
        losses=list(losses),
        quality=dict(quality or {"l2_nm2": 10.0, "pvb_nm2": 2.0, "epe_violations": 1.0}),
    )


# -- self-time -------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)
    tracer.active = True

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        tracer.call("leaf", leaf)
        tracer.call("leaf", leaf)
        clock.advance(0.5)

    def outer():
        clock.advance(3.0)
        tracer.call("middle", middle)

    tracer.call("outer", outer)
    outer_s, middle_s, leaf_s = (tracer.stats[n] for n in ("outer", "middle", "leaf"))
    assert (outer_s.total_s, outer_s.self_s) == (8.5, 3.0)
    assert (middle_s.total_s, middle_s.self_s) == (5.5, 1.5)
    assert (leaf_s.calls, leaf_s.total_s, leaf_s.self_s) == (2, 4.0, 4.0)


def test_inactive_tracer_records_nothing_and_only_filters():
    tracer = LayerTracer(clock=FakeClock())
    assert tracer.call("a", lambda: 7) == 7
    assert tracer.stats == {}
    tracer.active = True
    tracer.only = frozenset({"b"})
    tracer.call("a", lambda: None)
    tracer.call("b", lambda: None)
    assert set(tracer.stats) == {"b"}


def test_threaded_calls_keep_their_own_stack():
    """Work a pool thread does while the main thread waits is not the
    main frame's child: the main frame keeps its whole wait as
    self-time, the thread's frames are top-level on their thread."""
    tracer = LayerTracer()
    tracer.active = True
    started, release = threading.Event(), threading.Event()

    def pool_work():
        def inner():
            started.set()
            release.wait(5.0)

        tracer.call("pool", inner)

    def main_work():
        worker = threading.Thread(target=pool_work)  # reprolint: allow[R6] stands in for a condition-pool thread
        worker.start()
        assert started.wait(5.0)
        release.set()
        worker.join(5.0)
        assert not worker.is_alive()

    tracer.call("main", main_work)
    main, pool = tracer.stats["main"], tracer.stats["pool"]
    assert pool.calls == 1
    assert main.self_s == pytest.approx(main.total_s)
    assert pool.self_s == pytest.approx(pool.total_s)


def test_memory_mode_reports_peak_of_nested_allocation():
    import tracemalloc

    import numpy as np

    tracer = LayerTracer(memory=True)
    tracer.active = True
    tracemalloc.start()
    try:
        def inner():
            block = np.ones(4 * 2**20 // 8)  # 4 MB, freed on return
            return float(block[0])

        tracer.call("outer", lambda: tracer.call("inner", inner))
    finally:
        tracemalloc.stop()
    for name in ("outer", "inner"):
        assert tracer.stats[name].peak_bytes >= 4 * 2**20


def test_patch_routes_calls_through_the_tracer():
    tracer = LayerTracer(clock=FakeClock())
    owner = SimpleNamespace(fn=lambda x: x + 1)
    patch(owner, "fn", lambda orig: tracer.wrap("layer", orig))
    assert owner.fn(1) == 2
    assert tracer.stats == {}  # inactive: calls straight through
    tracer.active = True
    assert owner.fn(1) == 2
    assert tracer.stats["layer"].calls == 1


def test_unattributed_share_is_solver_self_time():
    traced = {
        "solver.x": LayerStat(calls=1, total_s=10.0, self_s=0.5),
        "harness.judge": LayerStat(calls=1, total_s=2.0, self_s=2.0),
        "autodiff.grad": LayerStat(calls=5, total_s=9.5, self_s=9.5),
    }
    out = layer_metrics(
        traced, {}, {}, {}, {}, {"hits": 0, "misses": 0}, ["solver.x"]
    )
    assert out["unattributed_frac"] == pytest.approx(0.5 / 12.0)
    assert out["autodiff.grad_s"] == 9.5
    assert out["harness.judge_s"] == 2.0


# -- time to target and failure counting -----------------------------------
def test_target_clock_marks_first_record_at_or_below_target():
    clock = FakeClock()
    target = TargetClock(0.5, clock)
    target.start()
    for loss in (10.0, 7.0, 5.0, 3.0, 9.0):
        clock.advance(1.0)
        assert target(SimpleNamespace(loss=loss)) is None  # never stops a solve
    assert target.hit_iteration == 3
    assert target.hit_s == 3.0
    assert target.iteration_seconds() == [1.0] * 5


def test_target_clock_rejects_fraction_outside_unit_interval():
    with pytest.raises(ValueError):
        TargetClock(1.0)


def test_missed_target_fails_and_costs_the_whole_solve():
    hit, miss = _op(), _op(hit_s=None, hit_iteration=None)
    assert not hit.failed and hit.time_to_target_s == 1.0
    assert miss.failed and miss.time_to_target_s == miss.solve_s
    assert count_failed([hit, miss]) == 1
    # a missed target is a failed operation, not a wrong output
    assert is_correct([hit, miss])


def test_rejected_output_is_failed_and_incorrect():
    op = _op()
    op.errors.append("fast loss != reference")
    assert op.failed
    assert count_failed([op, _op()]) == 1
    assert not is_correct([op, _op()])


# -- output checks -----------------------------------------------------------
def test_losses_match_rejects_perturbed_and_non_finite_losses():
    loss = 123456.789
    assert losses_match(loss, loss * (1.0 + LOSS_RTOL / 10))
    assert not losses_match(loss * (1.0 + 1e-6), loss)
    assert not losses_match(float("nan"), loss)
    assert not losses_match(loss, float("inf"))


def test_check_repeat_flags_changed_quality_or_target_iteration():
    first = [_op("a"), _op("b")]
    same = [_op("a"), _op("b", losses=(4.0, 1.0 + 1e-14))]
    check_repeat(first, same)
    assert not any(op.errors for op in same)
    moved = [_op("a", quality={"l2_nm2": 11.0, "pvb_nm2": 2.0, "epe_violations": 1.0}),
             _op("b", hit_iteration=3)]
    check_repeat(first, moved)
    assert all(op.errors for op in moved)


def test_check_rejects_a_perturbed_final_loss():
    """A real small solve passes the fast-vs-reference check; the same
    solve with its fast path's loss nudged by 1e-7 is rejected."""
    pytest.importorskip("repro")
    from workload import Workload, WorkloadSpec

    spec = WorkloadSpec(
        name="check",
        why="test",
        scale="small",
        tiles=2,
        solvers=("Abbe-MO",),
        iterations=2,
        target_frac=0.999,
    )
    workload = Workload(spec, seed=3, tracer=LayerTracer())
    workload.setup()
    (solve,) = workload.run_round()
    workload.check(solve)
    assert solve.op.errors == []

    objective = solve.solver.objective

    class Perturbed:
        engine = objective.engine

        def loss(self, theta_j, theta_m):
            out = objective.loss(theta_j, theta_m)
            out.data = out.data * (1.0 + 1e-7)
            return out

    solve.solver.objective = Perturbed()
    workload.check(solve)
    assert len(solve.op.errors) == 1 and "reference" in solve.op.errors[0]
    assert not is_correct([solve.op])


def test_a_solve_that_raises_is_a_failed_incorrect_operation():
    from workload import Workload, WorkloadSpec

    class Exploding:
        def run(self, iterations, callback):
            callback(SimpleNamespace(loss=1.0))
            raise FloatingPointError("diverged")

    spec = WorkloadSpec("x", "test", "small", 1, ("Abbe-MO",), 3, 0.5)
    workload = Workload(spec, seed=0, tracer=LayerTracer())
    workload.solvers = [("Abbe-MO", Exploding())]
    (solve,) = workload.run_round()
    workload.check(solve)
    assert solve.result is None
    assert solve.op.errors == ["raised FloatingPointError: diverged"]
    assert solve.op.failed and not is_correct([solve.op])
