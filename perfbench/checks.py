"""Pure bookkeeping of the benchmark: time to target, operation
outcomes and the output checks.

Nothing here imports the program, so the logic is testable on its own.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Largest relative gap allowed between the fast path's loss and the
#: reference objective's loss at the same final parameters.  Both sum
#: the same float64 terms in a different order, so they agree to a few
#: ulps times the number of pixels; 1e-9 leaves room for that and still
#: catches any real divergence.
LOSS_RTOL = 1e-9


class TargetClock:
    """Solver callback: stamps every ``IterationRecord`` on the
    benchmark's own clock and notes the first one at or below
    ``frac`` times the first loss.

    Returns ``None`` so the solve always runs its full budget: a loss
    that falls below the target and then rises again is recorded as it
    is, not cut short.
    """

    def __init__(self, frac: float, clock: Callable[[], float] = time.perf_counter) -> None:
        if not 0.0 < frac < 1.0:
            raise ValueError(f"target fraction must lie in (0, 1); got {frac}")
        self.frac = frac
        self.clock = clock
        self.t0 = 0.0
        self.losses: List[float] = []
        self.stamps: List[float] = []
        self.hit_s: Optional[float] = None
        self.hit_iteration: Optional[int] = None

    def start(self) -> None:
        """Mark the start of ``run()``; call right before it."""
        self.t0 = self.clock()

    def __call__(self, record: Any) -> None:
        elapsed = self.clock() - self.t0
        loss = float(record.loss)
        self.losses.append(loss)
        self.stamps.append(elapsed)
        if self.hit_s is None and loss <= self.frac * self.losses[0]:
            self.hit_s = elapsed
            self.hit_iteration = len(self.losses)
        return None

    def iteration_seconds(self) -> List[float]:
        """Wall-clock of each iteration (the first counts from ``start``)."""
        return [b - a for a, b in zip([0.0] + self.stamps[:-1], self.stamps)]


def losses_match(fast: float, reference: float, rtol: float = LOSS_RTOL) -> bool:
    """True when both losses are finite and agree to ``rtol`` relative."""
    if not (math.isfinite(fast) and math.isfinite(reference)):
        return False
    return abs(fast - reference) <= rtol * max(abs(reference), 1e-300)


@dataclass
class Operation:
    """One solve: what it cost, what it produced, and why it failed, if
    it did.  Plain data, so it crosses the process boundary as JSON."""

    solver: str
    solve_s: float  # run() plus judging the result
    run_s: float  # run() alone
    hit_s: Optional[float]
    hit_iteration: Optional[int]
    iteration_s: List[float]
    losses: List[float]
    quality: Dict[str, float]
    errors: List[str] = field(default_factory=list)

    @property
    def missed_target(self) -> bool:
        return self.hit_s is None

    @property
    def failed(self) -> bool:
        """A solve fails if it misses its target or any check rejects it."""
        return self.missed_target or bool(self.errors)

    @property
    def time_to_target_s(self) -> float:
        """Seconds to the target; a miss costs the whole solve."""
        return self.solve_s if self.hit_s is None else self.hit_s


def check_repeat(first: Sequence[Operation], repeat: Sequence[Operation]) -> None:
    """Flag every solve of ``repeat`` that does not reproduce ``first``.

    The same inputs must give the same judged quality and reach the
    target at the same iteration, exactly.  Loss values must agree to
    ``LOSS_RTOL``: the Hopkins SOCS path is not bitwise reproducible
    across processes (its losses differ in the last digit), which the
    judged quality absorbs.
    """
    if [op.solver for op in first] != [op.solver for op in repeat]:
        raise ValueError("repeats must run the same solvers in the same order")
    for a, b in zip(first, repeat):
        same = (
            a.quality == b.quality
            and a.hit_iteration == b.hit_iteration
            and len(a.losses) == len(b.losses)
            and all(losses_match(x, y) for x, y in zip(a.losses, b.losses))
        )
        if not same:
            b.errors.append("repeat of the same solve gave different results")


def count_failed(ops: Sequence[Operation]) -> int:
    return sum(1 for op in ops if op.failed)


def is_correct(ops: Sequence[Operation]) -> bool:
    """Outputs are correct when no check rejected any solve.

    A missed target is a failed operation but not a wrong output.
    """
    return not any(op.errors for op in ops)
