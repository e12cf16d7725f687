"""Closed-loop driver, correctness bookkeeping and end-to-end statistics.

One client issues the next op only after the previous one returns.  This
module knows nothing about the program: callers pass the op function, so the
tests can drive it with fakes.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

# the reported tail is the highest percentile with at least this many
# latency samples above it
TAIL_BEYOND = 10


@dataclass
class OpResult:
    op: dict
    seconds: float
    record: Any = None
    error: str | None = None   # exception type, or why the check failed


def run_closed_loop(block: Callable[[int], list[dict]],
                    call: Callable[[dict], Any], seconds: float,
                    clock: Callable[[], float] = time.perf_counter,
                    min_ops: int = 0
                    ) -> tuple[list[OpResult], float]:
    """Run whole blocks of ops until `seconds` of wall clock have passed and
    at least `min_ops` ops have run.

    Stopping only at block boundaries keeps the mix of problem sizes the same
    in every run.  Returns the per-op results and the timed wall clock.
    """
    results: list[OpResult] = []
    start = clock()
    index = 0
    while True:
        for op in block(index):
            t0 = clock()
            try:
                record, error = call(op), None
            except Exception as exc:   # a failing op is counted, not fatal
                record, error = None, type(exc).__name__
            results.append(OpResult(op, clock() - t0, record, error))
        index += 1
        if len(results) >= min_ops and clock() - start >= seconds:
            return results, clock() - start


def run_ops(ops: Iterable[dict], call: Callable[[dict], Any],
            clock: Callable[[], float] = time.perf_counter
            ) -> tuple[list[OpResult], float]:
    """Run a fixed op list once, as `run_closed_loop` runs a block."""
    ops = list(ops)
    return run_closed_loop(lambda _: ops, call, 0.0, clock)


def verify(results: list[OpResult], others: list[tuple[Any, str | None]],
           disagreement: Callable[[Any, Any], str | None]) -> None:
    """Mark the completed ops whose re-run failed or disagrees.

    `others` holds (re-run output, exception type or None) for each op of
    `results` that completed, in order.
    """
    done = [r for r in results if r.error is None]
    if len(done) != len(others):
        raise ValueError("one re-run per completed op is needed")
    for res, (other, error) in zip(done, others):
        if error is not None:
            res.error = f"check raised {error}"
            continue
        why = disagreement(res.record, other)
        if why is not None:
            res.error = f"mismatch: {why}"


def tail_rank(n: int) -> tuple[int, int] | None:
    """(percentile, 0-based sorted index) of the reported tail for n samples.

    The tail is the highest whole percentile whose nearest-rank value has at
    least TAIL_BEYOND samples above it; None when n is too small for one.
    """
    pct = (100 * (n - TAIL_BEYOND)) // n if n > 0 else 0
    if pct < 1:
        return None
    return pct, math.ceil(pct * n / 100) - 1


@dataclass
class Summary:
    attempted: int
    failed: int
    samples: list[float]
    wall_s: float

    @property
    def ops_per_s(self) -> float:
        return len(self.samples) / self.wall_s

    @property
    def p50(self) -> float:
        return statistics.median(self.samples)

    @property
    def tail(self) -> tuple[int, float] | None:
        rank = tail_rank(len(self.samples))
        if rank is None:
            return None
        return rank[0], sorted(self.samples)[rank[1]]


def summarize(results: list[OpResult], wall_s: float) -> Summary:
    """Latency samples are the ops that completed and passed the check."""
    samples = [r.seconds for r in results if r.error is None]
    return Summary(attempted=len(results), failed=len(results) - len(samples),
                   samples=samples, wall_s=wall_s)
