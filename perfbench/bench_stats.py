"""Summary statistics and failure accounting for the benchmark."""

from __future__ import annotations

import statistics
import time
import traceback


def median(values) -> float:
    vals = list(values)
    if not vals:
        raise ValueError("median of no values")
    return float(statistics.median(vals))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) with the same method as statistics.quantiles(n=4)."""
    vals = list(values)
    if len(vals) < 2:
        v = median(vals)
        return v, v, v
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


class Ledger:
    """Counts attempted and failed operations.

    An operation fails when it raises, or later when a check on its
    output fails; each operation counts at most once as failed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self._failed: set[int] = set()
        self.notes: list[str] = []

    @property
    def failed(self) -> int:
        return len(self._failed)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def run(self, name: str, fn, *args, **kwargs):
        """Run one operation; returns (op id, result or None, seconds)."""
        op = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # any exception is a failed operation, recorded with its traceback
            seconds = time.perf_counter() - t0
            self.fail(op, f"{name} raised:\n{traceback.format_exc()}")
            return op, None, seconds
        return op, result, time.perf_counter() - t0

    def failed_op(self, why: str) -> None:
        """Count one more operation, already failed."""
        self.attempted += 1
        self.fail(self.attempted - 1, why)

    def fail(self, op: int, why: str) -> None:
        self._failed.add(op)
        self.notes.append(f"op {op}: {why}")

    def check(self, op: int, ok: bool, why: str) -> bool:
        if not ok:
            self.fail(op, why)
        return ok
