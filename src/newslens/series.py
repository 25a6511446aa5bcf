"""Daily time series over a contiguous date span."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

__all__ = ["DatedSeries", "window_mean", "pooled_window_mean"]


@dataclass(frozen=True)
class DatedSeries:
    """One float value per consecutive calendar day, starting at ``start``.

    Values are stored as a read-only float64 array.  There are no holes:
    index ``i`` always holds the value for ``start + i`` days.  Callers
    that have gaps must fill or trim them before constructing a series.
    """

    start: date
    values: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"series values must be 1-d, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("series must contain at least one day")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"series {self.label!r} contains non-finite values")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def end(self) -> date:
        """Date of the last sample (inclusive)."""
        return self.start + timedelta(days=len(self) - 1)

    def with_values(self, values: np.ndarray, label: str | None = None) -> "DatedSeries":
        """Same span, new values (used by transforms that preserve dates)."""
        return DatedSeries(self.start, values, self.label if label is None else label)


def window_mean(sums: np.ndarray, counts: np.ndarray, window_days: int) -> np.ndarray:
    """Trailing-window mean of per-day sums over shared per-day counts.

    ``sums`` holds one series per row, days along its last axis, and
    ``counts`` one value per day.  Day d divides the sums over
    [d - window_days + 1, d], truncated at the span start, by the counts
    over the same days; each window is summed as its own slice.  Days
    whose window counts nothing carry the previous value forward.
    """
    if window_days < 1:
        raise ValueError(f"window_days must be >= 1, got {window_days}")
    sums = np.asarray(sums, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if counts.shape != sums.shape[-1:]:
        raise ValueError(f"counts shape {counts.shape} does not match sums shape {sums.shape}")
    # Each window is summed as a slice, not as a difference of running
    # totals, which rounds worse and would move published values.
    out = np.empty_like(sums)
    prev = np.zeros(sums.shape[:-1])
    for i in range(counts.size):
        lo = max(0, i - window_days + 1)
        c = counts[lo : i + 1].sum()
        if c > 0:
            prev = sums[..., lo : i + 1].sum(axis=-1) / c
        out[..., i] = prev
    return out


def pooled_window_mean(
    pairs: Iterable[tuple[date, float]], window_days: int, label: str = ""
) -> DatedSeries:
    """Daily mean of dated values pooled over a trailing window.

    Day d averages every value dated in (d - window_days, d].  Days whose
    window holds no value carry the previous day's value forward; the
    series runs from the earliest date to the latest.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no dated values to pool")
    first = min(day for day, _ in pairs)
    last = max(day for day, _ in pairs)
    n = (last - first).days + 1
    days = np.array([(day - first).days for day, _ in pairs])
    sums = np.bincount(days, weights=[value for _, value in pairs], minlength=n)
    values = window_mean(sums, np.bincount(days, minlength=n), window_days)
    return DatedSeries(first, values, label=label)
