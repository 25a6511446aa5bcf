"""Daily time series over a contiguous date span."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

__all__ = ["DatedSeries", "sliding_mean", "pooled_window_mean"]


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


def sliding_mean(series: DatedSeries, window_days: int) -> DatedSeries:
    """Trailing mean over ``window_days`` days, truncated at the span start.

    Output day d averages the input over [d - window_days + 1, d]
    intersected with the span, so early days use shorter windows and the
    result keeps the input's length and dates.
    """
    if window_days < 1:
        raise ValueError(f"window_days must be >= 1, got {window_days}")
    v = series.values
    if window_days == 1:
        return series.with_values(v.copy())
    n = v.size
    csum = np.concatenate(([0.0], np.cumsum(v)))
    idx = np.arange(n)
    lo = np.maximum(idx - window_days + 1, 0)
    out = (csum[idx + 1] - csum[lo]) / (idx - lo + 1)
    return series.with_values(out)


def pooled_window_mean(
    pairs: Iterable[tuple[date, float]], window_days: int, label: str = ""
) -> DatedSeries:
    """Daily mean of dated values pooled over a trailing window.

    Day d averages every value dated in (d - window_days, d].  Days whose
    window holds no value carry the previous day's value forward; the
    series runs from the earliest date to the latest.
    """
    if window_days < 1:
        raise ValueError(f"window_days must be >= 1, got {window_days}")
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no dated values to pool")
    first = min(day for day, _ in pairs)
    last = max(day for day, _ in pairs)
    n = (last - first).days + 1
    days = np.array([(day - first).days for day, _ in pairs])
    sums = np.bincount(days, weights=[value for _, value in pairs], minlength=n)
    counts = np.bincount(days, minlength=n).astype(float)
    # Per-window slice sums, not cumsum differences: the latter round
    # differently and would change published values in the last bits.
    values = np.empty(n)
    prev = 0.0
    for i in range(n):
        lo = max(0, i - window_days + 1)
        c = counts[lo : i + 1].sum()
        if c > 0:
            prev = sums[lo : i + 1].sum() / c
        values[i] = prev
    return DatedSeries(first, values, label=label)
