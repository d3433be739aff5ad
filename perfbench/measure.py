"""Statistics and failure accounting shared by the benchmark workloads.

Nothing here imports chaosfilter, so the helpers can be tested on their own.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

# Tail percentiles the reports may quote, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def median(values) -> float:
    """Median of `values`; 0.0 for none, which reads as 'not called' in a report."""
    return float(statistics.median(values)) if len(values) else 0.0


def percentile(values, p: float) -> float:
    """The p-th percentile of `values`, linearly interpolated (numpy's default)."""
    return float(np.percentile(np.asarray(values, dtype=float), p))


def fastest_chunk(values, size: int, p: float) -> float:
    """Lowest p-th percentile over consecutive chunks of `size` values.

    A trailing partial chunk is dropped unless it is the only one.
    """
    values = np.asarray(values, dtype=float)
    count = max(1, values.size // size)
    return min(percentile(values[i * size:(i + 1) * size], p) for i in range(count))


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the p-th percentile."""
    return int(math.floor(n * (100.0 - p) / 100.0 + 1e-9))


def highest_supported_percentile(n: int, ladder=PERCENTILE_LADDER,
                                 min_beyond: int = MIN_BEYOND) -> float | None:
    """Highest percentile of the ladder with at least `min_beyond` of n samples above it.

    Returns None when even the lowest rung is not supported, so a report
    can say that its tail figure is, in effect, the maximum.
    """
    for p in sorted(ladder, reverse=True):
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


def classify_path(masses=None, estimates=None, error: BaseException | None = None) -> str | None:
    """Why one filter path counts as failed, or None when it did not fail.

    A path fails when its run raised, when its normalization mass is
    non-finite or <= 0 in any window, or when an estimate is non-finite.
    A mass <= 0 makes the normalized estimate a ratio over a vanishing or
    sign-flipped denominator, so its value is not an estimate of anything.
    """
    if error is not None:
        return f"raised {type(error).__name__}"
    if masses is not None:
        m = np.asarray(masses, dtype=float)
        if not np.all(np.isfinite(m)):
            return "mass non-finite"
        if np.any(m <= 0.0):
            return "mass <= 0"
    if estimates is not None and not np.all(np.isfinite(np.asarray(estimates, dtype=float))):
        return "estimate non-finite"
    return None


def rmse(estimates, oracle) -> float:
    err = np.asarray(estimates, dtype=float) - np.asarray(oracle, dtype=float)
    return float(np.sqrt(np.mean(err * err))) if err.size else math.nan


def quartile_spread(values) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
