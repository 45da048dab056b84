"""Stratification over entity clusters (Sec 5.3).

Two strategies from the paper:

- **Size stratification**: strata over cluster sizes chosen by the
  Cumulative Square-root-of-Frequency rule (Dalenius & Hodges): build
  the size histogram, accumulate sqrt(frequency), and cut the cumulative
  curve into H equal intervals.
- **Oracle stratification**: strata by *true* cluster accuracy mu_i —
  the perfect-but-impractical reference whose cost lower-bounds what any
  stratification signal could achieve (Sec 7.2.3).

Within each stratum the framework runs TWCS; Eq 13 combines the
per-stratum estimates with weights W_h = M[h] / M.

Everything runs in the driver over the per-cluster arrays that the
Spark layer aggregates once (``Population``).
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def cum_sqrt_f_boundaries(sizes_hist: pd.DataFrame, n_strata: int) -> np.ndarray:
    """Upper size bounds (inclusive) per stratum from the cum-sqrt-F rule.

    Returns an increasing array of length ``n_strata``; the last entry is
    +inf. Degenerate cuts (fewer distinct sizes than strata) collapse to
    fewer, still-valid strata.
    """
    if n_strata < 1:
        raise ValueError("n_strata must be >= 1")
    hist = sizes_hist.sort_values("size")
    cum = np.sqrt(hist["freq"].to_numpy(np.float64)).cumsum()
    total = cum[-1]
    bounds: list[float] = []
    for h in range(1, n_strata):
        cut = total * h / n_strata
        idx = int(np.searchsorted(cum, cut))
        idx = min(idx, len(hist) - 1)
        b = float(hist["size"].iloc[idx])
        if not bounds or b > bounds[-1]:
            bounds.append(b)
    bounds.append(float("inf"))
    return np.asarray(bounds)


def np_size_histogram(sizes: np.ndarray) -> pd.DataFrame:
    """(size, freq) histogram of cluster sizes."""
    vals, freq = np.unique(np.asarray(sizes), return_counts=True)
    return pd.DataFrame({"size": vals, "freq": freq})


def np_cum_sqrt_f_boundaries(sizes: np.ndarray, n_strata: int) -> np.ndarray:
    return cum_sqrt_f_boundaries(np_size_histogram(sizes), n_strata)


def np_assign_stratum_by_size(sizes: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Stratum of each cluster: index of the first boundary >= its size."""
    return np.searchsorted(boundaries, np.asarray(sizes, dtype=np.float64), side="left")


def np_assign_stratum_oracle(mus: np.ndarray, n_strata: int) -> np.ndarray:
    """Oracle strata: equal-width bins over true cluster accuracy."""
    return np.minimum((np.asarray(mus) * n_strata).astype(np.int64), n_strata - 1)
