"""Cluster sampling designs: RCS, WCS, TWCS (Sec 5.2).

The first stage runs in the driver. Once per evaluation the framework
collects (subject, size) from the cluster-stats table of
:mod:`repro.core.cluster_stats`, sorted by subject, and takes the
cumulative sum of ``size``. A PPS draw (probability proportional to
cluster size, pi_i = M_i / M) is then a ``searchsorted`` of a uniform in
[0, M) over that prefix: exactly "pick a uniform random triple, take its
cluster". RCS slices one random permutation of the cluster indices
(``rcs_batch``).

The second stage fetches the triples of a batch's drawn subjects from
``kg`` (subject, predicate, object, label) in one filtered Spark scan
and samples within each cluster in numpy. Every random choice comes from
the caller's ``np.random.Generator`` over driver arrays in a fixed order,
so a seed picks the same sample whatever the partition layout. The
numpy layers (Monte-Carlo trials, RS, SS) draw the second stage from the
cluster arrays alone with ``twcs_draw``.

Samples carry a ``draw_id`` column identifying the primary sampling unit
(one Evaluation Task per draw), since WCS/TWCS draw clusters *with
replacement* and a cluster may appear in several draws.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.stats import Estimate, cluster_var_hat

_TRIPLE = ["subject", "predicate", "object", "label"]


def weighted_cluster_draws(
    cum_sizes: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n PPS-with-replacement cluster indices into the arrays behind
    ``cum_sizes`` (the cumulative sum of M_i).

    Hansen-Hurwitz design: each draw independently selects cluster i
    with probability M_i / M.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    u = rng.random(n) * cum_sizes[-1]
    return np.searchsorted(cum_sizes, u, side="right")


def twcs_draw(
    sizes: np.ndarray,
    taus: np.ndarray,
    ci: np.ndarray,
    m: int | None,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """TWCS second stage over driver arrays (M_i, tau_i) for the drawn
    cluster indices ``ci``: per draw, s = min(M_i, m) triples without
    replacement, of which Hypergeometric(tau_i, M_i - tau_i, s) are
    correct. ``m=None`` annotates whole clusters (WCS).

    Returns the per-draw mean labels and the triples annotated per draw.
    """
    sz, t = sizes[ci], taus[ci]
    s = sz if m is None else np.minimum(sz, m)
    good = rng.hypergeometric(t, sz - t, s)
    return good / s, s


def rcs_batch(order: np.ndarray, done: int, batch_clusters: int) -> np.ndarray:
    """The next RCS batch: cluster indices ``order[done : done + k]`` of one
    random permutation ``order``, empty once every cluster is drawn.

    k = max(batch_clusters, done // 4): batches grow ~25 % per step once
    ``done`` passes 4 * batch_clusters. RCS needs orders of magnitude more
    draws than the other designs on wide cluster-size distributions (its
    Table 5 result), and the geometric growth keeps its estimate-recompute
    loop near-linear; the slight stopping overshoot only affects a design
    the paper already reports as blowing the budget.
    """
    return order[done : done + max(batch_clusters, done // 4)]


def second_stage_sample(
    kg: DataFrame,
    subjects: np.ndarray,
    m: int | None,
    rng: np.random.Generator,
    *,
    draw_id_offset: int = 0,
) -> pd.DataFrame:
    """Per drawn subject, SRS without replacement of min(m, M_i) of its
    triples; ``m=None`` takes the whole cluster (RCS/WCS).

    Draw k gets ``draw_id = draw_id_offset + k``, and each draw samples
    independently, so a cluster drawn twice may yield different triples.
    The drawn clusters' triples come back in one Spark job and are put
    in (subject, predicate, object, label) order before sampling.
    """
    if m is not None and m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    subjects = np.asarray(subjects, dtype=np.int64)
    wanted = np.unique(subjects).tolist()
    triples = (
        kg.filter(F.col("subject").isin(wanted))
        .select(*_TRIPLE)
        .toPandas()
        .sort_values(_TRIPLE, ignore_index=True)
    )
    col = triples["subject"].to_numpy(np.int64)
    starts = np.searchsorted(col, subjects, side="left")
    sizes = np.searchsorted(col, subjects, side="right") - starts
    rows = [
        start + (np.arange(size) if m is None or size <= m
                 else rng.choice(size, m, replace=False))
        for start, size in zip(starts, sizes)
    ]
    out = triples.iloc[np.concatenate(rows)].reset_index(drop=True)
    draw_ids = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
    out.insert(0, "draw_id", draw_id_offset + draw_ids)
    return out


def estimate_rcs(
    tau_per_draw: np.ndarray, *, n_clusters: int, n_triples: int, alpha: float
) -> Estimate:
    """RCS estimator mu_hat_r (Eq 7): (N / M n) sum tau_{I_k}.

    The per-draw value is v_k = (N/M) tau_{I_k}; mean and variance are
    those of the cluster-means estimator over v_k, per the CI below Eq 7.
    """
    v = (n_clusters / n_triples) * np.asarray(tau_per_draw, dtype=np.float64)
    return estimate_cluster_means(v, alpha=alpha)


def estimate_cluster_means(mu_per_draw: np.ndarray, *, alpha: float) -> Estimate:
    """WCS (Eq 8) / TWCS (Eq 9) estimator: mean of per-draw cluster
    accuracies, Hansen-Hurwitz variance from their spread."""
    v = np.asarray(mu_per_draw, dtype=np.float64)
    n = v.size
    if n == 0:
        return Estimate(0.0, float("inf"), 0, alpha)
    return Estimate(
        mu_hat=float(v.mean()),
        var_hat=cluster_var_hat(v),
        n_units=n,
        alpha=alpha,
    )


def per_draw_means(annotated) -> np.ndarray:
    """Per-draw mean label from an annotated pandas sample (draw_id, label)."""
    return annotated.groupby("draw_id")["label"].mean().to_numpy(np.float64)
