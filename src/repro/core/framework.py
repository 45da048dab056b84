"""Iterative static-evaluation framework (Sec 4, Fig 2).

Sample Collector -> Sample Pool -> Estimation -> Quality Control, looped
until the margin of error drops to the user threshold. The collector is
one of the Sec 5 sampling designs (see :mod:`repro.core.cluster_sampling`
for how the cluster designs split between driver and Spark);
annotation goes through the SimulatedAnnotator (which charges the Eq 4
cost model); estimation and the stopping rule run in the driver on the
(small) accumulated sample.

Batching conventions (calibrated against the paper's reported sample
sizes; see EXPERIMENTS.md):

- SRS draws triples in batches of ``batch_triples`` (default 25). All
  batches come from one rand-keyed shuffled prefix of the KG, so the
  pooled sample is a without-replacement SRS of its total size.
- Cluster designs draw ``batch_clusters`` Evaluation Tasks per batch
  (default 20). WCS/TWCS draws are with replacement, so batches are
  independent; RCS slices one seeded permutation of the clusters
  (without replacement). One ``np.random.default_rng(seed)`` drives
  every draw of an evaluation.

The stopping rule trusts the Normal-approximation MoE only after
``min_units`` primary units, the paper's CLT rule-of-thumb guard. Every
result records why its loop stopped: ``"moe"``, ``"cap"`` or ``"census"``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.annotate.annotator import SimulatedAnnotator
from repro.core import cluster_sampling as cs
from repro.core.cluster_stats import cluster_stats_df
from repro.core.cost import CostParams
from repro.core.srs import estimate_srs
from repro.core.stats import Estimate


@dataclass(frozen=True)
class EvalConfig:
    alpha: float = 0.05
    eps: float = 0.05
    batch_triples: int = 25  # SRS batch size
    batch_clusters: int = 20  # cluster-design batch size
    min_triples: int = 25  # SRS units before the Normal MoE is trusted
    min_draws: int = 20  # cluster draws before the Normal MoE is trusted
    max_units: int = 100_000  # hard safety stop
    cost: CostParams = field(default_factory=CostParams)


@dataclass
class EvalResult:
    estimate: Estimate
    hours: float
    n_draws: int  # primary sampling units (triples for SRS)
    n_triples: int  # triples annotated
    n_batches: int
    design: str
    stop_reason: str  # "moe" (MoE <= eps), "cap" (max_units) or "census"
    n_entities: int = 0  # entity identifications charged (Eq 4's |E'|)

    @property
    def converged(self) -> bool:
        """MoE reached, or every unit annotated (the estimate is exact)."""
        return self.stop_reason != "cap"


def _stop_reason(est: Estimate, n_min: int, config: EvalConfig) -> str | None:
    """The stopping rule: MoE <= eps once ``n_min`` units are in, or the cap."""
    if est.n_units >= n_min and est.moe <= config.eps:
        return "moe"
    if est.n_units >= config.max_units:
        return "cap"
    return None


def _shuffled_prefix(df: DataFrame, n: int, *, seed: int) -> pd.DataFrame:
    """First ``n`` rows of a deterministic rand(seed) ordering of ``df``.

    Re-invoking with a larger ``n`` extends the same ordering (rand(seed)
    is deterministic for a fixed plan), so iterative growth stays a
    without-replacement sample.
    """
    return df.withColumn("_r", F.rand(seed)).orderBy("_r").limit(n).drop("_r").toPandas()


def evaluate_static(
    kg: DataFrame,
    *,
    design: str,
    m: int | None = None,
    config: EvalConfig = EvalConfig(),
    seed: int = 0,
    annotator: SimulatedAnnotator | None = None,
    clusters: DataFrame | None = None,
) -> EvalResult:
    """Run the Fig 2 loop with the given sampling design on a Spark KG.

    design in {"srs", "rcs", "wcs", "twcs"}; ``m`` is the TWCS
    second-stage cap (required for "twcs"). ``clusters`` is the KG's
    cluster-stats table, if the caller already has one; only its
    subject and size columns are read.
    """
    if design not in {"srs", "rcs", "wcs", "twcs"}:
        raise ValueError(f"unknown design {design!r}")
    if design == "twcs" and (m is None or m < 1):
        raise ValueError("twcs requires m >= 1")
    ann = annotator or SimulatedAnnotator.with_params(config.cost)

    if design == "srs":
        return _run_srs(kg, config=config, seed=seed, ann=ann)
    cl = clusters if clusters is not None else cluster_stats_df(kg)
    pdf = cl.select("subject", "size").toPandas().sort_values("subject")
    return _run_cluster(
        kg, pdf["subject"].to_numpy(np.int64), pdf["size"].to_numpy(np.int64),
        design=design, m=m, config=config, seed=seed, ann=ann,
    )


def _run_srs(kg: DataFrame, *, config: EvalConfig, seed: int, ann: SimulatedAnnotator) -> EvalResult:
    total = kg.count()
    labels: list[np.ndarray] = []
    n_batches = 0
    fetched = 0
    prefix = _shuffled_prefix(kg, min(total, 16 * config.batch_triples), seed=seed)
    while True:
        lo, hi = fetched, min(fetched + config.batch_triples, total)
        if lo >= total:
            reason = "census"  # population exhausted
            break
        while hi > len(prefix) and len(prefix) < total:
            prefix = _shuffled_prefix(kg, min(total, 2 * max(hi, len(prefix))), seed=seed)
        batch = prefix.iloc[lo:hi]
        fetched = hi
        annotated = ann.annotate_triples(batch)
        labels.append(annotated["label"].to_numpy(np.float64))
        n_batches += 1
        est = estimate_srs(np.concatenate(labels), alpha=config.alpha)
        reason = _stop_reason(est, config.min_triples, config)
        if reason:
            break
    est = estimate_srs(np.concatenate(labels), alpha=config.alpha)
    return EvalResult(
        est, ann.hours, est.n_units, est.n_units, n_batches, "srs", reason,
        n_entities=ann.ledger.n_identifications,
    )


def _run_cluster(
    kg: DataFrame,
    subjects: np.ndarray,
    sizes: np.ndarray,
    *,
    design: str,
    m: int | None,
    config: EvalConfig,
    seed: int,
    ann: SimulatedAnnotator,
) -> EvalResult:
    cum_sizes = np.cumsum(sizes)
    n_clusters_pop, n_triples_pop = len(sizes), int(cum_sizes[-1])
    rng = np.random.default_rng(seed)
    rcs_order = rng.permutation(n_clusters_pop) if design == "rcs" else None

    per_draw_values: list[float] = []
    n_triples_annotated = 0
    n_batches = 0
    draw_offset = 0

    while True:
        b = config.batch_clusters
        if design == "rcs":
            if draw_offset >= n_clusters_pop:
                reason = "census"
                break
            drawn = rcs_order[draw_offset : draw_offset + b]
        else:
            drawn = cs.weighted_cluster_draws(cum_sizes, b, rng)
        sample = cs.second_stage_sample(
            kg, subjects[drawn], m if design == "twcs" else None, rng,
            draw_id_offset=draw_offset,
        )
        annotated = ann.annotate_tasks(sample)
        n_triples_annotated += len(annotated)
        n_batches += 1
        draw_offset += len(drawn)

        if design == "rcs":
            taus = annotated.groupby("draw_id")["label"].sum().to_numpy(np.float64)
            per_draw_values.extend(taus.tolist())
            est = cs.estimate_rcs(
                np.asarray(per_draw_values),
                n_clusters=n_clusters_pop,
                n_triples=n_triples_pop,
                alpha=config.alpha,
            )
        else:
            means = cs.per_draw_means(annotated)
            per_draw_values.extend(means.tolist())
            est = cs.estimate_cluster_means(np.asarray(per_draw_values), alpha=config.alpha)

        reason = _stop_reason(est, config.min_draws, config)
        if reason:
            break

    return EvalResult(
        est, ann.hours, est.n_units, n_triples_annotated, n_batches, design, reason,
        n_entities=ann.ledger.n_identifications,
    )
