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
  batches come from one growing ``srs_sample`` prefix of the KG, so the
  pooled sample is a without-replacement SRS of its total size.
- Cluster designs draw ``batch_clusters`` Evaluation Tasks per batch
  (default 20). WCS/TWCS draws are with replacement, so batches are
  independent; RCS slices one seeded permutation of the clusters
  (without replacement). One ``np.random.default_rng(seed)`` drives
  every draw of an evaluation.

The stopping rule (:func:`stop_reason`) trusts the Normal-approximation
MoE only after ``min_units`` primary units, the paper's CLT rule-of-thumb
guard. :func:`run_until_moe` is the one Fig 2 loop: the Spark designs
here, the Monte-Carlo trials of :mod:`repro.sim.mc` and the RS top-up
and SS loops of :mod:`repro.evolving` each supply a draw and an estimate
step to it. Every result records why its loop stopped: ``"moe"``,
``"cap"`` or ``"census"``.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame

from repro.annotate.annotator import SimulatedAnnotator
from repro.core import cluster_sampling as cs
from repro.core.cluster_stats import cluster_stats_df
from repro.core.cost import CostParams
from repro.core.srs import estimate_srs, srs_sample
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


def stop_reason(est: Estimate, n_min: int, cfg: EvalConfig) -> str | None:
    """The stopping rule: MoE <= eps once ``n_min`` units are in, or the cap."""
    if est.n_units >= n_min and est.moe <= cfg.eps:
        return "moe"
    if est.n_units >= cfg.max_units:
        return "cap"
    return None


def run_until_moe(
    draw_batch: Callable[[], bool],
    estimate: Callable[[], Estimate],
    n_min: int,
    cfg: EvalConfig,
) -> tuple[Estimate, str]:
    """The Fig 2 loop: estimate, check :func:`stop_reason`, else draw.

    ``draw_batch`` samples and annotates one more batch into the pool
    that ``estimate`` reads; it returns False when the population is
    exhausted, which stops the loop with ``"census"``. Returns the last
    estimate and the stop reason.
    """
    while True:
        est = estimate()
        reason = stop_reason(est, n_min, cfg)
        if reason is None and not draw_batch():
            reason = "census"
        if reason:
            return est, reason


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
    # Re-sampling with a larger n extends the same rand(seed) ordering, so
    # the growing prefix stays one without-replacement sample.
    prefix = srs_sample(kg, min(total, 16 * config.batch_triples), seed=seed).toPandas()
    labels: list[np.ndarray] = []  # one array per batch
    fetched = 0

    def draw_batch() -> bool:
        nonlocal prefix, fetched
        if fetched >= total:
            return False
        hi = min(fetched + config.batch_triples, total)
        if hi > len(prefix):
            prefix = srs_sample(kg, min(total, 2 * hi), seed=seed).toPandas()
        annotated = ann.annotate_triples(prefix.iloc[fetched:hi])
        labels.append(annotated["label"].to_numpy(np.float64))
        fetched = hi
        return True

    est, reason = run_until_moe(
        draw_batch,
        lambda: estimate_srs(np.concatenate([np.empty(0), *labels]), alpha=config.alpha),
        config.min_triples,
        config,
    )
    return EvalResult(
        est, ann.hours, est.n_units, est.n_units, len(labels), "srs", reason,
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
    values: list[float] = []  # one per draw: tau_i for RCS, the draw's mean otherwise
    n_triples = n_batches = 0

    def draw_batch() -> bool:
        nonlocal n_triples, n_batches
        b, done = config.batch_clusters, len(values)
        if design == "rcs":
            if done >= n_clusters_pop:
                return False
            drawn = rcs_order[done : done + b]
        else:
            drawn = cs.weighted_cluster_draws(cum_sizes, b, rng)
        sample = cs.second_stage_sample(
            kg, subjects[drawn], m if design == "twcs" else None, rng, draw_id_offset=done,
        )
        annotated = ann.annotate_tasks(sample)
        if design == "rcs":
            per_draw = annotated.groupby("draw_id")["label"].sum().to_numpy(np.float64)
        else:
            per_draw = cs.per_draw_means(annotated)
        values.extend(per_draw.tolist())
        n_triples += len(annotated)
        n_batches += 1
        return True

    def estimate() -> Estimate:
        if design == "rcs":
            return cs.estimate_rcs(
                np.asarray(values), n_clusters=n_clusters_pop, n_triples=n_triples_pop,
                alpha=config.alpha,
            )
        return cs.estimate_cluster_means(np.asarray(values), alpha=config.alpha)

    est, reason = run_until_moe(draw_batch, estimate, config.min_draws, config)
    return EvalResult(
        est, ann.hours, est.n_units, n_triples, n_batches, design, reason,
        n_entities=ann.ledger.n_identifications,
    )
