"""Monte-Carlo mirror of the sampling designs (see DESIGN.md §2/§3).

The paper repeats every evaluation 1,000 times and reports mean ± sd of
annotation cost and estimate. A trial's outcome depends on the KG only
through the cluster arrays (M_i, tau_i) — exactly the ``Population``
aggregated once by Spark — so the repetition layer runs in numpy:

- an SRS draw of a triple is a uniform global index, mapped to its
  cluster by searchsorted over the size cumsum; its label follows the
  same first-tau_i-correct layout the Spark KG materialises;
- a PPS cluster draw is searchsorted of u*M over the same cumsum, by
  the Spark framework's own first stage,
  ``core.cluster_sampling.weighted_cluster_draws``;
- a TWCS second-stage sample of s=min(M_i, m) triples without
  replacement has Hypergeometric(tau_i, M_i - tau_i, s) correct triples
  (``core.cluster_sampling.twcs_draw``).

Each trial supplies a draw and an estimate step to the Spark framework's
own loop, ``core.framework.run_until_moe``, so trials share its stopping
rule, ``EvalConfig`` batch sizes and stop reasons; cost accounting is
Eq 4's. Equivalence with the Spark layer is asserted in
tests/test_mc_vs_spark.py.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cluster_sampling import (
    estimate_cluster_means,
    estimate_rcs,
    twcs_draw,
    weighted_cluster_draws,
)
from repro.core.cluster_stats import Population
from repro.core.framework import EvalConfig, run_until_moe
from repro.core.srs import estimate_srs
from repro.core.stats import combine_stratified


@dataclass(frozen=True)
class TrialResult:
    mu_hat: float
    moe: float
    hours: float
    n_draws: int  # primary units (triples for SRS)
    n_triples: int  # triples annotated
    n_entities: int  # entity identifications charged
    stop_reason: str  # "moe", "cap" or "census", as in framework.EvalResult


@dataclass(frozen=True)
class TrialsSummary:
    design: str
    mu_mean: float
    mu_sd: float
    hours_mean: float
    hours_sd: float
    draws_mean: float
    draws_sd: float
    triples_mean: float
    triples_sd: float
    n_trials: int
    mu_p025: float  # empirical 95% interval of the estimates — reported
    mu_p975: float  # for highly-accurate KGs (YAGO) as in Table 5's note
    coverage: float  # share of trials with |mu_hat - mu| <= MoE
    moe0_share: float  # share of trials that ended with MoE 0
    cap_share: float  # share of trials stopped by max_units

    @classmethod
    def from_trials(cls, design: str, trials: list[TrialResult], mu: float) -> "TrialsSummary":
        """Summarise trials of a design on a population of accuracy ``mu``."""
        est = np.array([t.mu_hat for t in trials])
        moe = np.array([t.moe for t in trials])
        hrs = np.array([t.hours for t in trials])
        dr = np.array([t.n_draws for t in trials])
        tr = np.array([t.n_triples for t in trials])
        return cls(
            design,
            float(est.mean()),
            float(est.std(ddof=1)) if len(trials) > 1 else 0.0,
            float(hrs.mean()),
            float(hrs.std(ddof=1)) if len(trials) > 1 else 0.0,
            float(dr.mean()),
            float(dr.std(ddof=1)) if len(trials) > 1 else 0.0,
            float(tr.mean()),
            float(tr.std(ddof=1)) if len(trials) > 1 else 0.0,
            len(trials),
            float(np.percentile(est, 2.5)),
            float(np.percentile(est, 97.5)),
            float(np.mean(np.abs(est - mu) <= moe)),
            float(np.mean(moe == 0.0)),
            float(np.mean([t.stop_reason == "cap" for t in trials])),
        )


def srs_trial(pop: Population, rng: np.random.Generator, cfg: EvalConfig) -> TrialResult:
    """Iterative SRS: batches of cfg.batch_triples without replacement."""
    cum = np.cumsum(pop.sizes)
    M = int(cum[-1])
    starts = cum - pop.sizes
    drawn: set[int] = set()
    labels: list[int] = []
    clusters_seen: set[int] = set()

    def draw_batch() -> bool:
        want = min(cfg.batch_triples, M - len(drawn))
        if want <= 0:
            return False
        batch: list[int] = []
        while len(batch) < want:
            for g in rng.integers(0, M, size=2 * (want - len(batch))):
                gi = int(g)
                if gi not in drawn:
                    drawn.add(gi)
                    batch.append(gi)
                    if len(batch) == want:
                        break
        idx = np.asarray(batch, dtype=np.int64)
        ci = np.searchsorted(cum, idx, side="right")
        labels.extend((idx - starts[ci] < pop.taus[ci]).astype(int).tolist())
        clusters_seen.update(ci.tolist())
        return True

    est, reason = run_until_moe(
        draw_batch,
        lambda: estimate_srs(np.asarray(labels, dtype=np.float64), alpha=cfg.alpha),
        cfg.min_triples,
        cfg,
    )
    n = len(labels)
    hours = cfg.cost.cost_hours(len(clusters_seen), n)
    return TrialResult(est.mu_hat, est.moe, hours, n, n, len(clusters_seen), reason)


def twcs_trial(
    pop: Population, m: int | None, rng: np.random.Generator, cfg: EvalConfig
) -> TrialResult:
    """Iterative TWCS (WCS when ``m`` is None: full-cluster annotation)."""
    cum = np.cumsum(pop.sizes)
    means: list[float] = []
    n_triples = 0

    def draw_batch() -> bool:
        nonlocal n_triples
        ci = weighted_cluster_draws(cum, cfg.batch_clusters, rng)
        mu, s = twcs_draw(pop.sizes, pop.taus, ci, m, rng)
        means.extend(mu.tolist())
        n_triples += int(s.sum())
        return True

    est, reason = run_until_moe(
        draw_batch,
        lambda: estimate_cluster_means(np.asarray(means), alpha=cfg.alpha),
        cfg.min_draws,
        cfg,
    )
    n_tasks = est.n_units
    hours = cfg.cost.cost_hours(n_tasks, n_triples)
    return TrialResult(est.mu_hat, est.moe, hours, n_tasks, n_triples, n_tasks, reason)


def wcs_trial(pop: Population, rng: np.random.Generator, cfg: EvalConfig) -> TrialResult:
    return twcs_trial(pop, None, rng, cfg)


def rcs_trial(pop: Population, rng: np.random.Generator, cfg: EvalConfig) -> TrialResult:
    """Iterative RCS: uniform cluster draws without replacement.

    RCS converges orders of magnitude slower than the other designs on
    wide cluster-size distributions (its Table 5 result), so the batch
    grows geometrically (~25%/step) to keep the estimate-recompute loop
    near-linear; the slight stopping overshoot only affects a design the
    paper already reports as blowing the budget.
    """
    order = rng.permutation(pop.n_clusters)
    taus: list[float] = []
    n_triples = 0

    def draw_batch() -> bool:
        nonlocal n_triples
        pos = len(taus)
        take = min(max(cfg.batch_clusters, pos // 4), pop.n_clusters - pos)
        if take <= 0:
            return False
        ci = order[pos : pos + take]
        taus.extend(pop.taus[ci].astype(float).tolist())
        n_triples += int(pop.sizes[ci].sum())
        return True

    est, reason = run_until_moe(
        draw_batch,
        lambda: estimate_rcs(
            np.asarray(taus), n_clusters=pop.n_clusters, n_triples=pop.n_triples,
            alpha=cfg.alpha,
        ),
        cfg.min_draws,
        cfg,
    )
    pos = est.n_units
    hours = cfg.cost.cost_hours(pos, n_triples)
    return TrialResult(est.mu_hat, est.moe, hours, pos, n_triples, pos, reason)


def stratified_twcs_trial(
    pop: Population,
    strata: np.ndarray,
    m: int,
    rng: np.random.Generator,
    cfg: EvalConfig,
) -> TrialResult:
    """Iterative stratified TWCS (Sec 5.3): per-batch draws allocated to
    strata proportionally to the triple weights W_h (>= 1 each), Eq 13
    combination for the estimate and MoE."""
    strata = np.asarray(strata)
    masks = [strata == h for h in np.unique(strata)]
    sizes = [pop.sizes[k] for k in masks]
    taus = [pop.taus[k] for k in masks]
    cums = [np.cumsum(sz) for sz in sizes]
    w = np.array([c[-1] for c in cums], dtype=np.float64)
    w /= w.sum()
    alloc = np.maximum(1, np.rint(cfg.batch_clusters * w).astype(int))
    means: list[list[float]] = [[] for _ in masks]
    n_triples = 0

    def draw_batch() -> bool:
        nonlocal n_triples
        for j in range(len(masks)):
            ci = weighted_cluster_draws(cums[j], int(alloc[j]), rng)
            mu, s = twcs_draw(sizes[j], taus[j], ci, m, rng)
            means[j].extend(mu.tolist())
            n_triples += int(s.sum())
        return True

    def estimate():
        return combine_stratified(
            w, [estimate_cluster_means(np.asarray(v), alpha=cfg.alpha) for v in means], cfg.alpha
        )

    est, reason = run_until_moe(draw_batch, estimate, cfg.min_draws, cfg)
    n_tasks = est.n_units
    hours = cfg.cost.cost_hours(n_tasks, n_triples)
    return TrialResult(est.mu_hat, est.moe, hours, n_tasks, n_triples, n_tasks, reason)


_DESIGNS = {
    "srs": srs_trial,
    "rcs": rcs_trial,
    "wcs": wcs_trial,
}


def run_trials(
    pop: Population,
    design: str,
    *,
    n_trials: int,
    seed: int,
    cfg: EvalConfig = EvalConfig(),
    m: int | None = None,
    strata: np.ndarray | None = None,
) -> TrialsSummary:
    """Repeat a design ``n_trials`` times; summarise cost and estimate."""
    trials: list[TrialResult] = []
    for t in range(n_trials):
        rng = np.random.default_rng(seed + 7919 * t)
        if design == "twcs":
            if m is None:
                raise ValueError("twcs requires m")
            tr = twcs_trial(pop, m, rng, cfg)
        elif design == "twcs_stratified":
            if m is None or strata is None:
                raise ValueError("twcs_stratified requires m and strata")
            tr = stratified_twcs_trial(pop, strata, m, rng, cfg)
        elif design in _DESIGNS:
            tr = _DESIGNS[design](pop, rng, cfg)
        else:
            raise ValueError(f"unknown design {design!r}")
        trials.append(tr)
    return TrialsSummary.from_trials(design, trials, pop.mu)
