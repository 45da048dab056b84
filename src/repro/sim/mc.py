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
  replacement has Hypergeometric(tau_i, M_i - tau_i, s) correct triples.

Stopping rules, batch sizes, and cost accounting replicate
``core.framework.EvalConfig`` exactly; equivalence with the Spark layer
is asserted in tests/test_mc_vs_spark.py.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cluster_stats import Population
from repro.core.framework import EvalConfig
from repro.core.srs import estimate_srs
from repro.core.stats import Estimate, combine_stratified, z_value
from repro.core.cluster_sampling import estimate_cluster_means, estimate_rcs, weighted_cluster_draws


@dataclass(frozen=True)
class TrialResult:
    mu_hat: float
    moe: float
    hours: float
    n_draws: int  # primary units (triples for SRS)
    n_triples: int  # triples annotated
    n_entities: int  # entity identifications charged


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

    @classmethod
    def from_trials(cls, design: str, trials: list[TrialResult]) -> "TrialsSummary":
        mu = np.array([t.mu_hat for t in trials])
        hrs = np.array([t.hours for t in trials])
        dr = np.array([t.n_draws for t in trials])
        tr = np.array([t.n_triples for t in trials])
        return cls(
            design,
            float(mu.mean()),
            float(mu.std(ddof=1)) if len(trials) > 1 else 0.0,
            float(hrs.mean()),
            float(hrs.std(ddof=1)) if len(trials) > 1 else 0.0,
            float(dr.mean()),
            float(dr.std(ddof=1)) if len(trials) > 1 else 0.0,
            float(tr.mean()),
            float(tr.std(ddof=1)) if len(trials) > 1 else 0.0,
            len(trials),
            float(np.percentile(mu, 2.5)),
            float(np.percentile(mu, 97.5)),
        )


def _stopped(est: Estimate, n_min: int, cfg: EvalConfig) -> bool:
    return (est.n_units >= n_min and est.moe <= cfg.eps) or est.n_units >= cfg.max_units


def srs_trial(pop: Population, rng: np.random.Generator, cfg: EvalConfig) -> TrialResult:
    """Iterative SRS: batches of cfg.batch_triples without replacement."""
    cum = np.cumsum(pop.sizes)
    M = int(cum[-1])
    starts = cum - pop.sizes
    drawn: set[int] = set()
    labels: list[int] = []
    clusters_seen: set[int] = set()
    while True:
        want = min(cfg.batch_triples, M - len(drawn))
        if want <= 0:
            break
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
        est = estimate_srs(np.asarray(labels, dtype=np.float64), alpha=cfg.alpha)
        if _stopped(est, cfg.min_triples, cfg):
            break
    est = estimate_srs(np.asarray(labels, dtype=np.float64), alpha=cfg.alpha)
    n = len(labels)
    hours = cfg.cost.cost_hours(len(clusters_seen), n)
    return TrialResult(est.mu_hat, est.moe, hours, n, n, len(clusters_seen))


def _pps_draws(pop: Population, k: int, rng: np.random.Generator) -> np.ndarray:
    """k PPS-with-replacement cluster indices (prob M_i / M)."""
    return weighted_cluster_draws(np.cumsum(pop.sizes), k, rng)


def twcs_trial(
    pop: Population,
    m: int,
    rng: np.random.Generator,
    cfg: EvalConfig,
    *,
    wcs: bool = False,
) -> TrialResult:
    """Iterative TWCS (or WCS when ``wcs=True``: full-cluster annotation)."""
    means: list[float] = []
    n_triples = 0
    n_tasks = 0
    while True:
        ci = _pps_draws(pop, cfg.batch_clusters, rng)
        sizes, taus = pop.sizes[ci], pop.taus[ci]
        s = sizes if wcs else np.minimum(sizes, m)
        good = rng.hypergeometric(taus, sizes - taus, s)
        means.extend((good / s).tolist())
        n_triples += int(s.sum())
        n_tasks += len(ci)
        est = estimate_cluster_means(np.asarray(means), alpha=cfg.alpha)
        if _stopped(est, cfg.min_draws, cfg):
            break
    hours = cfg.cost.cost_hours(n_tasks, n_triples)
    return TrialResult(est.mu_hat, est.moe, hours, n_tasks, n_triples, n_tasks)


def wcs_trial(pop: Population, rng: np.random.Generator, cfg: EvalConfig) -> TrialResult:
    return twcs_trial(pop, 1, rng, cfg, wcs=True)


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
    pos = 0
    while True:
        take = min(max(cfg.batch_clusters, pos // 4), pop.n_clusters - pos)
        if take <= 0:
            break
        ci = order[pos : pos + take]
        pos += take
        taus.extend(pop.taus[ci].astype(float).tolist())
        n_triples += int(pop.sizes[ci].sum())
        est = estimate_rcs(
            np.asarray(taus),
            n_clusters=pop.n_clusters,
            n_triples=pop.n_triples,
            alpha=cfg.alpha,
        )
        if _stopped(est, cfg.min_draws, cfg):
            break
    hours = cfg.cost.cost_hours(pos, n_triples)
    return TrialResult(est.mu_hat, est.moe, hours, pos, n_triples, pos)


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
    hs = np.unique(strata)
    subpops = []
    weights = []
    for h in hs:
        mask = strata == h
        sub = Population(pop.subjects[mask], pop.sizes[mask], pop.taus[mask])
        subpops.append(sub)
        weights.append(sub.n_triples)
    w = np.asarray(weights, dtype=np.float64)
    w /= w.sum()

    means: list[list[float]] = [[] for _ in hs]
    n_triples = 0
    n_tasks = 0
    z = z_value(cfg.alpha)
    while True:
        alloc = np.maximum(1, np.rint(cfg.batch_clusters * w).astype(int))
        for j, sub in enumerate(subpops):
            ci = _pps_draws(sub, int(alloc[j]), rng)
            sizes, taus = sub.sizes[ci], sub.taus[ci]
            s = np.minimum(sizes, m)
            good = rng.hypergeometric(taus, sizes - taus, s)
            means[j].extend((good / s).tolist())
            n_triples += int(s.sum())
            n_tasks += len(ci)
        mu_h = np.array([np.mean(v) for v in means])
        var_h = np.array(
            [
                estimate_cluster_means(np.asarray(v), alpha=cfg.alpha).var_hat
                for v in means
            ]
        )
        est = combine_stratified(w, mu_h, var_h, cfg.alpha)
        moe = est.moe
        if (n_tasks >= cfg.min_draws and moe <= cfg.eps) or n_tasks >= cfg.max_units:
            break
    hours = cfg.cost.cost_hours(n_tasks, n_triples)
    return TrialResult(est.mu_hat, moe, hours, n_tasks, n_triples, n_tasks)


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
    return TrialsSummary.from_trials(design, trials)
