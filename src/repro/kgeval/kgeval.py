"""KGEval-style inference-based accuracy evaluation (baseline of Table 6).

Reimplementation of the *mechanism* of Ojha & Talukdar's KGEval (see
DESIGN.md for the substitution rationale): pick the "control" triple
whose annotation would propagate to the most still-unlabelled triples,
annotate it (human cost: one scattered triple per selection, i.e.
c1 + c2 each), and propagate its label over the coupling graph, until
the whole KG carries a label. KG accuracy is then the mean over all
labels, annotated and inferred — no confidence interval is available,
matching Table 8's feature comparison.

Two deliberate fidelity choices:

- **Machine cost.** ``machine_seconds`` is the wall time of the whole
  call: adjacency, connected components, control selection and label
  propagation, i.e. only work that sets the outputs. Components are
  disjoint, so a remaining component is always wholly unlabelled and the
  greedy pick reduces to largest component first; each component is
  walked once. The Table 6 harness adds the Spark coupling-graph build
  to this; the paper's point is that KGEval's machine time sits orders
  of magnitude above TWCS's sampling time.
- **Propagation noise.** Coupling constraints are informative (a Horn
  rule ties triples of equal correctness), so inference recovers each
  covered triple's true label — but only with probability ``fidelity``:
  the probabilistic inference can propagate erroneously, which is
  exactly the bias the paper criticises (Sec 8). Estimates come out
  close to, but not provably centred on, the truth, and no confidence
  interval exists.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.cost import CostParams


@dataclass(frozen=True)
class KGEvalResult:
    mu_hat: float
    n_annotated: int
    annotation_hours: float
    machine_seconds: float
    coverage: float  # fraction of triples labelled (annotated or inferred)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _components(n: int, edges: pd.DataFrame) -> np.ndarray:
    uf = _UnionFind(n)
    for s, d in zip(edges["src"].to_numpy(), edges["dst"].to_numpy()):
        uf.union(int(s), int(d))
    return np.asarray([uf.find(i) for i in range(n)], dtype=np.int64)


def kgeval_evaluate(
    triples: pd.DataFrame,
    edges: pd.DataFrame,
    *,
    seed: int,
    fidelity: float = 0.99,
    cost: CostParams = CostParams(),
) -> KGEvalResult:
    """Annotate one control triple per coupled component until every
    triple carries a label.

    ``triples`` needs (tid, label); ``edges`` needs (src, dst) over tids.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    n = len(triples)
    labels_true = triples.sort_values("tid")["label"].to_numpy(np.int64)

    adj: list[list[int]] = [[] for _ in range(n)]
    for s, d in zip(edges["src"].to_numpy(), edges["dst"].to_numpy()):
        adj[int(s)].append(int(d))
        adj[int(d)].append(int(s))

    comp_members: dict[int, list[int]] = {}
    for i, c in enumerate(_components(n, edges)):
        comp_members.setdefault(int(c), []).append(i)

    inferred = np.full(n, -1, dtype=np.int64)  # -1: unlabelled
    # Greedy control selection: every remaining component is wholly
    # unlabelled, so one annotation reaches exactly its size. Largest
    # first; ties keep the order of the components' smallest tids.
    components = sorted(comp_members.values(), key=len, reverse=True)
    for members in components:
        # Annotate the component's highest-degree triple (control triple).
        control = max(members, key=lambda v: len(adj[v]))
        inferred[control] = labels_true[control]

        # BFS propagation within the component. Real coupling constraints
        # (type consistency, Horn rules) are *informative*: a coupled
        # triple shares the annotated triple's correctness unless the
        # constraint (or the probabilistic inference) errs. We model this
        # as: each inferred triple receives its true label with
        # probability ``fidelity``, flipped otherwise — KGEval's
        # near-correct-but-biased estimates (Sec 8's criticism).
        frontier = [control]
        seen = {control}
        while frontier:
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if u in seen:
                        continue
                    seen.add(u)
                    lab = labels_true[u]
                    inferred[u] = 1 - lab if rng.random() > fidelity else lab
                    nxt.append(u)
            frontier = nxt

    n_annotated = len(components)
    lab_mask = inferred >= 0
    mu_hat = float(inferred[lab_mask].mean()) if lab_mask.any() else 0.0
    return KGEvalResult(
        mu_hat=mu_hat,
        n_annotated=n_annotated,
        annotation_hours=cost.cost_hours(n_annotated, n_annotated),
        machine_seconds=time.perf_counter() - t0,
        coverage=float(lab_mask.mean()),
    )
