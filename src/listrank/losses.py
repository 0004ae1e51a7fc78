"""The four-part training objective, read off one similarity matrix.

A batch holds one matrix E of projected embeddings; each query group names
rows of it, and every group has the same number K of negatives. With
S = cos(E, E) / tau, each component is a mean over groups:

- rank: logsumexp(S[q, p], S[q, n_1..n_K]) - S[q, p], the InfoNCE of the
  query q against its positive p with the negatives n as contrast set;
- dual: the same, anchored at the leading (dual) query marker;
- similar: the same, anchored at p against its augmented duplicate;
- disperse: log (1/K) [sum_k e^{S[p, n_k]} + sum_{k<j} e^{S[n_k, n_j]}],
  verbatim, with its asymmetric count of the two kinds of term.

The total is rank + 0.45 disperse + 0.85 dual + 0.85 similar: the weights
are fixed. Each component gathers one (groups, terms) index array from the
flattened S into one row-logsumexp, so the tape does not grow with the batch
or its negatives, and the forms stay finite at the lowest temperature (0.05).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ListrankError


@dataclass
class QueryGroup:
    """Rows of the batch's embedding matrix for one query: trailing-marker
    query embedding, positive, negatives, leading-marker duplicate of the
    query, augmented positive."""

    query: int
    positive: int
    negatives: list[int]
    dual_query: int
    augmented: int


@dataclass
class TrainingBatch:
    embeddings: Tensor  # (rows, d), indexed by the groups
    groups: list[QueryGroup]
    temperature: float

    def __post_init__(self):
        if self.temperature <= 0:
            raise ListrankError(f"temperature must be positive, got {self.temperature}")
        if not self.groups:
            raise ListrankError("empty training batch")
        counts = sorted({len(g.negatives) for g in self.groups})
        if counts[0] == 0:
            raise ListrankError("every query needs at least one negative")
        if len(counts) > 1:
            raise ListrankError(f"query groups have {counts} negatives: "
                                "every group needs the same number")
        rows = self.embeddings.shape[0]
        for g in self.groups:
            if not all(0 <= i < rows for i in (g.query, g.positive, *g.negatives,
                                               g.dual_query, g.augmented)):
                raise ListrankError(f"query group {g} names a row outside 0..{rows - 1}")


def all_losses(batch: TrainingBatch) -> tuple[Tensor, dict[str, Tensor]]:
    """Compute every component once, from one similarity matrix; returns
    (rank + 0.45 disperse + 0.85 dual + 0.85 similar, components dict)."""
    e, rows = batch.embeddings, batch.embeddings.shape[0]
    # S, flattened: entry i * rows + j compares rows i and j
    sims = ad.reshape(ad.mul(ad.cosine(e, e), 1.0 / batch.temperature), (-1,))
    query, positive, dual_query, augmented = (
        np.array([getattr(g, name) for g in batch.groups])
        for name in ("query", "positive", "dual_query", "augmented"))
    negatives = np.array([g.negatives for g in batch.groups])  # (G, K)

    def infonce(anchor: np.ndarray, target: np.ndarray) -> Tensor:
        pos = ad.gather_rows(sims, anchor * rows + target)
        terms = anchor[:, None] * rows + np.column_stack([target, negatives])
        return ad.tmean(ad.sub(ad.logsumexp(ad.gather_rows(sims, terms)), pos))

    a, b = np.triu_indices(negatives.shape[1], 1)  # row-major: (0, 1), (0, 2), ..., (1, 2), ...
    disperse = np.hstack([positive[:, None] * rows + negatives,
                          negatives[:, a] * rows + negatives[:, b]])
    # this order of the ops fixes backward's rounding (tests/golden/fingerprint.json)
    c = {"rank": infonce(query, positive),
         "disperse": ad.tmean(ad.sub(ad.logsumexp(ad.gather_rows(sims, disperse)),
                                     math.log(negatives.shape[1]))),
         "dual": infonce(dual_query, positive),
         "similar": infonce(positive, augmented)}
    total = ad.add(c["rank"], ad.add(ad.mul(c["disperse"], 0.45),
                                     ad.add(ad.mul(c["dual"], 0.85),
                                            ad.mul(c["similar"], 0.85))))
    return total, c
