"""The four-part training objective, over one similarity matrix.

The total is rank + 0.45 disperse + 0.85 dual + 0.85 similar: the
weights are fixed. A batch holds one matrix E of projected embeddings;
each query group names rows of it. Every loss is a row-logsumexp over
entries of the flattened cos(E, E) / tau, one row per query, padded with
-inf where a group has fewer negatives: the losses' tape nodes do not grow
with the batch or its negatives, and the forms stay finite even at the
lowest temperature (0.05).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ListrankError


@dataclass
class QueryGroup:
    """Rows of the batch's embedding matrix for one query: trailing-marker
    query embedding, positive, negatives, optional leading-marker duplicate
    of the query, optional augmented positive."""

    query: int
    positive: int
    negatives: list[int]
    dual_query: Optional[int] = None
    augmented: Optional[int] = None


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
        rows = self.embeddings.shape[0]
        for g in self.groups:
            if not g.negatives:
                raise ListrankError("every query needs at least one negative")
            named = [g.query, g.positive, *g.negatives, g.dual_query, g.augmented]
            if not all(i is None or 0 <= i < rows for i in named):
                raise ListrankError(f"query group {g} names a row outside 0..{rows - 1}")


def similarities(batch: TrainingBatch) -> Tensor:
    """cos(E, E) / tau, flattened: entry i * rows + j compares rows i and j."""
    e = batch.embeddings
    return ad.reshape(ad.mul(ad.cosine(e, e), 1.0 / batch.temperature), (-1,))


def _logsumexp_rows(sims: Tensor, rows: int, pairs: list[list[tuple[int, int]]]) -> Tensor:
    """One logsumexp per list of (i, j) row pairs, over their similarities;
    shorter lists are padded with -inf."""
    idx = np.zeros((len(pairs), max(map(len, pairs))), dtype=np.int64)
    pad = np.full(idx.shape, -np.inf)
    for r, row in enumerate(pairs):
        idx[r, : len(row)] = [i * rows + j for i, j in row]
        pad[r, : len(row)] = 0.0
    return ad.logsumexp(ad.add(ad.gather_rows(sims, idx), pad))


def _infonce(batch: TrainingBatch, sims: Optional[Tensor],
             anchored: list[tuple[int, int]]) -> Tensor:
    """Mean over groups of -log( e^{s(a,p)/tau} / (e^{s(a,p)/tau} + sum_k
    e^{s(a,n_k)/tau}) ), computed as logsumexp(all/tau) - s(a,p)/tau, for
    each group's (anchor, positive) pair."""
    sims = similarities(batch) if sims is None else sims
    rows = batch.embeddings.shape[0]
    pairs = [[(a, p)] + [(a, n) for n in g.negatives] for (a, p), g in zip(anchored, batch.groups)]
    pos = ad.gather_rows(sims, [a * rows + p for a, p in anchored])
    return ad.tmean(ad.sub(_logsumexp_rows(sims, rows, pairs), pos))


def rank_loss(batch: TrainingBatch, sims: Optional[Tensor] = None) -> Tensor:
    """Contrastive ranking loss: query against positive vs K negatives.
    ``sims`` is ``similarities(batch)`` when already computed."""
    return _infonce(batch, sims, [(g.query, g.positive) for g in batch.groups])


def dual_loss(batch: TrainingBatch, sims: Optional[Tensor] = None) -> Tensor:
    """Same form as ``rank_loss`` but anchored at the leading query marker."""
    if any(g.dual_query is None for g in batch.groups):
        raise ListrankError("dual loss requires dual query embeddings")
    return _infonce(batch, sims, [(g.dual_query, g.positive) for g in batch.groups])


def similar_loss(batch: TrainingBatch, sims: Optional[Tensor] = None) -> Tensor:
    """Anchor each positive against its augmented duplicate, with the
    query's negatives as contrast set."""
    if any(g.augmented is None for g in batch.groups):
        raise ListrankError("similarity loss requires augmented duplicates")
    return _infonce(batch, sims, [(g.positive, g.augmented) for g in batch.groups])


def disperse_loss(batch: TrainingBatch, sims: Optional[Tensor] = None) -> Tensor:
    """Penalize pairwise similarity among the documents of each query:

        (1/N) sum_i log (1/K) [ sum_k e^{s(d+, d_k)/tau}
                                + sum_{k<j} e^{s(d_k, d_j)/tau} ]

    implemented verbatim, including the asymmetric count between
    positive-negative and negative-negative terms."""
    sims = similarities(batch) if sims is None else sims
    pairs = []
    for g in batch.groups:
        negs = g.negatives
        pairs.append([(g.positive, n) for n in negs]
                     + [(a, b) for k, a in enumerate(negs) for b in negs[k + 1 :]])
    log_k = Tensor([math.log(len(g.negatives)) for g in batch.groups])
    return ad.tmean(ad.sub(_logsumexp_rows(sims, batch.embeddings.shape[0], pairs), log_k))


def all_losses(batch: TrainingBatch):
    """Compute every component once, from one similarity matrix; returns
    (rank + 0.45 disperse + 0.85 dual + 0.85 similar, components dict)."""
    sims = similarities(batch)
    c = {"rank": rank_loss(batch, sims), "disperse": disperse_loss(batch, sims),
         "dual": dual_loss(batch, sims), "similar": similar_loss(batch, sims)}
    total = ad.add(c["rank"], ad.add(ad.mul(c["disperse"], 0.45),
                                     ad.add(ad.mul(c["dual"], 0.85),
                                            ad.mul(c["similar"], 0.85))))
    return total, c
