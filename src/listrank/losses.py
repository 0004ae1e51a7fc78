"""The four-part training objective.

All losses operate on projected embeddings through temperature-scaled
log-sum-exp forms, so they stay finite and differentiable even at the
lowest training temperature (0.05) with cosine scores in [-1, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ValidationError


@dataclass
class QueryGroup:
    """Embeddings for one query: trailing-marker query embedding, optional
    leading-marker duplicate, positive, negatives, augmented positive."""

    query: Tensor
    positive: Tensor
    negatives: list[Tensor]
    dual_query: Optional[Tensor] = None
    augmented: Optional[Tensor] = None


@dataclass
class TrainingBatch:
    groups: list[QueryGroup]
    temperature: float

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if not self.groups:
            raise ValidationError("empty training batch")
        for g in self.groups:
            if not g.negatives:
                raise ValidationError("every query needs at least one negative")


@dataclass
class LossWeights:
    disperse: float = 0.45
    dual: float = 0.85
    similar: float = 0.85

    def __post_init__(self):
        if min(self.disperse, self.dual, self.similar) < 0:
            raise ConfigError("loss weights must be nonnegative")


def _infonce(anchor: Tensor, positive: Tensor, negatives: list[Tensor], tau: float) -> Tensor:
    """-log( e^{s(a,p)/tau} / (e^{s(a,p)/tau} + sum_k e^{s(a,n_k)/tau}) )
    computed as logsumexp(all/tau) - s(a,p)/tau."""
    pos = ad.scale(ad.cosine(anchor, positive), 1.0 / tau)
    sims = [pos] + [ad.scale(ad.cosine(anchor, n), 1.0 / tau) for n in negatives]
    return ad.sub(ad.logsumexp(ad.stack_scalars(sims)), pos)


def rank_loss(batch: TrainingBatch) -> Tensor:
    """Contrastive ranking loss: query against positive vs K negatives."""
    per_query = [
        _infonce(g.query, g.positive, g.negatives, batch.temperature)
        for g in batch.groups
    ]
    return ad.tmean(ad.stack_scalars(per_query))


def dual_loss(batch: TrainingBatch) -> Tensor:
    """Same form as ``rank_loss`` but anchored at the leading query marker."""
    for g in batch.groups:
        if g.dual_query is None:
            raise ValidationError("dual loss requires dual query embeddings")
    per_query = [
        _infonce(g.dual_query, g.positive, g.negatives, batch.temperature)
        for g in batch.groups
    ]
    return ad.tmean(ad.stack_scalars(per_query))


def similar_loss(batch: TrainingBatch) -> Tensor:
    """Anchor each positive against its augmented duplicate, with the
    query's negatives as contrast set."""
    for g in batch.groups:
        if g.augmented is None:
            raise ValidationError("similarity loss requires augmented duplicates")
    per_query = [
        _infonce(g.positive, g.augmented, g.negatives, batch.temperature)
        for g in batch.groups
    ]
    return ad.tmean(ad.stack_scalars(per_query))


def disperse_loss(batch: TrainingBatch) -> Tensor:
    """Penalize pairwise similarity among the documents of each query:

        (1/N) sum_i log (1/K) [ sum_k e^{s(d+, d_k)/tau}
                                + sum_{k<j} e^{s(d_k, d_j)/tau} ]

    implemented verbatim, including the asymmetric count between
    positive-negative and negative-negative terms."""
    tau = batch.temperature
    per_query = []
    for g in batch.groups:
        K = len(g.negatives)
        if K == 0:
            raise ValidationError("dispersive loss needs at least one negative")
        terms = [ad.scale(ad.cosine(g.positive, n), 1.0 / tau) for n in g.negatives]
        for k in range(K):
            for j in range(k + 1, K):
                terms.append(ad.scale(ad.cosine(g.negatives[k], g.negatives[j]), 1.0 / tau))
        lse = ad.logsumexp(ad.stack_scalars(terms))
        per_query.append(ad.sub(lse, Tensor(math.log(K))))
    return ad.tmean(ad.stack_scalars(per_query))


def all_losses(batch: TrainingBatch, weights: LossWeights = LossWeights()):
    """Compute every component once; returns (total, components dict)."""
    components = {
        "rank": rank_loss(batch),
        "disperse": disperse_loss(batch),
        "dual": dual_loss(batch),
        "similar": similar_loss(batch),
    }
    total = ad.add(
        components["rank"],
        ad.add(
            ad.scale(components["disperse"], weights.disperse),
            ad.add(
                ad.scale(components["dual"], weights.dual),
                ad.scale(components["similar"], weights.similar),
            ),
        ),
    )
    return total, components


def total_loss(batch: TrainingBatch, weights: LossWeights = LossWeights()) -> Tensor:
    return all_losses(batch, weights)[0]
