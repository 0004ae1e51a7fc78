"""The four-part training objective, read off one similarity matrix.

A batch holds one matrix E of projected embeddings and the rows of it that
its G query groups read: (G,) index arrays of queries q, positives p, dual
query markers and augmented positives, and a (G, K) array of negatives n,
so every group has the same number K of negatives. With S = cos(E, E) / tau,
each component is a mean over groups:

- rank: logsumexp(S[q, p], S[q, n_1..n_K]) - S[q, p], the InfoNCE of the
  query q against its positive p with the negatives n as contrast set;
- dual: the same, anchored at the leading (dual) query marker;
- similar: the same, anchored at p against its augmented duplicate;
- disperse: log (1/K) [sum_k e^{S[p, n_k]} + sum_{k<j} e^{S[n_k, n_j]}],
  verbatim, with its asymmetric count of the two kinds of term.

The total is rank + 0.45 disperse + 0.85 dual + 0.85 similar: the weights
are fixed. Each component gathers S[rows, cols] for (groups, terms) index
arrays into one row-logsumexp, so the tape does not grow with the batch or
its negatives, and the forms stay finite at the lowest temperature (0.05).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ListrankError


@dataclass
class TrainingBatch:
    """One (rows, d) matrix of projected embeddings and the rows that each of
    its G query groups reads: ``query``, ``positive``, ``dual_query`` (the
    leading query marker) and ``augmented`` (the augmented positive) are (G,)
    integer arrays, ``negatives`` is (G, K). Index lists become arrays here."""

    embeddings: Tensor
    temperature: float
    query: np.ndarray
    positive: np.ndarray
    negatives: np.ndarray
    dual_query: np.ndarray
    augmented: np.ndarray

    def __post_init__(self):
        if self.temperature <= 0:
            raise ListrankError(f"temperature must be positive, got {self.temperature}")
        try:  # numpy refuses a ragged list
            self.query, self.positive, self.negatives, self.dual_query, self.augmented = (
                np.asarray(a) for a in (self.query, self.positive, self.negatives,
                                        self.dual_query, self.augmented))
        except ValueError:
            raise ListrankError("ragged batch indices: every query group needs "
                                "the same number of negatives") from None
        singles = (self.query, self.positive, self.dual_query, self.augmented)
        shapes = [a.shape for a in (*singles, self.negatives)]
        g = shapes[0][:1]
        if g == (0,):
            raise ListrankError("empty training batch")
        if shapes[:4] != [g] * 4 or shapes[4][:1] != g or len(shapes[4]) != 2:
            raise ListrankError(f"query, positive, dual_query, augmented and negatives have "
                                f"shapes {shapes}: need (G,) four times and (G, K)")
        if shapes[4][1] == 0:
            raise ListrankError("every query needs at least one negative")
        rows = self.embeddings.shape[0]
        every = np.concatenate([a.ravel() for a in (*singles, self.negatives)])
        if every.dtype.kind not in "iu" or every.min() < 0 or every.max() >= rows:
            raise ListrankError(f"batch rows must be integers, none outside 0..{rows - 1}")


def all_losses(batch: TrainingBatch) -> tuple[Tensor, dict[str, Tensor]]:
    """Compute every component once, from one similarity matrix; returns
    (rank + 0.45 disperse + 0.85 dual + 0.85 similar, components dict)."""
    e, negatives = batch.embeddings, batch.negatives  # negatives: (G, K)
    sims = ad.mul(ad.cosine(e, e), 1.0 / batch.temperature)  # S

    def infonce(anchor: np.ndarray, target: np.ndarray) -> Tensor:
        pos = ad.gather_rows(sims, (anchor, target))
        terms = ad.gather_rows(sims, (anchor[:, None], np.column_stack([target, negatives])))
        return ad.tmean(ad.sub(ad.logsumexp(terms), pos))

    # the pairs of (p, n_1..n_K) in row-major order: (p, n_1), ..., (p, n_K), (n_1, n_2), ...;
    # take(): members[:, idx] would be F-ordered, and that changes logsumexp's rounding
    members = np.column_stack([batch.positive, negatives])
    disperse = tuple(members.take(i, axis=1) for i in np.triu_indices(negatives.shape[1] + 1, 1))
    # this order of the ops fixes backward's rounding (tests/golden/fingerprint.json)
    c = {"rank": infonce(batch.query, batch.positive),
         "disperse": ad.tmean(ad.sub(ad.logsumexp(ad.gather_rows(sims, disperse)),
                                     math.log(negatives.shape[1]))),
         "dual": infonce(batch.dual_query, batch.positive),
         "similar": infonce(batch.positive, batch.augmented)}
    total = ad.add(c["rank"], ad.add(ad.mul(c["disperse"], 0.45),
                                     ad.add(ad.mul(c["dual"], 0.85),
                                            ad.mul(c["similar"], 0.85))))
    return total, c
