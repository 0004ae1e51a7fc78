"""End-to-end inference: request -> prompt(s) -> forward -> scores -> ranking.

The presentation order (``ordering``) is applied once. The packer then
tokenizes and truncates each passage once and packs the passages into
batches in that order; each batch's prompt is built from those token
lists. When the candidate set exceeds the per-pass cap or the context
budget, the query is re-encoded within each batch, so every batch is
scored against its own query embedding; raw cosine scores are pooled
across batches and sorted globally (cosine normalization keeps them
commensurable). A batch is one forward that runs its last layer only at
the marker rows ``extract`` names, one ``project`` of those rows and one
``score`` of its document rows against the query row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import backbone as bb
from .autodiff import Tensor
from .checkpoint import write_atomic
from .embedding import extract, project, score
from .errors import DegenerateEmbeddingError, ListrankError
from .evaluation import LIST, NUMBER_OR_NULL, read_records
from .model import RerankModel
from .prompt import Document, RerankRequest, apply_ordering, build_prompt, chunk_into_batches


@dataclass(slots=True)
class RankedEntry:
    doc_id: str
    score: Optional[float]  # None when the embedding was degenerate
    rank: int
    batch_index: int
    error: Optional[str] = None


@dataclass(slots=True)
class RankedResult:
    entries: list[RankedEntry]
    ordering: str

    def doc_ids(self) -> list[str]:
        return [e.doc_id for e in self.entries]


def rerank(
    model: RerankModel,
    request: RerankRequest,
    max_docs_per_pass: int = 64,
    max_doc_tokens: int = 256,
    ordering: str = "given",
    seed: Optional[int] = None,
) -> RankedResult:
    """Score every candidate, shown in ``ordering`` (one of ``ORDERINGS``;
    ``seed`` drives the random one), and return the globally sorted ranking.

    Scores are non-increasing with rank; ties break by ascending doc_id;
    zero-norm-embedding documents sink to the bottom with a diagnostic. A
    non-finite embedding raises ``DegenerateEmbeddingError``.
    """
    batches = chunk_into_batches(
        apply_ordering(request.documents, ordering, seed),
        request.query,
        model.vocab,
        max_docs_per_pass=max_docs_per_pass,
        max_context=model.backbone_config.max_context,
        max_doc_tokens=max_doc_tokens,
    )

    entries: list[RankedEntry] = []
    for batch_idx, batch in enumerate(batches):
        layout = build_prompt(request.query, model.vocab, [tokens for _, tokens in batch])
        hidden = bb.forward(layout.token_ids, model.backbone_config, model.weights,
                            rows=extract(layout))
        emb = project(hidden, model.weights).data  # documents, then the query
        if not np.isfinite(emb).all():
            # broken weights, not one bad document: fail the whole request
            raise DegenerateEmbeddingError("non-finite embedding: the model weights are broken")
        # a zero-norm row has no cosine: its document sinks with a diagnostic,
        # and so does every document of the batch when the query's row is zero
        live = np.flatnonzero(emb[:-1].any(axis=1) & emb[-1].any())
        sims = score(Tensor(emb[-1:]), Tensor(emb[live])).data[0].tolist() if live.size else []
        by_doc = dict(zip(live.tolist(), sims))
        for i, (doc, _) in enumerate(batch):
            error = None if i in by_doc else "zero-norm embedding: cosine is undefined"
            entries.append(RankedEntry(doc.doc_id, by_doc.get(i), 0, batch_idx, error))

    entries.sort(key=lambda e: (e.score is None, -(e.score or 0.0), e.doc_id))
    for rank, entry in enumerate(entries, start=1):
        entry.rank = rank
    return RankedResult(entries=entries, ordering=ordering)


# ----------------------------------------------------------------------
# file formats
# ----------------------------------------------------------------------


def read_requests(path) -> list[tuple[str, RerankRequest]]:
    """JSON-lines requests {"query_id", "query_text", "documents": [{"doc_id", "text",
    "first_stage_score"?}]}; each query_id and doc_id is an id (``Line.id``)."""
    out = []
    for line, rec in read_records(path, "query_id"):
        documents = [Document(line.id(d, "doc_id"), line.field(d, "text"),
                              line.field(d, "first_stage_score", NUMBER_OR_NULL))
                     for d in line.field(rec, "documents", LIST)]
        try:
            request = RerankRequest(line.field(rec, "query_text"), documents)
        except ListrankError as exc:  # a blank query, no documents or a repeated doc_id
            raise line.error(exc) from exc
        out.append((rec["query_id"], request))
    return out


def write_run(path, results: dict[str, RankedResult]) -> None:
    """TREC run format: query_id Q0 doc_id rank score listrank."""
    lines = []
    for query_id in results:
        for e in results[query_id].entries:
            s = e.score if e.score is not None else -2.0
            lines.append(f"{query_id} Q0 {e.doc_id} {e.rank} {s:.6f} listrank")
    write_atomic({path: ("\n".join(lines) + "\n").encode("utf-8")})
