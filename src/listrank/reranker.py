"""End-to-end inference: request -> prompt(s) -> forward -> scores -> ranking.

The request's ordering is applied once. The packer then tokenizes and
truncates each passage once and packs the passages into batches in that
order; each batch's prompt is built from those token lists. When the
candidate set exceeds the per-pass cap or the context budget, the query
is re-encoded within each batch, so every batch is scored against its
own query embedding; raw cosine scores are pooled across batches and
sorted globally (cosine normalization keeps them commensurable). A batch
is one forward that runs its last layer only at the marker rows
``extract`` names, one ``project`` of those rows and one ``score`` of its
document rows against the query row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import backbone as bb
from .autodiff import Tensor
from .checkpoint import parse_json, write_atomic
from .embedding import extract, project, score
from .errors import DegenerateEmbeddingError, ParseError
from .evaluation import ndcg_at_k, read_lines
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
) -> RankedResult:
    """Score every candidate and return the globally sorted ranking.

    Scores are non-increasing with rank; ties break by ascending doc_id;
    zero-norm-embedding documents sink to the bottom with a diagnostic. A
    non-finite embedding raises ``DegenerateEmbeddingError``.
    """
    ordered_docs, _ = apply_ordering(
        request.documents, request.ordering, request.ordering_seed
    )
    batches = chunk_into_batches(
        ordered_docs,
        request.query,
        model.vocab,
        max_docs_per_pass=max_docs_per_pass,
        max_context=model.backbone_config.max_context,
        max_doc_tokens=max_doc_tokens,
    )

    scored: list[tuple[str, Optional[float], int, Optional[str]]] = []
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
            scored.append((doc.doc_id, by_doc.get(i), batch_idx,
                           None if i in by_doc else "zero-norm embedding: cosine is undefined"))

    valid = sorted(
        (t for t in scored if t[1] is not None), key=lambda t: (-t[1], t[0])
    )
    broken = sorted((t for t in scored if t[1] is None), key=lambda t: t[0])
    entries = [
        RankedEntry(doc_id=d, score=s, rank=i + 1, batch_index=b, error=e)
        for i, (d, s, b, e) in enumerate(valid + broken)
    ]
    return RankedResult(entries=entries, ordering=request.ordering)


def rerank_ordered_variants(
    model: RerankModel,
    request: RerankRequest,
    variants: tuple[str, ...] = ("desc", "asc", "random"),
    random_seed: int = 0,
    qrels_for_query: Optional[dict[str, int]] = None,
    **rerank_kwargs,
) -> tuple[dict[str, RankedResult], dict[str, Optional[float]]]:
    """Run the same request under multiple presentation orderings.

    Returns per-variant results and, when qrels are supplied, a per-variant
    nDCG@10 comparison report.
    """
    results: dict[str, RankedResult] = {}
    report: dict[str, Optional[float]] = {}
    for variant in variants:
        req = RerankRequest(
            query=request.query,
            documents=list(request.documents),
            ordering=variant,
            ordering_seed=random_seed if variant == "random" else None,
        )
        res = rerank(model, req, **rerank_kwargs)
        results[variant] = res
        report[variant] = (
            ndcg_at_k(res.doc_ids(), qrels_for_query) if qrels_for_query else None
        )
    return results, report


# ----------------------------------------------------------------------
# file formats
# ----------------------------------------------------------------------


def read_requests(path) -> list[tuple[str, RerankRequest]]:
    """Line-delimited JSON requests:
    {"query_id", "query_text", "documents": [{"doc_id", "text",
    "first_stage_score"?}]}."""
    out = []
    first_line: dict[str, int] = {}
    for lineno, line in read_lines(path):
        try:
            rec = parse_json(line, f"{path} line {lineno}", lineno)
            _require(isinstance(rec["query_id"], str), "query_id must be a string")
            _require(isinstance(rec["query_text"], str), "query_text must be a string")
            _require(isinstance(rec["documents"], list), "documents must be a list")
            docs = []
            for d in rec["documents"]:
                _require(isinstance(d["doc_id"], str), "doc_id must be a string")
                _require(isinstance(d["text"], str), "document text must be a string")
                first_stage = d.get("first_stage_score")
                # bool is an int subclass, but JSON true/false is not a score
                _require(first_stage is None or (isinstance(first_stage, (int, float))
                                                 and not isinstance(first_stage, bool)),
                         "first_stage_score must be a number or null")
                docs.append(Document(d["doc_id"], d["text"], first_stage))
            query_id = rec["query_id"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{path} line {lineno}: {exc}", lineno) from exc
        if first_line.setdefault(query_id, lineno) != lineno:  # results are keyed by it
            raise ParseError(f"{path} line {lineno}: query_id {query_id!r} repeats "
                             f"line {first_line[query_id]}", lineno)
        out.append((query_id, RerankRequest(rec["query_text"], docs)))
    return out


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise TypeError(message)


def write_run(path, results: dict[str, RankedResult], tag: str = "listrank") -> None:
    """TREC run format: query_id Q0 doc_id rank score tag."""
    lines = []
    for query_id in results:
        for e in results[query_id].entries:
            s = e.score if e.score is not None else -2.0
            lines.append(f"{query_id} Q0 {e.doc_id} {e.rank} {s:.6f} {tag}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
