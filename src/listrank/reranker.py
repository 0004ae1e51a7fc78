"""End-to-end inference: request -> prompt(s) -> forward -> scores -> ranking.

When the candidate set exceeds the per-pass cap or the context budget,
documents are packed into batches in order and the query is re-encoded
within each batch, so every batch is scored against its own query
embedding; raw cosine scores are pooled across batches and sorted
globally (cosine normalization keeps them commensurable).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import backbone as bb
from .embedding import extract, project, score
from .errors import DegenerateEmbeddingError, ParseError
from .evaluation import ndcg_at_k, read_lines
from .model import RerankModel
from .prompt import Document, RerankRequest, apply_ordering, build_prompt, chunk_into_batches


@dataclass
class RankedEntry:
    doc_id: str
    score: Optional[float]  # None when the embedding was degenerate
    rank: int
    batch_index: int
    error: Optional[str] = None


@dataclass
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
        layout = build_prompt(
            batch, model.vocab, max_doc_tokens,
            max_context=model.backbone_config.max_context,
        )
        hidden = bb.forward(layout.token_ids, model.backbone_config, model.weights)
        emb = extract(hidden, layout)
        q = project(emb.query, model.weights)
        for doc, raw in zip(batch.documents, emb.docs):
            d = project(raw, model.weights)
            try:
                s = float(score(q, d).data)
                scored.append((doc.doc_id, s, batch_idx, None))
            except DegenerateEmbeddingError as exc:
                # a non-finite embedding means broken weights, not one bad
                # document, so it fails the whole request
                if not (np.isfinite(q.data).all() and np.isfinite(d.data).all()):
                    raise
                scored.append((doc.doc_id, None, batch_idx, str(exc)))

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
    for lineno, line in read_lines(path):
        try:
            rec = json.loads(line)
            _require(isinstance(rec["query_text"], str), "query_text must be a string")
            _require(isinstance(rec["documents"], list), "documents must be a list")
            docs = []
            for d in rec["documents"]:
                _require(isinstance(d["text"], str), "document text must be a string")
                first_stage = d.get("first_stage_score")
                # bool is an int subclass, but JSON true/false is not a score
                _require(first_stage is None or (isinstance(first_stage, (int, float))
                                                 and not isinstance(first_stage, bool)),
                         "first_stage_score must be a number or null")
                docs.append(Document(str(d["doc_id"]), d["text"], first_stage))
            out.append((str(rec["query_id"]), RerankRequest(rec["query_text"], docs)))
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ParseError(f"{path} line {lineno}: {exc}", lineno) from exc
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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
