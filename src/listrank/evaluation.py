"""Ranking metrics, TREC qrels/run ingestion, and the synthetic corpus
generator used by the overfit experiments."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParseError, ValidationError


def ndcg_at_k(ranking: Sequence[str], qrels: dict[str, int], k: int = 10) -> float:
    """nDCG@k with exponential gain (2^rel - 1) and log2(rank+1) discount.

    Queries with no relevant documents (or an empty ranking) score 0."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    ideal = sorted((r for r in qrels.values() if r > 0), reverse=True)[:k]
    idcg = sum((2.0 ** rel - 1.0) / math.log2(p + 2) for p, rel in enumerate(ideal))
    if idcg == 0.0 or not ranking:
        return 0.0
    dcg = sum(
        (2.0 ** qrels.get(doc, 0) - 1.0) / math.log2(p + 2)
        for p, doc in enumerate(ranking[:k])
    )
    return dcg / idcg


def recall_at_k(ranking: Sequence[str], qrels: dict[str, int], k: int = 10) -> float:
    """|relevant in top-k| / |relevant|; graded rel > 0 counts as relevant."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    relevant = {d for d, r in qrels.items() if r > 0}
    if not relevant:
        return 0.0
    hit = sum(1 for d in ranking[:k] if d in relevant)
    return hit / len(relevant)


@dataclass
class MetricReport:
    metric: str
    k: int
    per_query: dict[str, float]
    flagged: list[str] = field(default_factory=list)  # zero-relevant or unjudged

    @property
    def macro_average(self) -> float:
        if not self.per_query:
            return 0.0
        return sum(self.per_query.values()) / len(self.per_query)

    @property
    def judged_only_average(self) -> float:
        judged = [v for q, v in self.per_query.items() if q not in self.flagged]
        return sum(judged) / len(judged) if judged else 0.0

    def lines(self) -> list[str]:
        out = [f"metric={self.metric}@{self.k} queries={len(self.per_query)}"]
        for q in sorted(self.per_query):
            flag = " [flagged]" if q in self.flagged else ""
            out.append(f"{q}\t{self.per_query[q]:.6f}{flag}")
        out.append(f"macro_average\t{self.macro_average:.6f}")
        out.append(f"judged_only_average\t{self.judged_only_average:.6f}")
        return out


def read_lines(path):
    """``(line number, text)`` of each non-blank line; bad UTF-8 raises ``ParseError``."""
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), 1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} line {lineno}: {exc}", lineno) from exc
        if line.strip():
            yield lineno, line


def load_qrels(path) -> dict[str, dict[str, int]]:
    """TREC qrels: ``query_id 0 doc_id rel``."""
    qrels: dict[str, dict[str, int]] = {}
    for lineno, line in read_lines(path):
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(f"{path} line {lineno}: expected 4 fields", lineno)
        qid, _, did, rel = fields
        try:
            rel = int(rel)
        except ValueError as exc:
            raise ParseError(f"{path} line {lineno}: bad relevance {rel!r}", lineno) from exc
        if rel > 1023:  # the nDCG gain 2.0 ** rel overflows a float
            raise ParseError(f"{path} line {lineno}: relevance above 1023", lineno)
        if did in qrels.get(qid, {}):
            raise ParseError(f"{path} line {lineno}: duplicate ({qid}, {did})", lineno)
        qrels.setdefault(qid, {})[did] = rel
    return qrels


def load_run(path) -> dict[str, list[tuple[str, float]]]:
    """TREC run: ``query_id Q0 doc_id rank score tag``; returns doc lists
    sorted by the recorded rank."""
    raw: dict[str, list[tuple[int, str, float]]] = {}
    for lineno, line in read_lines(path):
        fields = line.split()
        if len(fields) != 6:
            raise ParseError(f"{path} line {lineno}: expected 6 fields", lineno)
        qid, _, did, rank, score_, _tag = fields
        try:
            raw.setdefault(qid, []).append((int(rank), did, float(score_)))
        except ValueError as exc:
            raise ParseError(f"{path} line {lineno}: {exc}", lineno) from exc
    return {
        qid: [(did, s) for _, did, s in sorted(rows)] for qid, rows in raw.items()
    }


def evaluate_run(run_path, qrels_path, metric: str = "ndcg", k: int = 10) -> MetricReport:
    """Per-query metric plus macro average over the run file's queries."""
    if metric not in ("ndcg", "recall"):
        raise ValidationError(f"unknown metric {metric!r}")
    fn = ndcg_at_k if metric == "ndcg" else recall_at_k
    run = load_run(run_path)
    qrels = load_qrels(qrels_path)
    per_query: dict[str, float] = {}
    flagged: list[str] = []
    for qid, rows in run.items():
        q = qrels.get(qid, {})
        ranking = [did for did, _ in rows]
        per_query[qid] = fn(ranking, q, k)
        if not any(r > 0 for r in q.values()):
            flagged.append(qid)
    return MetricReport(metric=metric, k=k, per_query=per_query, flagged=flagged)


# ----------------------------------------------------------------------
# synthetic corpus
# ----------------------------------------------------------------------


@dataclass
class SyntheticCorpus:
    queries: list[tuple[str, str]]  # (query_id, text)
    docs: dict[str, str]  # doc_id -> text
    candidates: dict[str, list[str]]  # query_id -> doc_ids
    qrels: dict[str, dict[str, int]]

    def words(self) -> list[str]:
        seen: dict[str, None] = {}
        for _, text in self.queries:
            for w in text.split():
                seen.setdefault(w)
        for text in self.docs.values():
            for w in text.split():
                seen.setdefault(w)
        return list(seen)


def generate_synthetic_corpus(
    n_queries: int,
    docs_per_query: int,
    vocab_size: int = 40,
    seed: int = 0,
) -> SyntheticCorpus:
    """Token-pattern relevance corpus: each query is a distinctive token
    pattern; its single positive embeds the pattern, negatives never do
    (they reuse other queries' patterns plus filler). Deterministic."""
    if n_queries < 1 or docs_per_query < 1:
        raise ValidationError("corpus sizes must be >= 1")
    rng = np.random.default_rng(seed)
    filler = [f"w{j:03d}" for j in range(vocab_size)]
    queries, docs, candidates, qrels = [], {}, {}, {}
    for i in range(n_queries):
        qid = f"q{i:03d}"
        pattern = [f"topic{i:03d}", f"key{i:03d}"]
        queries.append((qid, " ".join(pattern)))
        cand: list[str] = []
        pos_id = f"{qid}_d00"
        pos_words = pattern + list(rng.choice(filler, size=2, replace=False))
        docs[pos_id] = " ".join(pos_words)
        cand.append(pos_id)
        qrels[qid] = {pos_id: 1}
        for n in range(1, docs_per_query):
            did = f"{qid}_d{n:02d}"
            if n_queries > 1:
                other = int(rng.integers(n_queries - 1))
                other = other if other < i else other + 1
                lure = [f"topic{other:03d}", f"key{other:03d}"]
            else:
                lure = []
            neg_words = lure + list(rng.choice(filler, size=3, replace=False))
            docs[did] = " ".join(neg_words)
            cand.append(did)
            qrels[qid][did] = 0
        candidates[qid] = cand
    return SyntheticCorpus(queries=queries, docs=docs, candidates=candidates, qrels=qrels)


def lexical_overlap_scorer(query_text: str, doc_text: str) -> float:
    """Word-overlap oracle scorer; achieves perfect nDCG on the synthetic
    corpus and gives its requests their first-stage scores."""
    q, d = set(query_text.split()), set(doc_text.split())
    if not q:
        return 0.0
    return len(q & d) / len(q)


def write_corpus_files(corpus: SyntheticCorpus, out_dir) -> None:
    """Emit requests.jsonl, queries.jsonl, corpus.jsonl and qrels.txt."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "queries.jsonl", "w", encoding="utf-8") as fh:
        for qid, text in corpus.queries:
            fh.write(json.dumps({"query_id": qid, "text": text}, sort_keys=True) + "\n")
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for did in sorted(corpus.docs):
            fh.write(json.dumps({"doc_id": did, "text": corpus.docs[did]}, sort_keys=True) + "\n")
    with open(out / "requests.jsonl", "w", encoding="utf-8") as fh:
        for qid, text in corpus.queries:
            rec = {
                "query_id": qid,
                "query_text": text,
                "documents": [
                    {
                        "doc_id": did,
                        "text": corpus.docs[did],
                        "first_stage_score": lexical_overlap_scorer(text, corpus.docs[did]),
                    }
                    for did in corpus.candidates[qid]
                ],
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    with open(out / "qrels.txt", "w", encoding="utf-8") as fh:
        for qid, _ in corpus.queries:
            for did in corpus.candidates[qid]:
                fh.write(f"{qid} 0 {did} {corpus.qrels[qid][did]}\n")


def _string_records(path, keys: tuple[str, ...]):
    """Yield ``(line number, values)`` for the string fields ``keys`` of each
    JSON line of ``path``; anything else raises ``ParseError``."""
    for lineno, line in read_lines(path):
        try:
            rec = json.loads(line)
            values = tuple(rec[key] for key in keys)
            if not all(isinstance(v, str) for v in values):
                raise TypeError(f"{', '.join(keys)} must be strings")
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ParseError(f"{path} line {lineno}: {exc}", lineno) from exc
        yield lineno, values


def load_corpus_files(data_dir) -> SyntheticCorpus:
    data = Path(data_dir)
    qrels = load_qrels(data / "qrels.txt")
    docs = dict(v for _, v in _string_records(data / "corpus.jsonl", ("doc_id", "text")))
    queries = []
    path = data / "queries.jsonl"
    for lineno, (qid, text) in _string_records(path, ("query_id", "text")):
        if not qrels.get(qid) or not qrels[qid].keys() <= docs.keys():
            raise ParseError(f"{path} line {lineno}: query {qid!r} needs qrels whose "
                             "documents are all in corpus.jsonl", lineno)
        queries.append((qid, text))
    candidates = {qid: sorted(qrels[qid]) for qid, _ in queries}
    return SyntheticCorpus(queries=queries, docs=docs, candidates=candidates, qrels=qrels)
