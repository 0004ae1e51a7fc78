"""Ranking metrics, TREC qrels/run ingestion, and the synthetic corpus
generator used by the overfit experiments."""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .checkpoint import jsonl_bytes, parse_json, write_atomic
from .errors import ListrankError
from .prompt import Document, RerankRequest


def _check_k(k: int) -> None:
    if k < 1:
        raise ListrankError(f"k must be >= 1, got {k}")


def ndcg_at_k(ranking: Sequence[str], qrels: dict[str, int], k: int = 10) -> float:
    """nDCG@k with exponential gain (2^rel - 1) and log2(rank+1) discount.

    Queries with no relevant documents (or an empty ranking) score 0."""
    _check_k(k)
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
    _check_k(k)
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


STRING, LIST, NUMBER_OR_NULL = (str,), (list,), (int, float, type(None))
_KIND_NAMES = {STRING: "a string", LIST: "a list", NUMBER_OR_NULL: "a number or null"}


def is_id(value) -> bool:
    """The id rule: a string ``s`` with ``s.split() == [s]``, as TREC files need."""
    return type(value) is str and value.split() == [value]


@dataclass(slots=True)
class Line:
    """One line of a file, numbered from 1; its checks raise ``ListrankError``s naming it."""

    path: Path | str
    number: int
    text: str

    def __str__(self) -> str:
        return f"{self.path} line {self.number}"

    def error(self, message) -> ListrankError:
        return ListrankError(f"{self}: {message}")

    def field(self, obj, name: str, kind: tuple = STRING):
        """``obj[name]`` of a JSON object, typed in ``kind``; a nullable field may be absent."""
        if type(obj) is not dict:
            raise self.error(f"expected a JSON object with field {name!r}")
        value = obj.get(name)
        if type(value) not in kind:  # type(), so JSON true/false is no number
            raise self.error(f"field {name!r} must be {_KIND_NAMES[kind]}" if name in obj
                             else f"missing field {name!r}")
        return value

    def id(self, obj, name: str) -> str:
        """The string field ``name``, if ``is_id``."""
        value = obj.get(name) if type(obj) is dict else None
        if is_id(value):
            return value
        self.field(obj, name)  # names a missing or non-string field
        raise self.error(f"field {name!r} is {value!r}, not an id: empty or with whitespace")

    def integer(self, text: str, what: str) -> int:
        """``text`` as an int if ASCII digits, signed or not (``int`` takes ``1_0``, ``١``)."""
        if not re.fullmatch(r"[+-]?[0-9]+", text):
            raise self.error(f"bad {what} {text!r}")
        try:
            return int(text)
        except ValueError as exc:  # more digits than int() converts
            raise self.error(f"bad {what}: {len(text)} characters long") from exc


def read_lines(path, parse):
    """Yield ``(Line, value)`` per non-blank line of ``path`` for ``parse(line) ->
    (key, value)``; bad UTF-8 and a key an earlier line gave raise ``ListrankError``."""
    first_line: dict = {}
    for number, raw in enumerate(Path(path).read_bytes().splitlines(), 1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise Line(path, number, "").error(exc) from exc
        if text.strip():
            line = Line(path, number, text)
            key, value = parse(line)
            if first_line.setdefault(key, number) != number:
                raise line.error(f"duplicate {key}, first on line {first_line[key]}")
            yield line, value


def read_records(path, key: str):
    """Yield ``(Line, object)`` per JSON line of ``path``; ``key`` is an id no line repeats."""
    def parse(line: Line):
        rec = parse_json(line.text, str(line))
        return f"{key} {line.id(rec, key)!r}", rec
    return read_lines(path, parse)


def _trec_line(count: int, line: Line):
    """The ``count`` whitespace-split fields of a TREC line, keyed ``(query_id, doc_id)``."""
    fields = line.text.split()
    if len(fields) != count:
        raise line.error(f"expected {count} fields")
    return f"({fields[0]}, {fields[2]})", fields


def load_qrels(path) -> dict[str, dict[str, int]]:
    """TREC qrels: ``query_id 0 doc_id rel``."""
    qrels: dict[str, dict[str, int]] = {}
    for line, (qid, _, did, rel) in read_lines(path, partial(_trec_line, 4)):
        rel = line.integer(rel, "relevance")
        # a negative gain 2.0 ** rel - 1 takes nDCG below 0; above 1023 the gain overflows
        if not 0 <= rel <= 1023:
            raise line.error(f"relevance {rel} outside 0..1023")
        qrels.setdefault(qid, {})[did] = rel
    return qrels


def load_run(path) -> dict[str, list[tuple[str, float]]]:
    """TREC run: ``query_id Q0 doc_id rank score tag``; returns doc lists
    sorted by the recorded rank."""
    raw: dict[str, list[tuple[int, str, float]]] = {}
    for line, (qid, _, did, rank, score_, _tag) in read_lines(path, partial(_trec_line, 6)):
        rank = line.integer(rank, "rank")
        try:
            score = float(score_)
        except ValueError as exc:
            raise line.error(exc) from exc
        if not math.isfinite(score):
            raise line.error(f"score {score_!r} is not finite")
        # float() alone takes "1_0" and other scripts' digits
        if not re.fullmatch(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?", score_):
            raise line.error(f"bad score {score_!r}")
        raw.setdefault(qid, []).append((rank, did, score))
    return {
        qid: [(did, s) for _, did, s in sorted(rows)] for qid, rows in raw.items()
    }


def evaluate_run(run_path, qrels_path, metric: str = "ndcg", k: int = 10) -> MetricReport:
    """Per-query metric plus macro average over the run file's queries."""
    if metric not in ("ndcg", "recall"):
        raise ListrankError(f"unknown metric {metric!r}")
    _check_k(k)  # before the files are read, so an empty run cannot hide a bad k
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


FILLER_WORDS = 40  # the synthetic corpus's filler words are w000..w039


@dataclass
class SyntheticCorpus:
    queries: list[tuple[str, str]]  # (query_id, text)
    docs: dict[str, str]  # doc_id -> text
    candidates: dict[str, list[str]]  # query_id -> doc_ids
    qrels: dict[str, dict[str, int]]

    def words(self) -> list[str]:
        """Distinct words of the queries, then the documents, in first-seen order."""
        texts = [text for _, text in self.queries] + list(self.docs.values())
        return list(dict.fromkeys(w for text in texts for w in text.split()))

    def requests(self) -> list[tuple[str, RerankRequest]]:
        """``(query_id, request)`` per query, refused as ``read_requests`` refuses a
        line of requests.jsonl; first-stage scores are ``lexical_overlap_scorer``'s."""
        return [(qid, RerankRequest(text, [
            Document(d, self.docs[d], lexical_overlap_scorer(text, self.docs[d]))
            for d in self.candidates[qid]])) for qid, text in self.queries]


def generate_synthetic_corpus(n_queries: int, docs_per_query: int, *,
                              seed: int = 0) -> SyntheticCorpus:
    """Token-pattern relevance corpus: each query is a distinctive token
    pattern; its single positive embeds the pattern, negatives never do
    (they reuse other queries' patterns plus filler). Deterministic."""
    if n_queries < 1 or docs_per_query < 1:
        raise ListrankError("corpus sizes must be >= 1")
    rng = np.random.default_rng(seed)

    def filler(n: int) -> list[str]:  # n distinct filler words, drawn by index
        return [f"w{j:03d}" for j in rng.choice(FILLER_WORDS, size=n, replace=False)]

    queries, docs, candidates, qrels = [], {}, {}, {}
    for i in range(n_queries):
        qid = f"q{i:03d}"
        pattern = [f"topic{i:03d}", f"key{i:03d}"]
        queries.append((qid, " ".join(pattern)))
        cand: list[str] = []
        pos_id = f"{qid}_d00"
        pos_words = pattern + filler(2)
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
            neg_words = lure + filler(3)
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
    requests = corpus.requests()  # refuses what the readers would, before any write
    bad = [i for i in [*(qid for qid, _ in corpus.queries), *corpus.docs] if not is_id(i)]
    if bad:
        raise ListrankError(f"id {bad[0]!r} is empty or holds whitespace")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_atomic({
        out / "queries.jsonl": jsonl_bytes(
            [{"query_id": qid, "text": text} for qid, text in corpus.queries]),
        out / "corpus.jsonl": jsonl_bytes(
            [{"doc_id": did, "text": corpus.docs[did]} for did in sorted(corpus.docs)]),
        out / "requests.jsonl": jsonl_bytes([
            {"query_id": qid, "query_text": r.query, "documents": [asdict(d) for d in r.documents]}
            for qid, r in requests]),
        out / "qrels.txt": "".join(
            f"{qid} 0 {did} {corpus.qrels[qid][did]}\n"
            for qid, _ in corpus.queries for did in corpus.candidates[qid]).encode("utf-8")})


def load_corpus_files(data_dir) -> SyntheticCorpus:
    data = Path(data_dir)
    qrels = load_qrels(data / "qrels.txt")
    docs = {rec["doc_id"]: line.field(rec, "text")
            for line, rec in read_records(data / "corpus.jsonl", "doc_id")}
    queries = []
    for line, rec in read_records(data / "queries.jsonl", "query_id"):
        qid, text = rec["query_id"], line.field(rec, "text")
        if not text.strip():
            raise line.error("empty query")
        rels = qrels.get(qid, {})
        if sum(rel > 0 for rel in rels.values()) != 1 or not rels.keys() <= docs.keys():
            raise line.error(f"query {qid!r} needs qrels whose documents are all in "
                             "corpus.jsonl, exactly one of them judged positive")
        queries.append((qid, text))
    candidates = {qid: sorted(qrels[qid]) for qid, _ in queries}
    return SyntheticCorpus(queries=queries, docs=docs, candidates=candidates, qrels=qrels)
