import json
import re
from collections import Counter

import numpy as np
import pytest

from listrank import reranker
from listrank.autodiff import Tensor
from listrank.errors import DegenerateEmbeddingError, ListrankError
from listrank.evaluation import load_run, ndcg_at_k
from listrank.model import RerankModel
from listrank.prompt import Document, RerankRequest, Vocabulary
from listrank.reranker import (
    RankedEntry,
    RankedResult,
    read_requests,
    rerank,
    write_run,
)


def _request_from_corpus(corpus, qid, qtext, n=None):
    ids = corpus.candidates[qid][:n] if n else corpus.candidates[qid]
    return RerankRequest(qtext, [Document(d, corpus.docs[d]) for d in ids])


def _with_weights(model, changes: dict):
    """A copy of ``model`` whose named weights are set to the given arrays."""
    weights = {k: Tensor(changes.get(k, v.data).copy()) for k, v in model.weights.items()}
    return RerankModel(model.vocab, model.backbone_config, weights)


class TestRerank:
    def test_covers_all_documents_once(self, untrained_model, synth_corpus):
        qid, qtext = synth_corpus.queries[0]
        req = _request_from_corpus(synth_corpus, qid, qtext)
        res = rerank(untrained_model, req, max_doc_tokens=16)
        assert sorted(res.doc_ids()) == sorted(synth_corpus.candidates[qid])
        assert [e.rank for e in res.entries] == list(range(1, len(res.entries) + 1))

    def test_scores_non_increasing_and_ties_by_doc_id(self, untrained_model, synth_corpus):
        qid, qtext = synth_corpus.queries[1]
        res = rerank(untrained_model, _request_from_corpus(synth_corpus, qid, qtext),
                     max_doc_tokens=16)
        scores = [e.score for e in res.entries]
        assert all(s is not None for s in scores)
        for a, b, ea, eb in zip(scores, scores[1:], res.entries, res.entries[1:]):
            assert a >= b
            if a == b:
                assert ea.doc_id < eb.doc_id

    def test_deterministic(self, untrained_model, synth_corpus):
        qid, qtext = synth_corpus.queries[2]
        req = _request_from_corpus(synth_corpus, qid, qtext)
        a = rerank(untrained_model, req, max_doc_tokens=16)
        b = rerank(untrained_model, req, max_doc_tokens=16)
        assert [(e.doc_id, e.score) for e in a.entries] == [
            (e.doc_id, e.score) for e in b.entries
        ]

    def test_many_documents_chunked_under_cap(self, untrained_model, synth_corpus):
        """150 candidates against a per-pass cap: several forward passes,
        every document scored exactly once, no pass over the cap."""
        qtext = synth_corpus.queries[0][1]
        all_ids = sorted(synth_corpus.docs)[:150]
        req = RerankRequest(qtext, [Document(d, synth_corpus.docs[d]) for d in all_ids])
        res = rerank(untrained_model, req, max_docs_per_pass=64, max_doc_tokens=8)
        assert sorted(res.doc_ids()) == sorted(all_ids)
        batch_sizes = {}
        for e in res.entries:
            batch_sizes[e.batch_index] = batch_sizes.get(e.batch_index, 0) + 1
        assert len(batch_sizes) > 1
        assert all(n <= 64 for n in batch_sizes.values())
        assert sum(batch_sizes.values()) == 150

    def test_pooled_equals_single_pass_composition(self, untrained_model, synth_corpus):
        """Forcing one-doc batches must yield the same ranking as scoring
        each document in its own single-pass request."""
        qid, qtext = synth_corpus.queries[3]
        req = _request_from_corpus(synth_corpus, qid, qtext, n=5)
        pooled = rerank(untrained_model, req, max_docs_per_pass=1, max_doc_tokens=16)
        singles = {}
        for doc in req.documents:
            one = rerank(untrained_model, RerankRequest(qtext, [doc]), max_doc_tokens=16)
            singles[doc.doc_id] = one.entries[0].score
        for e in pooled.entries:
            assert e.score == pytest.approx(singles[e.doc_id], abs=1e-12)

    def test_each_document_tokenized_once(self, untrained_model, monkeypatch):
        """The packer tokenizes it; the batch's prompt is built from those tokens."""
        calls = Counter()
        tokenize = Vocabulary.tokenize

        def counting(self, text):
            calls[text] += 1
            return tokenize(self, text)

        monkeypatch.setattr(Vocabulary, "tokenize", counting)
        docs = [Document(f"d{i:02d}", f"w{i % 40:03d} passage {i}") for i in range(80)]
        res = rerank(untrained_model, RerankRequest("topic000 key000", docs),
                     max_docs_per_pass=64, max_doc_tokens=16)
        assert len(res.entries) == 80 and len({e.batch_index for e in res.entries}) > 1
        assert [calls[d.text] for d in docs] == [1] * len(docs)

    def test_ordering_variants_report(self, untrained_model, synth_corpus):
        qid, qtext = synth_corpus.queries[4]
        docs = [
            Document(d, synth_corpus.docs[d], first_stage_score=float(i))
            for i, d in enumerate(synth_corpus.candidates[qid])
        ]
        req = RerankRequest(qtext, docs)
        for ordering in ("desc", "asc", "random"):
            res = rerank(untrained_model, req, max_doc_tokens=16, ordering=ordering, seed=3)
            assert res.ordering == ordering
            assert sorted(res.doc_ids()) == sorted(synth_corpus.candidates[qid])
            assert 0.0 <= ndcg_at_k(res.doc_ids(), synth_corpus.qrels[qid]) <= 1.0


class TestDegenerateEmbeddings:
    def test_zero_norm_embeddings_sink_with_a_diagnostic(self, untrained_model, synth_corpus):
        w2 = untrained_model.weights["projector.w2"].data
        model = _with_weights(untrained_model, {"projector.w2": np.zeros_like(w2)})
        qid, qtext = synth_corpus.queries[0]
        res = rerank(model, _request_from_corpus(synth_corpus, qid, qtext), max_doc_tokens=16)
        assert len(res.entries) == len(synth_corpus.candidates[qid])
        assert all(e.score is None and "zero-norm" in e.error for e in res.entries)

    @pytest.mark.parametrize("row", [0, -1])
    def test_zero_norm_row_sinks_its_documents(self, untrained_model, synth_corpus, row,
                                               monkeypatch):
        """Row 0 is the first document's embedding: it alone sinks. The
        last row is the query's: every document of the batch sinks."""
        project = reranker.project

        def zero_row(raw, weights):
            out = project(raw, weights)
            out.data[row] = 0.0
            return out

        monkeypatch.setattr(reranker, "project", zero_row)
        qid, qtext = synth_corpus.queries[0]
        req = _request_from_corpus(synth_corpus, qid, qtext)
        res = rerank(untrained_model, req, max_doc_tokens=16)
        sunk = [e.doc_id for e in res.entries if e.score is None]
        assert sunk == ([req.documents[0].doc_id] if row == 0 else sorted(res.doc_ids()))
        assert res.doc_ids()[len(res.entries) - len(sunk):] == sunk
        assert all("zero-norm" in e.error for e in res.entries if e.score is None)

    def test_exact_ties_and_sunk_documents_across_passes(self, untrained_model, monkeypatch):
        """Every live score is exactly 1.0: the global sort orders the live
        documents by doc_id, then the sunk ones by doc_id, whatever their pass."""
        project = reranker.project
        passes = iter(range(4))
        sunk_rows = {0: 1, 2: 0}  # pass -> the document row whose embedding is zero

        def query_rows(raw, weights):
            out = project(raw, weights)
            out.data[:] = 0.0
            out.data[:, 0] = 1.0  # every document row equals the query row
            k = next(passes)
            if k in sunk_rows:
                out.data[sunk_rows[k]] = 0.0
            return out

        monkeypatch.setattr(reranker, "project", query_rows)
        ids = ["d5", "d2", "d6", "d0", "d4", "d1", "d3"]  # passes [d5 d2] [d6 d0] [d4 d1] [d3]
        docs = [Document(d, f"w{i:03d} w{i + 1:03d}") for i, d in enumerate(ids)]
        res = rerank(untrained_model, RerankRequest("topic000 key000", docs),
                     max_docs_per_pass=2, max_doc_tokens=16)
        assert [(e.doc_id, e.rank, e.batch_index) for e in res.entries] == [
            ("d0", 1, 1), ("d1", 2, 2), ("d3", 3, 3), ("d5", 4, 0), ("d6", 5, 1),
            ("d2", 6, 0), ("d4", 7, 2)]
        assert [e.score for e in res.entries] == [1.0] * 5 + [None] * 2
        assert [e.error is None for e in res.entries] == [True] * 5 + [False] * 2

    def test_non_finite_weight_fails_the_request(self, untrained_model, synth_corpus):
        w1 = untrained_model.weights["projector.w1"].data.copy()
        w1[0, 0] = np.nan
        model = _with_weights(untrained_model, {"projector.w1": w1})
        qid, qtext = synth_corpus.queries[0]
        with pytest.raises(DegenerateEmbeddingError, match="non-finite"):
            rerank(model, _request_from_corpus(synth_corpus, qid, qtext), max_doc_tokens=16)


class TestRequestFile:
    def test_read_requests(self, tmp_path):
        p = tmp_path / "req.jsonl"
        rec = {
            "query_id": "q1",
            "query_text": "hello",
            "documents": [
                {"doc_id": "d1", "text": "aaa", "first_stage_score": 0.5},
                {"doc_id": "d2", "text": "bbb"},
            ],
        }
        p.write_text(json.dumps(rec) + "\n\n")
        loaded = read_requests(p)
        assert len(loaded) == 1
        qid, req = loaded[0]
        assert qid == "q1"
        assert req.documents[0].first_stage_score == 0.5
        assert req.documents[1].first_stage_score is None

    def test_read_requests_bad_json(self, tmp_path):
        p = tmp_path / "req.jsonl"
        p.write_text('{"query_id": "q1"\n')
        with pytest.raises(ListrankError, match="req.jsonl line 1: "):
            read_requests(p)

    def test_read_requests_missing_field(self, tmp_path):
        p = tmp_path / "req.jsonl"
        p.write_text('{"query_id": "q1", "documents": []}\n')
        with pytest.raises(ListrankError, match="req.jsonl line 1: missing field 'query_text'$"):
            read_requests(p)

    @pytest.mark.parametrize("field", ["query_id", "query_text", "documents", "doc_id",
                                       "text"])
    def test_read_requests_names_a_missing_field(self, tmp_path, field):
        doc = {"doc_id": "d1", "text": "aaa"}
        rec = {"query_id": "q1", "query_text": "hello", "documents": [doc]}
        del (doc if field in doc else rec)[field]
        p = tmp_path / "req.jsonl"
        p.write_text("\n" + json.dumps(rec) + "\n")
        with pytest.raises(ListrankError, match=f"req.jsonl line 2: missing field '{field}'$"):
            read_requests(p)

    @pytest.mark.parametrize("field", ["query_id", "doc_id"])
    @pytest.mark.parametrize("value", ["x y", "", " x", "x\t", "x\u00a0y"])
    def test_read_requests_refuses_a_non_id(self, tmp_path, field, value):
        """A run file is split on whitespace, so such an id would not read back."""
        doc = {"doc_id": "d1", "text": "aaa"}
        rec = {"query_id": "q1", "query_text": "hello", "documents": [doc]}
        (doc if field in doc else rec)[field] = value
        p = tmp_path / "req.jsonl"
        p.write_text("\n" + json.dumps(rec) + "\n")
        with pytest.raises(ListrankError, match=re.escape(
                f"req.jsonl line 2: field '{field}' is {value!r}, not an id")):
            read_requests(p)

    @pytest.mark.parametrize("documents, message", [
        ([], "request needs at least one document"),
        ([{"doc_id": "d1", "text": "a"}, {"doc_id": "d1", "text": "b"}],
         "duplicate doc_ids in request"),
        (["d1"], "expected a JSON object with field 'doc_id'"),
    ], ids=["no documents", "repeated doc_id", "document not an object"])
    def test_read_requests_names_the_line_of_a_bad_request(self, tmp_path, documents,
                                                            message):
        p = tmp_path / "req.jsonl"
        good = {"query_id": "q0", "query_text": "hello",
                "documents": [{"doc_id": "d1", "text": "a"}]}
        p.write_text(json.dumps(good) + "\n" + json.dumps(
            {"query_id": "q1", "query_text": "hello", "documents": documents}) + "\n")
        with pytest.raises(ListrankError, match=f"req.jsonl line 2: {message}$"):
            read_requests(p)

    @pytest.mark.parametrize("field, value", [
        ("query_text", 5),
        ("documents", {"d1": {"doc_id": "d1", "text": "aaa"}}),
        ("text", 5),
        ("text", None),
        ("first_stage_score", "high"),
        ("first_stage_score", True),
        ("query_id", None),
        ("doc_id", None),
        ("doc_id", 7),
    ])
    def test_read_requests_wrong_field_type(self, tmp_path, field, value):
        doc = {"doc_id": "d1", "text": "aaa", "first_stage_score": 0.5}
        rec = {"query_id": "q1", "query_text": "hello", "documents": [doc]}
        (doc if field in doc else rec)[field] = value
        p = tmp_path / "req.jsonl"
        p.write_text("\n" + json.dumps(rec) + "\n")
        with pytest.raises(ListrankError, match=f"req.jsonl line 2: .*'{field}'"):
            read_requests(p)


class TestRunFile:
    def test_write_and_reload(self, tmp_path):
        results = {
            "q1": RankedResult(
                entries=[
                    RankedEntry("d2", 0.75, 1, 0),
                    RankedEntry("d1", 0.25, 2, 0),
                    RankedEntry("d3", None, 3, 0, error="zero-norm"),
                ],
                ordering="given",
            )
        }
        p = tmp_path / "run.txt"
        write_run(p, results)
        lines = p.read_text().splitlines()
        assert lines[0] == "q1 Q0 d2 1 0.750000 listrank"
        # unscorable documents sink with the sentinel score
        assert lines[2] == "q1 Q0 d3 3 -2.000000 listrank"
        run = load_run(p)
        assert [d for d, _ in run["q1"]] == ["d2", "d1", "d3"]
