import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listrank.errors import ParseError, ValidationError
from listrank.evaluation import (
    MetricReport,
    evaluate_run,
    generate_synthetic_corpus,
    lexical_overlap_scorer,
    load_corpus_files,
    load_qrels,
    load_run,
    ndcg_at_k,
    recall_at_k,
    write_corpus_files,
)


def _reference_ndcg(ranking, qrels, k):
    """Brute-force reference: explicit DCG and ideal DCG loops."""
    def dcg(rels):
        return sum((2 ** r - 1) / math.log2(i + 2) for i, r in enumerate(rels))

    ideal = dcg(sorted(qrels.values(), reverse=True)[:k])
    if ideal == 0:
        return 0.0
    return dcg([qrels.get(d, 0) for d in ranking[:k]]) / ideal


class TestNdcg:
    def test_perfect_ranking(self):
        qrels = {"a": 3, "b": 2, "c": 1, "d": 0}
        assert ndcg_at_k(["a", "b", "c", "d"], qrels, 10) == pytest.approx(1.0)

    def test_single_relevant_at_rank_two(self):
        """One relevant doc placed second: nDCG = 1/log2(3) = 0.630930."""
        qrels = {"good": 1, "bad": 0}
        got = ndcg_at_k(["bad", "good"], qrels, 10)
        assert got == pytest.approx(1.0 / math.log2(3), abs=1e-12)
        assert got == pytest.approx(0.6309297535714574, abs=1e-12)

    def test_no_relevant_scores_zero(self):
        assert ndcg_at_k(["a", "b"], {"a": 0, "b": 0}, 10) == 0.0

    def test_cutoff(self):
        qrels = {"a": 1}
        # relevant doc beyond the cutoff contributes nothing
        assert ndcg_at_k(["x", "y", "a"], qrels, 2) == 0.0

    def test_graded_gains_prefer_high_relevance_first(self):
        qrels = {"hi": 3, "lo": 1}
        assert ndcg_at_k(["hi", "lo"], qrels, 10) > ndcg_at_k(["lo", "hi"], qrels, 10)

    def test_invalid_k(self):
        with pytest.raises(ValidationError):
            ndcg_at_k(["a"], {"a": 1}, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        n = data.draw(st.integers(1, 12))
        rels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        k = data.draw(st.integers(1, 15))
        docs = [f"d{i}" for i in range(n)]
        qrels = dict(zip(docs, rels))
        perm = data.draw(st.permutations(docs))
        got = ndcg_at_k(perm, qrels, k)
        assert got == pytest.approx(_reference_ndcg(perm, qrels, k), abs=1e-12)
        assert 0.0 <= got <= 1.0 + 1e-12


class TestRecall:
    def test_all_found(self):
        assert recall_at_k(["a", "b"], {"a": 1, "b": 2}, 10) == 1.0

    def test_half_found(self):
        assert recall_at_k(["a", "x"], {"a": 1, "b": 1}, 2) == 0.5

    def test_no_relevant(self):
        assert recall_at_k(["a"], {"a": 0}, 10) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        n = data.draw(st.integers(1, 12))
        rels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        k = data.draw(st.integers(1, 15))
        docs = [f"d{i}" for i in range(n)]
        qrels = dict(zip(docs, rels))
        perm = data.draw(st.permutations(docs))
        relevant = [d for d in docs if qrels[d] > 0]
        expected = (
            sum(1 for d in perm[:k] if qrels[d] > 0) / len(relevant) if relevant else 0.0
        )
        assert recall_at_k(perm, qrels, k) == pytest.approx(expected, abs=1e-15)


class TestTrecFiles:
    def test_qrels_roundtrip(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d1 2\nq1 0 d2 0\n\nq2 0 d1 1\n")
        qrels = load_qrels(p)
        assert qrels == {"q1": {"d1": 2, "d2": 0}, "q2": {"d1": 1}}

    def test_qrels_bad_field_count(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d1 2\nq1 0 d2\n")
        with pytest.raises(ParseError) as exc:
            load_qrels(p)
        assert exc.value.line_number == 2

    def test_qrels_duplicate(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d1 2\nq1 0 d1 1\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_qrels(p)

    def test_qrels_bad_relevance(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d1 high\n")
        with pytest.raises(ParseError, match="relevance"):
            load_qrels(p)

    def test_qrels_relevance_beyond_a_float_gain(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d1 1\nq1 0 d2 1024\n")
        with pytest.raises(ParseError, match="above 1023") as exc:
            load_qrels(p)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("loader, good", [
        (load_qrels, b"q1 0 d1 1"), (load_run, b"q1 Q0 d1 1 0.9 t"),
    ], ids=["qrels", "run"])
    def test_line_not_utf8(self, tmp_path, loader, good):
        p = tmp_path / "trec.txt"
        p.write_bytes(good + b"\n\xff\xfe" + good + b"\n")
        with pytest.raises(ParseError, match="trec.txt line 2") as exc:
            loader(p)
        assert exc.value.line_number == 2

    def test_run_sorted_by_rank(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text(
            "q1 Q0 d2 2 0.5 tag\nq1 Q0 d1 1 0.9 tag\nq1 Q0 d3 3 0.1 tag\n"
        )
        run = load_run(p)
        assert [d for d, _ in run["q1"]] == ["d1", "d2", "d3"]

    def test_run_bad_line(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text("q1 Q0 d1 one 0.9 tag\n")
        with pytest.raises(ParseError) as exc:
            load_run(p)
        assert exc.value.line_number == 1

    def test_evaluate_run_report(self, tmp_path):
        (tmp_path / "run.txt").write_text(
            "q1 Q0 d1 1 0.9 t\nq1 Q0 d2 2 0.5 t\n"
            "q2 Q0 d1 1 0.9 t\nq2 Q0 d2 2 0.5 t\n"
        )
        (tmp_path / "qrels.txt").write_text(
            "q1 0 d1 1\nq1 0 d2 0\nq2 0 d1 0\nq2 0 d2 0\n"
        )
        report = evaluate_run(tmp_path / "run.txt", tmp_path / "qrels.txt")
        assert report.per_query["q1"] == pytest.approx(1.0)
        assert report.per_query["q2"] == 0.0
        assert report.flagged == ["q2"]
        assert report.macro_average == pytest.approx(0.5)
        assert report.judged_only_average == pytest.approx(1.0)
        lines = report.lines()
        assert any("[flagged]" in ln for ln in lines)
        assert lines[0].startswith("metric=ndcg@10")

    def test_unknown_metric(self, tmp_path):
        (tmp_path / "run.txt").write_text("q1 Q0 d1 1 0.9 t\n")
        (tmp_path / "qrels.txt").write_text("q1 0 d1 1\n")
        with pytest.raises(ValidationError):
            evaluate_run(tmp_path / "run.txt", tmp_path / "qrels.txt", metric="map")


class TestSyntheticCorpus:
    def test_shape(self, synth_corpus):
        assert len(synth_corpus.queries) == 50
        for qid, _ in synth_corpus.queries:
            assert len(synth_corpus.candidates[qid]) == 8
            rels = synth_corpus.qrels[qid]
            assert sum(rels.values()) == 1  # exactly one positive

    def test_deterministic(self):
        a = generate_synthetic_corpus(5, 4, seed=3)
        b = generate_synthetic_corpus(5, 4, seed=3)
        assert a.docs == b.docs and a.queries == b.queries

    def test_pattern_separation(self, synth_corpus):
        """The query pattern appears in the positive and never in any
        negative of the same query."""
        for qid, qtext in synth_corpus.queries:
            pattern = set(qtext.split())
            for did in synth_corpus.candidates[qid]:
                words = set(synth_corpus.docs[did].split())
                if synth_corpus.qrels[qid][did] == 1:
                    assert pattern <= words
                else:
                    assert not (pattern & words)

    def test_lexical_scorer_achieves_perfect_ndcg(self, synth_corpus):
        for qid, qtext in synth_corpus.queries:
            ranked = sorted(
                synth_corpus.candidates[qid],
                key=lambda d: -lexical_overlap_scorer(qtext, synth_corpus.docs[d]),
            )
            assert ndcg_at_k(ranked, synth_corpus.qrels[qid], 10) == pytest.approx(1.0)

    def test_file_roundtrip(self, synth_corpus, tmp_path):
        write_corpus_files(synth_corpus, tmp_path)
        for name in ("queries.jsonl", "corpus.jsonl", "requests.jsonl", "qrels.txt"):
            assert (tmp_path / name).exists()
        loaded = load_corpus_files(tmp_path)
        assert loaded.docs == synth_corpus.docs
        assert loaded.queries == synth_corpus.queries
        assert loaded.qrels == synth_corpus.qrels

    @pytest.mark.parametrize("name, line, message", [
        ("corpus.jsonl", b"\xff\xfe", "corpus.jsonl line 3"),
        ("corpus.jsonl", b'{"doc_id": "x", "text": ', "corpus.jsonl line 3"),
        ("corpus.jsonl", b'{"doc_id": "x"}', "corpus.jsonl line 3: 'text'"),
        ("corpus.jsonl", b'["x", "text"]', "corpus.jsonl line 3"),
        ("queries.jsonl", b'{"query_id": 7, "text": "a"}', "must be strings"),
        ("queries.jsonl", b'{"query_id": "q9", "text": "a"}', "'q9' needs qrels"),
    ], ids=["not utf-8", "not json", "no text", "not an object", "int id", "no qrels"])
    def test_corpus_files_bad_line(self, tmp_path, name, line, message):
        corpus = generate_synthetic_corpus(n_queries=2, docs_per_query=4, seed=0)
        write_corpus_files(corpus, tmp_path)
        with open(tmp_path / name, "r+b") as fh:
            lines = fh.read().splitlines()
            fh.seek(0)
            fh.truncate()
            fh.write(b"\n".join(lines[:2] + [line] + lines[2:]) + b"\n")
        with pytest.raises(ParseError, match=message) as exc:
            load_corpus_files(tmp_path)
        assert exc.value.line_number == 3

    def test_corpus_files_judged_document_missing(self, tmp_path):
        write_corpus_files(generate_synthetic_corpus(n_queries=2, docs_per_query=4, seed=0),
                           tmp_path)
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(line for line in path.read_text().splitlines(True)
                                if '"q001_d02"' not in line))
        with pytest.raises(ParseError, match="'q001' needs qrels whose documents are all"):
            load_corpus_files(tmp_path)

    def test_invalid_sizes(self):
        with pytest.raises(ValidationError):
            generate_synthetic_corpus(0, 4)
