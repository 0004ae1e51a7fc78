import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listrank.errors import ListrankError
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
        with pytest.raises(ListrankError, match="k must be >= 1, got 0"):
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
        with pytest.raises(ListrankError, match="qrels.txt line 2: expected 4 fields"):
            load_qrels(p)

    def test_qrels_duplicate(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d1 2\nq1 0 d1 1\n")
        with pytest.raises(ListrankError, match=r"line 2: duplicate \(q1, d1\), first on line 1"):
            load_qrels(p)

    def test_qrels_bad_relevance(self, tmp_path):
        # int() alone reads "1_0" as 10 and the Arabic-Indic one as 1
        p = tmp_path / "qrels.txt"
        for rel in ("high", "1_0", "\u0661", "1.0"):
            p.write_text(f"q1 0 d0 0\nq1 0 d1 {rel}\n", encoding="utf-8")
            with pytest.raises(ListrankError, match=f"qrels.txt line 2: bad relevance '{rel}'$"):
                load_qrels(p)
        # int() refuses more than 4,300 digits with a ValueError of its own
        p.write_text(f"q1 0 d0 0\nq1 0 d1 {'1' * 5000}\n")
        with pytest.raises(ListrankError, match="qrels.txt line 2: bad relevance: 5000 characters"):
            load_qrels(p)

    def test_qrels_negative_relevance(self, tmp_path):
        """A negative gain 2^rel - 1 would take nDCG below 0, and training would
        count the document as neither positive nor negative."""
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d1 1\nq1 0 d2 -5\n")
        with pytest.raises(ListrankError,
                           match=r"qrels.txt line 2: relevance -5 outside 0\.\.1023"):
            load_qrels(p)

    def test_qrels_relevance_beyond_a_float_gain(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d1 1\nq1 0 d2 1024\n")
        with pytest.raises(ListrankError,
                           match=r"qrels.txt line 2: relevance 1024 outside 0\.\.1023"):
            load_qrels(p)

    @pytest.mark.parametrize("loader, good", [
        (load_qrels, b"q1 0 d1 1"), (load_run, b"q1 Q0 d1 1 0.9 t"),
    ], ids=["qrels", "run"])
    def test_line_not_utf8(self, tmp_path, loader, good):
        p = tmp_path / "trec.txt"
        p.write_bytes(good + b"\n\xff\xfe" + good + b"\n")
        with pytest.raises(ListrankError, match="trec.txt line 2: "):
            loader(p)

    def test_run_sorted_by_rank(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text(
            "q1 Q0 d2 2 0.5 tag\nq1 Q0 d1 1 0.9 tag\nq1 Q0 d3 3 0.1 tag\n"
        )
        run = load_run(p)
        assert [d for d, _ in run["q1"]] == ["d1", "d2", "d3"]

    def test_run_duplicate(self, tmp_path):
        """A document listed twice would count its gain twice: nDCG above 1."""
        p = tmp_path / "run.txt"
        p.write_text("q1 Q0 d1 1 0.9 t\nq2 Q0 d1 1 0.9 t\nq1 Q0 d1 2 0.5 t\n")
        with pytest.raises(ListrankError, match=r"line 3: duplicate \(q1, d1\), first on line 1"):
            load_run(p)

    def test_run_bad_line(self, tmp_path):
        p = tmp_path / "run.txt"
        for rank, score, reason in [
            ("one", "0.9", "bad rank 'one'"),
            # int() alone reads "1_0" as 10 and the Arabic-Indic two as 2
            ("1_0", "0.9", "bad rank '1_0'"),
            ("\u0662", "0.9", "bad rank '\u0662'"),
            ("1" * 5000, "0.9", "bad rank: 5000 characters long"),
            ("2", "high", "could not convert string to float: 'high'"),
            ("2", "nan", "score 'nan' is not finite"),
            ("2", "-inf", "score '-inf' is not finite"),
            # float() alone reads "1_0" as 10 and the Arabic-Indic one as 1
            ("2", "1_0", "bad score '1_0'"),
            ("2", "\u0661.5", "bad score '\u0661.5'"),
        ]:
            p.write_text(f"q1 Q0 d0 1 0.9 tag\nq1 Q0 d1 {rank} {score} tag\n", encoding="utf-8")
            with pytest.raises(ListrankError, match=f"run.txt line 2: {reason}$"):
                load_run(p)

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
        with pytest.raises(ListrankError, match="unknown metric 'map'"):
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

    def test_filler_drawn_by_index_as_from_the_word_list(self):
        """Drawing indices gives, draw after draw, the words that drawing from
        the list of the 40 filler words w000..w039 gives."""
        corpus = generate_synthetic_corpus(6, 4, seed=2)
        rng = np.random.default_rng(2)
        words = [f"w{j:03d}" for j in range(40)]
        for qid, _ in corpus.queries:
            drawn = [list(rng.choice(words, size=2, replace=False))]
            for _ in range(3):
                rng.integers(5)
                drawn.append(list(rng.choice(words, size=3, replace=False)))
            filler = [corpus.docs[d].split()[2:] for d in corpus.candidates[qid]]
            assert filler == drawn, qid

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

    def test_write_refuses_a_query_the_readers_refuse(self, tmp_path):
        """A blank query would be written, then refused by ``load_corpus_files``."""
        corpus = generate_synthetic_corpus(n_queries=2, docs_per_query=4, seed=0)
        corpus.queries[1] = ("q001", "  ")
        with pytest.raises(ListrankError, match="^empty query$"):
            write_corpus_files(corpus, tmp_path / "data")
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("new_id", ["q 1", "", "q\u00a01", "q1\n"])
    @pytest.mark.parametrize("kind", ["query", "doc"])
    def test_write_refuses_an_id_the_readers_refuse(self, tmp_path, kind, new_id):
        """Such an id would be written, then refused by ``load_corpus_files``."""
        corpus = generate_synthetic_corpus(n_queries=2, docs_per_query=4, seed=0)
        if kind == "query":
            corpus.queries[1] = (new_id, corpus.queries[1][1])
            corpus.candidates[new_id] = corpus.candidates.pop("q001")
            corpus.qrels[new_id] = corpus.qrels.pop("q001")
        else:
            corpus.docs[new_id] = corpus.docs.pop("q001_d02")
            corpus.candidates["q001"][corpus.candidates["q001"].index("q001_d02")] = new_id
            corpus.qrels["q001"][new_id] = corpus.qrels["q001"].pop("q001_d02")
        with pytest.raises(ListrankError, match=f"^id {re.escape(repr(new_id))} is empty or "
                                                "holds whitespace$"):
            write_corpus_files(corpus, tmp_path / "data")
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("name, line, message", [
        ("corpus.jsonl", b"\xff\xfe", "corpus.jsonl line 3"),
        ("corpus.jsonl", b'{"doc_id": "x", "text": ', "corpus.jsonl line 3"),
        ("corpus.jsonl", b'{"doc_id": "x"}', "corpus.jsonl line 3: missing field 'text'"),
        ("corpus.jsonl", b'["x", "text"]', "corpus.jsonl line 3"),
        ("queries.jsonl", b'{"query_id": 7, "text": "a"}',
         "queries.jsonl line 3: field 'query_id' must be a string"),
        ("queries.jsonl", b'{"query_id": "q9", "text": "a"}', "'q9' needs qrels"),
        ("corpus.jsonl", b'{"doc_id": "q000_d00", "text": "a"}',
         "line 3: duplicate doc_id 'q000_d00', first on line 1"),
        ("queries.jsonl", b'{"query_id": "q000", "text": "a"}',
         "line 3: duplicate query_id 'q000', first on line 1"),
        ("corpus.jsonl", b'{"doc_id": "x y", "text": "a"}',
         "corpus.jsonl line 3: field 'doc_id' is 'x y', not an id"),
        ("corpus.jsonl", b'{"doc_id": "", "text": "a"}',
         "corpus.jsonl line 3: field 'doc_id' is '', not an id"),
        ("queries.jsonl", b'{"query_id": "x y", "text": "a"}',
         "queries.jsonl line 3: field 'query_id' is 'x y', not an id"),
        ("queries.jsonl", b'{"query_id": "", "text": "a"}',
         "queries.jsonl line 3: field 'query_id' is '', not an id"),
        ("queries.jsonl", b'{"query_id": "q9", "text": " "}', "queries.jsonl line 3: empty query"),
    ], ids=["not utf-8", "not json", "no text", "not an object", "int id", "no qrels",
            "repeated doc_id", "repeated query_id", "spaced doc_id", "empty doc_id",
            "spaced query_id", "empty query_id", "blank query text"])
    def test_corpus_files_bad_line(self, tmp_path, name, line, message):
        corpus = generate_synthetic_corpus(n_queries=2, docs_per_query=4, seed=0)
        write_corpus_files(corpus, tmp_path)
        with open(tmp_path / name, "r+b") as fh:
            lines = fh.read().splitlines()
            fh.seek(0)
            fh.truncate()
            fh.write(b"\n".join(lines[:2] + [line] + lines[2:]) + b"\n")
        with pytest.raises(ListrankError, match=message) as exc:
            load_corpus_files(tmp_path)
        assert "line 3: " in str(exc.value)

    def test_corpus_files_judged_document_missing(self, tmp_path):
        write_corpus_files(generate_synthetic_corpus(n_queries=2, docs_per_query=4, seed=0),
                           tmp_path)
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(line for line in path.read_text().splitlines(True)
                                if '"q001_d02"' not in line))
        with pytest.raises(ListrankError, match="'q001' needs qrels whose documents are all"):
            load_corpus_files(tmp_path)

    def test_corpus_files_query_without_a_positive(self, tmp_path):
        """Training needs a positive for every query; none is skipped."""
        write_corpus_files(generate_synthetic_corpus(n_queries=2, docs_per_query=4, seed=0),
                           tmp_path)
        path = tmp_path / "qrels.txt"
        path.write_text(path.read_text().replace("q001 0 q001_d00 1", "q001 0 q001_d00 0"))
        with pytest.raises(ListrankError, match="queries.jsonl line 2: query 'q001' needs qrels "
                                             ".* one of them judged positive"):
            load_corpus_files(tmp_path)

    def test_invalid_sizes(self):
        with pytest.raises(ListrankError, match="corpus sizes must be >= 1"):
            generate_synthetic_corpus(0, 4)
