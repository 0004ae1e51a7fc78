import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listrank.errors import (
    ChunkingError,
    ContextLengthError,
    ListrankError,
    ValidationError,
)
from listrank.prompt import (
    DOC_EMB,
    QUERY_EMB,
    Document,
    PromptLayout,
    RerankRequest,
    Vocabulary,
    apply_ordering,
    build_prompt,
    chunk_into_batches,
)

GOLDEN = Path(__file__).parent / "golden"

words = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1, max_size=8,
)


@pytest.fixture(scope="module")
def vocab():
    return Vocabulary(["alpha", "beta", "gamma", "delta", "epsilon"])


class TestTokenizer:
    def test_empty(self, vocab):
        assert vocab.tokenize("") == []

    def test_known_word_is_one_token(self, vocab):
        assert len(vocab.tokenize("alpha")) == 1

    def test_unknown_word_falls_back_to_bytes(self, vocab):
        ids = vocab.tokenize("zq")
        assert len(ids) == 2
        assert all(5 <= i < 5 + 256 for i in ids)

    def test_special_surface_is_never_special_id(self, vocab):
        ids = vocab.tokenize(f"see {DOC_EMB} here")
        assert vocab.special_id(DOC_EMB) not in ids
        assert vocab.special_id(QUERY_EMB) not in vocab.tokenize(QUERY_EMB)
        # the literal text survives the round trip
        assert vocab.detokenize(ids) == f"see {DOC_EMB} here"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(words, min_size=0, max_size=8))
    def test_roundtrip_via_text(self, vocab, ws):
        text = " ".join(ws)
        ids = vocab.tokenize(text)
        assert vocab.tokenize(vocab.detokenize(ids)) == ids

    def test_exact_text_roundtrip_with_newlines(self, vocab):
        text = "alpha beta\ngamma zz9\n\n delta"
        assert vocab.detokenize(vocab.tokenize(text)) == text

    def test_entries_roundtrip(self, vocab):
        loaded = Vocabulary.from_entries(vocab.entries())
        assert len(loaded) == len(vocab)
        text = "alpha zz gamma"
        assert loaded.tokenize(text) == vocab.tokenize(text)

    def test_bijection(self, vocab):
        surfaces = [vocab.surface(i) for i in range(len(vocab))]
        assert len(set(surfaces)) == len(surfaces)


class TestBuildPrompt:
    def test_structure_two_docs(self, vocab):
        req = RerankRequest("alpha beta", [Document("a", "alpha"), Document("b", "beta")])
        layout = build_prompt(req, vocab, max_doc_tokens=8)
        assert len(layout.doc_marker_positions) == 2
        assert layout.doc_marker_positions[0] < layout.doc_marker_positions[1]
        assert layout.doc_marker_positions[1] < layout.query_marker_position
        for pos in layout.doc_marker_positions:
            assert layout.token_ids[pos] == vocab.special_id(DOC_EMB)
        assert layout.token_ids[layout.query_marker_position] == vocab.special_id(QUERY_EMB)

    def test_truncation_to_max_doc_tokens(self, vocab):
        long_doc = " ".join(["alpha"] * 1000)
        req = RerankRequest("beta", [Document("a", long_doc)])
        layout = build_prompt(req, vocab, max_doc_tokens=768)
        start = layout.token_ids.index(vocab.tokenize("alpha")[0])
        doc_tokens = layout.doc_marker_positions[0] - start
        assert doc_tokens == 768

    def test_dual_marker_placement(self, vocab):
        req = RerankRequest("alpha", [Document("a", "beta"), Document("b", "gamma")])
        layout = build_prompt(req, vocab, max_doc_tokens=8, insert_dual_query_marker=True)
        qe = vocab.special_id(QUERY_EMB)
        positions = [i for i, t in enumerate(layout.token_ids) if t == qe]
        assert positions == [layout.dual_query_marker_position, layout.query_marker_position]
        # the dual marker precedes every passage block
        assert layout.dual_query_marker_position < min(layout.doc_marker_positions)
        # exactly one extra marker relative to the inference prompt
        plain = build_prompt(req, vocab, max_doc_tokens=8)
        assert len(positions) == 1 + sum(
            1 for t in plain.token_ids if t == qe
        )

    def test_empty_query(self, vocab):
        with pytest.raises(ValidationError, match="query"):
            build_prompt(RerankRequest("  ", [Document("a", "alpha")]), vocab, 8)

    def test_overflow(self, vocab):
        req = RerankRequest("alpha", [Document("a", "beta gamma " * 50)])
        with pytest.raises(ContextLengthError) as exc:
            build_prompt(req, vocab, max_doc_tokens=200, max_context=64)
        assert exc.value.measured > 64

    def test_marker_self_consistency(self, vocab):
        req = RerankRequest(
            "alpha beta", [Document(c, f"{c} gamma") for c in "abcde"]
        )
        layout = build_prompt(req, vocab, max_doc_tokens=8, insert_dual_query_marker=True)
        # re-derive the marker positions from the raw token ids
        ids = layout.token_ids
        docs = [i for i, t in enumerate(ids) if t == vocab.special_id(DOC_EMB)]
        queries = [i for i, t in enumerate(ids) if t == vocab.special_id(QUERY_EMB)]
        assert docs == layout.doc_marker_positions
        assert queries == [layout.dual_query_marker_position, layout.query_marker_position]

    def test_pad_docs(self, vocab):
        req = RerankRequest("alpha", [Document("a", "beta")])
        layout = build_prompt(req, vocab, max_doc_tokens=10, pad_docs=True)
        pad = vocab.pad_id
        marker = layout.doc_marker_positions[0]
        assert layout.token_ids[marker - 1] == pad
        assert sum(1 for t in layout.token_ids if t == pad) == 9

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_golden_files(self, vocab, k):
        docs = [Document(f"d{i}", f"alpha beta doc{i} body") for i in range(k)]
        layout = build_prompt(
            RerankRequest("what is listwise reranking", docs), vocab, max_doc_tokens=32
        )
        expected = (GOLDEN / f"prompt_k{k}.txt").read_text(encoding="utf-8")
        assert layout.text == expected
        # detokenizing the ids reproduces the same bytes
        assert vocab.detokenize(layout.token_ids) == expected


class TestApplyOrdering:
    def _docs(self, scores):
        return [Document(f"d{i}", "x", s) for i, s in enumerate(scores)]

    def test_descending(self):
        _, perm = apply_ordering(self._docs([0.2, 0.9, 0.5]), "desc")
        assert perm == [1, 2, 0]

    def test_ascending_reverses_descending(self):
        docs = self._docs([0.3, 0.8, 0.1, 0.6])
        _, desc = apply_ordering(docs, "desc")
        _, asc = apply_ordering(docs, "asc")
        assert asc == desc[::-1]

    def test_random_deterministic(self):
        docs = self._docs([0.1] * 6)
        _, a = apply_ordering(docs, "random", seed=7)
        _, b = apply_ordering(docs, "random", seed=7)
        assert a == b

    def test_stable_ties(self):
        _, perm = apply_ordering(self._docs([0.5, 0.5, 0.5]), "desc")
        assert perm == [0, 1, 2]

    def test_missing_scores(self):
        with pytest.raises(ValidationError, match="scores"):
            apply_ordering([Document("a", "x")], "desc")


class TestChunking:
    def test_count_cap(self, vocab):
        docs = [Document(f"d{i}", "alpha") for i in range(150)]
        batches = chunk_into_batches(docs, "beta", vocab, 64, 100_000, 8)
        assert [len(b.documents) for b in batches] == [64, 64, 22]
        covered = [d.doc_id for b in batches for d in b.documents]
        assert covered == [f"d{i}" for i in range(150)]

    def test_single_doc(self, vocab):
        batches = chunk_into_batches([Document("a", "alpha")], "beta", vocab, 64, 4096, 8)
        assert len(batches) == 1 and len(batches[0].documents) == 1

    def test_token_budget_dominates(self, vocab):
        # docs of ~50 tokens against a budget that fits only ~3 per prompt
        docs = [Document(f"d{i}", "gamma " * 50) for i in range(10)]
        batches = chunk_into_batches(docs, "alpha", vocab, 64, 500, 120)
        assert all(len(b.documents) <= 3 for b in batches)
        assert sum(len(b.documents) for b in batches) == 10
        for b in batches:
            layout = build_prompt(b, vocab, 120)
            assert len(layout.token_ids) <= 500

    def test_unsatisfiable(self, vocab):
        with pytest.raises(ChunkingError):
            chunk_into_batches([Document("a", "alpha " * 100)], "beta", vocab, 64, 60, 150)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 60), min_size=1, max_size=20), st.integers(1, 8))
    def test_budget_never_exceeded(self, vocab, lengths, cap):
        docs = [Document(f"d{i}", "delta " * n) for i, n in enumerate(lengths)]
        max_context = 400
        try:
            batches = chunk_into_batches(docs, "alpha beta", vocab, cap, max_context, 64)
        except ChunkingError:
            return
        seen = []
        for b in batches:
            assert len(b.documents) <= cap
            layout = build_prompt(b, vocab, 64, max_context=max_context)
            assert len(layout.token_ids) <= max_context
            seen += [d.doc_id for d in b.documents]
        assert seen == [d.doc_id for d in docs]


def _reference_chunk_into_batches(documents, query, vocab, max_docs_per_pass,
                                  max_context, max_doc_tokens):
    """The packer as it was before packing from token counts: it assembles
    the whole prompt for every candidate it tries to add."""
    if max_docs_per_pass < 1:
        raise ValidationError("max_docs_per_pass must be >= 1")

    def fits(batch):
        try:
            build_prompt(RerankRequest(query=query, documents=batch),
                         vocab, max_doc_tokens, max_context=max_context)
            return True
        except ContextLengthError:
            return False

    batches, current = [], []
    for doc in documents:
        candidate = current + [doc]
        if len(candidate) <= max_docs_per_pass and fits(candidate):
            current = candidate
            continue
        if not current:
            raise ChunkingError(f"document {doc.doc_id!r} plus template overhead exceeds "
                                f"max_context={max_context}")
        batches.append(current)
        if not fits([doc]):
            raise ChunkingError(f"document {doc.doc_id!r} plus template overhead exceeds "
                                f"max_context={max_context}")
        current = [doc]
    if current:
        batches.append(current)
    return [RerankRequest(query=query, documents=b) for b in batches]


def _packing(chunker, *args):
    """Doc ids per batch, or the error class and message."""
    try:
        return [(b.query, [d.doc_id for d in b.documents]) for b in chunker(*args)]
    except ListrankError as exc:
        return type(exc), str(exc)


def _word_docs(lengths):
    # "delta" is one token, "zq" two byte tokens, each space one more
    return [Document(f"d{i}", " ".join(("delta", "zq")[(i + j) % 2] for j in range(n)))
            for i, n in enumerate(lengths)]


class TestPackingMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        n_docs=st.integers(1, 130),
        seed=st.integers(0, 2 ** 32 - 1),
        cap=st.one_of(st.integers(1, 8), st.integers(60, 140)),
        max_context=st.one_of(st.integers(100, 4000), st.just(100_000)),
        max_doc_tokens=st.integers(0, 40),
        query=st.sampled_from(["alpha beta", "zq gamma", "  "]),
    )
    def test_same_batches_or_error(self, vocab, n_docs, seed, cap, max_context,
                                   max_doc_tokens, query):
        rng = random.Random(seed)
        docs = _word_docs([rng.randint(0, 30) for _ in range(n_docs)])
        args = (docs, query, vocab, cap, max_context, max_doc_tokens)
        assert _packing(chunk_into_batches, *args) == _packing(_reference_chunk_into_batches, *args)

    @pytest.mark.parametrize("slack", [-1, 0, 1])
    def test_budget_edge_past_one_hundred_passages(self, vocab, slack):
        # numbers from 100 up are byte tokens, in the header and in id="101"
        docs = _word_docs([1] * 150)
        budget = len(build_prompt(RerankRequest("alpha", docs[:101]), vocab, 8).token_ids)
        args = (docs, "alpha", vocab, 200, budget + slack, 8)
        packing = _packing(chunk_into_batches, *args)
        assert packing == _packing(_reference_chunk_into_batches, *args)
        assert len(packing[0][1]) == (100 if slack < 0 else 101)

    @pytest.mark.parametrize("cap, sizes", [(150, [150]), (101, [101, 49]), (64, [64, 64, 22])])
    def test_count_bound_past_one_hundred_passages(self, vocab, cap, sizes):
        args = (_word_docs([2] * 150), "alpha", vocab, cap, 100_000, 8)
        packing = _packing(chunk_into_batches, *args)
        assert packing == _packing(_reference_chunk_into_batches, *args)
        assert [len(ids) for _, ids in packing] == sizes

    @pytest.mark.parametrize("where", [0, 5])
    def test_unsatisfiable_document(self, vocab, where):
        lengths = [3] * 10
        lengths[where] = 200
        args = (_word_docs(lengths), "alpha", vocab, 4, 300, 500)
        packing = _packing(chunk_into_batches, *args)
        assert packing == _packing(_reference_chunk_into_batches, *args)
        assert packing[0] is ChunkingError and f"'d{where}'" in packing[1]

    def test_empty_query(self, vocab):
        args = (_word_docs([3, 4]), " \n", vocab, 4, 4096, 8)
        assert _packing(chunk_into_batches, *args) == (ValidationError, "empty query")
        assert _packing(_reference_chunk_into_batches, *args) == (ValidationError, "empty query")


class TestRequestValidation:
    def test_needs_documents(self):
        with pytest.raises(ValidationError):
            RerankRequest("q", [])

    def test_unique_ids(self):
        with pytest.raises(ValidationError, match="duplicate"):
            RerankRequest("q", [Document("a", "x"), Document("a", "y")])
