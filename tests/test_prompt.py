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
    VocabularyError,
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
    check_limits,
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


def _reference_tokenize(vocab, text):
    """The tokenizer as a character scanner: each whitespace character is
    its byte pieces, each run between them a word or its byte pieces."""
    ids, i, n = [], 0, len(text)
    while i < n:
        if text[i].isspace():
            ids += vocab._byte_ids(text[i])
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        word = text[i:j]
        wid = vocab._word_ids.get(word)
        ids += [wid] if wid is not None else vocab._byte_ids(word)
        i = j
    return ids


# arbitrary text, known words and Unicode whitespace beyond ASCII
mixed_text = st.lists(st.one_of(
    st.text(), st.sampled_from(["alpha", "beta", " ", "\x1c", "\x85", "\u00a0", "\u2028",
                                "\u3000", "\u200b", "\t\r\n"])), max_size=12).map("".join)


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

    @settings(max_examples=200, deadline=None)
    @given(mixed_text)
    def test_matches_the_character_scanner(self, vocab, text):
        assert vocab.tokenize(text) == _reference_tokenize(vocab, text)

    def test_entries_roundtrip(self, vocab):
        loaded = Vocabulary.from_entries(vocab.entries())
        assert len(loaded) == len(vocab)
        text = "alpha zz gamma"
        assert loaded.tokenize(text) == vocab.tokenize(text)

    @pytest.mark.parametrize("tamper", [
        lambda e: e[3].__setitem__(0, "<|passage_emb|>"),
        lambda e: e[4].__setitem__(2, False),
        lambda e: e[-1].__setitem__(0, "two words"),
        lambda e: e[-1].__setitem__(0, e[-2][0]),
        lambda e: e[70].__setitem__(0, "<0xZZ>"),
    ], ids=["renamed special", "special flag off", "word with a space", "duplicate word",
            "renamed byte piece"])
    def test_entries_that_do_not_roundtrip(self, vocab, tamper):
        entries = vocab.entries()
        tamper(entries)
        with pytest.raises(VocabularyError):
            Vocabulary.from_entries(entries)

    def test_bijection(self, vocab):
        surfaces = [vocab.surface(i) for i in range(len(vocab))]
        assert len(set(surfaces)) == len(surfaces)


def _passages(vocab, texts, max_doc_tokens=8):
    return [vocab.tokenize(t)[:max_doc_tokens] for t in texts]


class TestBuildPrompt:
    def test_structure_two_docs(self, vocab):
        layout = build_prompt("alpha beta", vocab, _passages(vocab, ["alpha", "beta"]))
        assert len(layout.doc_marker_positions) == 2
        assert layout.doc_marker_positions[0] < layout.doc_marker_positions[1]
        assert layout.doc_marker_positions[1] < layout.query_marker_position
        for pos in layout.doc_marker_positions:
            assert layout.token_ids[pos] == vocab.special_id(DOC_EMB)
        assert layout.token_ids[layout.query_marker_position] == vocab.special_id(QUERY_EMB)

    def test_truncation_to_max_doc_tokens(self, vocab):
        long_doc = " ".join(["alpha"] * 1000)
        [[(_, tokens)]] = chunk_into_batches([Document("a", long_doc)], "beta", vocab,
                                             64, 100_000, 768)
        layout = build_prompt("beta", vocab, [tokens])
        start = layout.token_ids.index(vocab.tokenize("alpha")[0])
        doc_tokens = layout.doc_marker_positions[0] - start
        assert doc_tokens == 768

    def test_dual_marker_placement(self, vocab):
        passages = _passages(vocab, ["beta", "gamma"])
        layout = build_prompt("alpha", vocab, passages, insert_dual_query_marker=True)
        qe = vocab.special_id(QUERY_EMB)
        positions = [i for i, t in enumerate(layout.token_ids) if t == qe]
        assert positions == [layout.dual_query_marker_position, layout.query_marker_position]
        # the dual marker precedes every passage block
        assert layout.dual_query_marker_position < min(layout.doc_marker_positions)
        # exactly one extra marker relative to the inference prompt
        plain = build_prompt("alpha", vocab, passages)
        assert len(positions) == 1 + sum(
            1 for t in plain.token_ids if t == qe
        )

    def test_empty_query(self, vocab):
        with pytest.raises(ValidationError, match="query"):
            build_prompt("  ", vocab, _passages(vocab, ["alpha"]))

    def test_overflow(self, vocab):
        passages = _passages(vocab, ["beta gamma " * 50], max_doc_tokens=200)
        with pytest.raises(ContextLengthError) as exc:
            build_prompt("alpha", vocab, passages, max_context=64)
        assert exc.value.measured > 64

    def test_marker_self_consistency(self, vocab):
        passages = _passages(vocab, [f"{c} gamma" for c in "abcde"])
        layout = build_prompt("alpha beta", vocab, passages, insert_dual_query_marker=True)
        # re-derive the marker positions from the raw token ids
        ids = layout.token_ids
        docs = [i for i, t in enumerate(ids) if t == vocab.special_id(DOC_EMB)]
        queries = [i for i, t in enumerate(ids) if t == vocab.special_id(QUERY_EMB)]
        assert docs == layout.doc_marker_positions
        assert queries == [layout.dual_query_marker_position, layout.query_marker_position]

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_golden_files(self, vocab, k):
        passages = _passages(vocab, [f"alpha beta doc{i} body" for i in range(k)], 32)
        layout = build_prompt("what is listwise reranking", vocab, passages)
        expected = (GOLDEN / f"prompt_k{k}.txt").read_text(encoding="utf-8")
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
        assert [len(b) for b in batches] == [64, 64, 22]
        covered = [d.doc_id for b in batches for d, _ in b]
        assert covered == [f"d{i}" for i in range(150)]

    def test_single_doc(self, vocab):
        batches = chunk_into_batches([Document("a", "alpha")], "beta", vocab, 64, 4096, 8)
        assert batches == [[(Document("a", "alpha"), vocab.tokenize("alpha"))]]

    def test_token_budget_dominates(self, vocab):
        # docs of ~50 tokens against a budget that fits only ~3 per prompt
        docs = [Document(f"d{i}", "gamma " * 50) for i in range(10)]
        batches = chunk_into_batches(docs, "alpha", vocab, 64, 500, 120)
        assert all(len(b) <= 3 for b in batches)
        assert sum(len(b) for b in batches) == 10
        for b in batches:
            layout = build_prompt("alpha", vocab, [tokens for _, tokens in b])
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
            assert len(b) <= cap
            layout = build_prompt("alpha beta", vocab, [tokens for _, tokens in b],
                                  max_context=max_context)
            assert len(layout.token_ids) <= max_context
            seen += [d.doc_id for d, _ in b]
        assert seen == [d.doc_id for d in docs]


def _reference_chunk_into_batches(documents, query, vocab, max_docs_per_pass,
                                  max_context, max_doc_tokens):
    """The packer as it was before packing from token counts: it assembles
    the whole prompt for every candidate it tries to add."""
    if max_docs_per_pass < 1:
        raise ValidationError("max_docs_per_pass must be >= 1")
    check_limits(max_doc_tokens)

    def passages(batch):
        return [vocab.tokenize(d.text)[:max_doc_tokens] for d in batch]

    def fits(batch):
        try:
            build_prompt(query, vocab, passages(batch), max_context=max_context)
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
    return [list(zip(b, passages(b))) for b in batches]


def _packing(chunker, *args):
    """Doc ids and passage tokens per batch, or the error class and message."""
    try:
        return [[(d.doc_id, tokens) for d, tokens in b] for b in chunker(*args)]
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
        budget = len(build_prompt("alpha", vocab, _passages(vocab, [d.text for d in docs[:101]]))
                     .token_ids)
        args = (docs, "alpha", vocab, 200, budget + slack, 8)
        packing = _packing(chunk_into_batches, *args)
        assert packing == _packing(_reference_chunk_into_batches, *args)
        assert len(packing[0]) == (100 if slack < 0 else 101)

    @pytest.mark.parametrize("cap, sizes", [(150, [150]), (101, [101, 49]), (64, [64, 64, 22])])
    def test_count_bound_past_one_hundred_passages(self, vocab, cap, sizes):
        args = (_word_docs([2] * 150), "alpha", vocab, cap, 100_000, 8)
        packing = _packing(chunk_into_batches, *args)
        assert packing == _packing(_reference_chunk_into_batches, *args)
        assert [len(b) for b in packing] == sizes

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
