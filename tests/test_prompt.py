import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listrank.errors import ListrankError
from listrank.prompt import (
    DOC_EMB,
    IM_END,
    IM_START,
    INSTRUCTION_FMT,
    QUERY_EMB,
    SPECIALS,
    SYSTEM_TEXT,
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


_NOT_ROUNDTRIP = "vocabulary repeats a word or holds a template or special one"


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
        assert vocab.words == ["alpha", "beta", "gamma", "delta", "epsilon"]
        loaded = Vocabulary.from_words(vocab.words)
        assert len(loaded) == len(vocab)
        text = "alpha zz gamma"
        assert loaded.tokenize(text) == vocab.tokenize(text)

    @pytest.mark.parametrize("tamper, message", [
        (lambda w: w.__setitem__(-1, "two words"), "invalid vocabulary word: 'two words'"),
        (lambda w: w.__setitem__(-1, w[-2]), _NOT_ROUNDTRIP),
        (lambda w: w.append("passages"), _NOT_ROUNDTRIP),
        (lambda w: w.append(DOC_EMB), _NOT_ROUNDTRIP),
        (lambda w: w.append(3), "vocabulary must be a list of words"),
    ], ids=["word with a space", "duplicate word", "template word", "special surface",
            "non-string"])
    def test_entries_that_do_not_roundtrip(self, vocab, tamper, message):
        words = vocab.words
        tamper(words)
        with pytest.raises(ListrankError, match=f"^{re.escape(message)}$"):
            Vocabulary.from_words(words)

    def test_bijection(self, vocab):
        surfaces = [vocab.surface(i) for i in range(len(vocab))]
        assert len(set(surfaces)) == len(surfaces)


def _passages(vocab, texts, max_doc_tokens=8):
    return [vocab.tokenize(t)[:max_doc_tokens] for t in texts]


def _reference_build_prompt(query, vocab, passages, insert_dual_query_marker=False):
    """The prompt with each text run between special tokens and passages
    tokenized whole, so the query is tokenized joined to the template text
    around it."""
    if not query.strip():
        raise ListrankError("empty query")
    before_k, after_k = INSTRUCTION_FMT.split("{k}")
    parts = [IM_START, "system\n" + SYSTEM_TEXT + "\n", IM_END, "\n", IM_START,
             "user\n" + before_k + str(len(passages)) + after_k + query,
             *([QUERY_EMB] if insert_dual_query_marker else []), "\n\n"]
    for slot, tokens in enumerate(passages, start=1):
        parts += [f'<passage id="{slot}">\n', tokens, DOC_EMB, "\n</passage>\n"]
    parts += ["\n<query>\n" + query, QUERY_EMB, "\n</query>\n", IM_END]
    ids, markers, text = [], {special: [] for special in SPECIALS}, ""
    for part in parts:
        if isinstance(part, str) and part not in SPECIALS:
            text += part
            continue
        ids, text = ids + vocab.tokenize(text), ""
        if isinstance(part, list):
            ids += part
        else:
            markers[part].append(len(ids))
            ids.append(vocab.special_id(part))
    return PromptLayout(ids, markers[DOC_EMB], markers[QUERY_EMB][-1],
                        markers[QUERY_EMB][0] if insert_dual_query_marker else None)


def _layout(build, *args):
    try:
        return build(*args)
    except ListrankError as exc:
        return str(exc)


# queries with edge whitespace, template words and markup, and non-ASCII text
queries = st.lists(st.one_of(
    st.text(max_size=6),
    st.sampled_from([" ", "\n", "\t", "\u00a0", "\u3000", "\u2028", "alpha", "Rank",
                     "passages", "query:", "<query>", "</query>", "<passage", 'id="3">',
                     "</passage>", '<passage id="1">', "system", "user", "100", DOC_EMB,
                     "\u00e9", "\u65e5\u672c\u8a9e"])), min_size=1, max_size=8).map("".join)


class TestTemplateIds:
    @settings(max_examples=150, deadline=None)
    @given(query=queries, texts=st.lists(mixed_text, max_size=4), dual=st.booleans())
    def test_build_prompt_matches_whole_text_runs(self, vocab, query, texts, dual):
        args = (query, vocab, _passages(vocab, texts), dual)
        assert _layout(build_prompt, *args) == _layout(_reference_build_prompt, *args)

    @settings(max_examples=80, deadline=None)
    @given(query=queries, lengths=st.lists(st.integers(0, 30), min_size=1, max_size=40),
           cap=st.integers(1, 12), max_context=st.integers(100, 1500),
           max_doc_tokens=st.integers(1, 40))
    def test_chunking_matches_whole_text_runs(self, vocab, query, lengths, cap, max_context,
                                              max_doc_tokens):
        args = (_word_docs(lengths), query, vocab, cap, max_context, max_doc_tokens)
        expected = _packing(_reference_chunk_into_batches, *args)
        assert _packing(chunk_into_batches, *args) == expected

    def test_only_template_segments_are_kept(self):
        vocab = Vocabulary(["alpha"])
        passages = _passages(vocab, ["alpha beta", "gamma"])
        build_prompt("alpha one", vocab, passages, insert_dual_query_marker=True)
        chunk_into_batches(_word_docs([3, 4]), "alpha one", vocab, 2, 4096, 8)
        kept = dict(vocab._segment_ids)
        build_prompt("zq two", vocab, passages, insert_dual_query_marker=True)
        chunk_into_batches(_word_docs([5, 6]), "zq two", vocab, 2, 4096, 8)
        assert vocab._segment_ids == kept
        assert not any(word in segment for segment in kept for word in ("one", "beta", "delta"))


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
        with pytest.raises(ListrankError, match="query"):
            build_prompt("  ", vocab, _passages(vocab, ["alpha"]))

    def test_overflow(self, vocab):
        passages = _passages(vocab, ["beta gamma " * 50], max_doc_tokens=200)
        with pytest.raises(ListrankError, match="max_context is 64") as exc:
            build_prompt("alpha", vocab, passages, max_context=64)
        measured = re.fullmatch(r"assembled prompt is (\d+) tokens, max_context is 64",
                                str(exc.value))
        assert measured and int(measured[1]) > 64

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

    def _ids(self, docs):
        return [d.doc_id for d in docs]

    def test_descending(self):
        assert self._ids(apply_ordering(self._docs([0.2, 0.9, 0.5]), "desc")) == ["d1", "d2", "d0"]

    def test_ascending_reverses_descending(self):
        docs = self._docs([0.3, 0.8, 0.1, 0.6])
        desc = self._ids(apply_ordering(docs, "desc"))
        asc = self._ids(apply_ordering(docs, "asc"))
        assert asc == desc[::-1]

    def test_random_deterministic(self):
        docs = self._docs([0.1] * 6)
        a = self._ids(apply_ordering(docs, "random", seed=7))
        b = self._ids(apply_ordering(docs, "random", seed=7))
        assert a == b and sorted(a) == self._ids(docs)

    def test_stable_ties(self):
        docs = self._docs([0.5, 0.5, 0.5])
        assert self._ids(apply_ordering(docs, "desc")) == ["d0", "d1", "d2"]
        assert self._ids(apply_ordering(docs, "asc")) == ["d0", "d1", "d2"]

    def test_missing_scores(self):
        with pytest.raises(ListrankError, match="scores"):
            apply_ordering([Document("a", "x")], "desc")

    def test_given_is_a_copy(self):
        docs = self._docs([0.2, 0.9])
        shown = apply_ordering(docs, "given")
        assert shown == docs and shown is not docs

    def test_random_needs_a_seed(self):
        with pytest.raises(ListrankError, match="seed"):
            apply_ordering(self._docs([0.1, 0.2]), "random")

    @pytest.mark.parametrize("ordering", ["bogus", "", "DESC"])
    def test_unknown_ordering(self, ordering):
        with pytest.raises(ListrankError, match=f"unknown ordering {ordering!r}"):
            apply_ordering(self._docs([0.1]), ordering)


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
        with pytest.raises(ListrankError, match="document 'a' plus template overhead exceeds "
                                                "max_context=60"):
            chunk_into_batches([Document("a", "alpha " * 100)], "beta", vocab, 64, 60, 150)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 60), min_size=1, max_size=20), st.integers(1, 8))
    def test_budget_never_exceeded(self, vocab, lengths, cap):
        docs = [Document(f"d{i}", "delta " * n) for i, n in enumerate(lengths)]
        max_context = 400
        try:
            batches = chunk_into_batches(docs, "alpha beta", vocab, cap, max_context, 64)
        except ListrankError as exc:
            assert "plus template overhead exceeds max_context=400" in str(exc)
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
        raise ListrankError("max_docs_per_pass must be >= 1")
    check_limits(max_doc_tokens)

    def passages(batch):
        return [vocab.tokenize(d.text)[:max_doc_tokens] for d in batch]

    def fits(batch):
        return len(_reference_build_prompt(query, vocab, passages(batch)).token_ids) <= max_context

    batches, current = [], []
    for doc in documents:
        candidate = current + [doc]
        if len(candidate) <= max_docs_per_pass and fits(candidate):
            current = candidate
            continue
        if not current:
            raise ListrankError(f"document {doc.doc_id!r} plus template overhead exceeds "
                                f"max_context={max_context}")
        batches.append(current)
        if not fits([doc]):
            raise ListrankError(f"document {doc.doc_id!r} plus template overhead exceeds "
                                f"max_context={max_context}")
        current = [doc]
    if current:
        batches.append(current)
    return [list(zip(b, passages(b))) for b in batches]


def _packing(chunker, *args):
    """Doc ids and passage tokens per batch, or the error message."""
    try:
        return [[(d.doc_id, tokens) for d, tokens in b] for b in chunker(*args)]
    except ListrankError as exc:
        return str(exc)


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
        assert packing == (f"document 'd{where}' plus template overhead exceeds "
                           "max_context=300")

    def test_empty_query(self, vocab):
        args = (_word_docs([3, 4]), " \n", vocab, 4, 4096, 8)
        assert _packing(chunk_into_batches, *args) == "empty query"
        assert _packing(_reference_chunk_into_batches, *args) == "empty query"


class TestRequestValidation:
    def test_blank_query(self):
        with pytest.raises(ListrankError, match="^empty query$"):
            RerankRequest(" \n", [Document("a", "x")])

    def test_needs_documents(self):
        with pytest.raises(ListrankError, match="request needs at least one document"):
            RerankRequest("q", [])

    def test_unique_ids(self):
        with pytest.raises(ListrankError, match="duplicate"):
            RerankRequest("q", [Document("a", "x"), Document("a", "y")])
