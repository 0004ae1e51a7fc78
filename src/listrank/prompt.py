"""Tokenization and listwise prompt assembly.

The tokenizer is deliberately simple: known words plus byte-level
fallback, with whitespace encoded as byte tokens so detokenization is an
exact inverse for canonical text. Special tokens are atomic — they can
only be inserted programmatically, never produced by tokenizing text, so
adversarial document content cannot forge an embedding marker.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ListrankError

PAD = "<|pad|>"
IM_START = "<|im_start|>"
IM_END = "<|im_end|>"
DOC_EMB = "<|doc_emb|>"
QUERY_EMB = "<|query_emb|>"

SPECIALS = (PAD, IM_START, IM_END, DOC_EMB, QUERY_EMB)
_N_BYTE = 256
_PIECES = re.compile(r"\s|\S+")  # each whitespace character, and each run between them

SYSTEM_TEXT = (
    "You are a search relevance expert who can determine "
    "a ranking of passages based on their relevance to the query."
)
INSTRUCTION_FMT = (
    "I will provide you with {k} passages, each indicated by a numerical "
    "identifier. Rank the passages based on their relevance to query: "
)

# Words every vocabulary carries so the fixed template text tokenizes
# compactly (document/query content may still fall back to bytes).
_TEMPLATE_WORDS = tuple(
    (SYSTEM_TEXT + " " + INSTRUCTION_FMT.format(k=0)).split()
    + ["<passage", "</passage>", "<query>", "</query>", "system", "user"]
    + [f'id="{n}">' for n in range(1, 100)]
    + [str(n) for n in range(1, 100)]
)
_N_FIXED = len(SPECIALS) + _N_BYTE + len(set(_TEMPLATE_WORDS))  # ids before ``words``


class Vocabulary:
    """Bijective surface-form <-> id table with reserved special tokens.

    Id layout: specials 0..4, byte pieces <0x00>..<0xFF> at 5..260,
    words from 261 upward: the template's words, then ``words``.
    """

    def __init__(self, words: Iterable[str] = ()):
        self._surfaces: list[str] = list(SPECIALS)
        self._surfaces += [f"<0x{b:02X}>" for b in range(_N_BYTE)]
        self._word_ids: dict[str, int] = {}
        for w in [*_TEMPLATE_WORDS, *words]:
            self._add_word(w)
        self._segment_ids = {s: (i,) for i, s in enumerate(SPECIALS)}  # template segments only

    def _add_word(self, word: str):
        if not word or any(ch.isspace() for ch in word):
            raise ListrankError(f"invalid vocabulary word: {word!r}")
        if word in SPECIALS or word in self._word_ids:
            return
        self._word_ids[word] = len(self._surfaces)
        self._surfaces.append(word)

    def __len__(self):
        return len(self._surfaces)

    def special_id(self, surface: str) -> int:
        return SPECIALS.index(surface)

    def segment_ids(self, segment: str) -> tuple[int, ...]:
        """A template segment's ids: a special surface's id, or the text's tokens,
        tokenized the first time it is asked for."""
        if segment not in self._segment_ids:
            self._segment_ids[segment] = tuple(self.tokenize(segment))
        return self._segment_ids[segment]

    def surface(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._surfaces):
            raise ListrankError(f"token id {token_id} outside vocabulary of {len(self)}")
        return self._surfaces[token_id]

    def _byte_ids(self, chunk: str) -> list[int]:
        return [5 + b for b in chunk.encode("utf-8", "surrogateescape")]

    def tokenize(self, text: str) -> list[int]:
        """Encode plain text. Whitespace becomes byte pieces; unknown words
        fall back to byte pieces; special surfaces are never produced."""
        ids: list[int] = []
        for piece in _PIECES.findall(text):  # no word holds whitespace
            wid = self._word_ids.get(piece)
            ids += [wid] if wid is not None else self._byte_ids(piece)
        return ids

    def detokenize(self, ids: Sequence[int]) -> str:
        """Inverse of ``tokenize`` up to the documented canonicalization
        (adjacent byte runs merge; words are emitted verbatim)."""
        parts: list[str] = []
        pending: list[int] = []

        def flush():
            if pending:
                parts.append(bytes(pending).decode("utf-8", "surrogateescape"))
                pending.clear()

        for tid in ids:
            surface = self.surface(tid)
            if 5 <= tid < 5 + _N_BYTE:
                pending.append(tid - 5)
            else:
                flush()
                parts.append(surface)
        flush()
        return "".join(parts)

    @property
    def words(self) -> list[str]:
        """The words added after the template's, in id order, e.g. for model meta."""
        return self._surfaces[_N_FIXED:]

    @classmethod
    def from_words(cls, words) -> "Vocabulary":
        """Inverse of ``words``; refuses any list that ``words`` would not give
        back: a repeated word, a template word or a special surface."""
        if not (isinstance(words, list) and all(isinstance(w, str) for w in words)):
            raise ListrankError("vocabulary must be a list of words")
        vocab = cls(words)
        if vocab.words != words:
            raise ListrankError("vocabulary repeats a word or holds a template or special one")
        return vocab


@dataclass
class Document:
    doc_id: str
    text: str
    first_stage_score: Optional[float] = None


@dataclass
class RerankRequest:
    query: str
    documents: list[Document]

    def __post_init__(self):
        if not self.query.strip():
            raise ListrankError("empty query")
        if not self.documents:
            raise ListrankError("request needs at least one document")
        ids = [d.doc_id for d in self.documents]
        if len(set(ids)) != len(ids):
            raise ListrankError("duplicate doc_ids in request")


@dataclass
class PromptLayout:
    token_ids: list[int]
    doc_marker_positions: list[int]
    query_marker_position: int
    dual_query_marker_position: Optional[int]


ORDERINGS = ("given", "desc", "asc", "random")  # orders candidates can be shown in


def apply_ordering(
    documents: Sequence[Document], ordering: str, seed: Optional[int] = None
) -> list[Document]:
    """The candidates in the order they are shown: as given, by descending
    or ascending first-stage score (ties keep the given order), or in a
    seeded random order."""
    if ordering not in ORDERINGS:
        raise ListrankError(f"unknown ordering {ordering!r}, expected one of {ORDERINGS}")
    if ordering == "given":
        return list(documents)
    if ordering == "random":
        if seed is None:
            raise ListrankError("random ordering requires a seed")
        return [documents[i] for i in np.random.default_rng(seed).permutation(len(documents))]
    if any(d.first_stage_score is None for d in documents):
        raise ListrankError(f"ordering {ordering!r} requires first-stage scores")
    sign = -1 if ordering == "desc" else 1
    return sorted(documents, key=lambda d: sign * d.first_stage_score)  # stable


# The listwise template, as the segments ``build_prompt`` emits in order: a
# special-token surface or text that meets its neighbours at whitespace, so
# tokenizing segment by segment gives the ids of the joined text; a vocabulary
# keeps each segment's ids (``Vocabulary.segment_ids``). ``_QUERY`` stands for
# the query, tokenized once per prompt: the text before it ends in whitespace
# (": " and "\n"). The passage count and each passage id are segments of their
# own (numbers from 100 up are byte tokens), so packing costs them exactly.
_BEFORE_K, _AFTER_K = INSTRUCTION_FMT.split("{k}")
_QUERY = object()
_SYSTEM_BLOCK = (IM_START, "system\n" + SYSTEM_TEXT + "\n", IM_END, "\n")
_PASSAGE_CLOSE = (DOC_EMB, "\n</passage>\n")
_QUERY_BLOCK = ("\n<query>\n", _QUERY, QUERY_EMB, "\n</query>\n", IM_END)


def _user_header(k: int, dual_marker: bool = False) -> list:
    return [IM_START, "user\n" + _BEFORE_K, str(k), _AFTER_K, _QUERY,
            *([QUERY_EMB] if dual_marker else []), "\n\n"]


def _passage_open(slot: int) -> str:
    return f'<passage id="{slot}">\n'


def check_limits(max_doc_tokens: int, max_docs_per_pass: int = 1) -> None:
    """Refuse a per-pass limit below 1; reads no input, so callers can check first."""
    if max_docs_per_pass < 1:
        raise ListrankError(f"max_docs_per_pass must be >= 1, got {max_docs_per_pass}")
    if max_doc_tokens < 1:  # a slice to 0 or below would drop tokens silently
        raise ListrankError(f"max_doc_tokens must be >= 1, got {max_doc_tokens}")


def build_prompt(
    query: str,
    vocab: Vocabulary,
    passages: Sequence[list[int]],
    insert_dual_query_marker: bool = False,
    max_context: Optional[int] = None,
) -> PromptLayout:
    """Assemble the listwise prompt and record every marker position.

    ``passages`` are the passages' token ids, already truncated, in the
    order they are shown; the prompt emits them as given. Structure:
    system block, user block with instruction + query, one
    ``<passage id="n">`` block per passage (its tokens, marker as final
    passage token), then the trailing ``<query>`` block with the query
    marker, closed by the end-of-turn token. The dual query marker, when
    requested, lands immediately after the first query occurrence.
    """
    if not query.strip():
        raise ListrankError("empty query")

    ids: list[int] = []
    markers: dict[str, list[int]] = {DOC_EMB: [], QUERY_EMB: []}
    query_ids = vocab.tokenize(query)

    def emit(segments: Iterable):
        for segment in segments:
            if segment in markers:
                markers[segment].append(len(ids))
            ids.extend(query_ids if segment is _QUERY else vocab.segment_ids(segment))

    emit(_SYSTEM_BLOCK)
    emit(_user_header(len(passages), insert_dual_query_marker))
    for slot, tokens in enumerate(passages, start=1):
        emit([_passage_open(slot)])
        ids.extend(tokens)
        emit(_PASSAGE_CLOSE)
    emit(_QUERY_BLOCK)

    if max_context is not None and len(ids) > max_context:
        raise ListrankError(
            f"assembled prompt is {len(ids)} tokens, max_context is {max_context}"
        )
    return PromptLayout(
        token_ids=ids,
        doc_marker_positions=markers[DOC_EMB],
        query_marker_position=markers[QUERY_EMB][-1],
        dual_query_marker_position=markers[QUERY_EMB][0] if insert_dual_query_marker else None,
    )


def chunk_into_batches(
    documents: Sequence[Document],
    query: str,
    vocab: Vocabulary,
    max_docs_per_pass: int,
    max_context: int,
    max_doc_tokens: int,
) -> list[list[tuple[Document, list[int]]]]:
    """Greedy in-order packing under both the per-pass document cap and the
    assembled token budget. Passage ids restart at 1 within each batch.

    Each document is tokenized and truncated to ``max_doc_tokens`` once; a
    batch is its ``(document, tokens)`` pairs, and its prompt length is the
    sum of its template segments and its passages' tokens."""
    check_limits(max_doc_tokens, max_docs_per_pass)
    if not query.strip():
        raise ListrankError("empty query")

    n_query = len(vocab.tokenize(query))

    def length(segment) -> int:
        return n_query if segment is _QUERY else len(vocab.segment_ids(segment))

    # templates for different passage counts differ only in the segment str(k)
    fixed = sum(map(length, [*_SYSTEM_BLOCK, *_user_header(1), *_QUERY_BLOCK]))
    fixed -= length("1")
    close = sum(map(length, _PASSAGE_CLOSE))

    def template(k: int) -> int:
        return fixed + length(str(k))

    def passage(slot: int, n_tokens: int) -> int:
        return length(_passage_open(slot)) + close + n_tokens

    batches: list[list[tuple[Document, list[int]]]] = []
    current: list[tuple[Document, list[int]]] = []
    body = 0  # tokens of the passages in ``current``
    for doc in documents:
        tokens = vocab.tokenize(doc.text)[:max_doc_tokens]
        k = len(current) + 1
        if k <= max_docs_per_pass and template(k) + body + passage(k, len(tokens)) <= max_context:
            current.append((doc, tokens))
            body += passage(k, len(tokens))
            continue
        if current:
            batches.append(current)
        current, body = [(doc, tokens)], passage(1, len(tokens))
        if template(1) + body > max_context:
            raise ListrankError(
                f"document {doc.doc_id!r} plus template overhead exceeds "
                f"max_context={max_context}"
            )
    if current:
        batches.append(current)
    return batches
