"""Tokenization and listwise prompt assembly.

The tokenizer is deliberately simple: known words plus byte-level
fallback, with whitespace encoded as byte tokens so detokenization is an
exact inverse for canonical text. Special tokens are atomic — they can
only be inserted programmatically, never produced by tokenizing text, so
adversarial document content cannot forge an embedding marker.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    ChunkingError,
    ContextLengthError,
    ValidationError,
    VocabularyError,
)

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


class Vocabulary:
    """Bijective surface-form <-> id table with reserved special tokens.

    Id layout: specials 0..4, byte pieces <0x00>..<0xFF> at 5..260,
    words from 261 upward.
    """

    def __init__(self, words: Iterable[str] = (), include_template: bool = True):
        self._surfaces: list[str] = list(SPECIALS)
        self._surfaces += [f"<0x{b:02X}>" for b in range(_N_BYTE)]
        self._word_ids: dict[str, int] = {}
        seed_words = list(_TEMPLATE_WORDS) if include_template else []
        for w in seed_words + list(words):
            self._add_word(w)
        self._special_ids = {s: i for i, s in enumerate(SPECIALS)}

    def _add_word(self, word: str):
        if not word or any(ch.isspace() for ch in word):
            raise VocabularyError(f"invalid vocabulary word: {word!r}")
        if word in SPECIALS or word in self._word_ids:
            return
        self._word_ids[word] = len(self._surfaces)
        self._surfaces.append(word)

    def __len__(self):
        return len(self._surfaces)

    def special_id(self, surface: str) -> int:
        return self._special_ids[surface]

    def surface(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._surfaces):
            raise VocabularyError(f"token id {token_id} outside vocabulary of {len(self)}")
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

    def entries(self) -> list[list]:
        """Serializable (surface, id, special) triples, e.g. for model meta."""
        return [[s, i, i < len(SPECIALS)] for i, s in enumerate(self._surfaces)]

    @classmethod
    def from_entries(cls, entries) -> "Vocabulary":
        """Inverse of ``entries``; refuses any list that ``entries`` would not give back."""
        # type() rather than isinstance: JSON true/false is not an id
        if not (isinstance(entries, list) and all(
                isinstance(e, list) and len(e) == 3 and isinstance(e[0], str)
                and type(e[1]) is int for e in entries)
                and sorted(e[1] for e in entries) == list(range(len(entries)))):
            raise VocabularyError("vocabulary must be a list of [surface, id, special] "
                                  "entries with ids 0..n-1")
        entries = sorted(entries, key=lambda e: e[1])
        vocab = cls([e[0] for e in entries[len(SPECIALS) + _N_BYTE:]], include_template=False)
        if vocab.entries() != entries:
            raise VocabularyError("vocabulary entries are not the specials, the byte "
                                  "pieces and distinct words in id order")
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
    ordering: str = "given"  # given | desc | asc | random
    ordering_seed: Optional[int] = None

    def __post_init__(self):
        if not self.documents:
            raise ValidationError("request needs at least one document")
        ids = [d.doc_id for d in self.documents]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate doc_ids in request")
        if self.ordering not in ("given", "desc", "asc", "random"):
            raise ValidationError(f"unknown ordering {self.ordering!r}")


@dataclass
class PromptLayout:
    token_ids: list[int]
    doc_marker_positions: list[int]
    query_marker_position: int
    dual_query_marker_position: Optional[int]


def apply_ordering(
    documents: Sequence[Document], ordering: str, seed: Optional[int] = None
) -> tuple[list[Document], list[int]]:
    """Permute candidates by first-stage score (or randomly), returning the
    permuted list and the slot -> original-index mapping."""
    n = len(documents)
    if ordering == "given":
        perm = list(range(n))
    elif ordering in ("desc", "asc"):
        if any(d.first_stage_score is None for d in documents):
            raise ValidationError(f"ordering {ordering!r} requires first-stage scores")
        reverse = ordering == "desc"
        perm = sorted(
            range(n),
            key=lambda i: (-documents[i].first_stage_score if reverse
                           else documents[i].first_stage_score, i),
        )
    elif ordering == "random":
        if seed is None:
            raise ValidationError("random ordering requires a seed")
        perm = list(np.random.default_rng(seed).permutation(n))
    else:
        raise ValidationError(f"unknown ordering {ordering!r}")
    return [documents[i] for i in perm], [int(i) for i in perm]


# The listwise template, as the segments ``build_prompt`` emits in order: a
# special-token surface or text that meets its neighbours at whitespace, so
# tokenizing segment by segment gives the ids of the joined text. The passage
# count and each passage id are in segments of their own (numbers from 100 up
# are byte tokens), so packing costs them exactly without assembling a prompt.
_BEFORE_K, _AFTER_K = INSTRUCTION_FMT.split("{k}")
_SYSTEM_BLOCK = (IM_START, "system\n" + SYSTEM_TEXT + "\n", IM_END, "\n")
_PASSAGE_CLOSE = (DOC_EMB, "\n</passage>\n")


def _user_header(k: int, query: str, dual_marker: bool = False) -> list[str]:
    return [IM_START, "user\n" + _BEFORE_K, str(k), _AFTER_K + query,
            *([QUERY_EMB] if dual_marker else []), "\n\n"]


def _passage_open(slot: int) -> str:
    return f'<passage id="{slot}">\n'


def _query_block(query: str) -> list[str]:
    return ["\n<query>\n" + query, QUERY_EMB, "\n</query>\n", IM_END]


def check_limits(max_doc_tokens: int, max_docs_per_pass: int = 1) -> None:
    """Refuse a per-pass limit below 1; reads no input, so callers can check first."""
    if max_docs_per_pass < 1:
        raise ValidationError(f"max_docs_per_pass must be >= 1, got {max_docs_per_pass}")
    if max_doc_tokens < 1:  # a slice to 0 or below would drop tokens silently
        raise ValidationError(f"max_doc_tokens must be >= 1, got {max_doc_tokens}")


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
        raise ValidationError("empty query")

    ids: list[int] = []
    markers: dict[str, list[int]] = {DOC_EMB: [], QUERY_EMB: []}

    def emit(segments: Iterable[str]):
        for segment in segments:
            if segment in markers:
                markers[segment].append(len(ids))
            if segment in SPECIALS:
                ids.append(vocab.special_id(segment))
            else:
                ids.extend(vocab.tokenize(segment))

    emit(_SYSTEM_BLOCK)
    emit(_user_header(len(passages), query, insert_dual_query_marker))
    for slot, tokens in enumerate(passages, start=1):
        emit([_passage_open(slot)])
        ids.extend(tokens)
        emit(_PASSAGE_CLOSE)
    emit(_query_block(query))

    if max_context is not None and len(ids) > max_context:
        raise ContextLengthError(
            f"assembled prompt is {len(ids)} tokens, max_context is {max_context}",
            measured=len(ids), limit=max_context,
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
        raise ValidationError("empty query")

    @functools.cache
    def length(segment: str) -> int:
        return 1 if segment in SPECIALS else len(vocab.tokenize(segment))

    def template(k: int) -> int:
        return sum(map(length, [*_SYSTEM_BLOCK, *_user_header(k, query), *_query_block(query)]))

    def passage(slot: int, n_tokens: int) -> int:
        return sum(map(length, [_passage_open(slot), *_PASSAGE_CLOSE])) + n_tokens

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
            raise ChunkingError(
                f"document {doc.doc_id!r} plus template overhead exceeds "
                f"max_context={max_context}"
            )
    if current:
        batches.append(current)
    return batches
