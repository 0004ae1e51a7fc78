"""Property tests: every file listrank writes reads back as what was written."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from listrank.checkpoint import (jsonl_bytes, load_checkpoint, parse_json, save_checkpoint,
                                 write_atomic)
from listrank.evaluation import (
    SyntheticCorpus,
    lexical_overlap_scorer,
    load_corpus_files,
    load_run,
    read_lines,
    write_corpus_files,
)
from listrank.prompt import Document, RerankRequest
from listrank.reranker import RankedEntry, RankedResult, read_requests, write_run
from listrank.trainer import StageConfig

# ids as the readers take them: one word, since the TREC files split on whitespace
ids = st.text(min_size=1, max_size=12).filter(lambda s: s.split() == [s])

# JSON values parse_json accepts: finite floats and integers a float can hold
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 63, 2 ** 63)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """One directory that every example of a test may overwrite."""
    return tmp_path_factory.mktemp("roundtrip")


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(ids, st.lists(st.tuples(ids, st.none() | st.floats(-1.0, 1.0)),
                                     min_size=1, max_size=6, unique_by=lambda t: t[0]),
                       max_size=4))
def test_run_file(work, rows):
    results = {qid: RankedResult([RankedEntry(did, score, rank, 0)
                                  for rank, (did, score) in enumerate(docs, 1)], "given")
               for qid, docs in rows.items()}
    write_run(work / "run.txt", results)
    run = load_run(work / "run.txt")
    assert list(run) == list(rows)
    for qid, docs in rows.items():
        assert [did for did, _ in run[qid]] == [did for did, _ in docs]
        for (_, read), (_, score) in zip(run[qid], docs):
            assert read == (-2.0 if score is None else score)


@st.composite
def corpora(draw):
    doc_ids = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    docs = {did: draw(st.text(max_size=20)) for did in doc_ids}
    queries, candidates, qrels = [], {}, {}
    for qid in draw(st.lists(ids, max_size=4, unique=True)):
        queries.append((qid, draw(st.text(max_size=20).filter(str.strip))))  # no blank query
        candidates[qid] = draw(st.lists(st.sampled_from(doc_ids), min_size=1, unique=True))
        rels = [0] * len(candidates[qid])  # training takes exactly one positive per query
        rels[draw(st.integers(0, len(rels) - 1))] = draw(st.integers(1, 3))
        qrels[qid] = dict(zip(candidates[qid], rels))
    return SyntheticCorpus(queries=queries, docs=docs, candidates=candidates, qrels=qrels)


@settings(max_examples=100, deadline=None)
@given(corpora())
def test_corpus_files(work, corpus):
    write_corpus_files(corpus, work)
    loaded = load_corpus_files(work)
    assert loaded.queries == corpus.queries
    assert loaded.docs == corpus.docs
    assert loaded.qrels == corpus.qrels
    assert loaded.candidates == {qid: sorted(c) for qid, c in corpus.candidates.items()}
    assert read_requests(work / "requests.jsonl") == [
        (qid, RerankRequest(text, [
            Document(did, corpus.docs[did], lexical_overlap_scorer(text, corpus.docs[did]))
            for did in corpus.candidates[qid]]))
        for qid, text in corpus.queries]


positive_floats = st.floats(min_value=1e-300, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.builds(
    StageConfig, mode=st.sampled_from(["adapters", "full"]), steps=st.integers(0, 2 ** 40),
    learning_rate=positive_floats, batch_size=st.integers(1, 2 ** 40),
    n_negatives=st.integers(1, 2 ** 40), n_inbatch_negatives=st.integers(0, 2 ** 40),
    temperature=positive_floats, max_doc_tokens=st.integers(1, 2 ** 40),
    lora_rank=st.integers(1, 2 ** 40),
    lora_alpha=st.floats(allow_nan=False, allow_infinity=False),
    train_embeddings=st.booleans(), seed=st.integers(0, 2 ** 63)))
def test_stage_config(work, stage):
    stage.save(work / "stage.json")
    assert StageConfig.load(work / "stage.json") == stage


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(max_size=8), arrays(
    np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)), max_size=4),
    st.dictionaries(st.text(max_size=8), json_values, max_size=4))
def test_checkpoint(work, tensors, meta):
    """Bit-exact, NaN payloads included, and byte-identical when saved again."""
    save_checkpoint(work / "a.ckpt", tensors, meta)
    loaded, loaded_meta = load_checkpoint(work / "a.ckpt")
    assert loaded_meta == meta
    assert {k: (v.shape, v.tobytes()) for k, v in loaded.items()} == {
        k: (v.shape, v.tobytes()) for k, v in tensors.items()}
    save_checkpoint(work / "b.ckpt", loaded, loaded_meta)
    assert (work / "b.ckpt").read_bytes() == (work / "a.ckpt").read_bytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(json_values, max_size=5))
def test_jsonl(work, records):
    write_atomic({work / "records.jsonl": jsonl_bytes(records)})
    lines = [line for line, _ in read_lines(work / "records.jsonl",
                                            lambda line: (line.number, None))]
    assert [line.number for line in lines] == list(range(1, len(records) + 1))
    assert [parse_json(line.text, str(line)) for line in lines] == records
