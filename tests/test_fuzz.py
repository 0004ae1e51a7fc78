"""Byte-mutation fuzzing of the files the CLI reads: whatever their bytes,
``cli.main`` returns a documented exit code (0 ok, 2 bad input, 3 numeric
failure, 4 training divergence) and no exception escapes it; ``train``,
``merge`` and ``rerank`` write their outputs only when they exit 0."""

import json
import shutil

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from listrank import BackboneConfig, RerankModel, Vocabulary
from listrank.checkpoint import load_checkpoint, parse_json
from listrank.cli import main
from listrank.config import from_json_object
from listrank.errors import ListrankError
from listrank.evaluation import generate_synthetic_corpus, write_corpus_files
from listrank.trainer import StageConfig

# (kind, position, argument); positions wrap around the current length
_mutations = st.lists(st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2 ** 20), st.integers(1, 255)),
    st.tuples(st.just("insert"), st.integers(0, 2 ** 20), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("truncate"), st.integers(0, 2 ** 20), st.none()),
), min_size=1, max_size=4)


def _mutate(data: bytes, mutations) -> bytes:
    buf = bytearray(data)
    for kind, position, arg in mutations:
        at = position % (len(buf) + 1)
        if kind == "flip" and at < len(buf):
            buf[at] ^= arg
        elif kind == "insert":
            buf[at:at] = arg
        elif kind == "truncate":
            del buf[at:]
    return bytes(buf)


# Inserting a space at this offset of the request file splits the first doc_id.
_REQUEST_DOC_ID = len(b'{"query_id": "q1", "query_text": "alpha q1", "documents": [{"doc_id": "q1')


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A tiny model bundle, a request file and the run and qrels files of
    scoring it: every command below exits 0 on these."""
    d = tmp_path_factory.mktemp("fuzz")
    vocab = Vocabulary(["alpha", "beta", "gamma"])
    cfg = BackboneConfig(n_layers=1, d_hidden=8, n_q_heads=2, n_kv_heads=1, d_ffn=8,
                         max_context=256, effective_seq_len=256, vocab_size=len(vocab))
    RerankModel.create(vocab, cfg, seed=0).save(d / "model.ckpt")
    with open(d / "requests.jsonl", "w", encoding="utf-8") as fh:
        for q in ("q1", "q2"):
            fh.write(json.dumps({"query_id": q, "query_text": f"alpha {q}", "documents": [
                {"doc_id": f"{q}d{i}", "text": f"beta gamma {i}", "first_stage_score": i / 3}
                for i in range(3)]}) + "\n")
    assert (d / "requests.jsonl").read_bytes()[_REQUEST_DOC_ID:].startswith(b'd0", ')
    (d / "qrels.txt").write_text("".join(f"{q} 0 {q}d{i} {int(i == 0)}\n"
                                         for q in ("q1", "q2") for i in range(3)))
    files = {name: d / name for name in
             ("model.ckpt", "requests.jsonl", "qrels.txt", "run.txt", "out.txt")}
    assert main(["rerank", "--model", str(files["model.ckpt"]), "--input",
                 str(files["requests.jsonl"]), "--output", str(files["run.txt"])]) == 0
    return files


def _run(target, files):
    """Run the command that reads ``target``: rerank for the bundle and the
    request file, eval for the qrels and the run file."""
    f = {name: str(path) for name, path in files.items()}
    if target in ("model.ckpt", "requests.jsonl"):
        return main(["rerank", "--model", f["model.ckpt"], "--input", f["requests.jsonl"],
                     "--output", f["out.txt"]])
    return main(["eval", "--run", f["run.txt"], "--qrels", f["qrels.txt"]])


@pytest.mark.parametrize("target", ["model.ckpt", "requests.jsonl", "qrels.txt", "run.txt"])
def test_valid_input_exits_0(valid_files, target):
    assert _run(target, valid_files) == 0


# mutated weights overflow to inf and nan, which ends the request with exit 3
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("target", ["model.ckpt", "requests.jsonl", "qrels.txt", "run.txt"])
@settings(max_examples=150, deadline=None)
@given(mutations=_mutations, old=st.sampled_from([None, b"q1 Q0 q1d0 1 1.0 listrank\n"]))
@example(mutations=[("insert", _REQUEST_DOC_ID, b" ")], old=None)
def test_mutated_input_exits_with_a_documented_code(valid_files, target, mutations, old):
    """A run file that ``rerank`` writes, ``eval`` reads. A failed ``rerank``
    leaves ``out.txt`` as it was: absent (``old`` None) or holding ``old``."""
    mutated = valid_files[target].with_name(f"mutated-{target}")
    mutated.write_bytes(_mutate(valid_files[target].read_bytes(), mutations))
    out = valid_files["out.txt"]
    out.unlink(missing_ok=True)
    if old is not None:
        out.write_bytes(old)
    rc = _run(target, {**valid_files, target: mutated})
    assert rc in (0, 2, 3)
    if target in ("model.ckpt", "requests.jsonl"):
        if rc == 0:
            assert main(["eval", "--run", str(out), "--qrels", str(valid_files["qrels.txt"])]) == 0
        else:
            assert (out.read_bytes() if out.exists() else None) == old


# A one-step stage that fits the corpus of ``train_dir``; seed 3 draws the
# first query into its step. Inserting "e311" after its learning rate makes
# the rate 1e308, whose step overflows the weights; inserting '" ","x":'
# before the first document's text (the first query's positive) makes that
# text one space.
_STAGE = (b'{"steps": 1, "batch_size": 2, "n_negatives": 3, "learning_rate": 0.001, '
          b'"max_doc_tokens": 16, "lora_rank": 4, "seed": 3}')
_TRAIN_FILES = ("queries.jsonl", "corpus.jsonl", "qrels.txt", "stage.json")


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory):
    """``valid/`` holds a corpus of 4 queries of 4 candidates and ``_STAGE``:
    ``train`` exits 0 on them."""
    d = tmp_path_factory.mktemp("fuzz-train")
    corpus = generate_synthetic_corpus(n_queries=4, docs_per_query=4, seed=0)
    write_corpus_files(corpus, d / "valid")
    (d / "valid" / "stage.json").write_bytes(_STAGE)
    assert (d / "valid" / "corpus.jsonl").read_bytes().startswith(
        b'{"doc_id": "q000_d00", "text": "') and corpus.qrels["q000"]["q000_d00"] > 0
    return d


def _train(train_dir, target, data, old_out=None, old_trace=None):
    """Exit code of ``train`` on the valid files with ``target`` holding
    ``data``, and the paths of the checkpoint and the trace it was told to
    write, which hold ``old_out`` and ``old_trace`` beforehand (None: absent)."""
    work = train_dir / "work"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(train_dir / "valid", work)
    (work / target).write_bytes(data)
    out, trace = work / "out.ckpt", work / "trace.jsonl"
    for path, old in ((out, old_out), (trace, old_trace)):
        if old is not None:
            path.write_bytes(old)
    return main(["train", "--stage-config", str(work / "stage.json"), "--data", str(work),
                 "--out-checkpoint", str(out), "--trace-out", str(trace)]), out, trace


def _runs_briefly(stage_bytes) -> bool:
    """False for a valid stage whose run is long (many steps): such a stage
    is not an input fault."""
    try:
        stage = from_json_object(StageConfig, parse_json(stage_bytes, "stage"))
    except ListrankError:
        return True
    return stage.steps <= 4


def test_valid_training_input_exits_0(train_dir):
    rc, out, trace = _train(train_dir, "stage.json", _STAGE)
    assert rc == 0 and out.exists() and trace.exists()


_OLD = st.sampled_from([None, b"old output\n"])  # what an output path holds beforehand


# mutated learning rates and weights overflow to inf and nan
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("target", _TRAIN_FILES)
@settings(max_examples=15, deadline=None)
@given(mutations=_mutations, old_out=_OLD, old_trace=_OLD)
@example(mutations=[("insert", _STAGE.index(b"0.001") + len(b"0.001"), b"e311")],
         old_out=b"old output\n", old_trace=None)
@example(mutations=[("insert", len(b'{"doc_id": "q000_d00", "text": '), b'" ","x":')],
         old_out=None, old_trace=b"old output\n")
def test_mutated_training_input_exits_with_a_documented_code(train_dir, target, mutations,
                                                             old_out, old_trace):
    """On exit 0 the checkpoint and the trace are written and the checkpoint
    is finite; otherwise each is left as it was: absent, or holding its old bytes."""
    data = _mutate((train_dir / "valid" / target).read_bytes(), mutations)
    assume(target != "stage.json" or _runs_briefly(data))
    rc, out, trace = _train(train_dir, target, data, old_out, old_trace)
    assert rc in (0, 2, 3, 4)
    if rc == 0:
        tensors, _ = load_checkpoint(out)
        assert all(np.isfinite(t).all() for t in tensors.values())
        assert trace.read_bytes() != old_trace
    else:
        for path, old in ((out, old_out), (trace, old_trace)):
            assert (path.read_bytes() if path.exists() else None) == old, path.name


def _merge_spec(model: str) -> bytes:
    return json.dumps([{"checkpoint": model, "weight": 0.5},
                       {"checkpoint": model, "weight": 0.25}]).encode("utf-8")


def test_valid_merge_spec_exits_0(valid_files, tmp_path):
    spec, out = tmp_path / "spec.json", tmp_path / "merged.ckpt"
    spec.write_bytes(_merge_spec(str(valid_files["model.ckpt"])))
    assert main(["merge", "--spec", str(spec), "--out", str(out)]) == 0 and out.exists()


@settings(max_examples=60, deadline=None)
@given(mutations=_mutations, old=_OLD)
@example(mutations=[("insert", len(b'[{"checkpoint": "'), b"\\u0000")], old=None)
@example(mutations=[("insert", len(b'[{"checkpoint": "'), b"x")], old=b"old output\n")
def test_mutated_merge_spec_exits_with_a_documented_code(valid_files, tmp_path_factory,
                                                         mutations, old):
    """``merge`` exits 0 or 2; a failed merge leaves ``--out`` as it was:
    absent (``old`` None) or holding ``old``."""
    d = tmp_path_factory.mktemp("fuzz-merge")
    spec, out = d / "spec.json", d / "merged.ckpt"
    spec.write_bytes(_mutate(_merge_spec(str(valid_files["model.ckpt"])), mutations))
    if old is not None:
        out.write_bytes(old)
    rc = main(["merge", "--spec", str(spec), "--out", str(out)])
    assert rc in (0, 2)
    written = out.read_bytes() if out.exists() else None
    assert (written is not None and written != old) if rc == 0 else written == old
