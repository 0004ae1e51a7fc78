"""Byte-mutation fuzzing of the files the CLI reads: whatever their bytes,
``cli.main`` returns a documented exit code (0 ok, 2 bad input, 3 numeric
failure, 4 training divergence) and no exception escapes it."""

import json
import shutil

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from listrank import BackboneConfig, RerankModel, Vocabulary
from listrank.checkpoint import load_checkpoint, parse_json
from listrank.cli import main
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
@given(mutations=_mutations)
def test_mutated_input_exits_with_a_documented_code(valid_files, target, mutations):
    mutated = valid_files[target].with_name(f"mutated-{target}")
    mutated.write_bytes(_mutate(valid_files[target].read_bytes(), mutations))
    assert _run(target, {**valid_files, target: mutated}) in (0, 2, 3)


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


def _train(train_dir, target, data):
    """Exit code of ``train`` on the valid files with ``target`` holding
    ``data``, and the path of the checkpoint it was told to write."""
    work = train_dir / "work"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(train_dir / "valid", work)
    (work / target).write_bytes(data)
    out = work / "out.ckpt"
    return main(["train", "--stage-config", str(work / "stage.json"), "--data", str(work),
                 "--out-checkpoint", str(out)]), out


def _runs_briefly(stage_bytes) -> bool:
    """False for a valid stage whose run is long or large (many steps, a
    wide adapter rank): such a stage is not an input fault."""
    try:
        stage = StageConfig.from_dict(parse_json(stage_bytes, "stage"))
    except ListrankError:
        return True
    return stage.steps <= 4 and stage.lora_rank <= 64


def test_valid_training_input_exits_0(train_dir):
    rc, out = _train(train_dir, "stage.json", _STAGE)
    assert rc == 0 and out.exists()


# mutated learning rates and weights overflow to inf and nan
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("target", _TRAIN_FILES)
@settings(max_examples=15, deadline=None)
@given(mutations=_mutations)
@example(mutations=[("insert", _STAGE.index(b"0.001") + len(b"0.001"), b"e311")])
@example(mutations=[("insert", len(b'{"doc_id": "q000_d00", "text": '), b'" ","x":')])
def test_mutated_training_input_exits_with_a_documented_code(train_dir, target, mutations):
    """Whatever the exit code, a checkpoint that ``train`` writes is finite."""
    data = _mutate((train_dir / "valid" / target).read_bytes(), mutations)
    assume(target != "stage.json" or _runs_briefly(data))
    rc, out = _train(train_dir, target, data)
    assert rc in (0, 2, 3, 4)
    assert out.exists() or rc != 0
    if out.exists():
        tensors, _ = load_checkpoint(out)
        assert all(np.isfinite(t).all() for t in tensors.values())
