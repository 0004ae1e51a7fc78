"""Byte-mutation fuzzing of the files the CLI reads: whatever their bytes,
``cli.main`` returns a documented exit code (0 ok, 2 bad input, 3 numeric
failure) and no exception escapes it."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listrank import BackboneConfig, RerankModel, Vocabulary
from listrank.cli import main

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
