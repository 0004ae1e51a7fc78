import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from listrank.backbone import BackboneConfig
from listrank.checkpoint import load_checkpoint, save_checkpoint
from listrank.cli import GRADCHECK_THRESHOLD, build_parser, main
from listrank.evaluation import load_run
from listrank.model import RerankModel
from listrank.prompt import Vocabulary
from listrank.trainer import StageConfig

from conftest import tiny_backbone_config


def strict_json_request(**tokens) -> str:
    """One request line; each keyword replaces a placeholder with raw JSON."""
    line = ('{"query_id": QID, "query_text": QTEXT, "documents": ['
            '{"doc_id": DID, "text": DTEXT, "first_stage_score": SCORE}, '
            '{"doc_id": "d2", "text": "gamma", "first_stage_score": 0.5}]}')
    defaults = {"QID": '"q1"', "QTEXT": '"alpha beta"', "DID": '"d1"', "DTEXT": '"alpha"',
                "SCORE": "0.9"}
    for token, value in {**defaults, **tokens}.items():
        line = line.replace(token, value)
    return line


def stage_json_with(field: str, value: str) -> str:
    """A one-step stage config that fits the fixture corpus, with ``field``
    spelled as the raw JSON ``value``."""
    stage = asdict(StageConfig(steps=1, n_negatives=7, max_doc_tokens=16, lora_rank=4))
    stage.pop(field, None)
    return json.dumps(stage)[:-1] + f', "{field}": {value}}}'


@pytest.fixture()
def model_path(untrained_model, tmp_path):
    p = tmp_path / "model.ckpt"
    untrained_model.save(p)
    return p


@pytest.fixture()
def data_dir(synth_corpus, tmp_path):
    from listrank.evaluation import write_corpus_files

    d = tmp_path / "data"
    write_corpus_files(synth_corpus, d)
    return d


@pytest.fixture()
def small_data_dir(tmp_path):
    """6 queries of 4 candidates, one of them relevant: a one-step stage of
    batch 2 and 3 negatives fits it."""
    d = tmp_path / "small"
    assert main(["synth", "--n-queries", "6", "--docs-per-query", "4", "--out", str(d)]) == 0
    return d


def train_on(data, stage_json: str, tmp_path) -> tuple[int, Path]:
    """Exit code of ``train`` on ``data`` with the stage ``stage_json``, and
    the checkpoint path it was given."""
    stage_path, out_ckpt = tmp_path / "stage.json", tmp_path / "trained.ckpt"
    stage_path.write_text(stage_json)
    rc = main(["train", "--stage-config", str(stage_path), "--data", str(data),
               "--out-checkpoint", str(out_ckpt)])
    return rc, out_ckpt


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_env_default_overridden_by_flag(self, monkeypatch):
        monkeypatch.setenv("LISTRANK_K", "5")
        args = build_parser().parse_args(
            ["eval", "--run", "r", "--qrels", "q", "--k", "20"]
        )
        assert args.k == 20

    def test_env_default_used_without_flag(self, monkeypatch):
        monkeypatch.setenv("LISTRANK_K", "5")
        args = build_parser().parse_args(["eval", "--run", "r", "--qrels", "q"])
        assert args.k == 5


def _old_bundle_meta(meta):
    """Rewrite ``meta`` as bundles held it before they stored only the added
    words: every surface as a [surface, id, special] triple, and the projector."""
    vocab = Vocabulary(meta["vocab"])
    meta["vocab"] = [[vocab.surface(i), i, i < 5] for i in range(len(vocab))]
    d = meta["backbone"]["d_hidden"]
    meta["projector"] = {"d_in": d, "d_mid": d // 2, "d_out": d // 2}


class TestExitCodes:
    def test_missing_model_is_validation_error(self, tmp_path, capsys):
        rc = main(["rerank", "--model", str(tmp_path / "nope.ckpt"),
                   "--input", str(tmp_path / "nope.jsonl"),
                   "--output", str(tmp_path / "run.txt")])
        assert rc == 2
        assert str(tmp_path / "nope.ckpt") in capsys.readouterr().err

    def test_malformed_run_file(self, tmp_path, capsys):
        (tmp_path / "run.txt").write_text("not a run line\n")
        (tmp_path / "qrels.txt").write_text("q1 0 d1 1\n")
        rc = main(["eval", "--run", str(tmp_path / "run.txt"),
                   "--qrels", str(tmp_path / "qrels.txt")])
        assert rc == 2

    def test_bad_merge_weight(self, model_path, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"checkpoint": str(model_path), "weight": 2.0}]))
        rc = main(["merge", "--spec", str(spec), "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2
        assert "outside" in capsys.readouterr().err

    def test_bad_env_value_names_the_variable(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("LISTRANK_K", "ten")
        rc = main(["eval", "--run", str(tmp_path / "run.txt"),
                   "--qrels", str(tmp_path / "qrels.txt")])
        assert rc == 2
        assert "LISTRANK_K='ten'" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["length", "header", "blob", "last byte"])
    def test_truncated_checkpoint(self, model_path, data_dir, tmp_path, capsys, where):
        raw = model_path.read_bytes()
        header_end = 8 + struct.unpack(">Q", raw[:8])[0]
        keep = {"length": 5, "header": header_end // 2,
                "blob": (header_end + len(raw)) // 2, "last byte": len(raw) - 1}[where]
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(raw[:keep])
        rc = main(["rerank", "--model", str(cut),
                   "--input", str(data_dir / "requests.jsonl"),
                   "--output", str(tmp_path / "run.txt")])
        assert rc == 2
        assert "truncated checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda h: [1, 2],
        lambda h: {**h, "tensors": {}},
        lambda h: {**h, "meta": []},
        lambda h: {**h, "tensors": [{"name": "w", "offset": 0}]},
        lambda h: {**h, "tensors": [{"name": 3, "shape": [1], "offset": 0}]},
        lambda h: {**h, "tensors": [{"name": "w", "shape": [-1], "offset": 0}]},
        lambda h: {**h, "tensors": [{"name": "w", "shape": [1.5], "offset": 0}]},
        lambda h: {**h, "tensors": [{"name": "w", "shape": [1], "offset": "0"}]},
        lambda h: {**h, "tensors": ["w"]},
        lambda h: {**h, "tensors": [{"name": "w", "shape": [2**40, 2**40], "offset": 0}]},
        lambda h: {**h, "tensors": [{"name": "w", "shape": [0, 2**62], "offset": 0}]},
        lambda h: {**h, "tensors": [{"name": "w", "shape": [1] * 70, "offset": 0}]},
        lambda h: {**h, "tensors": h["tensors"] + h["tensors"][:1]},
        # the second tensor read from the first one's bytes
        lambda h: {**h, "tensors": [h["tensors"][0], {**h["tensors"][1], "offset": 0},
                                    *h["tensors"][2:]]},
        lambda h: {**h, "tensors": h["tensors"][1:]},  # the first tensor's bytes unread
        lambda h: {**h, "tensors": h["tensors"][:-1]},  # the last tensor's bytes unread
    ], ids=["list", "tensors object", "meta list", "no shape", "int name", "negative dim",
            "float dim", "string offset", "entry string", "2**80 elements",
            "empty but too large", "70 dimensions", "repeated name", "overlapping tensors",
            "gap before a tensor", "trailing bytes"])
    def test_malformed_checkpoint_header(self, model_path, data_dir, tmp_path, capsys, edit):
        raw = model_path.read_bytes()
        header_end = 8 + struct.unpack(">Q", raw[:8])[0]
        header = json.dumps(edit(json.loads(raw[8:header_end]))).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(struct.pack(">Q", len(header)) + header + raw[header_end:])
        rc = main(["rerank", "--model", str(bad),
                   "--input", str(data_dir / "requests.jsonl"),
                   "--output", str(tmp_path / "run.txt")])
        assert rc == 2
        # the temporary directory is named after this test: look past the path
        assert "checkpoint" in capsys.readouterr().err.replace(str(bad), "")

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.pop("layers.0.attn.wq"), "layers.0.attn.wq missing (expected (32, 32))"),
        (lambda t: t.update({"layers.1.attn.wk": np.ones((32, 8))}),
         "layers.1.attn.wk (32, 8) (expected (32, 16))"),
        (lambda t: t.update({"extra": np.ones(2)}), "extra (2,) (expected none)"),
    ], ids=["missing", "wrong shape", "unexpected"])
    def test_bundle_tensors_match_configs(self, model_path, data_dir, tmp_path, capsys,
                                          edit, message):
        tensors, meta = load_checkpoint(model_path)
        edit(tensors)
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, tensors, meta)
        rc = main(["rerank", "--model", str(bad),
                   "--input", str(data_dir / "requests.jsonl"),
                   "--output", str(tmp_path / "run.txt")])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.pop("vocab"), "bundle meta has no vocab"),
        (lambda m: m["backbone"].update(bogus=1), "unknown BackboneConfig keys: bogus"),
        (lambda m: m.update(backbone=list(m["backbone"].values())),
         "BackboneConfig must be a JSON object, got list"),
        (lambda m: m.update(vocab={"alpha": 261}), "vocabulary must be a list"),
        (lambda m: m["vocab"].append(["extra", "262", False]), "vocabulary must be a list"),
        (lambda m: m["vocab"].append(m["vocab"][0]), "vocabulary repeats a word"),
        (_old_bundle_meta, "vocabulary must be a list of words"),
        (lambda m: m["backbone"].update(n_layers="2"), "BackboneConfig.n_layers must be int"),
        (lambda m: m["backbone"].update(n_layers=True), "BackboneConfig.n_layers must be int"),
        # the rotary base and norm epsilon are constants: a bundle naming them is refused
        (lambda m: m["backbone"].update(rope_base=10000.0, rms_eps=1e-6),
         "bad.ckpt: unknown BackboneConfig keys: rms_eps, rope_base"),
        (lambda m: m["backbone"].update(max_context=10 ** 400),
         "an integer of 401 digits does not fit a float"),
        # refused before a table of every declared layer's shapes is built
        (lambda m: m["backbone"].update(n_layers=10 ** 5),
         "backbone declares 100000 layers but the bundle holds"),
    ], ids=["no vocab", "unknown backbone key", "backbone list", "vocab object",
            "string vocab id", "repeated word", "old triple format", "string n_layers",
            "bool n_layers", "rope_base and rms_eps keys", "max_context beyond a float",
            "more layers than tensors"])
    def test_malformed_bundle_meta(self, model_path, data_dir, tmp_path, capsys, edit, message):
        tensors, meta = load_checkpoint(model_path)
        edit(meta)
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, tensors, meta)
        rc = main(["rerank", "--model", str(bad),
                   "--input", str(data_dir / "requests.jsonl"),
                   "--output", str(tmp_path / "run.txt")])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (b"{steps: 3}", "stage.json: Expecting property name"),
        (b'\xff\xfe{"steps": 3}', "stage.json: 'utf-8' codec can't decode byte 0xff"),
        (b"[1]", "stage.json: StageConfig must be a JSON object, got list"),
        (b'{"bogus": 1}', "stage.json: unknown StageConfig keys: bogus"),
        (b'{"steps": "3"}', "stage.json: StageConfig.steps must be int, got '3'"),
        (b'{"train_embeddings": 1}', "stage.json: StageConfig.train_embeddings must be bool"),
        (b'{"learning_rate": true}', "stage.json: StageConfig.learning_rate must be float or int"),
        (b'{"max_doc_tokens": 0}', "stage.json: max_doc_tokens must be >= 1, got 0"),
        (b'{"seed": -1}', "stage.json: seed and n_inbatch_negatives must be >= 0, got -1 and 3"),
        (b'{"n_inbatch_negatives": -5}',
         "stage.json: seed and n_inbatch_negatives must be >= 0, got 0 and -5"),
        (b'{"steps": 1, "temperature": 1' + b"0" * 400 + b"}",
         "stage.json: an integer of 401 digits does not fit a float"),
    ], ids=["not json", "not utf-8", "list", "unknown key", "string steps", "int bool",
            "bool float", "zero max_doc_tokens", "negative seed", "negative in-batch negatives",
            "temperature beyond a float"])
    def test_malformed_stage_config(self, data_dir, tmp_path, capsys, content, message):
        stage_path = tmp_path / "stage.json"
        stage_path.write_bytes(content)
        out_ckpt = tmp_path / "trained.ckpt"
        rc = main(["train", "--stage-config", str(stage_path), "--data", str(data_dir),
                   "--out-checkpoint", str(out_ckpt)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out_ckpt.exists()

    @pytest.mark.parametrize("which", ["run", "qrels"])
    def test_eval_file_not_utf8(self, tmp_path, capsys, which):
        (tmp_path / "run.txt").write_text("q1 Q0 d1 1 0.9 t\n")
        (tmp_path / "qrels.txt").write_text("q1 0 d1 1\n")
        (tmp_path / f"{which}.txt").write_bytes(b"\xff\xfe q1 0 d1 1\n")
        rc = main(["eval", "--run", str(tmp_path / "run.txt"),
                   "--qrels", str(tmp_path / "qrels.txt")])
        assert rc == 2
        assert f"{which}.txt line 1" in capsys.readouterr().err

    def test_train_corpus_line_not_json(self, data_dir, tmp_path, capsys):
        with open(data_dir / "corpus.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"doc_id": "x", "text": \n')
        stage_path = tmp_path / "stage.json"
        StageConfig(steps=1, n_negatives=7, max_doc_tokens=16, lora_rank=4).save(stage_path)
        rc = main(["train", "--stage-config", str(stage_path), "--data", str(data_dir),
                   "--out-checkpoint", str(tmp_path / "trained.ckpt")])
        assert rc == 2
        assert "corpus.jsonl line 401" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        ("[{", "spec.json: Expecting property name"),
        ('{"checkpoint": "MODEL", "weight": 1.0}', "must be a JSON list"),
        ('[{"weight": 1.0}]', "must be a JSON list"),
        ('[{"checkpoint": "MODEL", "weight": "half"}]', "must be a JSON list"),
        ('[{"checkpoint": "PLAIN", "weight": 1.0}]', "not a rerank model bundle"),
    ], ids=["not json", "not a list", "no checkpoint", "no weight", "not a bundle"])
    def test_bad_merge_spec(self, model_path, tmp_path, capsys, spec, message):
        plain = tmp_path / "plain.ckpt"
        save_checkpoint(plain, {"w": np.ones(3)})
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.replace("MODEL", str(model_path)).replace("PLAIN", str(plain)))
        rc = main(["merge", "--spec", str(spec_path), "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_request_file_not_utf8(self, model_path, tmp_path, capsys):
        req = tmp_path / "req.jsonl"
        req.write_bytes(b"\xff\xfe" + json.dumps({"query_id": "q1", "query_text": "a",
                                                   "documents": []}).encode())
        rc = main(["rerank", "--model", str(model_path), "--input", str(req),
                   "--output", str(tmp_path / "run.txt")])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_non_string_document_text(self, model_path, tmp_path, capsys):
        req = tmp_path / "req.jsonl"
        req.write_text(json.dumps({"query_id": "q1", "query_text": "a b",
                                   "documents": [{"doc_id": "d1", "text": 5}]}) + "\n")
        rc = main(["rerank", "--model", str(model_path), "--input", str(req),
                   "--output", str(tmp_path / "run.txt")])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_repeated_query_id(self, model_path, tmp_path, capsys):
        """Results are keyed by query_id, so a repeat would drop a ranking."""
        req = tmp_path / "req.jsonl"
        lines = [json.dumps({"query_id": "q1", "query_text": text,
                             "documents": [{"doc_id": "d1", "text": "a b"}]}) for text in "ab"]
        req.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run.txt"
        rc = main(["rerank", "--model", str(model_path), "--input", str(req),
                   "--output", str(out)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("token, value", [
        ("DID", '"x y"'), ("DID", '""'), ("QID", '"x y"'), ("QID", '""'),
    ], ids=["spaced doc_id", "empty doc_id", "spaced query_id", "empty query_id"])
    def test_request_id_that_a_run_file_cannot_hold(self, model_path, tmp_path, capsys,
                                                    token, value):
        """A run line holding such an id would not have six fields."""
        req, out = tmp_path / "req.jsonl", tmp_path / "run.txt"
        req.write_text("\n" + strict_json_request(**{token: value}) + "\n")
        rc = main(["rerank", "--model", str(model_path), "--input", str(req),
                   "--output", str(out)])
        assert rc == 2
        assert "req.jsonl line 2: field " in capsys.readouterr().err
        assert not out.exists()

    def test_query_without_a_positive(self, small_data_dir, tmp_path, capsys):
        """Training needs a positive for each query, so none is skipped."""
        qrels = small_data_dir / "qrels.txt"
        qrels.write_text(qrels.read_text().replace("q000 0 q000_d00 1", "q000 0 q000_d00 0"))
        rc, out_ckpt = train_on(small_data_dir,
                                '{"steps": 1, "batch_size": 2, "n_negatives": 3}', tmp_path)
        assert rc == 2
        assert ("queries.jsonl line 1: query 'q000' needs qrels"
                in capsys.readouterr().err)
        assert not out_ckpt.exists()

    def test_query_with_two_positives(self, small_data_dir, tmp_path, capsys):
        """Training takes one positive per query; a second would be neither the
        positive nor a negative."""
        qrels = small_data_dir / "qrels.txt"
        qrels.write_text(qrels.read_text().replace("q001 0 q001_d01 0", "q001 0 q001_d01 1"))
        rc, out_ckpt = train_on(small_data_dir,
                                '{"steps": 1, "batch_size": 2, "n_negatives": 3}', tmp_path)
        assert rc == 2
        assert ("queries.jsonl line 2: query 'q001' needs qrels whose documents are all in "
                "corpus.jsonl, exactly one of them judged positive"
                in capsys.readouterr().err)
        assert not out_ckpt.exists()

    def test_blank_query_in_request_file(self, model_path, tmp_path, capsys):
        """A blank query is refused as its line is read, before any request is reranked."""
        req, out = tmp_path / "req.jsonl", tmp_path / "run.txt"
        req.write_text("\n".join([strict_json_request(QID='"q1"'), strict_json_request(QID='"q2"'),
                                  strict_json_request(QID='"q3"', QTEXT='"  "')]) + "\n")
        rc = main(["rerank", "--model", str(model_path), "--input", str(req),
                   "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.endswith("req.jsonl line 3: empty query\n")
        assert not out.exists()

    def test_blank_query_text(self, small_data_dir, tmp_path, capsys):
        """A blank query is refused as ``queries.jsonl`` is read, before any
        checkpoint is written."""
        queries = small_data_dir / "queries.jsonl"
        records = [json.loads(line) for line in queries.read_text().splitlines()]
        records[1]["text"] = " \t"
        queries.write_text("".join(json.dumps(r) + "\n" for r in records))
        rc, out_ckpt = train_on(small_data_dir,
                                '{"steps": 0, "batch_size": 2, "n_negatives": 3}', tmp_path)
        assert rc == 2
        assert capsys.readouterr().err.endswith("queries.jsonl line 2: empty query\n")
        assert not out_ckpt.exists()

    @pytest.mark.parametrize("command, flag, bad", [
        ("rerank", "--output", "nodir/run.txt"),
        ("train", "--out-checkpoint", "nodir/m.ckpt"),
        ("train", "--trace-out", "nodir/t.jsonl"),
        ("rerank", "--input", "."),
        ("rerank", "--model", "."),
    ], ids=["output in a missing directory", "checkpoint in a missing directory",
            "trace in a missing directory", "input is a directory", "model is a directory"])
    def test_unusable_path(self, model_path, data_dir, tmp_path, capsys, command, flag, bad):
        stage_path = tmp_path / "stage.json"
        StageConfig(steps=1, n_negatives=7, max_doc_tokens=16, lora_rank=4).save(stage_path)
        args = {"rerank": {"--model": model_path, "--input": data_dir / "requests.jsonl",
                           "--output": tmp_path / "run.txt", "--max-doc-tokens": 16},
                "train": {"--stage-config": stage_path, "--data": data_dir,
                          "--out-checkpoint": tmp_path / "m.ckpt"}}[command]
        args[flag] = tmp_path / bad
        rc = main([command, *(str(x) for pair in args.items() for x in pair)])
        err = capsys.readouterr().err
        assert rc == 2
        # the path asked for, not the temp file a write goes through
        assert err.startswith("error: ") and f"'{tmp_path / bad}'" in err

    @pytest.mark.parametrize("command, extra, env_seed", [
        ("synth", ["--seed", "-1"], None),
        ("rerank", ["--ordering", "random", "--seed", "-1"], None),
        ("rerank", ["--ordering", "random"], "-3"),
        ("gradcheck", ["--seed", "-1"], None),
        ("train", ["--seed", "-1"], None),
    ], ids=["synth", "rerank", "rerank LISTRANK_SEED", "gradcheck", "train"])
    def test_negative_seed(self, model_path, data_dir, tmp_path, capsys, monkeypatch,
                           command, extra, env_seed):
        """numpy refuses a negative seed with a traceback, so the CLI refuses it first."""
        if env_seed is not None:
            monkeypatch.setenv("LISTRANK_SEED", env_seed)
        stage_path, out = tmp_path / "stage.json", tmp_path / "out"
        StageConfig(steps=1, n_negatives=7, max_doc_tokens=16, lora_rank=4).save(stage_path)
        args = {"synth": ["--out", out],
                "rerank": ["--model", model_path, "--input", data_dir / "requests.jsonl",
                           "--output", out],
                "gradcheck": ["--component", "losses"],
                "train": ["--stage-config", stage_path, "--data", data_dir,
                          "--out-checkpoint", out]}[command]
        rc = main([command, *map(str, args), *extra])
        assert rc == 2
        assert f"--seed/LISTRANK_SEED must be >= 0, got {env_seed or -1}" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_max_doc_tokens_below_one(self, model_path, data_dir, tmp_path, capsys, value):
        rc = main(["rerank", "--model", str(model_path),
                   "--input", str(data_dir / "requests.jsonl"),
                   "--output", str(tmp_path / "run.txt"), "--max-doc-tokens", value])
        assert rc == 2
        assert f"max_doc_tokens must be >= 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "run.txt").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--max-docs-per-pass", "0"], "max_docs_per_pass must be >= 1, got 0"),
        (["--max-docs-per-pass", "-2"], "max_docs_per_pass must be >= 1, got -2"),
        (["--max-doc-tokens", "-5"], "max_doc_tokens must be >= 1, got -5"),
        (["--max-docs-per-pass", "0", "--max-doc-tokens", "-5"],
         "max_docs_per_pass must be >= 1, got 0"),
    ])
    def test_bad_limit_on_an_empty_request_file(self, model_path, tmp_path, capsys, flags,
                                                message):
        (tmp_path / "requests.jsonl").write_text("")
        rc = main(["rerank", "--model", str(model_path),
                   "--input", str(tmp_path / "requests.jsonl"),
                   "--output", str(tmp_path / "run.txt"), *flags])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run.txt").exists()

    def test_bad_env_ordering_on_an_empty_request_file(self, model_path, tmp_path, capsys,
                                                       monkeypatch):
        """argparse does not hold an environment default to its choices."""
        monkeypatch.setenv("LISTRANK_ORDERING", "bogus")
        (tmp_path / "requests.jsonl").write_text("")
        rc = main(["rerank", "--model", str(model_path),
                   "--input", str(tmp_path / "requests.jsonl"),
                   "--output", str(tmp_path / "run.txt")])
        assert rc == 2
        assert "unknown ordering 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "run.txt").exists()

    @pytest.mark.parametrize("key", ["w_disperse", "w_dual", "w_similar"])
    def test_loss_weight_is_an_unknown_key(self, tmp_path, capsys, monkeypatch, key):
        """The objective's weights are fixed, so a stage file that names one
        (as older stage files do) is refused before the corpus is read."""
        def read_corpus(_):
            raise AssertionError("the stage config was accepted")

        monkeypatch.setattr("listrank.cli.load_corpus_files", read_corpus)
        stage = {"steps": 1, "batch_size": 1, "n_negatives": 1, key: 0.5}
        rc, out_ckpt = train_on(tmp_path / "data", json.dumps(stage), tmp_path)
        assert rc == 2
        assert f"unknown StageConfig keys: {key}" in capsys.readouterr().err
        assert not out_ckpt.exists()

    @pytest.mark.parametrize("steps", [0, 1])
    def test_negative_loss_weight_refused_at_load(self, tmp_path, capsys, monkeypatch, steps):
        """A negative weight is refused before the corpus is read, whatever the
        step count; the weights are no stage field, so the key itself is refused."""
        def read_corpus(_):
            raise AssertionError("the stage config was accepted")

        monkeypatch.setattr("listrank.cli.load_corpus_files", read_corpus)
        stage = {"steps": steps, "batch_size": 1, "n_negatives": 1, "w_dual": -1.0}
        rc, out_ckpt = train_on(tmp_path / "data", json.dumps(stage), tmp_path)
        assert rc == 2
        assert "unknown StageConfig keys: w_dual" in capsys.readouterr().err
        assert not out_ckpt.exists()

    @pytest.mark.parametrize("where", ["merge spec weight", "first_stage_score",
                                       "stage file", "bundle meta"])
    def test_integer_beyond_float_range(self, model_path, data_dir, tmp_path, capsys, where):
        """A float cannot hold 10**400, so every JSON input refuses it as it is read."""
        big = "1" + "0" * 400
        path, out = tmp_path / "input.json", tmp_path / "out"
        if where == "merge spec weight":
            path.write_text(f'[{{"checkpoint": {json.dumps(str(model_path))}, "weight": {big}}}]')
            argv = ["merge", "--spec", path, "--out", out]
        elif where == "first_stage_score":
            path.write_text(strict_json_request(SCORE=big) + "\n")
            argv = ["rerank", "--model", model_path, "--input", path, "--output", out]
        elif where == "stage file":
            path.write_text(stage_json_with("temperature", big))
            argv = ["train", "--stage-config", path, "--data", data_dir, "--out-checkpoint", out]
        else:
            tensors, meta = load_checkpoint(model_path)
            meta["backbone"]["max_context"] = int(big)
            save_checkpoint(path, tensors, meta)
            argv = ["rerank", "--model", path, "--input", data_dir / "requests.jsonl",
                    "--output", out]
        rc = main([str(a) for a in argv])
        assert rc == 2
        assert "an integer of 401 digits does not fit a float" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("metric, k", [("ndcg", "0"), ("ndcg", "-3"), ("recall", "-3")])
    def test_bad_k_on_an_empty_run_file(self, tmp_path, capsys, metric, k):
        (tmp_path / "run.txt").write_text("")
        (tmp_path / "qrels.txt").write_text("q1 0 d1 1\n")
        rc = main(["eval", "--run", str(tmp_path / "run.txt"),
                   "--qrels", str(tmp_path / "qrels.txt"), "--metric", metric, "--k", k])
        assert rc == 2
        assert f"k must be >= 1, got {k}" in capsys.readouterr().err

    @pytest.mark.parametrize("token, value", [
        ("QTEXT", '"a \\ud800 b"'), ("DTEXT", '"a \\ud800 b"'), ("DID", '"\\ud800"'),
        ("QID", '"\\ud800"'), ("DID", '"\\udc80"'), ("QTEXT", '"a \\udc80 b"'),
        ("SCORE", "NaN"), ("SCORE", "-Infinity"), ("SCORE", "1e400"), ("SCORE", "-1e400"),
    ], ids=["high surrogate in query_text", "high surrogate in text",
            "high surrogate in doc_id", "high surrogate in query_id",
            "low surrogate in doc_id", "low surrogate in query_text",
            "NaN first_stage_score", "-Infinity first_stage_score",
            "1e400 first_stage_score", "-1e400 first_stage_score"])
    def test_request_not_strict_json(self, model_path, tmp_path, capsys, token, value):
        """A lone surrogate has no UTF-8 form, and NaN is no number to order by."""
        req, out = tmp_path / "req.jsonl", tmp_path / "run.txt"
        req.write_text(strict_json_request(**{token: value}) + "\n")
        rc = main(["rerank", "--model", str(model_path), "--input", str(req),
                   "--output", str(out), "--ordering", "desc"])
        assert rc == 2
        assert "req.jsonl line 1: " in capsys.readouterr().err
        assert not out.exists()

    def test_request_nested_too_deep(self, model_path, tmp_path, capsys):
        req = tmp_path / "req.jsonl"
        req.write_text("[" * 100_000 + "\n")
        rc = main(["rerank", "--model", str(model_path), "--input", str(req),
                   "--output", str(tmp_path / "run.txt")])
        assert rc == 2
        assert "req.jsonl line 1: maximum recursion depth" in capsys.readouterr().err

    def test_request_surrogate_pair_loads(self, model_path, tmp_path):
        req, out = tmp_path / "req.jsonl", tmp_path / "run.txt"
        req.write_text(strict_json_request(QTEXT='"smile \\ud83d\\ude00"') + "\n")
        rc = main(["rerank", "--model", str(model_path), "--input", str(req),
                   "--output", str(out)])
        assert rc == 0
        assert len(load_run(out)["q1"]) == 2

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", "NaN"), ("lora_alpha", "NaN"), ("temperature", "NaN"),
        ("temperature", "Infinity"), ("temperature", "1e400"),
    ])
    def test_stage_config_not_strict_json(self, data_dir, tmp_path, capsys, field, value):
        stage_path, out_ckpt = tmp_path / "stage.json", tmp_path / "m.ckpt"
        stage_path.write_text(stage_json_with(field, value))
        rc = main(["train", "--stage-config", str(stage_path), "--data", str(data_dir),
                   "--out-checkpoint", str(out_ckpt)])
        assert rc == 2
        assert f"stage.json: {value} is not a JSON number" in capsys.readouterr().err
        assert not out_ckpt.exists()

    @pytest.mark.parametrize("value", ["null", "0", "-1"])
    def test_max_seq_tokens_is_an_unknown_key(self, data_dir, tmp_path, capsys, value):
        """The training length limit is the backbone's; a stage cannot set another."""
        rc, out_ckpt = train_on(data_dir, stage_json_with("max_seq_tokens", value), tmp_path)
        assert rc == 2
        assert "unknown StageConfig keys: max_seq_tokens" in capsys.readouterr().err
        assert not out_ckpt.exists()

    def test_lora_rank_above_the_smaller_side(self, small_data_dir, tmp_path, capsys):
        """The default backbone's narrowest target is wk/wv, kv_dim columns wide."""
        rank = BackboneConfig().kv_dim + 1
        rc, out_ckpt = train_on(small_data_dir, json.dumps(
            {"steps": 1, "batch_size": 2, "n_negatives": 3, "lora_rank": rank}), tmp_path)
        assert rc == 2
        assert f"lora_rank {rank} exceeds the smaller side of" in capsys.readouterr().err
        assert not out_ckpt.exists()


@pytest.fixture()
def nan_model_path(model_path, tmp_path):
    tensors, meta = load_checkpoint(model_path)
    tensors["projector.w1"][0, 0] = np.nan
    p = tmp_path / "nan.ckpt"
    save_checkpoint(p, tensors, meta)
    return p


class TestNonFiniteWeights:
    def test_rerank_exits_3(self, nan_model_path, data_dir, tmp_path, capsys):
        run_path = tmp_path / "run.txt"
        rc = main(["rerank", "--model", str(nan_model_path),
                   "--input", str(data_dir / "requests.jsonl"),
                   "--output", str(run_path), "--max-doc-tokens", "16"])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err
        assert not run_path.exists()

    def test_train_exits_3_without_a_checkpoint(self, nan_model_path, data_dir, tmp_path, capsys):
        stage_path = tmp_path / "stage.json"
        StageConfig(steps=2, batch_size=4, n_negatives=7, max_doc_tokens=16,
                    lora_rank=4, seed=1).save(stage_path)
        out_ckpt = tmp_path / "trained.ckpt"
        rc = main(["train", "--stage-config", str(stage_path), "--data", str(data_dir),
                   "--init-checkpoint", str(nan_model_path),
                   "--out-checkpoint", str(out_ckpt)])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err
        assert not out_ckpt.exists()

    # the step overflows the weights to inf and nan
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_last_step_exits_4_without_a_checkpoint(self, small_data_dir, tmp_path,
                                                              capsys):
        """The loss of the last step is finite; the weights it leaves are not."""
        rc, out_ckpt = train_on(small_data_dir, '{"steps": 1, "batch_size": 2, '
                                '"n_negatives": 3, "learning_rate": 1e308}', tmp_path)
        assert rc == 4
        assert "non-finite weight tensors: layers.0.attn.wq" in capsys.readouterr().err
        assert not out_ckpt.exists()


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_earlier_step_exits_4_naming_the_next(self, small_data_dir, tmp_path,
                                                            capsys):
        """Step 0 overflows the weights; step 1's embeddings are then non-finite,
        which is a divergence of training, not a broken input model."""
        rc, out_ckpt = train_on(small_data_dir, '{"steps": 2, "batch_size": 2, '
                                '"n_negatives": 3, "learning_rate": 1e308}', tmp_path)
        assert rc == 4
        assert "error: step 1: cosine of a non-finite embedding" in capsys.readouterr().err
        assert not out_ckpt.exists()

class TestGradcheck:
    @pytest.mark.parametrize("component", ["losses", "projector", "backbone", "lora"])
    def test_pass_line(self, component, capsys):
        rc = main(["gradcheck", "--component", component, "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"component={component}" in out
        assert "PASS" in out

    def test_threshold_constant(self):
        assert GRADCHECK_THRESHOLD == 1e-4


class TestSynthAndEval:
    def test_synth_writes_layout(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        rc = main(["synth", "--n-queries", "4", "--docs-per-query", "3",
                   "--out", str(out)])
        assert rc == 0
        for name in ("queries.jsonl", "corpus.jsonl", "requests.jsonl", "qrels.txt"):
            assert (out / name).exists()

    def test_eval_prints_report(self, tmp_path, capsys):
        (tmp_path / "run.txt").write_text("q1 Q0 d1 1 0.9 t\n")
        (tmp_path / "qrels.txt").write_text("q1 0 d1 1\n")
        rc = main(["eval", "--run", str(tmp_path / "run.txt"),
                   "--qrels", str(tmp_path / "qrels.txt"), "--k", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "metric=ndcg@10" in out
        assert "macro_average\t1.000000" in out


class TestRerankCommand:
    def test_end_to_end(self, model_path, data_dir, tmp_path, capsys):
        run_path = tmp_path / "run.txt"
        rc = main(["rerank", "--model", str(model_path),
                   "--input", str(data_dir / "requests.jsonl"),
                   "--output", str(run_path),
                   "--max-doc-tokens", "16"])
        assert rc == 0
        run = load_run(run_path)
        assert len(run) == 50
        assert all(len(rows) == 8 for rows in run.values())

    def test_resolved_config_echoed(self, model_path, data_dir, tmp_path, capsys):
        main(["rerank", "--model", str(model_path),
              "--input", str(data_dir / "requests.jsonl"),
              "--output", str(tmp_path / "run.txt"),
              "--max-doc-tokens", "16"])
        out = capsys.readouterr().out
        assert "[rerank] resolved config:" in out
        assert '"max_doc_tokens": 16' in out


class TestTrainAndMergeCommands:
    def test_train_then_merge(self, model_path, data_dir, tmp_path, capsys):
        stage = StageConfig(
            mode="adapters", steps=2, learning_rate=1e-3, batch_size=4,
            n_negatives=7, temperature=0.25, max_doc_tokens=16,
            lora_rank=4, lora_alpha=8.0, seed=1,
        )
        stage_path = tmp_path / "stage.json"
        stage.save(stage_path)
        out_ckpt = tmp_path / "trained.ckpt"
        trace_path = tmp_path / "trace.jsonl"
        rc = main(["train", "--stage-config", str(stage_path),
                   "--data", str(data_dir),
                   "--init-checkpoint", str(model_path),
                   "--out-checkpoint", str(out_ckpt),
                   "--trace-out", str(trace_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "final_total_loss=" in out and "nDCG@10=" in out
        assert out_ckpt.exists()
        assert len(trace_path.read_text().splitlines()) == 2
        RerankModel.load(out_ckpt)  # loadable bundle

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([
            {"checkpoint": str(model_path), "weight": 0.5},
            {"checkpoint": str(out_ckpt), "weight": 0.5},
        ]))
        merged_path = tmp_path / "merged.ckpt"
        rc = main(["merge", "--spec", str(spec), "--out", str(merged_path)])
        assert rc == 0
        merged, _ = load_checkpoint(merged_path)
        base, _ = load_checkpoint(model_path)
        trained, _ = load_checkpoint(out_ckpt)
        for name in merged:
            np.testing.assert_allclose(
                merged[name], 0.5 * base[name] + 0.5 * trained[name], atol=1e-12
            )
        # merged bundle keeps model metadata and stays loadable
        RerankModel.load(merged_path)

    def test_blank_positive_passage(self, small_data_dir, tmp_path):
        """Augmenting a positive with no words leaves it empty."""
        positives = {doc_id for _, _, doc_id, rel in
                     map(str.split, (small_data_dir / "qrels.txt").read_text().splitlines())
                     if int(rel) > 0}
        corpus = small_data_dir / "corpus.jsonl"
        records = [json.loads(line) for line in corpus.read_text().splitlines()]
        corpus.write_text("".join(
            json.dumps({**r, "text": " " if r["doc_id"] in positives else r["text"]}) + "\n"
            for r in records))
        rc, out_ckpt = train_on(small_data_dir,
                                '{"steps": 2, "batch_size": 2, "n_negatives": 3}', tmp_path)
        assert rc == 0
        RerankModel.load(out_ckpt)

    @pytest.mark.parametrize("other", ["vocabulary", "backbone"])
    def test_merge_refuses_other_bundles(self, untrained_model, model_path, tmp_path, capsys,
                                         other):
        """Averaging rows of unrelated words, or weights of a backbone configured
        otherwise, gives a model that matches neither input."""
        m = untrained_model
        vocab, config = m.vocab, m.backbone_config
        if other == "vocabulary":  # same size, other words
            vocab = Vocabulary([f"other{i}" for i in range(len(m.vocab) - len(Vocabulary()))])
        else:
            config = tiny_backbone_config(vocab_size=len(m.vocab), d_ffn=64, max_context=256)
        other_path = tmp_path / "other.ckpt"
        RerankModel(vocab, config, m.weights).save(other_path)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"checkpoint": str(model_path), "weight": 0.5},
                                    {"checkpoint": str(other_path), "weight": 0.5}]))
        rc = main(["merge", "--spec", str(spec), "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2
        assert "other.ckpt" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("edit, key", [
        (lambda b: b.update(bogus=1), "bogus"),
        (lambda b: b.update(rope_base=10000.0, rms_eps=1e-6), "rms_eps, rope_base"),
    ], ids=["unknown key", "rope_base and rms_eps keys"])
    def test_merge_names_the_bundle_it_refuses(self, model_path, tmp_path, capsys, edit, key):
        tensors, meta = load_checkpoint(model_path)
        edit(meta["backbone"])
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, tensors, meta)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"checkpoint": str(model_path), "weight": 0.5},
                                    {"checkpoint": str(bad), "weight": 0.5}]))
        rc = main(["merge", "--spec", str(spec), "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2
        assert f"{bad}: unknown BackboneConfig keys: {key}" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()
