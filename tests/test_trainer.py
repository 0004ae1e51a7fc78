import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from listrank import autodiff as ad
from listrank import trainer
from listrank.autodiff import Tensor
from listrank.checkpoint import jsonl_bytes, write_atomic
from listrank.errors import ListrankError
from listrank.evaluation import ndcg_at_k
from listrank.model import RerankModel
from listrank.prompt import DOC_EMB, Document, RerankRequest
from listrank.reranker import rerank
from listrank.trainer import (
    AdamW,
    StageConfig,
    TrainingExample,
    apply_lora,
    augment_text,
    create_adapters,
    fold_adapters,
    lora_target_names,
    merge_models,
    train_stage,
)

from conftest import corpus_dataset, overfit_stage_config, tiny_backbone_config


class TestStageConfig:
    def test_foundation_defaults(self):
        """The default stage is adapter training with tuned embeddings,
        15 negatives, temperature 0.25, learning rate 5e-5."""
        s = StageConfig()
        assert s.mode == "adapters"
        assert s.train_embeddings is True
        assert s.n_negatives == 15
        assert s.temperature == 0.25
        assert s.learning_rate == 5e-5

    def test_json_roundtrip(self, tmp_path):
        s = StageConfig(mode="full", steps=7, temperature=0.05, n_negatives=25)
        p = tmp_path / "stage.json"
        s.save(p)
        assert StageConfig.load(p) == s

    def test_readme_table_names_every_field(self):
        """The README's table of stage keys lists exactly the fields, in order."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| Key | Default | Meaning |\n")[1].split("\n\n")[0]
        keys = [key for row in table.splitlines()[1:]
                for key in re.findall(r"`(\w+)`", row.split("|")[1])]
        assert keys == [f.name for f in dataclasses.fields(StageConfig)]

    def test_validation(self):
        with pytest.raises(ListrankError, match="unknown training mode 'distill'"):
            StageConfig(mode="distill")
        with pytest.raises(ListrankError, match="learning_rate and temperature must be positive"):
            StageConfig(temperature=0.0)
        with pytest.raises(ListrankError, match="lora_rank must be >= 1"):
            StageConfig(lora_rank=0)


class TestLora:
    def _base(self):
        from listrank.backbone import init_weights

        cfg = tiny_backbone_config()
        return cfg, init_weights(cfg, seed=0)

    def test_rank_above_the_smaller_side_refused(self):
        base = {"w": Tensor(np.zeros((6, 5)))}
        a, b = create_adapters(base, ["w"], rank=5, seed=0)["w"]
        assert (a.shape, b.shape) == ((5, 5), (6, 5))
        with pytest.raises(ListrankError, match=r"lora_rank 6 exceeds the smaller side of w "
                                              r"of shape \(6, 5\)"):
            create_adapters(base, ["w"], rank=6, seed=0)

    def test_target_names_cover_all_layers(self):
        names = lora_target_names(tiny_backbone_config())  # 2 layers
        assert len(names) == 2 * 7  # four attention + three feed-forward mats
        assert "layers.0.attn.wq" in names and "layers.1.ffn.wd" in names

    def test_zero_init_is_identity(self):
        cfg, base = self._base()
        adapters = create_adapters(base, lora_target_names(cfg), rank=4, seed=1)
        eff = apply_lora(base, adapters, alpha=8.0)
        for name in lora_target_names(cfg):
            np.testing.assert_array_equal(eff[name].data, base[name].data)

    def test_fold_matches_apply(self):
        cfg, base = self._base()
        names = lora_target_names(cfg)
        adapters = create_adapters(base, names, rank=4, seed=1)
        rng = np.random.default_rng(2)
        for a, b in adapters.values():
            b.data = rng.normal(0.0, 0.1, b.data.shape)
        eff = apply_lora(base, adapters, alpha=8.0)
        folded = fold_adapters(base, adapters, alpha=8.0)
        for name in names:
            np.testing.assert_allclose(folded[name].data, eff[name].data, atol=1e-15)
            assert (folded[name].data != base[name].data).any()

    def test_scaling_factor(self):
        w = {"m": Tensor(np.zeros((3, 3)))}
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones((3, 2)))
        eff = apply_lora(w, {"m": (a, b)}, alpha=6.0)
        # B@A has every entry 2; scale alpha/rank = 3
        np.testing.assert_allclose(eff["m"].data, 6.0)

    @pytest.mark.parametrize("rank", [1, 4, 8])
    def test_scale_reads_the_adapters_rank(self, rank):
        w = {"m": Tensor(np.zeros((3, 3)))}
        a = Tensor(np.ones((rank, 3)))
        b = Tensor(np.ones((3, rank)))
        # B@A has every entry ``rank``; scale alpha/rank = 6 / rank
        np.testing.assert_allclose(apply_lora(w, {"m": (a, b)}, alpha=6.0)["m"].data, 6.0)
        np.testing.assert_allclose(fold_adapters(w, {"m": (a, b)}, alpha=6.0)["m"].data, 6.0)

    def test_shape_mismatch(self):
        w = {"m": Tensor(np.zeros((3, 4)))}
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones((3, 2)))
        with pytest.raises(ListrankError, match="incompatible"):
            apply_lora(w, {"m": (a, b)}, alpha=4.0)


class TestAdamW:
    def test_single_step_closed_form(self):
        p = Tensor(np.array([1.0]))
        p.grad = np.array([0.5])
        opt = AdamW({"p": p}, lr=0.1)
        opt.step()
        # first step: m_hat = g, v_hat = g^2, update ~ sign(g), plus the 0.01 decay
        expected = 1.0 - 0.1 * (0.5 / (0.5 + 1e-8) + 0.01 * 1.0)
        np.testing.assert_allclose(p.data, [expected], atol=1e-10)

    def test_decoupled_weight_decay(self):
        p = Tensor(np.array([2.0]))
        p.grad = np.array([0.0])
        opt = AdamW({"p": p}, lr=0.1)
        opt.step()
        # zero gradient: only the decay term moves the parameter
        np.testing.assert_allclose(p.data, [2.0 - 0.1 * 0.01 * 2.0], atol=1e-12)

    def test_none_grad_skipped(self):
        p = Tensor(np.array([3.0]))
        opt = AdamW({"p": p}, lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.data, [3.0])


class TestAugmentation:
    def test_deterministic_given_rng(self):
        a = augment_text("Alpha Beta Gamma Delta", np.random.default_rng(0))
        b = augment_text("Alpha Beta Gamma Delta", np.random.default_rng(0))
        assert a == b

    def test_case_folded_and_nonempty(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            out = augment_text("One Two Three", rng)
            assert out == out.lower()
            assert len(out.split()) >= 1

    def test_preserves_word_multiset_subset(self):
        rng = np.random.default_rng(2)
        words = "alpha beta gamma delta epsilon".split()
        out = augment_text(" ".join(words), rng).split()
        assert set(out) <= set(words)

    @pytest.mark.parametrize("text", ["", " ", "\n\t "])
    def test_text_without_words_stays_empty(self, text):
        assert augment_text(text, np.random.default_rng(3)) == ""


class TestTrainStage:
    def test_dataset_too_small(self, untrained_model):
        ds = [TrainingExample("q", "t", "p", ["n"] * 15)]
        with pytest.raises(ListrankError, match="cannot fill"):
            train_stage(untrained_model, ds, StageConfig(batch_size=4))

    def test_not_enough_negatives(self, untrained_model):
        ds = [TrainingExample(f"q{i}", "t", "p", ["n"]) for i in range(4)]
        with pytest.raises(ListrankError, match="negatives"):
            train_stage(untrained_model, ds, StageConfig(batch_size=4, n_negatives=15))

    def test_zero_steps_is_noop(self, synth_corpus, synth_vocab):
        cfg = tiny_backbone_config(vocab_size=len(synth_vocab), d_ffn=64)
        model = RerankModel.create(synth_vocab, cfg, seed=3)
        before = {k: v.data.copy() for k, v in model.weights.items()}
        trace = train_stage(model, corpus_dataset(synth_corpus),
                            overfit_stage_config(steps=0))
        assert trace == []
        for k in before:
            np.testing.assert_array_equal(model.weights[k].data, before[k])

    def test_short_run_is_deterministic(self, synth_corpus, synth_vocab):
        cfg = tiny_backbone_config(vocab_size=len(synth_vocab), d_ffn=64)
        ds = corpus_dataset(synth_corpus)
        stage = overfit_stage_config(steps=6)
        traces = []
        for _ in range(2):
            model = RerankModel.create(synth_vocab, cfg, seed=3)
            traces.append(train_stage(model, ds, stage))
        assert traces[0] == traces[1]  # bit-identical records
        t = traces[0]
        assert len(t) == 6
        for rec in t:
            assert set(rec) == {"step", "rank", "disperse", "dual", "similar", "total"}
            assert math.isfinite(rec["total"])
            expected = (rec["rank"] + 0.45 * rec["disperse"]
                        + 0.85 * rec["dual"] + 0.85 * rec["similar"])
            assert rec["total"] == pytest.approx(expected, abs=1e-9)

    def test_graph_size_does_not_grow_with_negatives(self, synth_corpus, synth_vocab,
                                                     monkeypatch):
        """Embeddings and losses are matrix ops, so a step records as many
        tape nodes for 3 negatives per query as for 7."""
        cfg = tiny_backbone_config(vocab_size=len(synth_vocab), d_ffn=64)
        nodes = []
        backward = trainer.backward
        monkeypatch.setattr(trainer, "backward",
                            lambda loss: (nodes.append(len(loss.tape)), backward(loss)))
        for k in (3, 7):
            model = RerankModel.create(synth_vocab, cfg, seed=3)
            stage = dataclasses.replace(overfit_stage_config(steps=1), n_negatives=k)
            train_stage(model, corpus_dataset(synth_corpus), stage)
        assert nodes[0] == nodes[1]

    @pytest.mark.parametrize("mode", ["adapters", "full"])
    def test_step_matches_the_full_forward_at_the_marker_rows(self, synth_corpus, synth_vocab,
                                                              monkeypatch, mode):
        """The last layer runs only at the marker rows; the loss and every
        trainable gradient of a step equal those read from the full forward."""
        cfg = tiny_backbone_config(vocab_size=len(synth_vocab), d_ffn=64)
        stage = dataclasses.replace(overfit_stage_config(steps=1), mode=mode)
        step = trainer.AdamW.step

        def run():
            grads = {}

            def record(opt):
                grads.update({k: p.grad.copy() for k, p in opt.params.items()})
                step(opt)

            with monkeypatch.context() as m:
                m.setattr(trainer.AdamW, "step", record)
                model = RerankModel.create(synth_vocab, cfg, seed=3)
                trace = train_stage(model, corpus_dataset(synth_corpus), stage)
            return trace[0], grads

        loss, grads = run()
        forward = trainer.bb.forward
        monkeypatch.setattr(trainer.bb, "forward", lambda tokens, config, weights, rows:
                            ad.gather_rows(forward(tokens, config, weights), rows))
        ref_loss, ref_grads = run()
        for k in loss:
            assert loss[k] == pytest.approx(ref_loss[k], rel=0, abs=1e-12), k
        assert sorted(grads) == sorted(ref_grads)
        for k, g in grads.items():
            scale = max(1.0, float(np.abs(ref_grads[k]).max()))
            np.testing.assert_allclose(g, ref_grads[k], rtol=0, atol=1e-12 * scale, err_msg=k)

    def test_rows_follow_the_texts_whatever_the_shuffle(self, untrained_model, monkeypatch):
        """The passages are shown shuffled; row i of the encoding is the hidden
        state at the marker of the slot where text i was shown."""
        model, vocab = untrained_model, untrained_model.vocab
        stage = dataclasses.replace(overfit_stage_config(), max_doc_tokens=64)
        # capitalized, so the case-folded augmented positive differs from it
        example = TrainingExample("q", "topic000 key000", "Alpha Beta Gamma",
                                  [f"negative passage {k}" for k in range(5)])
        texts = [example.positive, *example.negatives]
        prompts = []
        forward = trainer.bb.forward
        monkeypatch.setattr(trainer.bb, "forward", lambda tokens, config, weights, rows:
                            prompts.append(tokens) or forward(tokens, config, weights, rows))
        positive_slots = set()
        for seed in range(4):
            hidden = trainer._encode_group(model, model.weights, example, example.negatives,
                                           stage, np.random.default_rng(seed))
            tokens = prompts[-1]
            full = forward(tokens, model.backbone_config, model.weights).data
            markers = [i for i, t in enumerate(tokens) if t == vocab.special_id(DOC_EMB)]
            slots = [next(s for s, m in enumerate(markers)
                          if vocab.detokenize(tokens[:m]).endswith('">\n' + text))
                     for text in texts]
            slots += sorted(set(range(len(markers))) - set(slots))  # the augmented positive
            positive_slots.add(slots[0])
            for row, slot in enumerate(slots):
                np.testing.assert_allclose(hidden.data[row], full[markers[slot]],
                                           rtol=0, atol=1e-12, err_msg=f"seed {seed} row {row}")
        assert len(positive_slots) > 1  # the seeds show the positive in different slots

    def test_loss_decreases_over_training(self, trained_model):
        _, trace, _ = trained_model
        early = np.mean([r["total"] for r in trace[:40]])
        late = np.mean([r["total"] for r in trace[-40:]])
        assert late < early

    def test_trained_model_state_is_clean(self, trained_model):
        model, trace, _ = trained_model
        assert len(trace) == 400
        for w in model.weights.values():
            assert w.requires_grad is False
            assert w.grad is None
        # no adapter tensors leak into the folded weight dict
        assert not any("lora" in k for k in model.weights)

    def test_overfit_reaches_high_ndcg(self, trained_model, synth_corpus):
        model, _, _ = trained_model
        scores = []
        for qid, qtext in synth_corpus.queries[:10]:
            docs = [Document(d, synth_corpus.docs[d]) for d in synth_corpus.candidates[qid]]
            res = rerank(model, RerankRequest(qtext, docs), max_doc_tokens=16)
            scores.append(ndcg_at_k(res.doc_ids(), synth_corpus.qrels[qid], 10))
        assert np.mean(scores) > 0.9

    def test_full_mode_touches_backbone(self, synth_corpus, synth_vocab):
        cfg = tiny_backbone_config(vocab_size=len(synth_vocab), d_ffn=64)
        model = RerankModel.create(synth_vocab, cfg, seed=3)
        before = model.weights["layers.0.attn_norm.gain"].data.copy()
        stage = StageConfig(
            mode="full", steps=2, learning_rate=1e-3, batch_size=4,
            n_negatives=7, temperature=0.25, max_doc_tokens=16, seed=5,
        )
        train_stage(model, corpus_dataset(synth_corpus), stage)
        assert (model.weights["layers.0.attn_norm.gain"].data != before).any()

    @pytest.mark.parametrize("mode, train_embeddings", [
        ("adapters", True), ("adapters", False), ("full", True),
    ])
    def test_trainable_set(self, synth_corpus, synth_vocab, mode, train_embeddings):
        """A stage moves the weights it trains and the ones its adapters fold
        into; every other weight keeps its bytes."""
        cfg = tiny_backbone_config(vocab_size=len(synth_vocab), d_ffn=64)
        model = RerankModel.create(synth_vocab, cfg, seed=3)
        before = {k: v.data.copy() for k, v in model.weights.items()}
        stage = dataclasses.replace(overfit_stage_config(steps=2), mode=mode,
                                    train_embeddings=train_embeddings)
        train_stage(model, corpus_dataset(synth_corpus), stage)
        targets = lora_target_names(cfg)
        for k, w in model.weights.items():
            trained = (mode == "full" or k in targets or k.startswith("projector.")
                       or (k == "embed.weight" and train_embeddings))
            assert (w.data.tobytes() != before[k].tobytes()) == trained, k
            assert w.requires_grad is False and w.grad is None

    def test_loss_trace_file(self, tmp_path):
        trace = [{"step": 0, "total": 1.5}, {"step": 1, "total": 1.2}]
        p = tmp_path / "trace.jsonl"
        write_atomic({p: jsonl_bytes(trace)})
        lines = [json.loads(l) for l in p.read_text().splitlines()]
        assert lines == trace


class TestMerge:
    def _ckpts(self, seed=0):
        rng = np.random.default_rng(seed)
        shapes = {"w1": (3, 4), "w2": (5,)}
        return [
            {k: rng.normal(size=s) for k, s in shapes.items()} for _ in range(2)
        ]

    def test_two_model_oracle(self):
        c1, c2 = self._ckpts()
        merged = merge_models([c1, c2], [0.25, 0.65])
        t = 0.25 + 0.65
        for name in c1:
            expected = (0.25 / t) * c1[name] + (0.65 / t) * c2[name]
            np.testing.assert_allclose(merged[name], expected, atol=1e-15)

    def test_single_model_identity(self):
        (c1, _) = self._ckpts()
        for w in (1.0, 0.3):
            merged = merge_models([c1], [w])
            for name in c1:
                np.testing.assert_array_equal(merged[name], c1[name])

    def test_name_mismatch(self):
        c1, c2 = self._ckpts()
        del c2["w2"]
        with pytest.raises(ListrankError, match="different tensors"):
            merge_models([c1, c2], [0.5, 0.5])

    def test_shape_mismatch(self):
        c1, c2 = self._ckpts()
        c2["w1"] = np.zeros((2, 2))
        with pytest.raises(ListrankError, match="shape"):
            merge_models([c1, c2], [0.5, 0.5])

    def test_weight_bounds(self):
        (c1, _) = self._ckpts()
        with pytest.raises(ListrankError, match=r"merge weight 0.0 outside \(0, 1\]"):
            merge_models([c1], [0.0])
        with pytest.raises(ListrankError, match=r"merge weight 1.5 outside \(0, 1\]"):
            merge_models([c1], [1.5])
        with pytest.raises(ListrankError, match="merge needs at least one checkpoint"):
            merge_models([], [])

    def test_weight_count_mismatch(self):
        c1, c2 = self._ckpts()
        with pytest.raises(ListrankError, match="2 checkpoints but 1 merge weights"):
            merge_models([c1, c2], [0.5])
