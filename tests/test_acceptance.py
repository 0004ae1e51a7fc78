"""Acceptance gate: one test per release criterion, each printing a
single PASS line (pytest fails the test, and hence the gate, otherwise)."""

import math
import time

import numpy as np
import pytest

from listrank import autodiff as ad
from listrank.autodiff import Tensor
from listrank.backbone import forward as backbone_forward
from listrank.checkpoint import load_checkpoint, save_checkpoint
from listrank.cli import _GRADCHECKS, GRADCHECK_THRESHOLD
from listrank.evaluation import (
    lexical_overlap_scorer,
    ndcg_at_k,
    recall_at_k,
)
from listrank.losses import all_losses
from listrank.model import RerankModel
from listrank.prompt import Document, RerankRequest, Vocabulary, build_prompt
from listrank.reranker import rerank
from listrank.trainer import (
    create_adapters,
    fold_adapters,
    lora_target_names,
    merge_models,
)

from conftest import stacked_batch, tiny_backbone_config

GOLDEN_DIR = __import__("pathlib").Path(__file__).parent / "golden"


def _report(criterion: int, name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion:02d} {name}: PASS{suffix}")


class TestAcceptance:
    def test_criterion_01_gradient_suite(self):
        """Finite-difference agreement < 1e-4 for the losses, projector,
        LoRA path, and a 2-layer backbone, across 20 seeds, under 2 min."""
        start = time.perf_counter()
        worst = {}
        for component, check in sorted(_GRADCHECKS.items()):
            errs = [check(seed) for seed in range(20)]
            worst[component] = max(errs)
            assert worst[component] < GRADCHECK_THRESHOLD, (component, worst[component])
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        detail = ", ".join(f"{c}={e:.2e}" for c, e in worst.items())
        _report(1, "gradient suite", f"{detail}; {elapsed:.1f}s")

    def test_criterion_02_closed_form_losses(self):
        """Uniform-similarity contrastive loss = ln(K+1) for K in
        {1, 9, 15, 25}; dispersive K=2 zero-similarity case = ln(3/2)."""
        for k in (1, 9, 15, 25):
            eye = np.eye(k + 2)
            g = dict(
                query=eye[k + 1],
                positive=eye[0],
                negatives=[eye[1 + i] for i in range(k)],
            )
            got = float(all_losses(stacked_batch([g], temperature=0.25))[1]["rank"].data)
            assert abs(got - math.log(k + 1)) < 1e-9, (k, got)
        eye = np.eye(5)
        g = dict(
            query=eye[0], positive=eye[1],
            negatives=[eye[2], eye[3]],
        )
        got = float(all_losses(stacked_batch([g], temperature=0.25))[1]["disperse"].data)
        assert abs(got - math.log(1.5)) < 1e-9
        _report(2, "closed-form losses", "ln(K+1) for K in {1,9,15,25}; ln(3/2)")

    def test_criterion_03_total_loss_composition(self):
        """Total = rank + 0.45*disperse + 0.85*dual + 0.85*similar within
        1e-12 on random batches."""
        rng = np.random.default_rng(0)
        for trial in range(10):
            groups = []
            for _ in range(3):
                mk = lambda: rng.normal(size=6)
                groups.append(dict(
                    query=mk(), positive=mk(), dual_query=mk(), augmented=mk(),
                    negatives=[mk() for _ in range(4)],
                ))
            batch = stacked_batch(groups, temperature=0.25)
            total, parts = all_losses(batch)
            expected = (
                float(parts["rank"].data)
                + 0.45 * float(parts["disperse"].data)
                + 0.85 * float(parts["dual"].data)
                + 0.85 * float(parts["similar"].data)
            )
            assert abs(float(total.data) - expected) < 1e-12
        _report(3, "weighted-sum objective", "10 random batches, tol 1e-12")

    def test_criterion_04_prompt_golden_files(self):
        """Prompt text reproduces the golden files byte-for-byte for
        k in {1, 2, 5}, with a marker after every document and after the
        trailing query."""
        vocab = Vocabulary(["alpha", "beta", "gamma", "delta", "epsilon"])
        for k in (1, 2, 5):
            passages = [vocab.tokenize(f"alpha beta doc{i} body")[:32] for i in range(k)]
            layout = build_prompt("what is listwise reranking", vocab, passages)
            expected = (GOLDEN_DIR / f"prompt_k{k}.txt").read_bytes()
            assert vocab.detokenize(layout.token_ids).encode("utf-8") == expected, f"k={k} drifted"
            assert len(layout.doc_marker_positions) == k
            assert layout.query_marker_position > max(layout.doc_marker_positions)
        _report(4, "prompt template fidelity", "k in {1,2,5} byte-for-byte")

    def test_criterion_05_causality(self):
        """1000 random (sequence, perturbation-position) trials: tokens
        before the perturbed position produce bit-identical hidden states."""
        cfg = tiny_backbone_config(vocab_size=40, max_context=32)
        from listrank.backbone import init_weights

        weights = init_weights(cfg, seed=0)
        rng = np.random.default_rng(123)
        for trial in range(1000):
            n = int(rng.integers(2, 16))
            tokens = rng.integers(0, cfg.vocab_size, size=n).tolist()
            p = int(rng.integers(n))
            mutated = list(tokens)
            mutated[p] = int((mutated[p] + 1 + rng.integers(cfg.vocab_size - 1))
                             % cfg.vocab_size)
            if mutated[p] == tokens[p]:
                mutated[p] = (tokens[p] + 1) % cfg.vocab_size
            base = backbone_forward(tokens, cfg, weights).data
            changed = backbone_forward(mutated, cfg, weights).data
            assert (base[:p] == changed[:p]).all(), f"trial {trial}"
        _report(5, "causality", "1000 trials, zero pre-position drift")

    def test_criterion_06_overfit_separation(self, trained_model, untrained_model,
                                             synth_corpus):
        """Synthetic 50x8 corpus: trained model reaches nDCG@10 >= 0.95 on
        the training set in under 10 minutes; the untrained baseline stays
        <= 0.6 on the same corpus."""
        model, trace, train_seconds = trained_model
        assert len(trace) <= 2000
        assert train_seconds < 600.0

        def mean_ndcg(m):
            vals = []
            for qid, qtext in synth_corpus.queries:
                docs = [Document(d, synth_corpus.docs[d])
                        for d in synth_corpus.candidates[qid]]
                res = rerank(m, RerankRequest(qtext, docs), max_doc_tokens=16)
                vals.append(ndcg_at_k(res.doc_ids(), synth_corpus.qrels[qid], 10))
            return float(np.mean(vals))

        trained_score = mean_ndcg(model)
        baseline_score = mean_ndcg(untrained_model)
        assert trained_score >= 0.95, trained_score
        assert baseline_score <= 0.6, baseline_score
        _report(6, "overfit separation",
                f"trained={trained_score:.3f} baseline={baseline_score:.3f} "
                f"steps={len(trace)} time={train_seconds:.0f}s")

    def test_criterion_07_ordering_stability(self, trained_model, synth_corpus):
        """Mean nDCG@10 under descending/ascending/random candidate
        presentation differs by at most 0.05 on the trained model."""
        model, _, _ = trained_model
        sums = {"desc": 0.0, "asc": 0.0, "random": 0.0}
        n = 15
        for qid, qtext in synth_corpus.queries[:n]:
            docs = [
                Document(d, synth_corpus.docs[d],
                         first_stage_score=lexical_overlap_scorer(
                             qtext, synth_corpus.docs[d]))
                for d in synth_corpus.candidates[qid]
            ]
            for ordering in sums:
                result = rerank(model, RerankRequest(qtext, docs), max_doc_tokens=16,
                                ordering=ordering, seed=5)
                sums[ordering] += ndcg_at_k(result.doc_ids(), synth_corpus.qrels[qid])
        means = {v: s / n for v, s in sums.items()}
        spread = max(means.values()) - min(means.values())
        assert spread <= 0.05, means
        detail = " ".join(f"{v}={m:.3f}" for v, m in sorted(means.items()))
        _report(7, "ordering stability", f"{detail} spread={spread:.3f}")

    def test_criterion_08_lora_zero_init_equivalence(self, untrained_model,
                                                     synth_corpus):
        """Folding freshly initialized adapters (B = 0) into the base model
        changes nothing: identical rankings and scores on 100 requests."""
        base = untrained_model
        targets = lora_target_names(base.backbone_config)
        adapters = create_adapters(base.weights, targets, rank=8, seed=42)
        folded = fold_adapters(base.weights, adapters, alpha=16.0)
        with_adapters = RerankModel(
            vocab=base.vocab,
            backbone_config=base.backbone_config,
            weights=folded,
        )
        rng = np.random.default_rng(99)
        doc_ids = sorted(synth_corpus.docs)
        for trial in range(100):
            qtext = synth_corpus.queries[int(rng.integers(50))][1]
            pick = rng.choice(len(doc_ids), size=4, replace=False)
            docs = [Document(doc_ids[int(i)], synth_corpus.docs[doc_ids[int(i)]])
                    for i in pick]
            req = RerankRequest(qtext, docs)
            a = rerank(base, req, max_doc_tokens=8)
            b = rerank(with_adapters, req, max_doc_tokens=8)
            assert [(e.doc_id, e.score) for e in a.entries] == [
                (e.doc_id, e.score) for e in b.entries
            ], f"trial {trial}"
        _report(8, "adapter zero-init equivalence", "100 random requests identical")

    def test_criterion_09_merge_correctness(self, tmp_path):
        """Two-model merge with weights {0.25, 0.65} matches the per-scalar
        oracle within 1e-12; a single-model merge round-trips to a
        byte-identical checkpoint."""
        rng = np.random.default_rng(7)
        shapes = {"embed.weight": (10, 4), "layers.0.attn.wq": (4, 4), "b": (3,)}
        ck_a = {k: rng.normal(size=s) for k, s in shapes.items()}
        ck_b = {k: rng.normal(size=s) for k, s in shapes.items()}
        merged = merge_models([ck_a, ck_b], [0.25, 0.65])
        t = 0.25 + 0.65
        for name in shapes:
            oracle = (0.25 / t) * ck_a[name] + (0.65 / t) * ck_b[name]
            assert np.abs(merged[name] - oracle).max() < 1e-12

        meta = {"kind": "test-merge"}
        p_orig, p_merged = tmp_path / "orig.ckpt", tmp_path / "merged.ckpt"
        save_checkpoint(p_orig, ck_a, meta)
        single = merge_models([ck_a], [0.7])
        save_checkpoint(p_merged, single, meta)
        assert p_orig.read_bytes() == p_merged.read_bytes()
        _report(9, "merge correctness", "oracle tol 1e-12; identity byte-identical")

    def test_criterion_10_metric_oracle(self):
        """nDCG@10 and Recall@10 agree with an exhaustive reference on 1000
        random fixtures within 1e-12; the single-relevant-at-rank-2 hand
        case equals 1/log2(3)."""

        def ref_ndcg(ranking, qrels, k):
            def dcg(rels):
                return sum((2 ** r - 1) / math.log2(i + 2) for i, r in enumerate(rels))

            ideal = dcg(sorted(qrels.values(), reverse=True)[:k])
            if ideal == 0:
                return 0.0
            return dcg([qrels.get(d, 0) for d in ranking[:k]]) / ideal

        def ref_recall(ranking, qrels, k):
            relevant = [d for d, r in qrels.items() if r > 0]
            if not relevant:
                return 0.0
            return sum(1 for d in ranking[:k] if qrels[d] > 0) / len(relevant)

        rng = np.random.default_rng(11)
        for trial in range(1000):
            n = int(rng.integers(1, 25))
            docs = [f"d{i}" for i in range(n)]
            qrels = {d: int(rng.integers(0, 4)) for d in docs}
            ranking = [docs[int(i)] for i in rng.permutation(n)]
            assert abs(ndcg_at_k(ranking, qrels, 10) - ref_ndcg(ranking, qrels, 10)) < 1e-12
            assert abs(recall_at_k(ranking, qrels, 10) - ref_recall(ranking, qrels, 10)) < 1e-12
        hand = ndcg_at_k(["bad", "good"], {"good": 1, "bad": 0}, 10)
        assert hand == 1.0 / math.log2(3)
        assert abs(hand - 0.6309297535714574) < 1e-12
        _report(10, "metric oracle", "1000 fixtures tol 1e-12; 1/log2(3) exact")

    def test_criterion_11_batched_rerank_integrity(self, synth_vocab):
        """A 150-document request under the 64-docs-per-pass cap scores every
        document exactly once, deterministically; when the whole candidate
        set fits one pass, the chunked path equals explicit single-pass
        scoring."""
        cfg = tiny_backbone_config(
            vocab_size=len(synth_vocab), max_context=4096, effective_seq_len=4096,
        )
        model = RerankModel.create(synth_vocab, cfg, seed=5)
        docs = [Document(f"d{i:03d}", f"w{i % 40:03d} w{(i * 7) % 40:03d}")
                for i in range(150)]
        req = RerankRequest("topic000 key000", docs)
        res1 = rerank(model, req, max_docs_per_pass=64, max_doc_tokens=4)
        res2 = rerank(model, req, max_docs_per_pass=64, max_doc_tokens=4)
        ids = res1.doc_ids()
        assert len(ids) == 150 and len(set(ids)) == 150
        sizes = {}
        for e in res1.entries:
            sizes[e.batch_index] = sizes.get(e.batch_index, 0) + 1
        assert sizes == {0: 64, 1: 64, 2: 22}
        assert [(e.doc_id, e.score) for e in res1.entries] == [
            (e.doc_id, e.score) for e in res2.entries
        ]

        small = RerankRequest("topic000 key000", docs[:20])
        chunked = rerank(model, small, max_docs_per_pass=64, max_doc_tokens=4)
        assert all(e.batch_index == 0 for e in chunked.entries)
        layout = build_prompt(small.query, model.vocab,
                              [model.vocab.tokenize(d.text)[:4] for d in small.documents],
                              max_context=cfg.max_context)
        from listrank.backbone import forward
        from listrank.embedding import extract, project, score

        hidden = forward(layout.token_ids, cfg, model.weights, rows=extract(layout))
        emb = project(hidden, model.weights).data
        sims = score(Tensor(emb[-1:]), Tensor(emb[:-1])).data[0]
        manual = sorted(
            (
                (-float(s), d.doc_id)
                for d, s in zip(small.documents, sims)
            ),
        )
        assert [(e.doc_id, e.score) for e in chunked.entries] == [
            (doc_id, -neg) for neg, doc_id in manual
        ]
        _report(11, "batched rerank integrity",
                "150 docs -> batches 64/64/22, deterministic, single-pass equal")
