#!/usr/bin/env python3
"""Overfit a desk-scale reranker on a synthetic corpus and report
training-set nDCG@10 before and after training.

Example:
    python3 scripts/overfit_experiment.py --steps 400 --out-dir /tmp/overfit
"""

import argparse
import json
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from listrank import BackboneConfig, RerankModel, Vocabulary
from listrank.checkpoint import jsonl_bytes, write_atomic
from listrank.evaluation import generate_synthetic_corpus, ndcg_at_k
from listrank.reranker import rerank
from listrank.trainer import StageConfig, TrainingExample, train_stage


def mean_train_ndcg(model, corpus, max_doc_tokens=16):
    return float(np.mean([
        ndcg_at_k(rerank(model, request, max_doc_tokens=max_doc_tokens).doc_ids(),
                  corpus.qrels[qid], 10)
        for qid, request in corpus.requests()]))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-queries", type=int, default=50)
    parser.add_argument("--docs-per-query", type=int, default=8)
    parser.add_argument("--steps", type=int, default=400)
    parser.add_argument("--learning-rate", type=float, default=3e-3)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out-dir", type=Path, default=Path("runs/overfit"))
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    corpus = generate_synthetic_corpus(args.n_queries, args.docs_per_query, seed=7)
    vocab = Vocabulary(corpus.words())
    config = BackboneConfig(
        n_layers=2, d_hidden=32, n_q_heads=4, n_kv_heads=2,
        d_ffn=64, max_context=512, effective_seq_len=512, vocab_size=len(vocab),
    )
    model = RerankModel.create(vocab, config, seed=3)

    baseline = mean_train_ndcg(model, corpus)
    print(f"untrained baseline nDCG@10 = {baseline:.4f}")

    dataset = [
        TrainingExample(
            query_id=qid, query_text=qtext,
            positive=corpus.docs[f"{qid}_d00"],
            negatives=[corpus.docs[d] for d in corpus.candidates[qid][1:]],
        )
        for qid, qtext in corpus.queries
    ]
    stage = StageConfig(
        mode="adapters", steps=args.steps, learning_rate=args.learning_rate,
        batch_size=4, n_negatives=args.docs_per_query - 1, n_inbatch_negatives=3,
        temperature=0.25, max_doc_tokens=16, lora_rank=8, lora_alpha=16.0,
        seed=args.seed,
    )
    start = time.perf_counter()
    trace = train_stage(model, dataset, stage)
    elapsed = time.perf_counter() - start
    trained = mean_train_ndcg(model, corpus)

    print(f"trained nDCG@10 = {trained:.4f} after {len(trace)} steps "
          f"({elapsed:.1f}s, {1000 * elapsed / max(len(trace), 1):.0f} ms/step)")
    print(f"loss: first={trace[0]['total']:.4f} last={trace[-1]['total']:.4f}")

    model.save(args.out_dir / "model.ckpt")
    write_atomic({args.out_dir / "loss_trace.jsonl": jsonl_bytes(trace)})
    summary = {
        "baseline_ndcg10": baseline,
        "trained_ndcg10": trained,
        "steps": len(trace),
        "seconds": elapsed,
        "stage": asdict(stage),
    }
    (args.out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"artifacts written to {args.out_dir}")


if __name__ == "__main__":
    main()
