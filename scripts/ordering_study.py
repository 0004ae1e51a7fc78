#!/usr/bin/env python3
"""Measure ranking stability under different candidate presentation
orderings (descending / ascending / random first-stage score).

Loads a trained checkpoint produced by overfit_experiment.py (or trains a
fresh one with --train) and reports mean nDCG@10 per ordering plus the
max-min spread.

Example:
    python3 scripts/ordering_study.py --model runs/overfit/model.ckpt
"""

import argparse
import json
from pathlib import Path

import numpy as np

from listrank.evaluation import generate_synthetic_corpus, lexical_overlap_scorer, ndcg_at_k
from listrank.model import RerankModel
from listrank.prompt import Document, RerankRequest
from listrank.reranker import rerank


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", type=Path, default=Path("runs/overfit/model.ckpt"))
    parser.add_argument("--n-queries", type=int, default=50)
    parser.add_argument("--docs-per-query", type=int, default=8)
    parser.add_argument("--random-seed", type=int, default=5)
    parser.add_argument("--out", type=Path, default=None,
                        help="optional JSON summary path")
    args = parser.parse_args()

    if not args.model.exists():
        raise SystemExit(
            f"model checkpoint not found: {args.model} "
            "(run scripts/overfit_experiment.py first)"
        )
    model = RerankModel.load(args.model)
    corpus = generate_synthetic_corpus(args.n_queries, args.docs_per_query, seed=7)

    sums = {"desc": 0.0, "asc": 0.0, "random": 0.0}
    n = len(corpus.queries)
    for qid, qtext in corpus.queries:
        docs = [
            Document(d, corpus.docs[d],
                     first_stage_score=lexical_overlap_scorer(qtext, corpus.docs[d]))
            for d in corpus.candidates[qid]
        ]
        for ordering in sums:
            result = rerank(model, RerankRequest(qtext, docs), max_doc_tokens=16,
                            ordering=ordering, seed=args.random_seed)
            sums[ordering] += ndcg_at_k(result.doc_ids(), corpus.qrels[qid])

    means = {v: s / n for v, s in sums.items()}
    spread = max(means.values()) - min(means.values())
    for variant in ("desc", "asc", "random"):
        print(f"{variant:>6}: mean nDCG@10 = {means[variant]:.4f}")
    print(f"spread (max - min) = {spread:.4f}")

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"means": means, "spread": spread}, indent=2) + "\n")
        print(f"summary written to {args.out}")


if __name__ == "__main__":
    main()
