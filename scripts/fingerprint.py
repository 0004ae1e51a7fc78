#!/usr/bin/env python3
"""Write a byte-exact fingerprint of training and reranking, to compare two
checkouts of listrank.

It builds the model of ``overfit_experiment.py`` on a synthetic corpus of
Q queries x D candidates and trains it through four stages: adapters,
full fine-tuning, adapters with frozen word embeddings, and adapters with
no in-batch negatives. It then reranks every query under the 512-token
context (3 passes per query at D = 64) in each presentation order of
``ORDERINGS``, with first-stage scores from ``lexical_overlap_scorer`` and
random seed ``RANDOM_SEED``. The output is sorted-key JSON: each stage's
loss trace as ``float.hex``, a SHA-256 of every tensor after each stage,
and each ranking, keyed ``<ordering>/<query id>``, with its scores as
``float.hex`` and its batch index. Two checkouts that compute the same
bits write the same bytes; compare runs made with BLAS on one thread.
The script imports only the listrank package, with the model recipe and
stage of ``overfit_experiment.py`` written out, so it runs unchanged when
copied into an older checkout whose ``rerank`` takes ``ordering`` and ``seed``.

A change that is exact only up to rounding writes other bytes. ``--compare
OLD NEW`` checks two fingerprints: it exits 0 only when the rankings and
batch indices are identical and every score and loss value agrees within
``TOLERANCE`` (relative to max(1, |x|)). It prints the largest difference and
counts the tensor digests that differ, which it does not judge.

Example:
    OPENBLAS_NUM_THREADS=1 python3 scripts/fingerprint.py --out /tmp/fp.json
    python3 scripts/fingerprint.py --compare /tmp/old.json /tmp/fp.json
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from listrank import BackboneConfig, RerankModel, Vocabulary
from listrank.evaluation import generate_synthetic_corpus, lexical_overlap_scorer
from listrank.prompt import Document, RerankRequest
from listrank.reranker import rerank
from listrank.trainer import StageConfig, TrainingExample, train_stage

STAGES = {  # name -> fields that differ from the overfit experiment's stage
    "adapters": {},
    "full": {"mode": "full", "learning_rate": 1e-3},
    "frozen_embeddings": {"train_embeddings": False},
    "no_inbatch_negatives": {"n_inbatch_negatives": 0},
}
ORDERINGS = ("given", "desc", "asc", "random")  # written out: older checkouts lack the constant
RANDOM_SEED = 5
TOLERANCE = 1e-12  # largest relative difference --compare allows


def hex_floats(record: dict) -> dict:
    return {k: v.hex() if isinstance(v, float) else v for k, v in record.items()}


def tensor_digests(model: RerankModel) -> dict:
    return {name: hashlib.sha256(np.ascontiguousarray(t.data, dtype="<f8").tobytes()).hexdigest()
            for name, t in model.weights.items()}


def compare(old: dict, new: dict, tol: float) -> int:
    """Print how far two fingerprints differ; 0 if they agree within ``tol``."""
    worst, where, mismatches = 0.0, None, []

    def walk(a, b, at: str):
        nonlocal worst, where
        if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
            for key in a:
                walk(a[key], b[key], f"{at}/{key}")
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{at}/{i}")
        elif all(isinstance(t, str) and t.startswith(("0x", "-0x")) for t in (a, b)):
            x, y = float.fromhex(a), float.fromhex(b)
            diff = abs(x - y) / max(1.0, abs(x))
            if where is None or diff > worst:
                worst, where = diff, at
            if not diff <= tol:
                mismatches.append(f"{at}: {x!r} vs {y!r}")
        elif a != b:  # a document, a batch index, a step or the shape differs
            mismatches.append(f"{at}: {a!r} vs {b!r}")

    def losses(fingerprint):
        return {name: stage["loss_trace"] for name, stage in fingerprint["stages"].items()}

    walk(old["rankings"], new["rankings"], "rankings")
    walk(losses(old), losses(new), "loss_trace")
    digests = [(digest, new["stages"].get(name, {}).get("tensors", {}).get(tensor))
               for name, stage in old["stages"].items()
               for tensor, digest in stage["tensors"].items()]
    differ = sum(a != b for a, b in digests)
    print(f"largest difference: {worst:.3g} ({where}), tolerance {tol:g}")
    print(f"tensor digests: {len(digests) - differ} equal, {differ} different")
    for line in mismatches[:20]:
        print(f"MISMATCH {line}")
    print(f"{len(mismatches)} mismatches" if mismatches else "clean")
    return 1 if mismatches else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="fingerprint JSON path")
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"),
                      help="compare two fingerprint files instead of writing one")
    parser.add_argument("--steps", type=int, default=30, help="steps of each stage")
    parser.add_argument("--n-queries", type=int, default=20)
    parser.add_argument("--docs-per-query", type=int, default=64)
    args = parser.parse_args()
    if args.compare:
        old, new = (json.loads(p.read_text()) for p in args.compare)
        sys.exit(compare(old, new, TOLERANCE))

    corpus = generate_synthetic_corpus(args.n_queries, args.docs_per_query, seed=7)
    vocab = Vocabulary(corpus.words())
    config = BackboneConfig(
        n_layers=2, d_hidden=32, n_q_heads=4, n_kv_heads=2,
        d_ffn=64, max_context=512, effective_seq_len=512, vocab_size=len(vocab),
    )
    model = RerankModel.create(vocab, config, seed=3)
    dataset = [
        TrainingExample(qid, qtext, corpus.docs[f"{qid}_d00"],
                        [corpus.docs[d] for d in corpus.candidates[qid][1:]])
        for qid, qtext in corpus.queries
    ]

    stages = {}
    for seed, (name, fields) in enumerate(STAGES.items(), start=11):
        # at most 7 negatives, so a training prompt fits the 512-token context
        stage = StageConfig(**{
            "mode": "adapters", "steps": args.steps, "learning_rate": 3e-3, "batch_size": 4,
            "n_negatives": min(7, args.docs_per_query - 1), "n_inbatch_negatives": 3,
            "temperature": 0.25, "max_doc_tokens": 16, "lora_rank": 8, "lora_alpha": 16.0,
            "seed": seed, **fields})
        trace = train_stage(model, dataset, stage)
        stages[name] = {"loss_trace": [hex_floats(r) for r in trace],
                        "tensors": tensor_digests(model)}

    rankings = {}
    for qid, qtext in corpus.queries:
        docs = [Document(d, corpus.docs[d], lexical_overlap_scorer(qtext, corpus.docs[d]))
                for d in corpus.candidates[qid]]
        for ordering in ORDERINGS:
            result = rerank(model, RerankRequest(qtext, docs), max_doc_tokens=16,
                            ordering=ordering, seed=RANDOM_SEED)
            rankings[f"{ordering}/{qid}"] = [
                [e.doc_id, None if e.score is None else e.score.hex(), e.batch_index]
                for e in result.entries]

    args.out.write_text(json.dumps({"stages": stages, "rankings": rankings},
                                   sort_keys=True, indent=1) + "\n")
    print(f"fingerprint of {len(STAGES)} stages and {len(rankings)} rankings "
          f"written to {args.out}")


if __name__ == "__main__":
    main()
