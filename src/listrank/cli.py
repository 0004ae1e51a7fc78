"""Operator surface: rerank, train, merge, eval, synth.

Flags are the only settings; a set ``LISTRANK_*`` environment variable is
refused. Exit codes: 0 ok, else the ``exit_code`` of the ``listrank.errors``
class raised (2 bad input or config, 3 numeric inference failure, 4 training
divergence), and 2 for a missing or unreadable file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .autodiff import Tensor
from .checkpoint import jsonl_bytes, parse_json, write_atomic
from .errors import ListrankError
from .evaluation import (
    SyntheticCorpus,
    evaluate_run,
    generate_synthetic_corpus,
    load_corpus_files,
    ndcg_at_k,
    write_corpus_files,
)
from .model import RerankModel
from .prompt import ORDERINGS, Vocabulary, check_limits
from .reranker import read_requests, rerank, write_run
from .trainer import StageConfig, TrainingExample, merge_models, train_stage


def _print_config(name: str, args: argparse.Namespace):
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"[{name}] resolved config: {json.dumps(resolved, sort_keys=True, default=str)}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_rerank(args) -> int:
    check_limits(args.max_doc_tokens, args.max_docs_per_pass)
    model = RerankModel.load(args.model)
    results = {}
    for query_id, request in read_requests(args.input):
        results[query_id] = rerank(
            model, request,
            max_docs_per_pass=args.max_docs_per_pass,
            max_doc_tokens=args.max_doc_tokens,
            ordering=args.ordering, seed=args.seed,
        )
    write_run(args.output, results)
    print(f"[rerank] wrote {sum(len(r.entries) for r in results.values())} rows "
          f"for {len(results)} queries to {args.output}")
    return 0


def _training_examples(corpus: SyntheticCorpus) -> list[TrainingExample]:
    examples = []
    for qid, qtext in corpus.queries:
        rels = corpus.qrels[qid]
        positive = next(d for d in corpus.candidates[qid] if rels[d] > 0)
        negatives = [corpus.docs[d] for d in corpus.candidates[qid] if rels[d] == 0]
        examples.append(TrainingExample(qid, qtext, corpus.docs[positive], negatives))
    return examples


def cmd_train(args) -> int:
    if args.trace_out and Path(args.trace_out).resolve() == Path(args.out_checkpoint).resolve():
        raise ListrankError(f"--trace-out {args.trace_out} is the --out-checkpoint file")
    stage = StageConfig.load(args.stage_config)
    corpus = load_corpus_files(args.data)
    dataset = _training_examples(corpus)
    if args.init_checkpoint:
        model = RerankModel.load(args.init_checkpoint)
    else:
        model = RerankModel.create(Vocabulary(corpus.words()), seed=stage.seed)
    trace = train_stage(model, dataset, stage)
    trace_file = {args.trace_out: jsonl_bytes(trace)} if args.trace_out else {}
    write_atomic({args.out_checkpoint: model.to_bytes(), **trace_file})  # both or neither
    # training-set ranking report; train_stage refused an empty dataset
    values = [ndcg_at_k(rerank(model, request, max_doc_tokens=stage.max_doc_tokens).doc_ids(),
                        corpus.qrels[qid]) for qid, request in corpus.requests()]
    mean_ndcg = sum(values) / len(values)
    final = trace[-1]["total"] if trace else float("nan")
    print(f"[train] steps={len(trace)} final_total_loss={final:.6f} "
          f"training nDCG@10={mean_ndcg:.4f}")
    print(f"[train] checkpoint written to {args.out_checkpoint}")
    return 0


def cmd_merge(args) -> int:
    spec_doc = parse_json(Path(args.spec).read_bytes(), f"merge spec {args.spec}")
    # type() rather than isinstance: JSON true/false is not a weight; no path holds a NUL
    if not (isinstance(spec_doc, list) and all(
            isinstance(e, dict) and isinstance(e.get("checkpoint"), str)
            and "\0" not in e["checkpoint"] and type(e.get("weight")) in (int, float)
            for e in spec_doc)):
        raise ListrankError(f"merge spec {args.spec} must be a JSON list of "
                            '{"checkpoint": path, "weight": number} objects')
    models = []
    for item in spec_doc:
        models.append(RerankModel.load(item["checkpoint"]))
        if models[-1].meta() != models[0].meta():
            raise ListrankError(f"{item['checkpoint']} has another vocabulary or backbone "
                                f"than {spec_doc[0]['checkpoint']}")
    merged = merge_models([{k: t.data for k, t in m.weights.items()} for m in models],
                          [float(item["weight"]) for item in spec_doc])
    replace(models[0], weights={name: Tensor(w) for name, w in merged.items()}).save(args.out)
    print(f"[merge] wrote {len(merged)} tensors to {args.out}")
    return 0


def cmd_eval(args) -> int:
    report = evaluate_run(args.run, args.qrels, metric=args.metric, k=args.k)
    if not report.per_query:
        print("[eval] warning: empty run file (0 queries)")
    for line in report.lines():
        print(line)
    return 0


def cmd_synth(args) -> int:
    corpus = generate_synthetic_corpus(args.n_queries, args.docs_per_query, seed=args.seed)
    write_corpus_files(corpus, args.out)
    print(f"[synth] wrote {len(corpus.queries)} queries / {len(corpus.docs)} docs to {args.out}")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="listrank",
        description="Joint-context listwise reranker: inference, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rerank", help="score requests and write a TREC run file")
    p.add_argument("--model", required=True, help="model checkpoint path")
    p.add_argument("--input", required=True, help="JSONL request file")
    p.add_argument("--output", required=True, help="TREC run output path")
    p.add_argument("--ordering", choices=ORDERINGS, default="given")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-docs-per-pass", type=int, default=64)
    p.add_argument("--max-doc-tokens", type=int, default=256)
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("train", help="run one training stage")
    p.add_argument("--stage-config", required=True, help="flat JSON StageConfig")
    p.add_argument("--data", required=True, help="data directory (synth layout)")
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--init-checkpoint", default=None)
    p.add_argument("--trace-out", default=None, help="loss trace JSONL path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("merge", help="linear model merging")
    p.add_argument("--spec", required=True,
                   help='JSON list of {"checkpoint": path, "weight": w}')
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("eval", help="evaluate a TREC run against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--metric", choices=("ndcg", "recall"), default="ndcg")
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic training corpus")
    p.add_argument("--n-queries", type=int, default=50)
    p.add_argument("--docs-per-query", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    try:
        for name in sorted(os.environ):
            if name.startswith("LISTRANK_"):  # older versions read these: refuse, not ignore
                raise ListrankError(f"{name} is set, but listrank takes its settings "
                                    "from flags only")
        args = build_parser().parse_args(argv)
        for name, value in vars(args).items():  # the OS refuses a NUL in a path
            if isinstance(value, str) and "\0" in value:
                raise ListrankError(f"--{name.replace('_', '-')} holds a NUL character")
        # numpy refuses a negative seed with a traceback
        if getattr(args, "seed", 0) < 0:
            raise ListrankError(f"--seed must be >= 0, got {args.seed}")
        _print_config(args.command, args)
        return args.func(args)
    except (ListrankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
