"""Operator surface: rerank, train, merge, eval, gradcheck, synth.

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

import numpy as np

from . import autodiff as ad
from . import backbone as bb
from .autodiff import Tape, Tensor, finite_diff_check
from .checkpoint import jsonl_bytes, parse_json, write_atomic
from .embedding import init_projector, project
from .errors import ListrankError
from .evaluation import (
    SyntheticCorpus,
    evaluate_run,
    generate_synthetic_corpus,
    load_corpus_files,
    ndcg_at_k,
    write_corpus_files,
)
from .losses import TrainingBatch, all_losses
from .model import RerankModel
from .prompt import ORDERINGS, Vocabulary, check_limits
from .reranker import read_requests, rerank, write_run
from .trainer import (
    StageConfig,
    TrainingExample,
    apply_lora,
    create_adapters,
    merge_models,
    train_stage,
)

GRADCHECK_THRESHOLD = 1e-4


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


def _gradcheck_losses(seed: int) -> float:
    rng = np.random.default_rng(seed)
    n_queries, n_neg, dim = 2, 3, 6
    width = 4 + n_neg
    X = Tensor(rng.normal(size=(n_queries * width, dim)), requires_grad=True)
    # each query's rows: query, dual query, positive, augmented, negatives
    first = np.arange(n_queries) * width
    rows = dict(query=first, dual_query=first + 1, positive=first + 2, augmented=first + 3,
                negatives=first[:, None] + np.arange(4, width))
    return finite_diff_check(lambda x: all_losses(TrainingBatch(x, 0.25, **rows))[0], X)


def _gradcheck_projector(seed: int) -> float:
    rng = np.random.default_rng(seed)
    weights = init_projector(8, seed)
    # O(1) weights keep gradients well above the finite-difference noise
    # floor; the positive hidden bias keeps rectifier units away from their
    # kink and the output away from zero norm
    for name in ("projector.w1", "projector.w2"):
        weights[name].data = rng.normal(0.0, 0.5, weights[name].shape)
    weights["projector.b1"].data = 0.5 + rng.random(4)
    weights["projector.b2"].data = rng.normal(0.0, 0.1, 4)
    u = Tensor(rng.normal(size=(1, 8)))
    v = Tensor(rng.normal(size=(1, 8)))
    w1 = weights["projector.w1"]
    w1.requires_grad = True

    def f(_):
        return ad.tsum(ad.cosine(project(u, weights), project(v, weights)))

    return finite_diff_check(f, w1)


def _gradcheck_backbone(seed: int) -> float:
    rng = np.random.default_rng(seed)
    cfg = bb.BackboneConfig(n_layers=2, d_hidden=32, n_q_heads=4, n_kv_heads=2,
                            d_ffn=32, max_context=64, vocab_size=50)
    weights = bb.init_weights(cfg, seed)
    tokens = rng.integers(0, cfg.vocab_size, size=6).tolist()
    target = weights["layers.0.attn.wq"]
    target.requires_grad = True

    def f(_):
        return ad.tmean(bb.forward(tokens, cfg, weights))

    coords = np.random.default_rng(seed + 1).choice(target.data.size, size=64, replace=False)
    # h=1e-5: the forward is smooth, so a larger step trades negligible
    # truncation error for a 10x smaller roundoff floor
    return finite_diff_check(f, target, h=1e-5, coords=coords.tolist())


def _gradcheck_lora(seed: int) -> float:
    rng = np.random.default_rng(seed)
    base = {"w": Tensor(rng.normal(size=(6, 5)))}
    adapters = create_adapters(base, ["w"], rank=2, seed=seed)
    a, b = adapters["w"]
    b.data = rng.normal(size=b.data.shape)  # move off zero init for the check
    a.requires_grad = True
    b.requires_grad = True
    x = Tensor(rng.normal(size=(3, 6)))

    def f(_):
        eff = apply_lora(base, adapters, alpha=4.0)
        return ad.tmean(ad.matmul(x, eff["w"]))

    err_a = finite_diff_check(f, a)
    err_b = finite_diff_check(f, b)
    # base weights must stay gradient-free in adapters-only mode
    base["w"].grad = None
    with Tape():
        loss = f(None)
        ad.backward(loss)
    if base["w"].grad is not None:
        raise ListrankError("base weight received gradient in adapters-only mode")
    return max(err_a, err_b)


_GRADCHECKS = {
    "losses": _gradcheck_losses,
    "projector": _gradcheck_projector,
    "backbone": _gradcheck_backbone,
    "lora": _gradcheck_lora,
}


def cmd_gradcheck(args) -> int:
    worst = _GRADCHECKS[args.component](args.seed)
    ok = worst < GRADCHECK_THRESHOLD
    print(f"[gradcheck] component={args.component} seed={args.seed} "
          f"worst_relative_error={worst:.3e} threshold={GRADCHECK_THRESHOLD:.0e} "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 3


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

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--component", choices=sorted(_GRADCHECKS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

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
