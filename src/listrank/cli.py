"""Operator surface: rerank, train, merge, eval, gradcheck, synth.

Every flag's default may be overridden by an environment variable named
``LISTRANK_<FLAG>`` (resolved before parsing, so explicit flags win).
Exit codes: 0 ok, 2 validation/config, 3 numeric inference failure,
4 training divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import backbone as bb
from .autodiff import Tape, Tensor, finite_diff_check
from .checkpoint import load_checkpoint, save_checkpoint
from .embedding import ProjectorConfig, init_projector, project
from .errors import (
    ConfigError,
    DataError,
    DegenerateEmbeddingError,
    ListrankError,
    NonFiniteLossError,
    ParseError,
    ValidationError,
)
from .evaluation import (
    SyntheticCorpus,
    evaluate_run,
    generate_synthetic_corpus,
    load_corpus_files,
    ndcg_at_k,
    write_corpus_files,
)
from .losses import LossWeights, QueryGroup, TrainingBatch, total_loss
from .model import RerankModel
from .prompt import Document, RerankRequest, Vocabulary
from .reranker import read_requests, rerank, write_run
from .trainer import (
    MergeSpec,
    StageConfig,
    TrainingExample,
    apply_lora,
    create_adapters,
    merge_models,
    train_stage,
    write_loss_trace,
)

GRADCHECK_THRESHOLD = 1e-4


def _env_default(flag: str, fallback):
    name = f"LISTRANK_{flag.upper().replace('-', '_')}"
    value = os.environ.get(name)
    if value is None:
        return fallback
    try:
        return type(fallback)(value)
    except ValueError:
        raise ConfigError(
            f"{name}={value!r} is not a valid {type(fallback).__name__}"
        ) from None


def _print_config(name: str, args: argparse.Namespace):
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"[{name}] resolved config: {json.dumps(resolved, sort_keys=True, default=str)}")


def _require_file(path: str, what: str):
    if not Path(path).exists():
        raise ValidationError(f"{what} not found: {path}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_rerank(args) -> int:
    _print_config("rerank", args)
    _require_file(args.model, "model")
    _require_file(args.input, "input")
    model = RerankModel.load(args.model)
    results = {}
    for query_id, request in read_requests(args.input):
        request.ordering = args.ordering
        if args.ordering == "random":
            request.ordering_seed = args.seed
        results[query_id] = rerank(
            model, request,
            max_docs_per_pass=args.max_docs_per_pass,
            max_doc_tokens=args.max_doc_tokens,
        )
    write_run(args.output, results)
    print(f"[rerank] wrote {sum(len(r.entries) for r in results.values())} rows "
          f"for {len(results)} queries to {args.output}")
    return 0


def _training_examples(corpus: SyntheticCorpus, data_dir: str) -> list[TrainingExample]:
    examples = []
    for qid, qtext in corpus.queries:
        rels = corpus.qrels.get(qid, {})
        positives = [d for d in corpus.candidates[qid] if rels.get(d, 0) > 0]
        negatives = [d for d in corpus.candidates[qid] if rels.get(d, 0) == 0]
        if not positives:
            continue
        examples.append(TrainingExample(
            query_id=qid, query_text=qtext,
            positive=corpus.docs[positives[0]],
            negatives=[corpus.docs[d] for d in negatives],
        ))
    if not examples:
        raise DataError(f"no trainable queries in {data_dir}")
    return examples


def cmd_train(args) -> int:
    _print_config("train", args)
    _require_file(args.stage_config, "stage config")
    stage = StageConfig.load(args.stage_config)
    if args.seed is not None:
        stage.seed = args.seed
    corpus = load_corpus_files(args.data)
    dataset = _training_examples(corpus, args.data)
    if args.init_checkpoint:
        _require_file(args.init_checkpoint, "initial checkpoint")
        model = RerankModel.load(args.init_checkpoint)
    else:
        model = RerankModel.create(Vocabulary(corpus.words()), seed=stage.seed)
    trace = train_stage(model, dataset, stage)
    model.save(args.out_checkpoint)
    if args.trace_out:
        write_loss_trace(args.trace_out, trace)
    # training-set ranking report
    values = []
    for qid, qtext in corpus.queries:
        docs = [Document(d, corpus.docs[d]) for d in corpus.candidates[qid]]
        result = rerank(model, RerankRequest(qtext, docs),
                        max_doc_tokens=stage.max_doc_tokens)
        values.append(ndcg_at_k(result.doc_ids(), corpus.qrels[qid]))
    mean_ndcg = sum(values) / len(values) if values else 0.0
    final = trace[-1]["total"] if trace else float("nan")
    print(f"[train] steps={len(trace)} final_total_loss={final:.6f} "
          f"training nDCG@10={mean_ndcg:.4f}")
    print(f"[train] checkpoint written to {args.out_checkpoint}")
    return 0


def cmd_merge(args) -> int:
    _print_config("merge", args)
    _require_file(args.spec, "merge spec")
    try:
        spec_doc = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"merge spec {args.spec} is not JSON: {exc}") from exc
    # type() rather than isinstance: JSON true/false is not a weight
    if not (isinstance(spec_doc, list) and all(
            isinstance(e, dict) and isinstance(e.get("checkpoint"), str)
            and type(e.get("weight")) in (int, float) for e in spec_doc)):
        raise ValidationError(f"merge spec {args.spec} must be a JSON list of "
                              '{"checkpoint": string, "weight": number} objects')
    entries = []
    meta = None
    for item in spec_doc:
        _require_file(item["checkpoint"], "checkpoint")
        tensors, m = load_checkpoint(item["checkpoint"])
        if m.get("kind") != "rerank-model":
            raise ConfigError(f"{item['checkpoint']} is not a rerank model bundle")
        meta = meta or m
        entries.append((tensors, float(item["weight"])))
    merged = merge_models(MergeSpec(entries))
    save_checkpoint(args.out, merged, meta)
    print(f"[merge] wrote {len(merged)} tensors to {args.out}")
    return 0


def cmd_eval(args) -> int:
    _print_config("eval", args)
    _require_file(args.run, "run file")
    _require_file(args.qrels, "qrels file")
    report = evaluate_run(args.run, args.qrels, metric=args.metric, k=args.k)
    if not report.per_query:
        print("[eval] warning: empty run file (0 queries)")
    for line in report.lines():
        print(line)
    return 0


def _gradcheck_losses(seed: int) -> float:
    rng = np.random.default_rng(seed)
    n_queries, n_neg, dim = 2, 3, 6
    rows = n_queries * (4 + n_neg)
    X = Tensor(rng.normal(size=(rows, dim)), requires_grad=True)

    def f(x):
        rows_iter = iter(range(rows))

        def row():
            return ad.reshape(ad.gather_rows(x, [next(rows_iter)]), (dim,))

        groups = []
        for _ in range(n_queries):
            q, dual, pos, aug = row(), row(), row(), row()
            negs = [row() for _ in range(n_neg)]
            groups.append(QueryGroup(query=q, dual_query=dual, positive=pos,
                                     augmented=aug, negatives=negs))
        return total_loss(TrainingBatch(groups, temperature=0.25), LossWeights())

    return finite_diff_check(f, X)


def _gradcheck_projector(seed: int) -> float:
    rng = np.random.default_rng(seed)
    cfg = ProjectorConfig(d_in=8, d_mid=6, d_out=5)
    weights = init_projector(cfg, seed)
    # O(1) weights keep gradients well above the finite-difference noise
    # floor; the positive hidden bias keeps rectifier units away from their
    # kink and the output away from zero norm
    for name in ("projector.w1", "projector.w2"):
        weights[name].data = rng.normal(0.0, 0.5, weights[name].shape)
    weights["projector.b1"].data = 0.5 + rng.random(cfg.d_mid)
    weights["projector.b2"].data = rng.normal(0.0, 0.1, cfg.d_out)
    u = Tensor(rng.normal(size=8))
    v = Tensor(rng.normal(size=8))
    w1 = weights["projector.w1"]
    w1.requires_grad = True

    def f(_):
        return ad.cosine(project(u, weights), project(v, weights))

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
        eff = apply_lora(base, adapters, rank=2, alpha=4.0)
        return ad.tmean(ad.matmul(x, eff["w"]))

    err_a = finite_diff_check(f, a)
    err_b = finite_diff_check(f, b)
    # base weights must stay gradient-free in adapters-only mode
    base["w"].grad = None
    with Tape():
        loss = f(None)
        ad.backward(loss)
    if base["w"].grad is not None:
        raise ConfigError("base weight received gradient in adapters-only mode")
    return max(err_a, err_b)


_GRADCHECKS = {
    "losses": _gradcheck_losses,
    "projector": _gradcheck_projector,
    "backbone": _gradcheck_backbone,
    "lora": _gradcheck_lora,
}


def cmd_gradcheck(args) -> int:
    _print_config("gradcheck", args)
    worst = _GRADCHECKS[args.component](args.seed)
    ok = worst < GRADCHECK_THRESHOLD
    print(f"[gradcheck] component={args.component} seed={args.seed} "
          f"worst_relative_error={worst:.3e} threshold={GRADCHECK_THRESHOLD:.0e} "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 3


def cmd_synth(args) -> int:
    _print_config("synth", args)
    corpus = generate_synthetic_corpus(
        n_queries=args.n_queries, docs_per_query=args.docs_per_query,
        vocab_size=args.vocab_size, seed=args.seed,
    )
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
    p.add_argument("--ordering", choices=("given", "desc", "asc", "random"),
                   default=_env_default("ordering", "given"))
    p.add_argument("--seed", type=int, default=_env_default("seed", 0))
    p.add_argument("--max-docs-per-pass", type=int,
                   default=_env_default("max-docs-per-pass", 64))
    p.add_argument("--max-doc-tokens", type=int,
                   default=_env_default("max-doc-tokens", 256))
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("train", help="run one training stage")
    p.add_argument("--stage-config", required=True, help="flat JSON StageConfig")
    p.add_argument("--data", required=True, help="data directory (synth layout)")
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--init-checkpoint", default=None)
    p.add_argument("--trace-out", default=None, help="loss trace JSONL path")
    p.add_argument("--seed", type=int, default=None, help="override stage seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("merge", help="linear model merging")
    p.add_argument("--spec", required=True,
                   help='JSON list of {"checkpoint": path, "weight": w}')
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("eval", help="evaluate a TREC run against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--metric", choices=("ndcg", "recall"),
                   default=_env_default("metric", "ndcg"))
    p.add_argument("--k", type=int, default=_env_default("k", 10))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--component", choices=sorted(_GRADCHECKS), required=True)
    p.add_argument("--seed", type=int, default=_env_default("seed", 0))
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a synthetic training corpus")
    p.add_argument("--n-queries", type=int, default=_env_default("n-queries", 50))
    p.add_argument("--docs-per-query", type=int, default=_env_default("docs-per-query", 8))
    p.add_argument("--vocab-size", type=int, default=_env_default("vocab-size", 40))
    p.add_argument("--seed", type=int, default=_env_default("seed", 0))
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    try:
        # the parser reads LISTRANK_* defaults, so a bad value fails here
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NonFiniteLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DegenerateEmbeddingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ListrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
