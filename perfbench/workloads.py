"""The benchmark's workloads, their output checks, and the two kinds of run.

Every workload makes its inputs from the seed alone: a synthetic corpus
from ``evaluation.generate_synthetic_corpus`` and a freshly initialised
model saved to a checkpoint. The untraced run then calls only the
public entry points ``RerankModel.load``, ``read_requests``, ``rerank``,
``write_run`` and ``train_stage``; the traced run (``--trace 1``) adds
spans around the module functions those entry points call (spans.py).
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import listrank
from benchstats import ALSO_REPORTED, self_ns
from listrank import BackboneConfig, RerankModel, Vocabulary
from listrank.evaluation import generate_synthetic_corpus, load_run, write_corpus_files
from listrank.reranker import read_requests, rerank, write_run
from listrank.trainer import StageConfig, TrainingExample, train_stage
from spans import Tracer

# The tiny backbone the test suite trains (tests/conftest.py), with the
# 512-token context that makes wide requests take several passes.
MODEL = dict(n_layers=2, d_hidden=32, n_q_heads=4, n_kv_heads=2, d_ffn=64,
             max_context=512, effective_seq_len=512)

MIN_OPS = 100  # so that at least ten samples lie beyond the p90
MIN_TRACED_OPS = 10
SETUP_REPEATS = 15
MIN_COVERAGE = 0.9  # share of operation time the traced run's child spans must cover
REFERENCE_SEED = 0
REFERENCE_OPS = 16
REFERENCE_TOL = 1e-9
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Checked against BENCHMARK.json; benchstats.ALSO_REPORTED says why the
# median latency and the throughput are left out of it.
END_TO_END = {
    "setup_s": "s",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "prompt.chunk_ms": "ms",
    "prompt.build_ms": "ms",
    "prompt.passes": "count",
    "prompt.tokens_per_pass": "count",
    "prompt.template_share": "share",
    "backbone.forward_ms": "ms",
    "backbone.tokens_per_s": "1/s",
    "embedding.extract_ms": "ms",
    "embedding.project_ms": "ms",
    "embedding.score_ms": "ms",
    "embedding.degenerate": "count",
    "losses.loss_ms": "ms",
    "autodiff.backward_ms": "ms",
    "autodiff.tape_nodes": "count",
    "trainer.lora_ms": "ms",
    "trainer.adamw_ms": "ms",
    "trainer.self_ms": "ms",
    "checkpoint.load_ms": "ms",
    "reranker.self_ms": "ms",
    "reranker.read_ms": "ms",
    "reranker.write_ms": "ms",
    "trace.coverage": "share",
    "trace.overhead": "share",
}


def plain_call(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _make_model(corpus, seed: int, path: Path) -> None:
    vocab = Vocabulary(corpus.words())
    config = BackboneConfig(vocab_size=len(vocab), **MODEL)
    RerankModel.create(vocab, config, seed=seed).save(path)


class Workload:
    """Shared by both workload kinds. ``op`` runs one operation: a
    rerank request or one training call."""

    op_span: str
    op_label: str
    display: dict[str, str] = {}

    def __init__(self, name: str, why: str):
        self.name, self.why = name, why

    def inputs(self, seed: int):
        """What set-up takes besides the files ``make_inputs`` wrote."""
        return None

    def snapshot(self, state) -> dict:
        return {k: v.data.copy() for k, v in state["model"].weights.items()}

    def restore(self, state, weights: dict) -> None:
        for k, arr in weights.items():
            state["model"].weights[k].data = arr.copy()

    def finish(self, state, outputs, workdir: Path, call=plain_call) -> list[str]:
        return []


class RerankWorkload(Workload):
    op_span = "reranker.rerank"
    op_label = "request"
    display = {"items_per_s": "candidates_per_s"}

    def __init__(self, name, why, n_queries: int, docs_per_query: int):
        super().__init__(name, why)
        self.n_queries, self.docs_per_query = n_queries, docs_per_query

    def make_inputs(self, seed: int, workdir: Path):
        corpus = generate_synthetic_corpus(self.n_queries, self.docs_per_query, seed=seed)
        _make_model(corpus, seed, workdir / "model.ckpt")
        write_corpus_files(corpus, workdir)
        return None

    def setup(self, inputs, seed: int, workdir: Path, call=plain_call) -> dict:
        state = {
            "model": RerankModel.load(workdir / "model.ckpt"),
            "requests": call("reranker.read", read_requests, workdir / "requests.jsonl"),
        }
        self.op(state, 0)  # warm-up
        return state

    def _request(self, state, i):
        return state["requests"][i % len(state["requests"])]

    def op(self, state, i: int, call=plain_call):
        qid, request = self._request(state, i)
        return qid, call(self.op_span, rerank, state["model"], request)

    def items(self, state, i: int) -> int:
        return len(self._request(state, i)[1].documents)

    def summary(self, output) -> dict:
        qid, result = output
        return {"query_id": qid, "doc_ids": result.doc_ids(),
                "scores": [e.score for e in result.entries]}

    def check(self, state, i: int, output) -> list[str]:
        return check_ranking(self._request(state, i)[1], output[1])

    def finish(self, state, outputs, workdir: Path, call=plain_call) -> list[str]:
        """Write the run file and check that it reads back as ranked."""
        results = dict(o for o in outputs if o is not None)
        call("reranker.write", write_run, workdir / "run.txt", results)
        run = load_run(workdir / "run.txt")
        errors = []
        for qid, res in results.items():
            rows = run.get(qid, [])
            if [d for d, _ in rows] != res.doc_ids() or any(
                abs(s - e.score) > 5e-7 for (_, s), e in zip(rows, res.entries)
            ):
                errors.append(f"run file disagrees with the ranking of {qid}")
        return errors


class TrainWorkload(Workload):
    op_span = "trainer.train_stage"
    op_label = "step"
    display = {"latency_p50_ms": "step_p50_ms", "latency_p90_ms": "step_p90_ms",
               "items_per_s": "train_queries_per_s"}

    def stage(self, seed: int, i: int) -> StageConfig:
        """The test suite's overfit stage, one step per call. Each call
        gets its own stage seed, so calls draw different batches."""
        return StageConfig(
            mode="adapters", steps=1, learning_rate=3e-3, batch_size=4,
            n_negatives=7, n_inbatch_negatives=3, temperature=0.25,
            max_doc_tokens=16, lora_rank=8, lora_alpha=16.0,
            seed=seed * 2 ** 20 + i + 1,
        )

    def make_inputs(self, seed: int, workdir: Path):
        _make_model(self._corpus(seed), seed, workdir / "model.ckpt")
        return self.inputs(seed)

    def _corpus(self, seed: int):
        return generate_synthetic_corpus(50, 8, seed=seed)

    def inputs(self, seed: int) -> list[TrainingExample]:
        corpus = self._corpus(seed)
        return [
            TrainingExample(qid, text, corpus.docs[f"{qid}_d00"],
                            [corpus.docs[d] for d in corpus.candidates[qid][1:]])
            for qid, text in corpus.queries
        ]

    def setup(self, inputs, seed: int, workdir: Path, call=plain_call) -> dict:
        state = {"model": RerankModel.load(workdir / "model.ckpt"),
                 "dataset": inputs, "seed": seed}
        self.op(state, -1)  # warm-up
        return state

    def op(self, state, i: int, call=plain_call):
        stage = self.stage(state["seed"], i)
        return call(self.op_span, train_stage, state["model"], state["dataset"], stage)

    def items(self, state, i: int) -> int:
        return self.stage(state["seed"], i).batch_size

    def summary(self, output) -> list[dict]:
        return output

    def check(self, state, i: int, output) -> list[str]:
        if len(output) != 1:
            return [f"expected 1 loss record, got {len(output)}"]
        bad = [k for k, v in output[0].items() if not math.isfinite(v)]
        return [f"non-finite loss components {bad}"] if bad else []


WORKLOADS = {
    w.name: w
    for w in (
        RerankWorkload(
            "rerank_short",
            "8 short candidates, one 242-token pass of which 45% is template: "
            "fixed per-pass cost and per-op overhead",
            n_queries=64, docs_per_query=8,
        ),
        RerankWorkload(
            "rerank_wide",
            "64 candidates under a 512-token context, 3 passes each: "
            "prompt chunking and attention at long L",
            n_queries=16, docs_per_query=64,
        ),
        TrainWorkload(
            "train",
            "one-step train_stage calls with the tape on: losses, backward, LoRA and AdamW",
        ),
    )
}


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------


def check_ranking(request, result) -> list[str]:
    """Each candidate exactly once, ranks 1..n, finite scores in [-1, 1],
    non-increasing, ties broken by ascending doc_id."""
    entries = result.entries
    errors = []
    if sorted(result.doc_ids()) != sorted(d.doc_id for d in request.documents):
        errors.append("ranking does not hold each candidate exactly once")
    if [e.rank for e in entries] != list(range(1, len(entries) + 1)):
        errors.append("ranks are not 1..n")
    scores = [e.score for e in entries]
    if not all(s is not None and math.isfinite(s) and -1.0 <= s <= 1.0 for s in scores):
        errors.append("a score is missing, non-finite or outside [-1, 1]")
        return errors
    for a, b in zip(entries, entries[1:]):
        if a.score < b.score or (a.score == b.score and a.doc_id > b.doc_id):
            errors.append(f"{a.doc_id} and {b.doc_id} are out of order")
            break
    return errors


def _close(a, b) -> bool:
    """Equal structure, strings exactly, numbers within REFERENCE_TOL."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_close, a, b))
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(b, (int, float)) and abs(a - b) <= REFERENCE_TOL
    return a == b


def check_reference(name: str, summaries: list) -> list[int]:
    """Indices of the outputs, among the first ones at the reference seed,
    that differ from the stored ones."""
    expected = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[name]
    return [i for i, (got, want) in enumerate(zip(summaries, expected)) if not _close(got, want)]


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------


def _run_ops(seconds, min_ops, body, between=None, n_between=0):
    """Call ``body(i)`` for i = 0, 1, ... until ``seconds`` have passed and
    at least ``min_ops`` calls were made. ``between()`` runs ``n_between``
    times, spread evenly over the ``seconds``."""
    start = time.perf_counter()
    i = done = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        if done < n_between and time.perf_counter() - start >= seconds * (done + 1) / (n_between + 1):
            between()
            done += 1
        body(i)
        i += 1
    for _ in range(n_between - done):
        between()


def _try_op(workload, state, i, errors, call=plain_call):
    try:
        return workload.op(state, i, call)
    except Exception as exc:  # counted as a failed operation, and reported
        errors[i].append(f"{type(exc).__name__}: {exc}")
        return None


def _check_outputs(workload, state, outputs, errors, seed):
    for i, out in enumerate(outputs):
        if out is not None:
            errors[i] += workload.check(state, i, out)
    summaries = [workload.summary(o) if o is not None else None for o in outputs]
    if seed == REFERENCE_SEED:
        for i in check_reference(workload.name, summaries):
            errors[i].append("output differs from the stored reference")


def cold_setup_s(workload, seed: int, workdir: Path) -> float:
    """Time one set-up in a fresh process, so that first-call costs count
    and the run's own process keeps its heap and garbage as they are."""
    src = str(Path(listrank.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__, workload.name, str(seed), str(workdir)],
        env={**os.environ, "PYTHONPATH": path}, stdout=subprocess.PIPE, text=True, check=True,
    )
    return float(proc.stdout)


def run_untraced(workload, seed: int, seconds: float, workdir: Path,
                 min_ops: int = MIN_OPS, setup_repeats: int = SETUP_REPEATS) -> dict:
    """End-to-end run: sequential operations, each timed on its own.
    ``setup_s`` is the median of ``setup_repeats`` cold set-ups, each in
    its own process, spread over the run so that they sample the host at
    several moments. The set-up of the state the operations use is not
    timed."""
    inputs = workload.make_inputs(seed, workdir)
    state = workload.setup(inputs, seed, workdir)
    setup_times = []
    times, outputs, items = [], [], []
    errors = defaultdict(list)

    def body(i):
        t0 = time.perf_counter()
        outputs.append(_try_op(workload, state, i, errors))
        times.append(time.perf_counter() - t0)
        items.append(workload.items(state, i))

    _run_ops(seconds, min_ops, body,
             lambda: setup_times.append(cold_setup_s(workload, seed, workdir)), setup_repeats)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _check_outputs(workload, state, outputs, errors, seed)
    finish_errors = workload.finish(state, outputs, workdir)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": float(np.percentile(times, 50)) * 1e3,
        "latency_p90_ms": float(np.percentile(times, 90)) * 1e3,
        "items_per_s": sum(items) / sum(times),
        "peak_rss_mb": peak_rss_mb,
    }
    result = _result(errors, finish_errors, len(outputs), metrics, END_TO_END,
                     samples={"op_s": times, "setup_s": setup_times})
    result["also"] = {name: {"value": metrics[name], "unit": unit}
                      for name, (unit, _) in ALSO_REPORTED.items()}
    return result


def _template_counter():
    """Counts for each assembled prompt: its tokens, and those outside
    every passage block (system, instruction, query and trailer)."""
    cache = {}

    def count(args, layout):
        vocab = args[1]
        if id(vocab) not in cache:
            cache[id(vocab)] = (vocab.tokenize("<passage")[0],
                                len(vocab.tokenize("\n</passage>\n")))
        passage_id, closing = cache[id(vocab)]
        ids = layout.token_ids
        first = ids.index(passage_id)
        after = len(ids) - (max(layout.doc_marker_positions) + 1 + closing)
        return {"tokens": len(ids), "template": first + after}

    return count


COUNTERS = {
    "backbone.forward": lambda args, hidden: {"tokens": len(args[0])},
    "autodiff.backward": lambda args, _: {"tape_nodes": len(args[0].tape)},
}


def run_traced(workload, seed: int, seconds: float, workdir: Path, trace_path=None,
               min_ops: int = MIN_TRACED_OPS, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Per-layer run. Each operation runs twice from the same state, once
    traced and once not, in alternating order: the traced output must
    equal the untraced one, and the time ratio gives the overhead."""
    tracer = Tracer({**COUNTERS, "prompt.build": _template_counter()})
    inputs = workload.make_inputs(seed, workdir)
    with tracer.installed():
        for _ in range(setup_repeats):
            state = workload.setup(inputs, seed, workdir, tracer.call)

    outputs, ratios = [], []
    errors = defaultdict(list)

    def body(i):
        before = workload.snapshot(state)
        runs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            workload.restore(state, before)
            tracer.op = i if traced else None
            with tracer.installed() if traced else nullcontext():
                t0 = time.perf_counter()
                out = _try_op(workload, state, i, errors, tracer.call if traced else plain_call)
                elapsed = time.perf_counter() - t0
            tracer.op = None
            runs[traced] = (elapsed, out, workload.snapshot(state))
        (t_plain, out, after), (t_traced, out_traced, after_traced) = runs[False], runs[True]
        outputs.append(out)
        if out is None or out_traced is None:
            workload.restore(state, before)
            return
        ratios.append(t_traced / t_plain)
        same_weights = all(np.array_equal(after[k], after_traced[k]) for k in after)
        if workload.summary(out) != workload.summary(out_traced) or not same_weights:
            errors[i].append("traced output differs from the untraced one")

    _run_ops(seconds, min_ops, body)
    _check_outputs(workload, state, outputs, errors, seed)
    with tracer.installed():
        finish_errors = workload.finish(state, outputs, workdir, tracer.call)
    if trace_path is not None:
        tracer.write(trace_path)
    metrics = layer_metrics(tracer.spans, workload.op_span)
    metrics["trace.overhead"] = statistics.median(ratios) - 1.0 if ratios else 0.0
    if metrics["trace.coverage"] < MIN_COVERAGE:
        finish_errors.append(f"spans cover {metrics['trace.coverage']:.3f} of operation time, "
                             f"less than {MIN_COVERAGE}: a traced function is no longer called")
    return _result(errors, finish_errors, len(outputs), metrics, PER_LAYER,
                   samples={"ratios": ratios})


def layer_metrics(spans, op_span: str) -> dict:
    """Per-layer figures from the spans: times are medians over operations
    of each layer's total per operation; counts are per operation."""
    ops = [s for s in spans if s.op is not None and s.parent is None]
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    per_op = defaultdict(lambda: defaultdict(float))
    totals = defaultdict(float)
    for s in spans:
        if s.op is None:
            continue
        per_op[s.op][s.name] += (s.end - s.start) / 1e6
        for key, value in s.counts.items():
            totals[f"{s.name}.{key}"] += value
        totals[f"{s.name}.calls"] += 1
        totals[f"{s.name}.ns"] += s.end - s.start
        if s.error:
            totals[f"{s.name}.{s.error}"] += 1
    op_ns = sum(s.end - s.start for s in ops)
    self_total = 0
    for s in ops:
        own = self_ns(s.start, s.end, children[s.id])
        per_op[s.op]["self"] = own / 1e6
        self_total += own

    def med(name):
        return statistics.median(per_op[s.op].get(name, 0.0) for s in ops) if ops else 0.0

    def ratio(num, den):
        return totals[num] / totals[den] if totals[den] else 0.0

    def setup_ms(name):
        calls = [(s.end - s.start) / 1e6 for s in spans if s.op is None and s.name == name]
        return statistics.median(calls) if calls else 0.0

    on_rerank = op_span == "reranker.rerank"
    return {
        "prompt.chunk_ms": med("prompt.chunk"),
        "prompt.build_ms": med("prompt.build"),
        "prompt.passes": totals["backbone.forward.calls"] / len(ops) if ops else 0.0,
        "prompt.tokens_per_pass": ratio("backbone.forward.tokens", "backbone.forward.calls"),
        "prompt.template_share": ratio("prompt.build.template", "prompt.build.tokens"),
        "backbone.forward_ms": med("backbone.forward"),
        "backbone.tokens_per_s": ratio("backbone.forward.tokens", "backbone.forward.ns") * 1e9,
        "embedding.extract_ms": med("embedding.extract"),
        "embedding.project_ms": med("embedding.project"),
        "embedding.score_ms": med("embedding.score"),
        "embedding.degenerate": totals["embedding.score.DegenerateEmbeddingError"],
        "losses.loss_ms": med("losses.loss"),
        "autodiff.backward_ms": med("autodiff.backward"),
        "autodiff.tape_nodes": ratio("autodiff.backward.tape_nodes", "autodiff.backward.calls"),
        "trainer.lora_ms": med("trainer.lora"),
        "trainer.adamw_ms": med("trainer.adamw"),
        "trainer.self_ms": 0.0 if on_rerank else med("self"),
        "checkpoint.load_ms": setup_ms("checkpoint.load"),
        "reranker.self_ms": med("self") if on_rerank else 0.0,
        "reranker.read_ms": setup_ms("reranker.read"),
        "reranker.write_ms": setup_ms("reranker.write"),
        "trace.coverage": 1.0 - self_total / op_ns if op_ns else 0.0,
    }


def _result(errors, finish_errors, attempted, values, units, samples) -> dict:
    failed = sum(1 for i in range(attempted) if errors.get(i))
    messages = [f"op {i}: {m}" for i in sorted(errors) for m in errors[i]] + finish_errors
    return {
        "correct": failed == 0 and not finish_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "errors": messages,
        "samples": samples,
    }


if __name__ == "__main__":
    # python3 workloads.py WORKLOAD SEED WORKDIR: one set-up from the inputs
    # in WORKDIR, printing its time in seconds (see cold_setup_s).
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed)
    t0 = time.perf_counter()
    workload.setup(inputs, seed, workdir)
    print(time.perf_counter() - t0)
