"""Tests of the benchmark itself: its arithmetic, the determinism of its
inputs, its output checks, and that tracing changes no output.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as wl  # noqa: E402
from benchstats import ALSO_REPORTED, covered_ns, relative_spread, self_ns, verdict  # noqa: E402
from listrank import backbone, prompt, reranker  # noqa: E402
from listrank.reranker import RankedEntry, RankedResult, rerank  # noqa: E402
import spans  # noqa: E402
from spans import Tracer  # noqa: E402


def test_relative_spread():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert relative_spread(values) == pytest.approx((q3 - q1) / med)
    assert relative_spread([2.0] * 4) == 0.0


def test_self_time_counts_overlaps_once_and_clips_to_the_span():
    children = [(15, 30), (10, 20), (90, 120), (40, 40)]
    assert covered_ns(0, 100, children) == 20 + 10
    assert self_ns(0, 100, children) == 70
    assert self_ns(0, 100, []) == 100


@pytest.mark.parametrize("parent, change, better, expected", [
    ([10.0] * 9 + [10.5], [8.0] * 10, "lower", "improved"),
    ([10.0, 10.1, 9.9, 10.0], [13.0, 13.1, 12.9, 13.0], "lower", "worse"),
    ([10.0, 10.1, 9.9, 10.0], [10.1, 9.9, 10.0, 10.1], "lower", "unchanged"),
    ([5.0, 15.0, 8.0, 12.0], [10.0, 10.5, 9.5, 10.0], "lower", "unresolved"),
    ([100.0, 101.0, 99.0, 100.0] * 3, [120.0, 121.0, 119.0, 120.0] * 3, "higher", "improved"),
    ([100.0, 101.0, 99.0, 100.0], [120.0, 121.0, 119.0, 120.0], "higher", "unchanged"),
])
def test_verdict(parent, change, better, expected):
    assert verdict(parent, change, bound=0.1, better=better) == expected


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    workload = wl.WORKLOADS[name]
    made = {}
    for key, seed in (("a", 3), ("b", 3), ("c", 4)):
        workdir = tmp_path / key
        workdir.mkdir()
        inputs = workload.make_inputs(seed, workdir)
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        made[key] = (files, inputs)
    assert made["a"] == made["b"]
    assert made["a"][0]["model.ckpt"] != made["c"][0]["model.ckpt"]


def _request():
    from listrank.evaluation import generate_synthetic_corpus
    from listrank.prompt import Document, RerankRequest

    corpus = generate_synthetic_corpus(2, 8, seed=5)
    qid, text = corpus.queries[0]
    return corpus, RerankRequest(text, [Document(d, corpus.docs[d]) for d in corpus.candidates[qid]])


def test_check_ranking_flags_broken_rankings():
    _, request = _request()
    ids = [d.doc_id for d in request.documents]

    def result(ids, scores):
        return RankedResult([RankedEntry(d, s, r + 1, 0) for r, (d, s) in enumerate(zip(ids, scores))],
                            "given")

    good = [0.9 - 0.1 * i for i in range(len(ids))]
    assert wl.check_ranking(request, result(ids, good)) == []
    assert wl.check_ranking(request, result(ids[:-1] + ids[:1], good))
    assert wl.check_ranking(request, result(ids, good[::-1]))
    assert wl.check_ranking(request, result(ids, [math.nan] + good[1:]))
    assert wl.check_ranking(request, result(ids, [1.5] + good[1:]))
    tied = [0.5] * len(ids)
    assert wl.check_ranking(request, result(ids, tied)) == []
    assert wl.check_ranking(request, result(ids[::-1], tied))


def test_tracer_changes_no_output_and_restores_the_modules():
    from listrank import BackboneConfig, RerankModel, Vocabulary

    corpus, request = _request()
    vocab = Vocabulary(corpus.words())
    model = RerankModel.create(vocab, BackboneConfig(vocab_size=len(vocab), **wl.MODEL), seed=1)
    plain = rerank(model, request)
    tracer = Tracer()
    with tracer.installed():
        traced = rerank(model, request)
    assert [(e.doc_id, e.score) for e in traced.entries] == [(e.doc_id, e.score) for e in plain.entries]
    assert reranker.build_prompt is prompt.build_prompt
    assert backbone.forward.__module__ == "listrank.backbone"
    names = {s.name for s in tracer.spans}
    assert {"prompt.chunk", "prompt.build", "backbone.forward", "embedding.score"} <= names


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_run_matches_untraced_and_covers_the_op(name, tmp_path):
    result = wl.run_traced(wl.WORKLOADS[name], seed=1, seconds=0, workdir=tmp_path,
                           min_ops=2, setup_repeats=1)
    assert result["errors"] == [] and result["failed"] == 0 and result["attempted"] == 2
    assert set(result["metrics"]) == set(wl.PER_LAYER)
    assert result["metrics"]["trace.coverage"]["value"] >= wl.MIN_COVERAGE


def test_traced_run_fails_when_spans_stop_covering_the_op(tmp_path, monkeypatch):
    # the program reaching forward by another name than the traced one
    monkeypatch.setattr(spans, "TARGETS",
                        tuple(t for t in spans.TARGETS if t[0] != "backbone.forward"))
    result = wl.run_traced(wl.WORKLOADS["rerank_short"], seed=1, seconds=0, workdir=tmp_path,
                           min_ops=2, setup_repeats=1)
    assert not result["correct"] and any("cover" in e for e in result["errors"])
    assert backbone.forward.__module__ == "listrank.backbone"


@pytest.mark.parametrize("name", ["rerank_short", "train"])
def test_reference_seed_reproduces_the_stored_outputs(name, tmp_path):
    result = wl.run_untraced(wl.WORKLOADS[name], seed=wl.REFERENCE_SEED, seconds=0,
                             workdir=tmp_path, min_ops=wl.REFERENCE_OPS, setup_repeats=2)
    assert result["errors"] == [] and result["correct"]
    assert set(result["metrics"]) == set(wl.END_TO_END)
    assert set(result["also"]) == set(ALSO_REPORTED)
    assert len(result["samples"]["setup_s"]) == 2 and all(t > 0 for t in result["samples"]["setup_s"])


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == wl.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == wl.PER_LAYER


def test_run_without_a_program_exits_2_and_prints_no_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "rerank_short", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
