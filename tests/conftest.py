import numpy as np
import pytest

from listrank import BackboneConfig, RerankModel, Vocabulary
from listrank.autodiff import Tensor
from listrank.losses import TrainingBatch
from listrank.evaluation import generate_synthetic_corpus
from listrank.trainer import StageConfig, TrainingExample, train_stage


def tiny_backbone_config(vocab_size: int = 50, **overrides) -> BackboneConfig:
    base = dict(
        n_layers=2, d_hidden=32, n_q_heads=4, n_kv_heads=2,
        d_ffn=32, max_context=512, effective_seq_len=512, vocab_size=vocab_size,
    )
    base.update(overrides)
    return BackboneConfig(**base)


def stacked_batch(groups, temperature: float) -> TrainingBatch:
    """A TrainingBatch from per-query vectors. Each group is a dict with
    ``query``, ``positive`` and ``negatives``, and optionally ``dual_query``
    and ``augmented``; every vector becomes one row of the embedding matrix.
    A group without ``dual_query`` names its query's row there, and one
    without ``augmented`` its positive's."""
    rows = []

    def row(vector):
        rows.append(np.asarray(vector, dtype=np.float64))
        return len(rows) - 1

    index = {name: [] for name in ("query", "positive", "negatives", "dual_query", "augmented")}
    for g in groups:
        query, positive = row(g["query"]), row(g["positive"])
        index["query"].append(query)
        index["positive"].append(positive)
        index["negatives"].append([row(n) for n in g["negatives"]])
        index["dual_query"].append(row(g["dual_query"]) if "dual_query" in g else query)
        index["augmented"].append(row(g["augmented"]) if "augmented" in g else positive)
    return TrainingBatch(Tensor(np.array(rows)), temperature, **index)


@pytest.fixture(scope="session")
def synth_corpus():
    return generate_synthetic_corpus(n_queries=50, docs_per_query=8, seed=7)


@pytest.fixture(scope="session")
def synth_vocab(synth_corpus):
    return Vocabulary(synth_corpus.words())


@pytest.fixture(scope="session")
def untrained_model(synth_corpus, synth_vocab):
    cfg = tiny_backbone_config(vocab_size=len(synth_vocab), d_ffn=64)
    return RerankModel.create(synth_vocab, cfg, seed=3)


def overfit_stage_config(steps: int = 400) -> StageConfig:
    """Foundation-style stage scaled to the toy corpus: adapters + tuned
    embeddings, 7 negatives (the corpus has one positive and 7 negatives
    per query), temperature 0.25."""
    return StageConfig(
        mode="adapters", steps=steps, learning_rate=3e-3, batch_size=4,
        n_negatives=7, n_inbatch_negatives=3, temperature=0.25,
        max_doc_tokens=16, lora_rank=8, lora_alpha=16.0, seed=11,
    )


def corpus_dataset(corpus) -> list[TrainingExample]:
    return [
        TrainingExample(
            query_id=qid, query_text=qtext,
            positive=corpus.docs[f"{qid}_d00"],
            negatives=[corpus.docs[d] for d in corpus.candidates[qid][1:]],
        )
        for qid, qtext in corpus.queries
    ]


@pytest.fixture(scope="session")
def trained_model(synth_corpus, synth_vocab):
    """Overfit model shared by the trainer, reranker and acceptance tests
    (training once keeps the suite inside its runtime budget). Yields the
    model, the loss trace, and the wall-clock training time in seconds."""
    import time

    cfg = tiny_backbone_config(vocab_size=len(synth_vocab), d_ffn=64)
    model = RerankModel.create(synth_vocab, cfg, seed=3)
    start = time.perf_counter()
    trace = train_stage(model, corpus_dataset(synth_corpus), overfit_stage_config())
    elapsed = time.perf_counter() - start
    return model, trace, elapsed
