"""Multi-stage fine-tuning: LoRA adapters, stage-configured optimization,
and linear checkpoint merging."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from . import backbone as bb
from .autodiff import Tape, Tensor, backward
from .checkpoint import parse_json, write_atomic
from .config import from_json_object
from .embedding import extract, project
from .errors import DegenerateEmbeddingError, ListrankError, NonFiniteLossError
from .losses import TrainingBatch, all_losses
from .model import RerankModel
from .prompt import build_prompt, check_limits


@dataclass
class StageConfig:
    """One training stage. Defaults follow the foundation stage: adapters
    plus word embeddings trainable, 15 negatives, temperature 0.25,
    learning rate 5e-5. Every stage minimizes the same objective, with
    the fixed weights of ``all_losses``, and AdamW runs with its fixed
    settings (weight decay 0.01, betas 0.9 and 0.999)."""

    mode: str = "adapters"  # adapters | full
    steps: int = 100
    learning_rate: float = 5e-5
    batch_size: int = 4  # queries per step
    n_negatives: int = 15
    n_inbatch_negatives: int = 3
    temperature: float = 0.25
    max_doc_tokens: int = 768
    lora_rank: int = 16
    lora_alpha: float = 32.0
    train_embeddings: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("adapters", "full"):
            raise ListrankError(f"unknown training mode {self.mode!r}")
        if self.steps < 0 or self.batch_size < 1 or self.n_negatives < 1:
            raise ListrankError("steps/batch_size/n_negatives out of range")
        if self.seed < 0 or self.n_inbatch_negatives < 0:
            raise ListrankError(f"seed and n_inbatch_negatives must be >= 0, got "
                                f"{self.seed} and {self.n_inbatch_negatives}")
        if self.learning_rate <= 0 or self.temperature <= 0:
            raise ListrankError("learning_rate and temperature must be positive")
        if self.lora_rank < 1:
            raise ListrankError("lora_rank must be >= 1")
        check_limits(self.max_doc_tokens)

    @classmethod
    def load(cls, path) -> "StageConfig":
        where = f"stage config {path}"
        obj = parse_json(Path(path).read_bytes(), where)
        try:
            return from_json_object(cls, obj)
        except ListrankError as err:
            raise ListrankError(f"{where}: {err}") from None

    def save(self, path) -> None:
        write_atomic({path: (json.dumps(asdict(self), sort_keys=True, indent=2) + "\n")
                      .encode("utf-8")})


@dataclass
class TrainingExample:
    query_id: str
    query_text: str
    positive: str
    negatives: list[str]


# ----------------------------------------------------------------------
# LoRA
# ----------------------------------------------------------------------

def lora_target_names(config: bb.BackboneConfig) -> list[str]:
    """Every layer matrix of the backbone, in ``weight_shapes`` order."""
    return [name for name, shape in bb.weight_shapes(config).items()
            if name.startswith("layers.") and len(shape) == 2]


def create_adapters(
    base_weights: dict[str, Tensor], targets: Iterable[str], rank: int, seed: int
) -> dict[str, tuple[Tensor, Tensor]]:
    """Per target W (m, n): A (rank, n) small-normal, B (m, rank) zero, so
    the initial effective weight equals W exactly. A rank above the smaller
    side of a target is refused before anything is allocated."""
    targets = list(targets)
    for name in targets:
        if rank > min(base_weights[name].shape):
            raise ListrankError(f"lora_rank {rank} exceeds the smaller side of {name} "
                                f"of shape {tuple(base_weights[name].shape)}")
    rng = np.random.default_rng(seed)
    adapters = {}
    for name in targets:
        m, n = base_weights[name].shape
        adapters[name] = (
            Tensor(rng.normal(0.0, 0.02, (rank, n))),
            Tensor(np.zeros((m, rank))),
        )
    return adapters


def apply_lora(
    base_weights: dict[str, Tensor],
    adapters: dict[str, tuple[Tensor, Tensor]],
    alpha: float,
) -> dict[str, Tensor]:
    """Effective-weight view W + (alpha/rank) * B @ A, rank being the rows of
    each A; gradients flow to A and B only when the base weights are frozen."""
    eff = dict(base_weights)
    for name, (a, b) in adapters.items():
        w = base_weights[name]
        if (b.shape[0], a.shape[1]) != tuple(w.shape) or a.shape[0] != b.shape[1]:
            raise ListrankError(
                f"adapter shapes {tuple(b.shape)}x{tuple(a.shape)} incompatible "
                f"with {name} of shape {tuple(w.shape)}"
            )
        eff[name] = ad.add(w, ad.mul(ad.matmul(b, a), alpha / a.shape[0]))
    return eff


def fold_adapters(
    base_weights: dict[str, Tensor],
    adapters: dict[str, tuple[Tensor, Tensor]],
    alpha: float,
) -> dict[str, Tensor]:
    """Materialize adapters into plain weights (for saving and merging):
    copies of the ``apply_lora`` view, which records nothing outside a tape."""
    eff = apply_lora(base_weights, adapters, alpha)
    return {k: Tensor(v.data.copy()) for k, v in eff.items()}


# ----------------------------------------------------------------------
# optimizer
# ----------------------------------------------------------------------


ADAMW_WEIGHT_DECAY, ADAMW_BETA1, ADAMW_BETA2, ADAMW_EPS = 0.01, 0.9, 0.999, 1e-8


class AdamW:
    """Decoupled-weight-decay adaptive-moment optimizer over named tensors,
    with the fixed settings above; only the learning rate is a stage setting."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        b1, b2 = ADAMW_BETA1, ADAMW_BETA2
        self.t += 1
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.m[k] = b1 * self.m[k] + (1.0 - b1) * g
            self.v[k] = b2 * self.v[k] + (1.0 - b2) * g * g
            update = (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + ADAMW_EPS)
            p.data = p.data - self.lr * (update + ADAMW_WEIGHT_DECAY * p.data)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


# ----------------------------------------------------------------------
# augmentation
# ----------------------------------------------------------------------


def augment_text(text: str, rng: np.random.Generator) -> str:
    """Semantics-light augmentation: drops each word with probability 0.1,
    swaps adjacent words with probability 0.05, folds case. Keeps at least
    one word of a text that has any."""
    words = text.split()
    kept = [w for w in words if rng.random() >= 0.1] or words[:1]
    i = 0
    while i < len(kept) - 1:
        if rng.random() < 0.05:
            kept[i], kept[i + 1] = kept[i + 1], kept[i]
            i += 2
        else:
            i += 1
    return " ".join(w.lower() for w in kept)


# ----------------------------------------------------------------------
# stage driver
# ----------------------------------------------------------------------


def _trainable_params(
    model: RerankModel,
    adapters: dict[str, tuple[Tensor, Tensor]],
    stage: StageConfig,
) -> dict[str, Tensor]:
    params = {k: v for k, v in model.weights.items()
              if stage.mode == "full" or k.startswith("projector.")
              or (k == "embed.weight" and stage.train_embeddings)}
    for name, (a, b) in adapters.items():
        params[f"{name}.lora.A"] = a
        params[f"{name}.lora.B"] = b
    return params


def _encode_group(
    model: RerankModel,
    weights: dict[str, Tensor],
    example: TrainingExample,
    negatives: list[str],
    stage: StageConfig,
    rng: np.random.Generator,
) -> Tensor:
    """One training forward: positive + negatives + augmented positive in a
    shuffled listwise prompt with the dual query marker. Returns the raw
    marker rows: positive, negatives, augmented positive (the order of
    ``texts``, not the order shown), query, dual query."""
    texts = [example.positive, *negatives, augment_text(example.positive, rng)]
    order = np.random.default_rng(int(rng.integers(2 ** 31))).permutation(len(texts))
    config = model.backbone_config
    layout = build_prompt(
        example.query_text, model.vocab,
        [model.vocab.tokenize(texts[i])[:stage.max_doc_tokens] for i in order],
        insert_dual_query_marker=True,
        max_context=min(config.effective_seq_len, config.max_context),
    )
    positions = extract(layout)
    rows = [positions[slot] for slot in np.argsort(order)] + positions[len(texts):]
    return bb.forward(layout.token_ids, config, weights, rows=rows)


def train_stage(
    model: RerankModel,
    dataset: Sequence[TrainingExample],
    stage: StageConfig,
) -> list[dict]:
    """Run one optimization stage in place; returns the per-step loss trace.

    Deterministic given (model, dataset, stage.seed). Non-finite losses,
    and degenerate embeddings after the first update, abort with diagnostics.
    """
    if len(dataset) < stage.batch_size:
        raise ListrankError(
            f"dataset of {len(dataset)} examples cannot fill batches of {stage.batch_size}"
        )
    for ex in dataset:
        if len(ex.negatives) < stage.n_negatives:
            raise ListrankError(
                f"query {ex.query_id!r} has {len(ex.negatives)} negatives, "
                f"stage needs {stage.n_negatives}"
            )
    rng = np.random.default_rng(stage.seed)
    # full mode is the adapter path with no adapters
    targets = lora_target_names(model.backbone_config) if stage.mode == "adapters" else []
    adapters = create_adapters(model.weights, targets, stage.lora_rank, stage.seed)
    params = _trainable_params(model, adapters, stage)
    for name, w in model.weights.items():
        w.requires_grad = name in params
    for p in params.values():
        p.requires_grad = True
    opt = AdamW(params, stage.learning_rate)

    trace: list[dict] = []
    for step in range(stage.steps):
        idx = rng.choice(len(dataset), size=stage.batch_size, replace=False)
        with Tape():
            weights = apply_lora(model.weights, adapters, stage.lora_alpha)
            raw = []
            for i in idx:
                ex = dataset[int(i)]
                neg_idx = rng.choice(len(ex.negatives), size=stage.n_negatives, replace=False)
                raw.append(_encode_group(model, weights, ex,
                                         [ex.negatives[int(j)] for j in neg_idx], stage, rng))
            # group g's rows start at first[g], in ``_encode_group``'s order
            g, k = stage.batch_size, stage.n_negatives
            first = np.arange(g) * (k + 4)
            negatives = first[:, None] + np.arange(1, k + 1)
            # in-batch negatives: other queries' positives join each contrast set
            if stage.n_inbatch_negatives > 0 and g > 1:
                n_extra = min(stage.n_inbatch_negatives, g - 1)
                picks = [rng.choice([j for j in range(g) if j != gi], size=n_extra, replace=False)
                         for gi in range(g)]
                negatives = np.hstack([negatives, first[np.array(picks)]])
            batch = TrainingBatch(project(ad.concat_rows(raw), weights), stage.temperature,
                                  query=first + k + 2, positive=first, negatives=negatives,
                                  dual_query=first + k + 3, augmented=first + k + 1)
            try:
                total, components = all_losses(batch)
            except DegenerateEmbeddingError as exc:
                if step == 0:  # still the input model's weights: not a divergence
                    raise
                raise NonFiniteLossError(f"step {step}: {exc}") from exc
            record = {
                "step": step,
                **{k: float(v.data) for k, v in components.items()},
                "total": float(total.data),
            }
            if not math.isfinite(record["total"]):
                raise NonFiniteLossError(f"non-finite loss at step {step}: {record}")
            backward(total)
        opt.step()
        opt.zero_grad()
        trace.append(record)

    for name, folded in fold_adapters(model.weights, adapters, stage.lora_alpha).items():
        w = model.weights[name]
        w.data, w.requires_grad, w.grad = folded.data, False, None
    # a finite last loss can still take a step to inf or nan: no checkpoint of it
    broken = [name for name, w in model.weights.items() if not np.isfinite(w.data).all()]
    if broken:
        raise NonFiniteLossError(f"training left {len(broken)} non-finite weight tensors: "
                                 f"{', '.join(broken[:3])}{', ...' if len(broken) > 3 else ''}")
    return trace



# ----------------------------------------------------------------------
# linear model merging
# ----------------------------------------------------------------------


def merge_models(checkpoints: Sequence[dict[str, np.ndarray]],
                 weights: Sequence[float]) -> dict[str, np.ndarray]:
    """Parameter-wise convex combination of ``{name: ndarray}`` checkpoints,
    each weight in (0, 1] and the weights normalized to sum to one; adapters
    must be folded first."""
    if not checkpoints:
        raise ListrankError("merge needs at least one checkpoint")
    if len(weights) != len(checkpoints):
        raise ListrankError(f"{len(checkpoints)} checkpoints but {len(weights)} merge weights")
    for w in weights:
        if not 0.0 < w <= 1.0:
            raise ListrankError(f"merge weight {w} outside (0, 1]")
    first = checkpoints[0]
    names = sorted(first)
    for ckpt in checkpoints[1:]:
        if sorted(ckpt) != names:
            raise ListrankError("checkpoints name different tensors")
        for n in names:
            if first[n].shape != ckpt[n].shape:
                raise ListrankError(
                    f"tensor {n!r} shape mismatch: {first[n].shape} vs {ckpt[n].shape}"
                )
    total = sum(weights)
    merged: dict[str, np.ndarray] = {}
    for n in names:
        acc = None
        for ckpt, w in zip(checkpoints, weights):
            term = (w / total) * ckpt[n]
            acc = term if acc is None else acc + term
        merged[n] = acc
    return merged
