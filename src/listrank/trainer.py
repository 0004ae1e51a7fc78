"""Multi-stage fine-tuning: LoRA adapters, stage-configured optimization,
and linear checkpoint merging."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import backbone as bb
from .autodiff import Tape, Tensor, backward
from .backbone import ATTN_MATS, FFN_MATS
from .config import from_json_object
from .embedding import extract, project
from .errors import ConfigError, DataError, MergeError, NonFiniteLossError, ParseError
from .losses import LossWeights, QueryGroup, TrainingBatch, all_losses
from .model import RerankModel
from .prompt import Document, RerankRequest, build_prompt


@dataclass
class StageConfig:
    """One training stage. Defaults follow the foundation stage: adapters
    plus word embeddings trainable, 15 negatives, temperature 0.25,
    learning rate 5e-5."""

    mode: str = "adapters"  # adapters | full
    steps: int = 100
    learning_rate: float = 5e-5
    batch_size: int = 4  # queries per step
    n_negatives: int = 15
    n_inbatch_negatives: int = 3
    temperature: float = 0.25
    max_doc_tokens: int = 768
    max_seq_tokens: Optional[int] = None  # defaults to backbone effective_seq_len
    pad_docs: bool = False
    w_disperse: float = 0.45
    w_dual: float = 0.85
    w_similar: float = 0.85
    lora_rank: int = 16
    lora_alpha: float = 32.0
    train_embeddings: bool = True
    weight_decay: float = 0.01
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("adapters", "full"):
            raise ConfigError(f"unknown training mode {self.mode!r}")
        if self.steps < 0 or self.batch_size < 1 or self.n_negatives < 1:
            raise ConfigError("steps/batch_size/n_negatives out of range")
        if self.learning_rate <= 0 or self.temperature <= 0:
            raise ConfigError("learning_rate and temperature must be positive")
        if self.lora_rank < 1:
            raise ConfigError("lora_rank must be >= 1")

    @property
    def loss_weights(self) -> LossWeights:
        return LossWeights(self.w_disperse, self.w_dual, self.w_similar)

    def to_dict(self) -> dict:
        return asdict(self)

    from_dict = classmethod(from_json_object)

    @classmethod
    def load(cls, path) -> "StageConfig":
        try:
            obj = json.loads(Path(path).read_bytes().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParseError(f"stage config {path} is not UTF-8 JSON: {exc}") from exc
        return cls.from_dict(obj)

    def save(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )


@dataclass
class TrainingExample:
    query_id: str
    query_text: str
    positive: str
    negatives: list[str]


# ----------------------------------------------------------------------
# LoRA
# ----------------------------------------------------------------------

LORA_TARGET_MATS = tuple(f"attn.{m}" for m in ATTN_MATS) + tuple(f"ffn.{m}" for m in FFN_MATS)


def lora_target_names(n_layers: int) -> list[str]:
    return [f"layers.{i}.{m}" for i in range(n_layers) for m in LORA_TARGET_MATS]


def create_adapters(
    base_weights: dict[str, Tensor], targets: Iterable[str], rank: int, seed: int
) -> dict[str, tuple[Tensor, Tensor]]:
    """Per target W (m, n): A (rank, n) small-normal, B (m, rank) zero, so
    the initial effective weight equals W exactly."""
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
    rank: int,
    alpha: float,
) -> dict[str, Tensor]:
    """Effective-weight view W + (alpha/rank) * B @ A; gradients flow to
    A and B only when the base weights are frozen."""
    scale_factor = alpha / rank
    eff = dict(base_weights)
    for name, (a, b) in adapters.items():
        w = base_weights[name]
        if (b.shape[0], a.shape[1]) != tuple(w.shape) or a.shape[0] != b.shape[1]:
            raise ConfigError(
                f"adapter shapes {tuple(b.shape)}x{tuple(a.shape)} incompatible "
                f"with {name} of shape {tuple(w.shape)}"
            )
        eff[name] = ad.add(w, ad.scale(ad.matmul(b, a), scale_factor))
    return eff


def fold_adapters(
    base_weights: dict[str, Tensor],
    adapters: dict[str, tuple[Tensor, Tensor]],
    rank: int,
    alpha: float,
) -> dict[str, Tensor]:
    """Materialize adapters into plain weights (for saving and merging)."""
    out = {k: Tensor(v.data.copy()) for k, v in base_weights.items()}
    for name, (a, b) in adapters.items():
        out[name] = Tensor(base_weights[name].data + (alpha / rank) * (b.data @ a.data))
    return out


# ----------------------------------------------------------------------
# optimizer
# ----------------------------------------------------------------------


class AdamW:
    """Decoupled-weight-decay adaptive-moment optimizer over named tensors."""

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.01,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr, self.wd = lr, weight_decay
        self.b1, self.b2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.m[k] = self.b1 * self.m[k] + (1.0 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1.0 - self.b2) * g * g
            update = (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + self.eps)
            p.data = p.data - self.lr * (update + self.wd * p.data)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


# ----------------------------------------------------------------------
# augmentation
# ----------------------------------------------------------------------


def augment_text(text: str, rng: np.random.Generator,
                 p_drop: float = 0.1, p_swap: float = 0.05) -> str:
    """Semantics-light augmentation: token dropout, adjacent swaps, case
    fold. Always keeps at least one token."""
    words = text.split()
    kept = [w for w in words if rng.random() >= p_drop] or [words[0]]
    i = 0
    while i < len(kept) - 1:
        if rng.random() < p_swap:
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
    adapters: Optional[dict[str, tuple[Tensor, Tensor]]],
    stage: StageConfig,
) -> dict[str, Tensor]:
    params: dict[str, Tensor] = {
        k: v for k, v in model.weights.items() if k.startswith("projector.")
    }
    if stage.mode == "full":
        params.update({k: v for k, v in model.weights.items() if not k.startswith("projector.")})
    else:
        if stage.train_embeddings:
            params["embed.weight"] = model.weights["embed.weight"]
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
) -> QueryGroup:
    """One training forward: positive + negatives + augmented positive in a
    shuffled listwise prompt with the dual query marker."""
    augmented = augment_text(example.positive, rng)
    docs = (
        [Document("pos", example.positive)]
        + [Document(f"neg{k}", t) for k, t in enumerate(negatives)]
        + [Document("aug", augmented)]
    )
    request = RerankRequest(
        query=example.query_text, documents=docs,
        ordering="random", ordering_seed=int(rng.integers(2 ** 31)),
    )
    max_seq = stage.max_seq_tokens or model.backbone_config.effective_seq_len
    layout = build_prompt(
        request, model.vocab, stage.max_doc_tokens,
        insert_dual_query_marker=True,
        max_context=min(max_seq, model.backbone_config.max_context),
        pad_docs=stage.pad_docs,
    )
    hidden = bb.forward(layout.token_ids, model.backbone_config, weights)
    emb = extract(hidden, layout, include_dual=True)
    proj = [project(raw, weights) for raw in emb.docs]
    return QueryGroup(
        query=project(emb.query, weights),
        dual_query=project(emb.dual_query, weights),
        positive=proj[0],
        negatives=proj[1 : 1 + len(negatives)],
        augmented=proj[1 + len(negatives)],
    )


def train_stage(
    model: RerankModel,
    dataset: Sequence[TrainingExample],
    stage: StageConfig,
) -> list[dict]:
    """Run one optimization stage in place; returns the per-step loss trace.

    Deterministic given (model, dataset, stage.seed). Non-finite losses
    abort with diagnostics.
    """
    if len(dataset) < stage.batch_size:
        raise DataError(
            f"dataset of {len(dataset)} examples cannot fill batches of {stage.batch_size}"
        )
    for ex in dataset:
        if len(ex.negatives) < stage.n_negatives:
            raise DataError(
                f"query {ex.query_id!r} has {len(ex.negatives)} negatives, "
                f"stage needs {stage.n_negatives}"
            )
    rng = np.random.default_rng(stage.seed)
    adapters = None
    if stage.mode == "adapters":
        targets = lora_target_names(model.backbone_config.n_layers)
        adapters = create_adapters(model.weights, targets, stage.lora_rank, stage.seed)
    params = _trainable_params(model, adapters, stage)
    for name, w in model.weights.items():
        w.requires_grad = name in params
    for p in params.values():
        p.requires_grad = True
    opt = AdamW(params, stage.learning_rate, stage.weight_decay,
                stage.adam_beta1, stage.adam_beta2)

    trace: list[dict] = []
    for step in range(stage.steps):
        idx = rng.choice(len(dataset), size=stage.batch_size, replace=False)
        with Tape():
            weights = (
                apply_lora(model.weights, adapters, stage.lora_rank, stage.lora_alpha)
                if adapters is not None else model.weights
            )
            groups = []
            for i in idx:
                ex = dataset[int(i)]
                neg_idx = rng.choice(len(ex.negatives), size=stage.n_negatives, replace=False)
                negatives = [ex.negatives[int(j)] for j in neg_idx]
                groups.append(_encode_group(model, weights, ex, negatives, stage, rng))
            # in-batch negatives: other queries' positives join each contrast set
            if stage.n_inbatch_negatives > 0 and len(groups) > 1:
                n_extra = min(stage.n_inbatch_negatives, len(groups) - 1)
                for gi, g in enumerate(groups):
                    others = [j for j in range(len(groups)) if j != gi]
                    pick = rng.choice(others, size=n_extra, replace=False)
                    g.negatives = g.negatives + [groups[int(j)].positive for j in pick]
            batch = TrainingBatch(groups=groups, temperature=stage.temperature)
            total, components = all_losses(batch, stage.loss_weights)
            record = {
                "step": step,
                **{k: float(v.data) for k, v in components.items()},
                "total": float(total.data),
            }
            if not math.isfinite(record["total"]):
                raise NonFiniteLossError(
                    f"non-finite loss at step {step}: {record}",
                    step=step, components=record,
                )
            backward(total)
        opt.step()
        opt.zero_grad()
        trace.append(record)

    if adapters is not None:
        folded = fold_adapters(model.weights, adapters, stage.lora_rank, stage.lora_alpha)
        for name in folded:
            model.weights[name].data = folded[name].data
    for w in model.weights.values():
        w.requires_grad = False
        w.grad = None
    return trace


def write_loss_trace(path, trace: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in trace:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# linear model merging
# ----------------------------------------------------------------------


@dataclass
class MergeSpec:
    """Checkpoints (as {name: array} dicts) with convex merge weights;
    weights are normalized to sum to one before merging."""

    entries: list[tuple[dict, float]]

    def __post_init__(self):
        if not self.entries:
            raise MergeError("merge spec needs at least one checkpoint")
        for _, w in self.entries:
            if not 0.0 < w <= 1.0:
                raise MergeError(f"merge weight {w} outside (0, 1]")


def merge_models(spec: MergeSpec) -> dict[str, np.ndarray]:
    """Parameter-wise convex combination; adapters must be folded first."""
    first, _ = spec.entries[0]
    names = sorted(first)
    for ckpt, _ in spec.entries[1:]:
        if sorted(ckpt) != names:
            raise MergeError("checkpoints name different tensors")
        for n in names:
            a = np.asarray(getattr(first[n], "data", first[n]))
            b = np.asarray(getattr(ckpt[n], "data", ckpt[n]))
            if a.shape != b.shape:
                raise MergeError(
                    f"tensor {n!r} shape mismatch: {a.shape} vs {b.shape}"
                )
    total = sum(w for _, w in spec.entries)
    merged: dict[str, np.ndarray] = {}
    for n in names:
        acc = None
        for ckpt, w in spec.entries:
            arr = np.asarray(getattr(ckpt[n], "data", ckpt[n]), dtype=np.float64)
            term = (w / total) * arr
            acc = term if acc is None else acc + term
        merged[n] = acc
    return merged
