"""Marker-position embedding extraction, projection, and cosine scoring."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError
from .prompt import PromptLayout


@dataclass
class ProjectorConfig:
    """Two affine layers with a rectifier between them (d_in -> d_mid -> d_out).

    Full-scale shape is 1024 -> 512 -> 512; the desk-scale default mirrors
    the same 2:1:1 ratio."""

    d_in: int = 64
    d_mid: int = 32
    d_out: int = 32

    def __post_init__(self):
        if min(self.d_in, self.d_mid, self.d_out) < 1:
            raise ConfigError("projector dimensions must be positive")

    def to_dict(self) -> dict:
        return {"d_in": self.d_in, "d_mid": self.d_mid, "d_out": self.d_out}

    @classmethod
    def from_dict(cls, d: dict) -> "ProjectorConfig":
        return cls(**d)


def projector_shapes(config: ProjectorConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every projector tensor, in initialization order."""
    d_in, d_mid, d_out = config.d_in, config.d_mid, config.d_out
    return {"projector.w1": (d_in, d_mid), "projector.b1": (d_mid,),
            "projector.w2": (d_mid, d_out), "projector.b2": (d_out,)}


def init_projector(config: ProjectorConfig, seed: int) -> dict[str, Tensor]:
    """Weights normal with std 0.02, biases zero."""
    rng = np.random.default_rng(seed)
    return {
        name: Tensor(np.zeros(shape) if len(shape) == 1 else rng.normal(0.0, 0.02, shape))
        for name, shape in projector_shapes(config).items()
    }


@dataclass
class ExtractedEmbeddings:
    """Raw per-marker hidden rows, document rows keyed by original index."""

    query: Tensor
    docs: list[Tensor]
    dual_query: Optional[Tensor] = None


def _row(hidden: Tensor, position: int) -> Tensor:
    return ad.reshape(ad.gather_rows(hidden, [position]), (hidden.shape[1],))


def extract(hidden: Tensor, layout: PromptLayout, include_dual: bool = False) -> ExtractedEmbeddings:
    """Pure row selection at the recorded marker positions. Document rows are
    returned in original-document order (the presentation permutation is
    inverted here)."""
    n_rows = hidden.shape[0]
    positions = layout.doc_marker_positions + [layout.query_marker_position]
    if max(positions) >= n_rows:
        raise DimensionError(
            f"marker position {max(positions)} outside hidden states with {n_rows} rows"
        )
    by_original: list[Optional[Tensor]] = [None] * len(layout.doc_marker_positions)
    for slot, pos in enumerate(layout.doc_marker_positions):
        by_original[layout.doc_presentation_order[slot]] = _row(hidden, pos)
    query = _row(hidden, layout.query_marker_position)
    dual = None
    if include_dual:
        if layout.dual_query_marker_position is None:
            raise DimensionError("layout has no dual query marker")
        dual = _row(hidden, layout.dual_query_marker_position)
    return ExtractedEmbeddings(query=query, docs=by_original, dual_query=dual)


def project(raw: Tensor, weights: dict[str, Tensor]) -> Tensor:
    """affine -> rectifier -> affine, differentiable end-to-end."""
    if raw.shape != (weights["projector.w1"].shape[0],):
        raise ConfigError(
            f"projector expects input of width {weights['projector.w1'].shape[0]}, "
            f"got {tuple(raw.shape)}"
        )
    x = ad.reshape(raw, (1, raw.shape[0]))
    hidden = ad.relu(ad.add(ad.matmul(x, weights["projector.w1"]), weights["projector.b1"]))
    out = ad.add(ad.matmul(hidden, weights["projector.w2"]), weights["projector.b2"])
    return ad.reshape(out, (out.shape[1],))


def score(q: Tensor, d: Tensor) -> Tensor:
    """Cosine relevance score in [-1, 1]; raises on zero-norm embeddings."""
    return ad.cosine(q, d)
