"""Marker-position embedding extraction, projection, and cosine scoring."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import from_json_object
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
        return asdict(self)

    from_dict = classmethod(from_json_object)


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


def extract(layout: PromptLayout, include_dual: bool = False) -> list[int]:
    """The marker positions whose hidden states are read, in row order:
    the documents in the order presented, then the query, then the dual
    query if asked for."""
    positions = [*layout.doc_marker_positions, layout.query_marker_position]
    if include_dual:
        if layout.dual_query_marker_position is None:
            raise DimensionError("layout has no dual query marker")
        positions.append(layout.dual_query_marker_position)
    return positions


def project(raw: Tensor, weights: dict[str, Tensor]) -> Tensor:
    """affine -> rectifier -> affine on every row, differentiable end-to-end."""
    d_in = weights["projector.w1"].shape[0]
    if raw.ndim != 2 or raw.shape[1] != d_in:
        raise ConfigError(f"projector expects rows of width {d_in}, got {tuple(raw.shape)}")
    hidden = ad.relu(ad.add(ad.matmul(raw, weights["projector.w1"]), weights["projector.b1"]))
    return ad.add(ad.matmul(hidden, weights["projector.w2"]), weights["projector.b2"])


def score(query: Tensor, docs: Tensor) -> Tensor:
    """Cosine relevance of each document row against the (1, d) query row,
    as a (1, n_docs) matrix in [-1, 1]; raises on zero-norm or non-finite
    rows."""
    return ad.cosine(query, docs)
