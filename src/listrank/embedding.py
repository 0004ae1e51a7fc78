"""Marker-position embedding extraction, projection, and cosine scoring."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ListrankError
from .prompt import PromptLayout


def projector_shapes(d_in: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every projector tensor, in initialization order: two
    affine layers with a rectifier between them, d_in -> d_in/2 -> d_in/2
    (the paper's 1024 -> 512 -> 512)."""
    half = d_in // 2
    return {"projector.w1": (d_in, half), "projector.b1": (half,),
            "projector.w2": (half, half), "projector.b2": (half,)}


def init_projector(d_in: int, seed: int) -> dict[str, Tensor]:
    """Weights normal with std 0.02, biases zero."""
    rng = np.random.default_rng(seed)
    return {
        name: Tensor(np.zeros(shape) if len(shape) == 1 else rng.normal(0.0, 0.02, shape))
        for name, shape in projector_shapes(d_in).items()
    }


def extract(layout: PromptLayout) -> list[int]:
    """The marker positions whose hidden states are read, in row order:
    the documents in the order presented, then the query, then the dual
    query when the layout has one."""
    positions = [*layout.doc_marker_positions, layout.query_marker_position]
    if layout.dual_query_marker_position is not None:
        positions.append(layout.dual_query_marker_position)
    return positions


def project(raw: Tensor, weights: dict[str, Tensor]) -> Tensor:
    """affine -> rectifier -> affine on every row, differentiable end-to-end."""
    d_in = weights["projector.w1"].shape[0]
    if raw.ndim != 2 or raw.shape[1] != d_in:
        raise ListrankError(f"projector expects rows of width {d_in}, got {tuple(raw.shape)}")
    hidden = ad.relu(ad.add(ad.matmul(raw, weights["projector.w1"]), weights["projector.b1"]))
    return ad.add(ad.matmul(hidden, weights["projector.w2"]), weights["projector.b2"])


def score(query: Tensor, docs: Tensor) -> Tensor:
    """Cosine relevance of each document row against the (1, d) query row,
    as a (1, n_docs) matrix in [-1, 1]; raises on zero-norm or non-finite
    rows."""
    return ad.cosine(query, docs)
