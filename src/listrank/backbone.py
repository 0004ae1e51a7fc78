"""Tiny causal transformer: GQA attention, rotary positions, RMS norm,
SiLU-gated FFN. Final-layer hidden states at the rows a caller reads
(the marker tokens) are the only output; the last layer runs only at
those rows, apart from its K and V. There is no LM head and no KV cache
because reranking is a single full-sequence pass. Rotary positions are one
complex table per head width (``autodiff.rope_table``), kept across calls,
that ``autodiff.rope`` multiplies into every head of K and Q. Attention is
one fused, row-blocked op over all heads (``autodiff.causal_attention``)
masking only the keys past each block's least position: no (L, L) mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ListrankError

ROPE_BASE, RMS_EPS = 10000.0, 1e-6  # rotary base and RMS-norm epsilon of every backbone


@dataclass
class BackboneConfig:
    """Structural configuration. Desk-scale defaults; the full-scale values
    (28 layers / 1024 hidden / 16 q heads / 8 kv heads / 131072 context)
    are representable but never required; ``ROPE_BASE`` and ``RMS_EPS`` are fixed."""

    n_layers: int = 2
    d_hidden: int = 64
    n_q_heads: int = 4
    n_kv_heads: int = 2
    d_ffn: int = 128
    max_context: int = 2048
    # independent soft limit used by training token budgets
    effective_seq_len: int = 2048
    vocab_size: int = 1024

    def __post_init__(self):
        if min(self.n_layers, self.d_hidden, self.n_q_heads, self.n_kv_heads,
               self.d_ffn, self.max_context, self.effective_seq_len, self.vocab_size) < 1:
            raise ListrankError("all backbone extents must be positive")
        if self.d_hidden % self.n_q_heads != 0:
            raise ListrankError(
                f"d_hidden={self.d_hidden} not divisible by n_q_heads={self.n_q_heads}"
            )
        if self.n_q_heads % self.n_kv_heads != 0:
            raise ListrankError(
                f"n_q_heads={self.n_q_heads} not divisible by n_kv_heads={self.n_kv_heads}"
            )
        if self.head_dim % 2 != 0:
            raise ListrankError(f"head_dim={self.head_dim} must be even for rotary positions")

    @property
    def head_dim(self) -> int:
        return self.d_hidden // self.n_q_heads

    @property
    def kv_dim(self) -> int:
        return self.n_kv_heads * self.head_dim


def weight_shapes(config: BackboneConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every backbone tensor, in initialization order."""
    d, kv, f = config.d_hidden, config.kv_dim, config.d_ffn
    layer = {"attn_norm.gain": (d,), "attn.wq": (d, d), "attn.wk": (d, kv), "attn.wv": (d, kv),
             "attn.wo": (d, d), "ffn_norm.gain": (d,), "ffn.wg": (d, f), "ffn.wu": (d, f),
             "ffn.wd": (f, d)}
    shapes = {"embed.weight": (config.vocab_size, d)}
    for i in range(config.n_layers):
        shapes.update({f"layers.{i}.{name}": shape for name, shape in layer.items()})
    shapes["final_norm.gain"] = (d,)
    return shapes


def init_weights(config: BackboneConfig, seed: int) -> dict[str, Tensor]:
    """Deterministic scaled-normal initialization (std 0.02; output
    projections scaled by 1/sqrt(2*n_layers)); norm gains start at 1."""
    rng = np.random.default_rng(seed)
    out_scale = 1.0 / np.sqrt(2.0 * config.n_layers)
    w: dict[str, Tensor] = {}
    for name, shape in weight_shapes(config).items():
        scl = out_scale if name.endswith((".wo", ".wd")) else 1.0
        w[name] = Tensor(np.ones(shape) if name.endswith(".gain")
                         else rng.normal(0.0, 0.02, size=shape) * scl)
    return w


_ROPE_TABLES: dict[int, np.ndarray] = {}  # head_dim -> turns of the longest sequence yet


def _rope_turns(length: int, head_dim: int) -> np.ndarray:
    """``ad.rope_table(length, head_dim, ROPE_BASE)`` bit for bit: row p depends only on p."""
    if len(_ROPE_TABLES.get(head_dim, ())) < length:
        _ROPE_TABLES[head_dim] = ad.rope_table(length, head_dim, ROPE_BASE)
        _ROPE_TABLES[head_dim].flags.writeable = False  # every later forward reads it
    return _ROPE_TABLES[head_dim][:length]


def forward(
    tokens: Sequence[int],
    config: BackboneConfig,
    weights: dict[str, Tensor],
    rows: Sequence[int] | None = None,
) -> Tensor:
    """Run the full stack, returning the final-layer hidden states at
    ``rows``, in the order given, as a (len(rows), d_hidden) matrix; every
    row, (L, d_hidden), by default.

    Strictly causal: position p is a function of tokens[0..p] only. So the
    last layer needs K and V at every row, but its query, residual, output
    projection, FFN and final norm only at ``rows``: the rows it skips
    feed nothing that is returned, and skipping them changes no value.
    """
    length = len(tokens)
    if length == 0:
        raise ListrankError("empty token sequence")
    if length > config.max_context:
        raise ListrankError(
            f"sequence of {length} tokens exceeds max_context={config.max_context}"
        )
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        bad = ids[(ids < 0) | (ids >= config.vocab_size)][0]
        raise ListrankError(f"token id {bad} outside vocabulary of {config.vocab_size}")
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1:
            raise ListrankError(f"rows must be a flat list of positions, got {rows.tolist()}")
        if ((rows < 0) | (rows >= length)).any():
            raise ListrankError(f"rows {rows.tolist()} outside a sequence of {length} tokens")

    positions = np.arange(length)
    turns = _rope_turns(length, config.head_dim)
    x = ad.gather_rows(weights["embed.weight"], ids)
    for i in range(config.n_layers):
        p = f"layers.{i}"
        h = ad.rms_norm(x, weights[f"{p}.attn_norm.gain"], RMS_EPS)
        k = ad.rope(ad.matmul(h, weights[f"{p}.attn.wk"]), turns)
        v = ad.matmul(h, weights[f"{p}.attn.wv"])
        if rows is not None and i == config.n_layers - 1:
            positions = rows
            x, h, turns = ad.gather_rows(x, rows), ad.gather_rows(h, rows), turns[rows]
        q = ad.rope(ad.matmul(h, weights[f"{p}.attn.wq"]), turns)
        attn = ad.causal_attention(q, k, v, config.n_q_heads, config.n_kv_heads, positions)
        x = ad.add(x, ad.matmul(attn, weights[f"{p}.attn.wo"]))

        h2 = ad.rms_norm(x, weights[f"{p}.ffn_norm.gain"], RMS_EPS)
        gated = ad.mul(ad.silu(ad.matmul(h2, weights[f"{p}.ffn.wg"])),
                       ad.matmul(h2, weights[f"{p}.ffn.wu"]))
        x = ad.add(x, ad.matmul(gated, weights[f"{p}.ffn.wd"]))
    return ad.rms_norm(x, weights["final_norm.gain"], RMS_EPS)
