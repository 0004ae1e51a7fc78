"""Tiny causal transformer: GQA attention, rotary positions, RMS norm,
SiLU-gated FFN. Final-layer hidden states are the only output; there is
no LM head and no KV cache because reranking is a single full-sequence
pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContextLengthError, VocabularyError


@dataclass
class BackboneConfig:
    """Structural configuration. Desk-scale defaults; the full-scale values
    (28 layers / 1024 hidden / 16 q heads / 8 kv heads / 131072 context)
    are representable but never required."""

    n_layers: int = 2
    d_hidden: int = 64
    n_q_heads: int = 4
    n_kv_heads: int = 2
    d_ffn: int = 128
    max_context: int = 2048
    # independent soft limit used by training token budgets
    effective_seq_len: int = 2048
    vocab_size: int = 1024
    rope_base: float = 10000.0
    rms_eps: float = 1e-6

    def __post_init__(self):
        if min(self.n_layers, self.d_hidden, self.n_q_heads, self.n_kv_heads,
               self.d_ffn, self.max_context, self.vocab_size) < 1:
            raise ConfigError("all backbone extents must be positive")
        if self.d_hidden % self.n_q_heads != 0:
            raise ConfigError(
                f"d_hidden={self.d_hidden} not divisible by n_q_heads={self.n_q_heads}"
            )
        if self.n_q_heads % self.n_kv_heads != 0:
            raise ConfigError(
                f"n_q_heads={self.n_q_heads} not divisible by n_kv_heads={self.n_kv_heads}"
            )
        if self.head_dim % 2 != 0:
            raise ConfigError(f"head_dim={self.head_dim} must be even for rotary positions")

    @property
    def head_dim(self) -> int:
        return self.d_hidden // self.n_q_heads

    @property
    def kv_dim(self) -> int:
        return self.n_kv_heads * self.head_dim

    def to_dict(self) -> dict:
        return {
            "n_layers": self.n_layers, "d_hidden": self.d_hidden,
            "n_q_heads": self.n_q_heads, "n_kv_heads": self.n_kv_heads,
            "d_ffn": self.d_ffn, "max_context": self.max_context,
            "effective_seq_len": self.effective_seq_len,
            "vocab_size": self.vocab_size, "rope_base": self.rope_base,
            "rms_eps": self.rms_eps,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BackboneConfig":
        return cls(**d)


ATTN_MATS = ("wq", "wk", "wv", "wo")
FFN_MATS = ("wg", "wu", "wd")


def init_weights(config: BackboneConfig, seed: int) -> dict[str, Tensor]:
    """Deterministic scaled-normal initialization (std 0.02; output
    projections scaled by 1/sqrt(2*n_layers))."""
    rng = np.random.default_rng(seed)
    out_scale = 1.0 / np.sqrt(2.0 * config.n_layers)

    def normal(*shape, scl=1.0):
        return Tensor(rng.normal(0.0, 0.02, size=shape) * scl)

    w: dict[str, Tensor] = {"embed.weight": normal(config.vocab_size, config.d_hidden)}
    d, kv, f = config.d_hidden, config.kv_dim, config.d_ffn
    for i in range(config.n_layers):
        p = f"layers.{i}"
        w[f"{p}.attn_norm.gain"] = Tensor(np.ones(d))
        w[f"{p}.attn.wq"] = normal(d, d)
        w[f"{p}.attn.wk"] = normal(d, kv)
        w[f"{p}.attn.wv"] = normal(d, kv)
        w[f"{p}.attn.wo"] = normal(d, d, scl=out_scale)
        w[f"{p}.ffn_norm.gain"] = Tensor(np.ones(d))
        w[f"{p}.ffn.wg"] = normal(d, f)
        w[f"{p}.ffn.wu"] = normal(d, f)
        w[f"{p}.ffn.wd"] = normal(f, d, scl=out_scale)
    w["final_norm.gain"] = Tensor(np.ones(d))
    return w


def _causal_mask(length: int) -> Tensor:
    mask = np.triu(np.full((length, length), -np.inf), k=1)
    return Tensor(mask)


def causal_attention(
    q_heads: Sequence[Tensor],
    k_heads: Sequence[Tensor],
    v_heads: Sequence[Tensor],
) -> Tensor:
    """Masked scaled dot-product attention with grouped KV heads.

    Query head i attends through KV head i // (n_q / n_kv). Inputs are
    per-head (L, head_dim) matrices; output is the (L, n_q*head_dim)
    concatenation of head outputs.
    """
    n_q, n_kv = len(q_heads), len(k_heads)
    if n_kv == 0 or n_q % n_kv != 0 or len(v_heads) != n_kv:
        raise ConfigError(f"incompatible head counts: {n_q} query vs {n_kv} kv heads")
    group = n_q // n_kv
    length, head_dim = q_heads[0].shape
    mask = _causal_mask(length)
    inv_sqrt = 1.0 / np.sqrt(head_dim)
    outs = []
    for i, q in enumerate(q_heads):
        k = k_heads[i // group]
        v = v_heads[i // group]
        scores = ad.add(ad.scale(ad.matmul(q, ad.transpose(k)), inv_sqrt), mask)
        outs.append(ad.matmul(ad.softmax_rows(scores), v))
    return ad.concat_cols(outs)


def forward(
    tokens: Sequence[int],
    config: BackboneConfig,
    weights: dict[str, Tensor],
) -> Tensor:
    """Run the full stack, returning final-layer hidden states (L, d_hidden).

    Strictly causal: position p is a function of tokens[0..p] only.
    """
    length = len(tokens)
    if length == 0:
        raise VocabularyError("empty token sequence")
    if length > config.max_context:
        raise ContextLengthError(
            f"sequence of {length} tokens exceeds max_context={config.max_context}",
            measured=length, limit=config.max_context,
        )
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        bad = ids[(ids < 0) | (ids >= config.vocab_size)][0]
        raise VocabularyError(f"token id {bad} outside vocabulary of {config.vocab_size}")

    positions = list(range(length))
    hd = config.head_dim
    x = ad.gather_rows(weights["embed.weight"], ids)
    for i in range(config.n_layers):
        p = f"layers.{i}"
        h = ad.rms_norm(x, weights[f"{p}.attn_norm.gain"], config.rms_eps)
        q = ad.matmul(h, weights[f"{p}.attn.wq"])
        k = ad.matmul(h, weights[f"{p}.attn.wk"])
        v = ad.matmul(h, weights[f"{p}.attn.wv"])
        q_heads = [
            ad.rope(ad.slice_cols(q, j * hd, (j + 1) * hd), positions, config.rope_base)
            for j in range(config.n_q_heads)
        ]
        k_heads = [
            ad.rope(ad.slice_cols(k, j * hd, (j + 1) * hd), positions, config.rope_base)
            for j in range(config.n_kv_heads)
        ]
        v_heads = [ad.slice_cols(v, j * hd, (j + 1) * hd) for j in range(config.n_kv_heads)]
        attn = causal_attention(q_heads, k_heads, v_heads)
        x = ad.add(x, ad.matmul(attn, weights[f"{p}.attn.wo"]))

        h2 = ad.rms_norm(x, weights[f"{p}.ffn_norm.gain"], config.rms_eps)
        gated = ad.mul(ad.silu(ad.matmul(h2, weights[f"{p}.ffn.wg"])),
                       ad.matmul(h2, weights[f"{p}.ffn.wu"]))
        x = ad.add(x, ad.matmul(gated, weights[f"{p}.ffn.wd"]))
    return ad.rms_norm(x, weights["final_norm.gain"], config.rms_eps)
