"""Tiny causal transformer: GQA attention, rotary positions, RMS norm,
SiLU-gated FFN. Final-layer hidden states are the only output; there is
no LM head and no KV cache because reranking is a single full-sequence
pass. Attention is one fused, row-blocked op over all heads
(``autodiff.causal_attention``) that masks only its diagonal tiles, so
no mask tensor is ever built.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import from_json_object
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
        if not (self.rope_base > 0 and self.rms_eps >= 0):
            raise ConfigError("rope_base must be positive and rms_eps non-negative")

    @property
    def head_dim(self) -> int:
        return self.d_hidden // self.n_q_heads

    @property
    def kv_dim(self) -> int:
        return self.n_kv_heads * self.head_dim

    def to_dict(self) -> dict:
        return asdict(self)

    from_dict = classmethod(from_json_object)


ATTN_MATS = ("wq", "wk", "wv", "wo")
FFN_MATS = ("wg", "wu", "wd")


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
        q = ad.rope(ad.matmul(h, weights[f"{p}.attn.wq"]), positions, config.rope_base, hd)
        k = ad.rope(ad.matmul(h, weights[f"{p}.attn.wk"]), positions, config.rope_base, hd)
        v = ad.matmul(h, weights[f"{p}.attn.wv"])
        attn = ad.causal_attention(q, k, v, config.n_q_heads, config.n_kv_heads)
        x = ad.add(x, ad.matmul(attn, weights[f"{p}.attn.wo"]))

        h2 = ad.rms_norm(x, weights[f"{p}.ffn_norm.gain"], config.rms_eps)
        gated = ad.mul(ad.silu(ad.matmul(h2, weights[f"{p}.ffn.wg"])),
                       ad.matmul(h2, weights[f"{p}.ffn.wu"]))
        x = ad.add(x, ad.matmul(gated, weights[f"{p}.ffn.wd"]))
    return ad.rms_norm(x, weights["final_norm.gain"], config.rms_eps)
