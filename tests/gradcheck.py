"""Finite-difference gradient checks: the tests' independent gradient oracle.

``finite_diff_check`` compares taped gradients against central differences;
``_GRADCHECKS`` maps each component of acceptance criterion 1 (the losses,
the projector, a 2-layer backbone and the LoRA path) to a function that
runs that check for one seed and returns its worst relative error, which
must stay under ``GRADCHECK_THRESHOLD``. This module holds no tests of its own.
"""

from typing import Callable, Iterable, Optional

import numpy as np

from listrank import autodiff as ad
from listrank import backbone as bb
from listrank.autodiff import Tape, Tensor, backward
from listrank.embedding import init_projector, project
from listrank.errors import ListrankError
from listrank.losses import TrainingBatch, all_losses
from listrank.trainer import apply_lora, create_adapters

GRADCHECK_THRESHOLD = 1e-4


def finite_diff_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    h: float = 1e-6,
    coords: Optional[Iterable[int]] = None,
) -> float:
    """Compare taped gradients of ``f`` at ``x`` against central differences.

    Returns the worst relative error with denominator
    max(|analytic|, |numeric|, 1e-8), or NaN when a gradient or a
    difference is not finite. ``coords`` restricts the check to a subset
    of flat coordinates (all of them by default).
    """
    if not (1e-7 <= h <= 1e-4):
        raise ValueError(f"step size {h} outside the supported range [1e-7, 1e-4]")
    x.grad = None
    with Tape():
        y = f(x)
        backward(y)
    if x.grad is None:
        raise ListrankError("function output does not depend on x (no gradient recorded)")
    analytic = x.grad.reshape(-1).copy()
    flat = x.data.reshape(-1)
    idx = range(flat.size) if coords is None else list(coords)
    worst = 0.0
    for i in idx:
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x).data)
        flat[i] = orig - h
        fm = float(f(x).data)
        flat[i] = orig
        numeric = (fp - fm) / (2.0 * h)
        denom = max(abs(analytic[i]), abs(numeric), 1e-8)
        err = abs(analytic[i] - numeric) / denom
        if not np.isfinite(err):  # max() would drop a NaN
            return float("nan")
        worst = max(worst, err)
    return worst


def _gradcheck_losses(seed: int) -> float:
    rng = np.random.default_rng(seed)
    n_queries, n_neg, dim = 2, 3, 6
    width = 4 + n_neg
    X = Tensor(rng.normal(size=(n_queries * width, dim)), requires_grad=True)
    # each query's rows: query, dual query, positive, augmented, negatives
    first = np.arange(n_queries) * width
    rows = dict(query=first, dual_query=first + 1, positive=first + 2, augmented=first + 3,
                negatives=first[:, None] + np.arange(4, width))
    return finite_diff_check(lambda x: all_losses(TrainingBatch(x, 0.25, **rows))[0], X)


def _gradcheck_projector(seed: int) -> float:
    rng = np.random.default_rng(seed)
    weights = init_projector(8, seed)
    # O(1) weights keep gradients well above the finite-difference noise
    # floor; the positive hidden bias keeps rectifier units away from their
    # kink and the output away from zero norm
    for name in ("projector.w1", "projector.w2"):
        weights[name].data = rng.normal(0.0, 0.5, weights[name].shape)
    weights["projector.b1"].data = 0.5 + rng.random(4)
    weights["projector.b2"].data = rng.normal(0.0, 0.1, 4)
    u = Tensor(rng.normal(size=(1, 8)))
    v = Tensor(rng.normal(size=(1, 8)))
    w1 = weights["projector.w1"]
    w1.requires_grad = True

    def f(_):
        return ad.tsum(ad.cosine(project(u, weights), project(v, weights)))

    return finite_diff_check(f, w1)


def _gradcheck_backbone(seed: int) -> float:
    rng = np.random.default_rng(seed)
    cfg = bb.BackboneConfig(n_layers=2, d_hidden=32, n_q_heads=4, n_kv_heads=2,
                            d_ffn=32, max_context=64, vocab_size=50)
    weights = bb.init_weights(cfg, seed)
    tokens = rng.integers(0, cfg.vocab_size, size=6).tolist()
    target = weights["layers.0.attn.wq"]
    target.requires_grad = True

    def f(_):
        return ad.tmean(bb.forward(tokens, cfg, weights))

    coords = np.random.default_rng(seed + 1).choice(target.data.size, size=64, replace=False)
    # h=1e-5: the forward is smooth, so a larger step trades negligible
    # truncation error for a 10x smaller roundoff floor
    return finite_diff_check(f, target, h=1e-5, coords=coords.tolist())


def _gradcheck_lora(seed: int) -> float:
    rng = np.random.default_rng(seed)
    base = {"w": Tensor(rng.normal(size=(6, 5)))}
    adapters = create_adapters(base, ["w"], rank=2, seed=seed)
    a, b = adapters["w"]
    b.data = rng.normal(size=b.data.shape)  # move off zero init for the check
    a.requires_grad = True
    b.requires_grad = True
    x = Tensor(rng.normal(size=(3, 6)))

    def f(_):
        eff = apply_lora(base, adapters, alpha=4.0)
        return ad.tmean(ad.matmul(x, eff["w"]))

    err_a = finite_diff_check(f, a)
    err_b = finite_diff_check(f, b)
    # base weights must stay gradient-free in adapters-only mode
    base["w"].grad = None
    with Tape():
        loss = f(None)
        ad.backward(loss)
    assert base["w"].grad is None, "base weight received gradient in adapters-only mode"
    return max(err_a, err_b)


_GRADCHECKS = {
    "losses": _gradcheck_losses,
    "projector": _gradcheck_projector,
    "backbone": _gradcheck_backbone,
    "lora": _gradcheck_lora,
}
