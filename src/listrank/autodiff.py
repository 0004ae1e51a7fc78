"""Minimal reverse-mode autodiff over float64 numpy arrays.

Everything the backbone and the losses need, nothing more: dense tensors,
a replay tape, and a central finite-difference checker that serves as the
independent gradient oracle for the whole project.

Graphs are recorded only inside ``with Tape():``. Outside one, every op
just computes its value, so inference needs no switch of its own.
Each op's backward returns one gradient per input, in input order, and
reads no ``requires_grad``: ``backward`` alone copies the first gradient a
grad-requiring input receives into ``Tensor.grad``, adds later ones, and
frees the graph as it walks it. A tape may be walked backward exactly
once; a second call raises ``ListrankError`` rather than silently accumulating.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import DegenerateEmbeddingError, ListrankError

_ACTIVE_TAPES: list["Tape"] = []


class Tensor:
    """Dense float64 tensor participating in a computation graph."""

    __slots__ = ("data", "requires_grad", "grad", "tape", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.tape: Optional[Tape] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of the differentiable ops run inside ``with Tape():``.

    Each entry is an (output, inputs, backward_fn) triple; ``backward``
    replaces it with ``None`` once walked, so ``len(tape)`` still counts the ops.
    """

    def __init__(self):
        self.entries: list[Optional[tuple[Tensor, Sequence[Tensor], Callable]]] = []
        self.consumed = False

    def __enter__(self):
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE_TAPES.pop()
        return False

    def __len__(self):
        return len(self.entries)


def _recording(inputs: Sequence[Tensor]) -> bool:
    return bool(_ACTIVE_TAPES) and any(t.requires_grad for t in inputs)


def _record(output: Tensor, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    """Put the op on the active tape when one records and an input requires
    grad. ``backward_fn(g)`` returns one gradient per input, in input order."""
    if _recording(inputs):
        output.requires_grad = True
        output.tape = _ACTIVE_TAPES[-1]
        output.tape.entries.append((output, inputs, backward_fn))
    return output


def backward(loss: Tensor):
    """Populate grads of every tensor the scalar ``loss`` depends on."""
    if loss.data.shape != ():
        raise ListrankError(f"backward root must be scalar, got shape {loss.data.shape}")
    tape = loss.tape
    if tape is None:
        raise ListrankError(
            "loss is not attached to a tape; build it inside `with Tape():`"
        )
    if tape.consumed:
        raise ListrankError(
            "tape already walked backward once; build a fresh graph instead "
            "of accumulating"
        )
    tape.consumed = True
    loss.grad = np.asarray(1.0)
    entries = tape.entries
    for i in range(len(entries) - 1, -1, -1):
        output, inputs, backward_fn = entries[i]
        # every recorded tensor points at the tape: dropping the entry breaks
        # that cycle, so the graph is freed without waiting for the collector
        entries[i] = None
        if output.grad is None:
            continue
        for t, g in zip(inputs, backward_fn(output.grad), strict=True):  # a miscount raises
            if t.requires_grad:
                t.grad = np.array(g, dtype=np.float64, copy=True) if t.grad is None else t.grad + g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ----------------------------------------------------------------------
# primitive operations
# ----------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data)

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _record(out, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data)

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _record(out, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data)

    def bwd(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _record(out, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ListrankError(
            f"matmul shape mismatch: {tuple(a.shape)} x {tuple(b.shape)}"
        )
    out = Tensor(a.data @ b.data)

    def bwd(g):
        return g @ b.data.T, a.data.T @ g

    return _record(out, (a, b), bwd)


def tsum(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.sum())

    def bwd(g):
        return (np.full_like(a.data, float(g)),)

    return _record(out, (a,), bwd)


def tmean(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.mean())

    def bwd(g):
        return (np.full_like(a.data, float(g) / a.data.size),)

    return _record(out, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0))

    def bwd(g):
        return (g * (a.data > 0.0),)

    return _record(out, (a,), bwd)


def silu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    sig = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(a.data * sig)

    def bwd(g):
        return (g * sig * (1.0 + a.data * (1.0 - sig)),)

    return _record(out, (a,), bwd)


def rms_norm(x: Tensor, gain: Tensor, eps: float) -> Tensor:
    """Row-wise RMS normalization of a matrix: g * x / sqrt(mean(x^2)+eps)."""
    x, gain = _as_tensor(x), _as_tensor(gain)
    if eps <= 0:
        raise ListrankError("rms_norm eps must be positive")
    if x.ndim != 2 or gain.data.shape != (x.shape[1],):
        raise ListrankError(f"rms_norm gain shape {tuple(gain.data.shape)} does not match "
                            f"the rows of {tuple(x.shape)}")
    xd, n = x.data, x.shape[1]
    inv = 1.0 / np.sqrt((xd * xd).mean(axis=1, keepdims=True) + eps)
    out = Tensor(gain.data * xd * inv)

    def bwd(g):
        gg = g * gain.data
        inner = (gg * xd).sum(axis=1, keepdims=True)
        # d/dx_i: g_i*inv - x_i * inv^3 / n * sum_j(go_j g_j x_j)
        return gg * inv - xd * (inv ** 3) * inner / n, (g * xd * inv).sum(axis=0)

    return _record(out, (x, gain), bwd)


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows of ``x`` by integer index (embedding lookup / extraction), or
    entries by a ``(rows, cols)`` tuple of index arrays, as ``x.data[rows, cols]``."""
    x = _as_tensor(x)
    idx = (tuple(np.asarray(i, dtype=np.int64) for i in indices)
           if isinstance(indices, tuple) else np.asarray(indices, dtype=np.int64))
    out = Tensor(x.data[idx])

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return _record(out, (x,), bwd)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack matrices of equal width on top of each other."""
    parts = [_as_tensor(p) for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts]))
    ends = np.cumsum([p.shape[0] for p in parts])

    def bwd(g):
        return np.split(g, ends[:-1])

    return _record(out, parts, bwd)


def logsumexp(x: Tensor) -> Tensor:
    """Row-wise log(sum(exp(x))) of a matrix, max-shifted for stability."""
    x = _as_tensor(x)
    m = x.data.max(axis=1, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=1, keepdims=True)
    out = Tensor((m + np.log(s))[:, 0])

    def bwd(g):
        return (g[:, None] * e / s,)

    return _record(out, (x,), bwd)


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit length, and their norms. Each row is divided by
    its largest magnitude first: squaring tiny entries underflows into
    subnormals and the norms lose their precision."""
    peak = np.abs(x).max(axis=1, keepdims=True)
    for bad, what in ((peak == 0.0, "zero-norm"), (~np.isfinite(peak), "non-finite")):
        if bad.any():
            raise DegenerateEmbeddingError(
                f"cosine of a {what} embedding (row {np.flatnonzero(bad)[0]}) is undefined")
    scaled = x / peak
    r = np.linalg.norm(scaled, axis=1, keepdims=True)
    return scaled / r, peak * r


def cosine(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs cosine similarity of the rows of ``a`` (m, d) and ``b``
    (n, d), as an (m, n) matrix; raises on zero-norm or non-finite rows."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ListrankError(f"cosine expects two matrices of equal width, "
                            f"got {tuple(a.shape)} and {tuple(b.shape)}")
    ua, na = _unit_rows(a.data)
    ub, nb = _unit_rows(b.data)
    c = np.clip(ua @ ub.T, -1.0, 1.0)  # trim roundoff outside [-1, 1]

    def bwd(g):
        gc = g * c
        return ((g @ ub - gc.sum(axis=1, keepdims=True) * ua) / na,
                (g.T @ ua - gc.sum(axis=0)[:, None] * ub) / nb)

    return _record(Tensor(c), (a, b), bwd)


def rope_table(length: int, head_dim: int, base: float) -> np.ndarray:
    """Unit turns exp(1j * p * base^(-2i/head_dim)) for positions p in [0, length)
    and pairs i of a head, as a (length, head_dim/2) complex array."""
    freqs = base ** (-np.arange(0, head_dim, 2, dtype=np.float64) / head_dim)
    return np.exp(1j * np.outer(np.arange(length), freqs))


def rope(x: Tensor, turns: np.ndarray) -> Tensor:
    """Rotary positions: pair (h[2i], h[2i+1]) of each head in row r, read as a
    complex number, times ``turns[r, i]`` (see ``rope_table``); one table serves
    every head. The backward turns by the conjugate, the opposite angle."""
    x = _as_tensor(x)
    length, width = x.shape
    half = turns.shape[1]
    if turns.shape[0] != length or width % (2 * half) != 0:
        raise ListrankError(f"rope turns of shape {turns.shape} do not fit rows {x.shape}")

    def turn(a: np.ndarray, t: np.ndarray) -> np.ndarray:
        z = np.ascontiguousarray(a).view(np.complex128).reshape(length, -1, half)
        return (z * t[:, None]).view(np.float64).reshape(length, width)

    return _record(Tensor(turn(x.data, turns)), (x,), lambda g: (turn(g, turns.conj()),))


ATTENTION_BLOCK = 64  # query rows per block of causal_attention


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_q_heads: int, n_kv_heads: int,
                     positions: Sequence[int] | None = None) -> Tensor:
    """Causal scaled dot-product attention over all heads in one op.

    ``q`` is (m, n_q_heads*hd) and ``k``, ``v`` are (L, n_kv_heads*hd);
    query head i reads KV head i // (n_q_heads / n_kv_heads), and K and V
    are never repeated. Query row i sits at sequence position
    ``positions[i]`` (row i itself by default, where m = L) and reads
    keys [0, positions[i]]. Query rows run in blocks of ``ATTENTION_BLOCK``:
    a block scores only keys [0, max position + 1) and masks only the keys
    past its least position, so masked keys get weight exactly 0.

    1/sqrt(hd) is folded into q once, and K is transposed once, so each
    block's scores are one matmul. A block takes its max-shifted exps times V
    and divides that (rows, hd) output by the exps' row sums; no normalised
    weight matrix is formed. Backward walks the same blocks from the kept
    exps and row sums (FlashAttention-2's deferred rescaling).
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if n_kv_heads < 1 or n_q_heads % n_kv_heads != 0:
        raise ListrankError(
            f"incompatible head counts: {n_q_heads} query vs {n_kv_heads} kv heads")
    (rows, width), length = q.shape, k.shape[0]
    hd, group = width // n_q_heads, n_q_heads // n_kv_heads
    if width != n_q_heads * hd or k.shape != (length, n_kv_heads * hd) or v.shape != k.shape:
        raise ListrankError(f"attention shapes {q.shape}, {k.shape}, {v.shape} do not split "
                            f"into {n_q_heads} query and {n_kv_heads} kv heads")
    pos = np.arange(length) if positions is None else np.asarray(positions, dtype=np.int64)
    if pos.shape != (rows,) or ((pos < 0) | (pos >= length)).any():
        raise ListrankError(f"{rows} query rows need as many positions in [0, {length}), "
                            f"got {pos.tolist()}")
    inv_sqrt = 1.0 / np.sqrt(hd)

    def heads(x, n):  # (rows, n_kv*n*hd) -> (n_kv, n, rows, hd); K and V broadcast with n = 1
        return np.ascontiguousarray(x.reshape(len(x), n_kv_heads, n, hd).transpose(1, 2, 0, 3))

    qh, vh = heads(q.data * inv_sqrt, group), heads(v.data, 1)
    kt = np.ascontiguousarray(k.data.reshape(length, n_kv_heads, 1, hd).transpose(1, 2, 3, 0))
    out = np.empty((rows, n_kv_heads, group, hd))
    blocks = []  # (first row, end row, first masked key, end key)
    for r0 in range(0, rows, ATTENTION_BLOCK):
        p = pos[r0 : r0 + ATTENTION_BLOCK]
        blocks.append((r0, r0 + len(p), p.min() + 1, p.max() + 1))
    kept = [] if _recording((q, k, v)) else None  # (exps, row sums) for the backward only
    for r0, r1, c0, c1 in blocks:
        e = qh[:, :, r0:r1] @ kt[..., :c1]
        np.copyto(e[..., c0:], -np.inf, where=np.arange(c0, c1) > pos[r0:r1, None])
        e -= e.max(axis=-1, keepdims=True)
        np.exp(e, out=e)
        total = e.sum(axis=-1, keepdims=True)
        o = e @ vh[:, :, :c1]
        o /= total
        out[r0:r1] = o.transpose(2, 0, 1, 3)
        if kept is not None:
            kept.append((e, total))

    def bwd(g):
        gh, oh, kh = heads(g, group), heads(out, group), heads(k.data, 1)
        dq, dk, dv = np.empty_like(qh), np.zeros_like(kh), np.zeros_like(vh)
        for (r0, r1, _, c1), (e, total) in zip(blocks, kept):
            go = gh[:, :, r0:r1] / total  # dO over the row sums, so e.T @ go = P.T @ dO
            dv[:, :, :c1] += (e.swapaxes(-1, -2) @ go).sum(axis=1, keepdims=True)
            # softmax backward; the row sums of dP * P equal those of dO * O
            ds = go @ vh[:, :, :c1].swapaxes(-1, -2)
            ds -= (go * oh[:, :, r0:r1]).sum(axis=-1, keepdims=True)
            ds *= e
            dq[:, :, r0:r1] = ds @ kh[:, :, :c1]
            dk[:, :, :c1] += (ds.swapaxes(-1, -2) @ qh[:, :, r0:r1]).sum(axis=1, keepdims=True)
        dq *= inv_sqrt
        return tuple(gt.transpose(2, 0, 1, 3).reshape(t.data.shape)
                     for t, gt in ((q, dq), (k, dk), (v, dv)))

    return _record(Tensor(out.reshape(rows, width)), (q, k, v), bwd)


# ----------------------------------------------------------------------
# finite-difference oracle
# ----------------------------------------------------------------------


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
    x.zero_grad()
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
