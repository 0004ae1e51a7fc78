import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listrank import autodiff as ad
from listrank import backbone as bb
from listrank.autodiff import Tensor, finite_diff_check
from listrank.errors import ListrankError

from conftest import tiny_backbone_config


@pytest.fixture(scope="module")
def cfg():
    return tiny_backbone_config(max_context=64)


@pytest.fixture(scope="module")
def weights(cfg):
    return bb.init_weights(cfg, seed=0)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ListrankError, match="n_q_heads"):
            tiny_backbone_config(d_hidden=30, n_q_heads=4)

    def test_gqa_grouping(self):
        with pytest.raises(ListrankError, match="n_kv_heads"):
            tiny_backbone_config(n_q_heads=4, n_kv_heads=3)

    @pytest.mark.parametrize("field", ["max_context", "effective_seq_len"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_context_lengths_positive(self, field, value):
        with pytest.raises(ListrankError, match="all backbone extents must be positive"):
            tiny_backbone_config(**{field: value})

    def test_paper_scale_is_representable(self):
        big = bb.BackboneConfig(
            n_layers=28, d_hidden=1024, n_q_heads=16, n_kv_heads=8,
            d_ffn=3072, max_context=131072, effective_seq_len=8192,
            vocab_size=151_000,
        )
        assert big.head_dim == 64


class TestInitWeights:
    def test_deterministic(self, cfg):
        a = bb.init_weights(cfg, seed=5)
        b = bb.init_weights(cfg, seed=5)
        for name in a:
            np.testing.assert_array_equal(a[name].data, b[name].data)

    def test_seed_changes_values(self, cfg):
        a = bb.init_weights(cfg, seed=1)
        b = bb.init_weights(cfg, seed=2)
        assert any((a[n].data != b[n].data).any() for n in a)

    def test_forward_finite_on_random_input(self, cfg, weights):
        rng = np.random.default_rng(3)
        tokens = rng.integers(0, cfg.vocab_size, size=20).tolist()
        h = bb.forward(tokens, cfg, weights)
        assert np.isfinite(h.data).all()


class TestForward:
    def test_row_count(self, cfg, weights):
        h = bb.forward([1, 2, 3, 4, 5, 6, 7], cfg, weights)
        assert h.shape == (7, cfg.d_hidden)

    def test_determinism(self, cfg, weights):
        tokens = [3, 1, 4, 1, 5]
        a = bb.forward(tokens, cfg, weights).data
        b = bb.forward(tokens, cfg, weights).data
        assert (a == b).all()

    def test_context_overflow(self, cfg, weights):
        with pytest.raises(ListrankError, match=f"sequence of {cfg.max_context + 1} "
                           f"tokens exceeds max_context={cfg.max_context}$"):
            bb.forward([0] * (cfg.max_context + 1), cfg, weights)

    def test_unknown_token(self, cfg, weights):
        with pytest.raises(ListrankError, match=str(cfg.vocab_size)):
            bb.forward([0, cfg.vocab_size], cfg, weights)

    def test_causality_random_perturbations(self, cfg, weights):
        rng = np.random.default_rng(9)
        for _ in range(10):
            tokens = rng.integers(0, cfg.vocab_size, size=12).tolist()
            base = bb.forward(tokens, cfg, weights).data
            p = int(rng.integers(len(tokens)))
            mutated = list(tokens)
            mutated[p] = int((mutated[p] + 1) % cfg.vocab_size)
            changed = bb.forward(mutated, cfg, weights).data
            assert (base[:p] == changed[:p]).all()
            assert (base[p:] != changed[p:]).any()

    def test_same_outputs_whichever_length_runs_first(self, cfg, weights, monkeypatch):
        """The rotary table is kept across calls, grown by the longest sequence yet."""
        rng = np.random.default_rng(4)
        short, long = (rng.integers(0, cfg.vocab_size, size=n).tolist() for n in (9, 60))
        runs = []
        for order in ((short, long), (long, short)):
            monkeypatch.setattr(bb, "_ROPE_TABLES", {})
            runs.append({len(t): (bb.forward(t, cfg, weights).data,
                                  bb.forward(t, cfg, weights, rows=[len(t) - 1, 2]).data)
                         for t in order})
        for n in (9, 60):
            for first, second in zip(runs[0][n], runs[1][n]):
                assert first.tobytes() == second.tobytes()

    def test_rows_outside_the_sequence(self, cfg, weights):
        for rows in ([0, 5], [-1]):
            with pytest.raises(ListrankError, match="outside"):
                bb.forward([1, 2, 3, 4, 5], cfg, weights, rows=rows)
        with pytest.raises(ListrankError, match="flat list of positions"):
            bb.forward([1, 2, 3, 4, 5], cfg, weights, rows=[[0]])


@st.composite
def _tokens_and_rows(draw):
    """A sequence of up to 200 tokens and the rows to read: unsorted, with
    repeats, always holding row 0, the last row and rows 63/64/65 where
    they exist (the edge of the first attention block)."""
    length = draw(st.integers(1, 200))
    tokens = draw(st.lists(st.integers(0, 49), min_size=length, max_size=length))
    fixed = [r for r in (0, length - 1, 63, 64, 65) if r < length]
    drawn = draw(st.lists(st.integers(0, length - 1), max_size=80))
    return tokens, draw(st.permutations(fixed + drawn))


class TestForwardAtRows:
    @pytest.fixture(scope="class")
    def big(self):
        """Weights x10, so rows differ by far more than roundoff."""
        cfg = tiny_backbone_config(max_context=256)
        weights = bb.init_weights(cfg, seed=4)
        for w in weights.values():
            w.data = w.data * 10.0
        return cfg, weights

    @settings(max_examples=40, deadline=None)
    @given(_tokens_and_rows())
    def test_equals_the_full_forward_at_those_rows(self, big, case):
        cfg, weights = big
        tokens, rows = case
        full = bb.forward(tokens, cfg, weights).data
        assert np.isfinite(full).all()
        at_rows = bb.forward(tokens, cfg, weights, rows=rows).data
        assert at_rows.shape == (len(rows), cfg.d_hidden)
        np.testing.assert_allclose(at_rows, full[rows], rtol=0, atol=1e-12)


class TestAttentionBlockSize:
    @pytest.mark.parametrize("length", [63, 64, 65, 129])
    @pytest.mark.parametrize("at_rows", [False, True], ids=["all-rows", "at-rows"])
    def test_forward_and_gradients_do_not_depend_on_it(self, length, at_rows, monkeypatch):
        """``ATTENTION_BLOCK`` only splits the query rows into blocks: every
        size gives the same hidden states and weight gradients."""
        cfg = tiny_backbone_config(max_context=256)
        rng = np.random.default_rng(length)
        tokens = rng.integers(0, cfg.vocab_size, size=length).tolist()
        # unsorted, always holding the last row
        rows = [*rng.permutation(length - 1)[:40].tolist(), length - 1] if at_rows else None
        g = Tensor(rng.normal(size=(length if rows is None else len(rows), cfg.d_hidden)))
        runs = []
        for block in (16, 32, 64, 128):
            monkeypatch.setattr(ad, "ATTENTION_BLOCK", block)
            weights = bb.init_weights(cfg, seed=4)
            for w in weights.values():  # x10: rows differ by far more than roundoff
                w.data, w.requires_grad = w.data * 10.0, True
            with ad.Tape():
                hidden = bb.forward(tokens, cfg, weights, rows=rows)
                ad.backward(ad.tsum(ad.mul(hidden, g)))
            runs.append({"hidden": hidden.data, **{n: w.grad for n, w in weights.items()}})
        for run in runs[1:]:
            for name, want in runs[0].items():
                np.testing.assert_allclose(run[name], want, rtol=0,
                                           atol=1e-12 * max(1.0, np.abs(want).max()),
                                           err_msg=name)


def _reference_mha(q, k, v, n_heads, n_kv_heads):
    """Independent grouped-query attention oracle (plain numpy, row by row):
    query head h reads KV head h // (n_heads / n_kv_heads)."""
    length, d = q.shape
    hd = d // n_heads
    group = n_heads // n_kv_heads
    out = np.zeros((length, d))
    for h in range(n_heads):
        j = h // group
        qi = q[:, h * hd : (h + 1) * hd]
        ki = k[:, j * hd : (j + 1) * hd]
        vi = v[:, j * hd : (j + 1) * hd]
        scores = qi @ ki.T / np.sqrt(hd)
        for p in range(length):
            row = scores[p, : p + 1]
            e = np.exp(row - row.max())
            w = e / e.sum()
            out[p, h * hd : (h + 1) * hd] = w @ vi[: p + 1]
    return out


def _reference_mha_grads(q, k, v, g, n_heads, n_kv_heads, positions):
    """Closed-form gradients of sum(g * attention) over full score matrices,
    head by head: P = softmax(S), dV = P^T dO, dS = P * (dP - rowsum(dP * P))."""
    hd = q.shape[1] // n_heads
    group = n_heads // n_kv_heads
    future = np.arange(len(k))[None, :] > positions[:, None]
    dq, dk, dv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    for h in range(n_heads):
        qs, ks = slice(h * hd, (h + 1) * hd), slice(h // group * hd, (h // group + 1) * hd)
        s = q[:, qs] @ k[:, ks].T / np.sqrt(hd)
        s[future] = -np.inf
        p = np.exp(s - s.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        dp = g[:, qs] @ v[:, ks].T
        ds = p * (dp - (dp * p).sum(axis=1, keepdims=True)) / np.sqrt(hd)
        dq[:, qs] = ds @ k[:, ks]
        dk[:, ks] += ds.T @ q[:, qs]
        dv[:, ks] += p.T @ g[:, qs]
    return dq, dk, dv


BLOCK = ad.ATTENTION_BLOCK


def _qkv(rng, length, n_heads=4, n_kv_heads=2, hd=4, scl=1.0):
    return (rng.normal(size=(length, n_heads * hd)) * scl,
            rng.normal(size=(length, n_kv_heads * hd)) * scl,
            rng.normal(size=(length, n_kv_heads * hd)))


def _attend(q, k, v, n_heads=4, n_kv_heads=2):
    return ad.causal_attention(Tensor(q), Tensor(k), Tensor(v), n_heads, n_kv_heads).data


class TestCausalAttention:
    def test_single_token(self):
        rng = np.random.default_rng(0)
        q, k, v = _qkv(rng, 1)
        out = _attend(q, k, v)
        # query heads 0, 1 read KV head 0 and heads 2, 3 read KV head 1
        np.testing.assert_array_equal(out, np.repeat(v.reshape(1, 2, 4), 2, axis=1).reshape(1, 16))

    def test_degenerate_gqa_equals_reference(self):
        rng = np.random.default_rng(1)
        q, k, v = _qkv(rng, 6, n_heads=4, n_kv_heads=4)
        np.testing.assert_allclose(_attend(q, k, v, 4, 4), _reference_mha(q, k, v, 4, 4),
                                   atol=1e-12)

    # at scl=100 the scores reach about 1e4, where an unshifted exp overflows
    @pytest.mark.parametrize("length, scl", [
        *(pytest.param(n, 3.0, id=str(n)) for n in (1, BLOCK, BLOCK + 1, 2 * BLOCK + 3, 512)),
        *(pytest.param(n, 100.0, id=f"{n}-scl100") for n in (BLOCK + 1, 2 * BLOCK + 3))])
    def test_gqa_equals_reference(self, length, scl):
        rng = np.random.default_rng(length)
        q, k, v = _qkv(rng, length, scl=scl)
        np.testing.assert_allclose(_attend(q, k, v), _reference_mha(q, k, v, 4, 2), atol=1e-12)

    @staticmethod
    def _check_gradients_against_the_closed_form(rng, length, positions):
        q, k, v = _qkv(rng, length, scl=3.0)
        q = q[positions]
        g = rng.normal(size=q.shape)
        inputs = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        with ad.Tape():
            ad.backward(ad.tsum(ad.mul(ad.causal_attention(*inputs, 4, 2, positions=positions),
                                       Tensor(g))))
        wants = _reference_mha_grads(q, k, v, g, 4, 2, positions)
        # relative to the largest entry: at L = 1, dq and dk are 0 up to roundoff
        scale = max(np.abs(want).max() for want in wants)
        for t, want in zip(inputs, wants):
            np.testing.assert_allclose(t.grad, want, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("length", [1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_gradients_equal_the_closed_form(self, length):
        self._check_gradients_against_the_closed_form(
            np.random.default_rng(50 + length), length, np.arange(length))

    def test_gradients_equal_the_closed_form_at_positions(self):
        self._check_gradients_against_the_closed_form(
            np.random.default_rng(60), self.KEYS, self.POSITIONS)

    def test_masked_weights_exactly_zero(self):
        # identity values turn the output into the attention weights
        length = 2 * BLOCK + 3
        rng = np.random.default_rng(2)
        q, k = rng.normal(size=(2, length, length))
        w = _attend(q, k, np.eye(length), 1, 1)
        assert (w[np.triu_indices(length, k=1)] == 0.0).all()
        assert (w[np.tril_indices(length)] > 0.0).all()
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("p", [1, BLOCK - 1, BLOCK, BLOCK + 2, 2 * BLOCK + 1])
    def test_future_keys_and_values_do_not_leak(self, p):
        rng = np.random.default_rng(p)
        q, k, v = _qkv(rng, 2 * BLOCK + 3)
        base = _attend(q, k, v)
        k2, v2 = k.copy(), v.copy()
        k2[p:] += rng.normal(size=k2[p:].shape) * 10.0
        v2[p:] += rng.normal(size=v2[p:].shape) * 10.0
        changed = _attend(q, k2, v2)
        assert (base[:p] == changed[:p]).all()
        assert (base[p:] != changed[p:]).any()
        # a huge future value would swamp any weight that is not exactly 0
        v2[p] = 1e300
        assert (_attend(q, k, v2)[:p] == base[:p]).all()

    @pytest.mark.parametrize("arg", [0, 1, 2])
    def test_gradient_across_a_block_boundary(self, arg):
        rng = np.random.default_rng(10 + arg)
        length = BLOCK + 3
        inputs = [Tensor(a) for a in _qkv(rng, length)]
        inputs[arg].requires_grad = True
        w = Tensor(rng.normal(size=(length, 16)))

        def f(t):
            args = list(inputs)
            args[arg] = t
            return ad.tsum(ad.mul(ad.causal_attention(*args, 4, 2), w))

        assert finite_diff_check(f, inputs[arg], h=1e-5) < 1e-6

    def test_records_one_tape_node(self):
        rng = np.random.default_rng(4)
        q, k, v = (Tensor(a, requires_grad=True) for a in _qkv(rng, BLOCK + 3))
        with ad.Tape() as tape:
            ad.causal_attention(q, k, v, 4, 2)
        assert len(tape) == 1

    # two blocks of query rows over KEYS keys. The first opens at position 0
    # and holds positions on both sides of the block edge; every position in
    # the second is at least BLOCK, so it reads an unmasked key prefix [0, c0)
    # of more than BLOCK keys. Every key is read by at least 9 rows: the
    # finite differences of the gradient tests cannot resolve to 1e-6 the
    # small gradient of a key that only a few rows read
    KEYS = BLOCK + 3
    POSITIONS = np.concatenate([
        np.resize([0, BLOCK + 2, BLOCK - 1, BLOCK, BLOCK + 1, 5, BLOCK // 2, BLOCK, 1, BLOCK // 4], BLOCK),
        [BLOCK + 1, BLOCK + 2, BLOCK, BLOCK + 2, BLOCK],
    ])

    def test_positions_equal_the_reference_at_those_rows(self):
        rng = np.random.default_rng(20)
        q, k, v = _qkv(rng, self.KEYS, scl=3.0)
        at = ad.causal_attention(Tensor(q[self.POSITIONS]), Tensor(k), Tensor(v), 4, 2,
                                 positions=self.POSITIONS).data
        np.testing.assert_allclose(at, _reference_mha(q, k, v, 4, 2)[self.POSITIONS], atol=1e-12)

    def test_masked_weights_exactly_zero_at_positions(self):
        rng = np.random.default_rng(21)
        pos = self.POSITIONS
        n = self.KEYS
        q, k = rng.normal(size=(len(pos), n)), rng.normal(size=(n, n))
        w = ad.causal_attention(Tensor(q), Tensor(k), Tensor(np.eye(n)), 1, 1, positions=pos).data
        future = np.arange(n)[None, :] > pos[:, None]
        assert (w[future] == 0.0).all()
        assert (w[~future] > 0.0).all()
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 6, BLOCK - 1, BLOCK, BLOCK + 2])
    def test_future_keys_and_values_do_not_leak_at_positions(self, p):
        rng = np.random.default_rng(30 + p)
        q, k, v = _qkv(rng, self.KEYS)
        pos = self.POSITIONS
        q = q[pos]

        def attend(k, v):
            return ad.causal_attention(Tensor(q), Tensor(k), Tensor(v), 4, 2, positions=pos).data

        base = attend(k, v)
        k2, v2 = k.copy(), v.copy()
        k2[p:] += rng.normal(size=k2[p:].shape) * 10.0
        v2[p:] += rng.normal(size=v2[p:].shape) * 10.0
        changed = attend(k2, v2)
        assert (base[pos < p] == changed[pos < p]).all()
        assert (base[pos >= p] != changed[pos >= p]).any(axis=1).all()
        # a huge future value would swamp any weight that is not exactly 0
        v2[p] = 1e300
        assert (attend(k, v2)[pos < p] == base[pos < p]).all()

    @pytest.mark.parametrize("arg", [0, 1, 2])
    def test_gradient_at_positions_across_a_block_boundary(self, arg):
        rng = np.random.default_rng(40 + arg)
        q, k, v = _qkv(rng, self.KEYS)
        inputs = [Tensor(q[self.POSITIONS]), Tensor(k), Tensor(v)]
        inputs[arg].requires_grad = True
        w = Tensor(rng.normal(size=(len(self.POSITIONS), 16)))

        def f(t):
            args = list(inputs)
            args[arg] = t
            return ad.tsum(ad.mul(ad.causal_attention(*args, 4, 2, positions=self.POSITIONS), w))

        # the largest step: some keys are read by few rows, so their small
        # gradients need it to rise above the roundoff of a sum over every row
        assert finite_diff_check(f, inputs[arg], h=1e-4) < 1e-6

    @pytest.mark.parametrize("positions", [[0, 3], [0, -1, 2], [0, 1], [0, 1, 2, 3]])
    def test_positions_outside_the_keys_or_miscounted(self, positions):
        rng = np.random.default_rng(5)
        q, k, v = (Tensor(a) for a in _qkv(rng, 3))
        with pytest.raises(ListrankError, match="positions"):
            ad.causal_attention(q, k, v, 4, 2, positions=positions)

    def test_head_count_mismatch(self):
        t = Tensor(np.ones((2, 4)))
        with pytest.raises(ListrankError, match="head counts"):
            ad.causal_attention(t, t, t, 3, 2)

    def test_shape_mismatch(self):
        q, k = Tensor(np.ones((2, 8))), Tensor(np.ones((2, 6)))
        with pytest.raises(ListrankError, match="do not split"):
            ad.causal_attention(q, k, k, 2, 1)


def _reference_rotate(x, positions, base, head_dim, sign=1.0):
    """rope as it was before the table: angles, cosines and sines built per
    call and tiled per head, with the even and odd columns written through
    strided slices. ``sign=-1`` turns by the opposite angle."""
    freqs = np.tile(base ** (-np.arange(0, head_dim, 2, dtype=np.float64) / head_dim),
                    x.shape[1] // head_dim)
    angles = np.asarray(positions, dtype=np.float64)[:, None] * freqs[None, :]
    cos, sin = np.cos(angles), sign * np.sin(angles)
    even, odd = x[:, 0::2], x[:, 1::2]
    y = np.empty_like(x)
    y[:, 0::2] = even * cos - odd * sin
    y[:, 1::2] = even * sin + odd * cos
    return y


class TestRope:
    def test_kept_table_slices_equal_a_fresh_table(self, monkeypatch):
        monkeypatch.setattr(bb, "_ROPE_TABLES", {})
        bb._rope_turns(40, 8)
        for length, head_dim in [(1, 8), (39, 8), (40, 8), (41, 8), (300, 8), (40, 8),
                                 (40, 16), (7, 16)]:
            turns = bb._rope_turns(length, head_dim)
            fresh = ad.rope_table(length, head_dim, bb.ROPE_BASE)
            assert turns.shape == fresh.shape and turns.tobytes() == fresh.tobytes()
        # one table per head width, as long as its longest sequence
        assert {hd: len(t) for hd, t in bb._ROPE_TABLES.items()} == {8: 300, 16: 40}
        assert not bb._ROPE_TABLES[8].flags.writeable

    @settings(max_examples=80, deadline=None)
    @given(
        length=st.integers(1, 600),
        head_dim=st.sampled_from([2, 4, 8, 16, 64]),
        n_heads=st.integers(1, 8),
        picks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=40),
        magnitude=st.floats(1e-5, 1e5),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matches_the_per_call_formula(self, length, head_dim, n_heads, picks, magnitude,
                                          seed):
        positions = [p % length for p in picks]  # unsorted, with repeats
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(len(positions), n_heads * head_dim)) * magnitude,
                   requires_grad=True)
        g = rng.normal(size=x.shape) * magnitude
        with ad.Tape():
            out = ad.rope(x, ad.rope_table(length, head_dim, 10000.0)[positions])
            ad.backward(ad.tsum(ad.mul(out, Tensor(g))))
        expected = _reference_rotate(x.data, positions, 10000.0, head_dim)
        assert np.abs(out.data - expected).max() <= 1e-15 * np.abs(x.data).max()
        expected_grad = _reference_rotate(g, positions, 10000.0, head_dim, sign=-1.0)
        assert np.abs(x.grad - expected_grad).max() <= 1e-15 * np.abs(g).max()

    @pytest.mark.parametrize("shape, turns_shape", [
        ((3, 8), (4, 4)),  # one turn row too many
        ((3, 8), (2, 4)),  # one too few
        ((3, 12), (3, 4)),  # width 12 is not a multiple of 2 * 4
        ((3, 6), (3, 4)),  # narrower than one head
    ])
    def test_turns_that_do_not_fit(self, shape, turns_shape):
        turns = ad.rope_table(turns_shape[0], 2 * turns_shape[1], 10000.0)
        with pytest.raises(ListrankError, match="rope turns"):
            ad.rope(Tensor(np.ones(shape)), turns)

    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 8))
        out = ad.rope(Tensor(x), ad.rope_table(1, 8, 10000.0)[[0]])
        np.testing.assert_allclose(out.data, x, atol=1e-15)

    def test_relative_position_dependence(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(1, 8))
        k = rng.normal(size=(1, 8))
        turns = ad.rope_table(15, 8, 10000.0)
        dots = []
        for m, n in [(0, 3), (2, 5), (7, 10), (11, 14)]:  # constant m - n
            qr = ad.rope(Tensor(q), turns[[m]]).data
            kr = ad.rope(Tensor(k), turns[[n]]).data
            dots.append(float((qr @ kr.T)[0, 0]))
        assert np.var(dots) < 1e-10

    def test_heads_rotate_independently(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 24))
        positions = [0, 1, 2, 7, 30, 100]
        turns = ad.rope_table(101, 8, 10000.0)[positions]
        whole = ad.rope(Tensor(x), turns).data
        for j in range(3):
            head = ad.rope(Tensor(x[:, j * 8 : (j + 1) * 8]), turns).data
            np.testing.assert_array_equal(whole[:, j * 8 : (j + 1) * 8], head)

    def test_odd_head_dim(self):
        with pytest.raises(ListrankError, match="head_dim=9 must be even for rotary positions"):
            tiny_backbone_config(d_hidden=36, n_q_heads=4, n_kv_heads=4)


class TestGradient:
    def test_full_forward_gradcheck(self):
        cfg = tiny_backbone_config(vocab_size=30, max_context=32)
        weights = bb.init_weights(cfg, seed=2)
        tokens = [1, 7, 3, 9, 2]
        target = weights["layers.1.ffn.wg"]
        target.requires_grad = True

        def f(_):
            return ad.tmean(bb.forward(tokens, cfg, weights))

        coords = np.random.default_rng(0).choice(target.data.size, size=48, replace=False)
        assert finite_diff_check(f, target, h=1e-5, coords=coords.tolist()) < 1e-4
