import numpy as np
import pytest

from listrank import autodiff as ad
from listrank import backbone as bb
from listrank.autodiff import Tensor, finite_diff_check
from listrank.errors import ConfigError, ContextLengthError, VocabularyError

from conftest import tiny_backbone_config


@pytest.fixture(scope="module")
def cfg():
    return tiny_backbone_config(max_context=64)


@pytest.fixture(scope="module")
def weights(cfg):
    return bb.init_weights(cfg, seed=0)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError, match="n_q_heads"):
            tiny_backbone_config(d_hidden=30, n_q_heads=4)

    def test_gqa_grouping(self):
        with pytest.raises(ConfigError, match="n_kv_heads"):
            tiny_backbone_config(n_q_heads=4, n_kv_heads=3)

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
        with pytest.raises(ContextLengthError) as exc:
            bb.forward([0] * (cfg.max_context + 1), cfg, weights)
        assert exc.value.limit == cfg.max_context

    def test_unknown_token(self, cfg, weights):
        with pytest.raises(VocabularyError, match=str(cfg.vocab_size)):
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


def _reference_mha(q, k, v, n_heads):
    """Independent ungrouped multi-head attention oracle (plain numpy)."""
    length, d = q.shape
    hd = d // n_heads
    out = np.zeros((length, d))
    for h in range(n_heads):
        qi = q[:, h * hd : (h + 1) * hd]
        ki = k[:, h * hd : (h + 1) * hd]
        vi = v[:, h * hd : (h + 1) * hd]
        scores = qi @ ki.T / np.sqrt(hd)
        for p in range(length):
            row = scores[p, : p + 1]
            e = np.exp(row - row.max())
            w = e / e.sum()
            out[p, h * hd : (h + 1) * hd] = w @ vi[: p + 1]
    return out


class TestCausalAttention:
    def test_single_token(self):
        rng = np.random.default_rng(0)
        q = [Tensor(rng.normal(size=(1, 4)))]
        k = [Tensor(rng.normal(size=(1, 4)))]
        v = [Tensor(rng.normal(size=(1, 4)))]
        out = bb.causal_attention(q, k, v)
        np.testing.assert_array_equal(out.data, v[0].data)

    def test_degenerate_gqa_equals_reference(self):
        rng = np.random.default_rng(1)
        length, n_heads, hd = 6, 4, 4
        q = rng.normal(size=(length, n_heads * hd))
        k = rng.normal(size=(length, n_heads * hd))
        v = rng.normal(size=(length, n_heads * hd))
        heads = lambda m: [Tensor(m[:, i * hd : (i + 1) * hd]) for i in range(n_heads)]
        ours = bb.causal_attention(heads(q), heads(k), heads(v)).data
        ref = _reference_mha(q, k, v, n_heads)
        np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_masked_weights_exactly_zero(self):
        rng = np.random.default_rng(2)
        length = 5
        scores = ad.add(
            ad.scale(ad.matmul(Tensor(rng.normal(size=(length, 3))),
                               ad.transpose(Tensor(rng.normal(size=(length, 3))))), 1.0),
            bb._causal_mask(length),
        )
        w = ad.softmax_rows(scores).data
        assert (w[np.triu_indices(length, k=1)] == 0.0).all()

    def test_head_count_mismatch(self):
        t = Tensor(np.ones((2, 4)))
        with pytest.raises(ConfigError, match="head counts"):
            bb.causal_attention([t, t, t], [t, t], [t, t])


class TestRope:
    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 8))
        out = ad.rope(Tensor(x), [0], 10000.0)
        np.testing.assert_allclose(out.data, x, atol=1e-15)

    def test_relative_position_dependence(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(1, 8))
        k = rng.normal(size=(1, 8))
        dots = []
        for m, n in [(0, 3), (2, 5), (7, 10), (11, 14)]:  # constant m - n
            qr = ad.rope(Tensor(q), [m], 10000.0).data
            kr = ad.rope(Tensor(k), [n], 10000.0).data
            dots.append(float((qr @ kr.T)[0, 0]))
        assert np.var(dots) < 1e-10

    def test_odd_head_dim(self):
        with pytest.raises(ConfigError):
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
