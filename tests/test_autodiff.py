import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from listrank import autodiff as ad
from listrank.autodiff import Tape, Tensor, backward, finite_diff_check
from listrank.errors import DegenerateEmbeddingError, ListrankError

square_scores = st.integers(1, 6).flatmap(
    lambda n: arrays(np.float64, (n, n), elements=st.floats(-50, 50))
)


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)))
        out = ad.matmul(a, Tensor(np.eye(4)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_one_by_one(self):
        assert float(ad.matmul(Tensor([[2.0]]), Tensor([[3.0]])).data[0, 0]) == 6.0

    def test_shape_mismatch(self):
        with pytest.raises(ListrankError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        assert finite_diff_check(lambda t: ad.tsum(ad.matmul(t, b)), a) < 1e-6
        assert finite_diff_check(lambda t: ad.tsum(ad.matmul(a, t)), b) < 1e-6

    def test_finite_diff_check_reports_a_nan_gradient(self):
        x = Tensor(np.ones((1, 3)), requires_grad=True)
        w = Tensor([[1.0, np.nan, 1.0]])
        assert np.isnan(finite_diff_check(lambda t: ad.tsum(ad.mul(t, w)), x))


def attention_weights(scores: np.ndarray) -> np.ndarray:
    """The row softmax inside ``causal_attention``, read out through
    identity keys and values: one head of width L whose queries are the
    scores times sqrt(L), so row p holds softmax(scores[p, :p+1])."""
    length = scores.shape[0]
    eye = Tensor(np.eye(length))
    return ad.causal_attention(Tensor(scores * np.sqrt(length)), eye, eye, 1, 1).data


class TestSoftmaxRows:
    """The masked row softmax of ``causal_attention``."""

    def test_equal_values(self):
        out = attention_weights(np.full((4, 4), 3.0))
        expected = np.tril(np.ones((4, 4))) / np.arange(1, 5)[:, None]
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_closed_form(self):
        out = attention_weights(np.array([[5.0, 0.0], [0.0, math.log(2.0)]]))
        np.testing.assert_allclose(out[1], [1 / 3, 2 / 3], atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(square_scores, st.floats(-30, 30))
    def test_shift_invariance(self, x, c):
        np.testing.assert_allclose(attention_weights(x), attention_weights(x + c), atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(square_scores)
    def test_rows_sum_to_one(self, x):
        out = attention_weights(x)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert (out[np.triu_indices(len(x), k=1)] == 0.0).all()

    def test_gradient(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 4)))
        eye = Tensor(np.eye(4))
        err = finite_diff_check(
            lambda t: ad.tsum(ad.mul(ad.causal_attention(t, eye, eye, 1, 1), w)), x
        )
        assert err < 1e-5


class TestRmsNorm:
    def test_constant_vector(self):
        gain = Tensor(np.array([2.0, 3.0, 4.0]))
        out = ad.rms_norm(Tensor([[5.0, 5.0, 5.0]]), gain, eps=1e-15)
        np.testing.assert_allclose(out.data[0], gain.data, rtol=1e-10)

    def test_zero_vector(self):
        out = ad.rms_norm(Tensor(np.zeros((1, 4))), Tensor(np.ones(4)), eps=1e-6)
        np.testing.assert_array_equal(out.data[0], np.zeros(4))

    def test_gradient(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(1, 5)), requires_grad=True)
        gain = Tensor(rng.normal(size=5), requires_grad=True)
        assert finite_diff_check(lambda t: ad.tsum(ad.rms_norm(t, gain, 1e-6)), x) < 1e-6
        assert finite_diff_check(lambda t: ad.tsum(ad.rms_norm(x, t, 1e-6)), gain) < 1e-6

    def test_rowwise_matches_per_row(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 5))
        gain = Tensor(rng.normal(size=5))
        full = ad.rms_norm(Tensor(x), gain, 1e-6).data
        for r in range(3):
            row = ad.rms_norm(Tensor(x[r : r + 1]), gain, 1e-6).data
            np.testing.assert_array_equal(full[r], row[0])


def _cos(u, v) -> float:
    """Cosine of two vectors, as the 1x1 all-pairs matrix of two one-row operands."""
    return float(ad.cosine(Tensor(np.atleast_2d(u)), Tensor(np.atleast_2d(v))).data[0, 0])


class TestCosine:
    def test_self(self):
        u = [1.0, 2.0, -3.0]
        assert _cos(u, u) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        assert _cos([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_antipodal(self):
        u = np.array([1.0, 2.0, -3.0])
        assert _cos(u, -u) == pytest.approx(-1.0, abs=1e-15)

    def test_zero_norm_raises(self):
        with pytest.raises(DegenerateEmbeddingError):
            _cos(np.zeros(3), [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_norm_raises(self, bad):
        # a clamp would turn NaN into a plausible -1.0 score
        with pytest.raises(DegenerateEmbeddingError, match="non-finite"):
            _cos([1.0, 0.0, 0.0], [bad, 1.0, 0.0])

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(np.float64, 4, elements=st.floats(-10, 10)),
        arrays(np.float64, 4, elements=st.floats(-10, 10)),
        st.floats(0.01, 100),
        st.floats(0.01, 100),
    )
    def test_scale_invariance(self, u, v, a, b):
        if np.linalg.norm(u) == 0 or np.linalg.norm(v) == 0:
            return
        c1 = _cos(u, v)
        c2 = _cos(a * u, b * v)
        assert abs(c1 - c2) < 1e-12
        assert -1.0 <= c1 <= 1.0

    def test_gradient(self):
        rng = np.random.default_rng(5)
        u = Tensor(rng.normal(size=(1, 6)), requires_grad=True)
        v = Tensor(rng.normal(size=(1, 6)), requires_grad=True)
        assert finite_diff_check(lambda t: ad.tsum(ad.cosine(t, v)), u) < 1e-5
        assert finite_diff_check(lambda t: ad.tsum(ad.cosine(u, t)), v) < 1e-5

    def test_all_pairs_match_per_pair(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(3, 5)), rng.normal(size=(4, 5))
        full = ad.cosine(Tensor(a), Tensor(b)).data
        assert full.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                ref = a[i] @ b[j] / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
                assert full[i, j] == pytest.approx(ref, abs=1e-15)

    def test_all_pairs_gradient(self):
        """Both operands at m != n, with a weighting that makes every entry count."""
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)))
        assert finite_diff_check(lambda t: ad.tsum(ad.mul(ad.cosine(t, b), w)), a) < 1e-6
        assert finite_diff_check(lambda t: ad.tsum(ad.mul(ad.cosine(a, t), w)), b) < 1e-6

    def test_same_operand_twice(self):
        """cos(E, E): the gradient gathers both operands' contributions."""
        rng = np.random.default_rng(8)
        e = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 4)))
        assert finite_diff_check(lambda t: ad.tsum(ad.mul(ad.cosine(t, t), w)), e) < 1e-6

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_any_bad_row_raises(self, bad):
        rows = np.ones((3, 2))
        rows[1] = bad
        with pytest.raises(DegenerateEmbeddingError, match="row 1"):
            ad.cosine(Tensor(np.ones((2, 2))), Tensor(rows))

    def test_width_mismatch(self):
        with pytest.raises(ListrankError, match=r"cosine expects two matrices of equal width, "
                                                r"got \(2, 3\) and \(2, 4\)"):
            ad.cosine(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))


class TestLogsumexp:
    def test_rows_match_numpy(self):
        x = np.random.default_rng(9).normal(size=(3, 5)) * 30
        expected = np.log(np.exp(x).sum(axis=1))
        np.testing.assert_allclose(ad.logsumexp(Tensor(x)).data, expected, rtol=1e-14)

    def test_minus_inf_padding(self):
        x = np.array([[1.0, 2.0, -np.inf], [0.5, -np.inf, -np.inf]])
        np.testing.assert_allclose(ad.logsumexp(Tensor(x)).data,
                                   [np.log(np.e + np.e ** 2), 0.5], rtol=1e-15)

    def test_gradient_skips_padding(self):
        x = Tensor(np.array([[1.0, 2.0, -np.inf], [0.5, 3.0, 1.0]]), requires_grad=True)
        w = Tensor([0.3, -1.2])
        with Tape():
            backward(ad.tsum(ad.mul(ad.logsumexp(x), w)))
        assert x.grad[0, 2] == 0.0
        finite = Tensor(np.array([[1.0, 2.0], [0.5, 3.0]]), requires_grad=True)
        assert finite_diff_check(lambda t: ad.tsum(ad.mul(ad.logsumexp(t), w)), finite) < 1e-8


class TestConcatRows:
    def test_values_and_gradient(self):
        rng = np.random.default_rng(10)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3)))
        np.testing.assert_array_equal(ad.concat_rows([a, b]).data, np.vstack([a.data, b.data]))
        assert finite_diff_check(lambda t: ad.tsum(ad.mul(ad.concat_rows([a, t]), w)), b) < 1e-8
        assert finite_diff_check(lambda t: ad.tsum(ad.mul(ad.concat_rows([t, b]), w)), a) < 1e-8


class TestGatherRows:
    def test_pairs_with_repeats(self):
        """A (rows, cols) tuple reads x[rows, cols]; a pair read twice gets both gradients."""
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        rows, cols = np.array([[0, 3, 0], [2, 0, 3]]), np.array([[1, 4, 1], [2, 1, 4]])
        w = Tensor(rng.normal(size=(2, 3)))
        np.testing.assert_array_equal(ad.gather_rows(x, (rows, cols)).data, x.data[rows, cols])
        assert finite_diff_check(
            lambda t: ad.tsum(ad.mul(ad.gather_rows(t, (rows, cols)), w)), x) < 1e-8


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape():
            backward(ad.tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_non_scalar_root(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = ad.mul(x, x)
        with pytest.raises(ListrankError, match="scalar"):
            backward(y)

    def test_double_backward_is_error(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape():
            loss = ad.tsum(ad.mul(x, x))
            backward(loss)
            with pytest.raises(ListrankError, match="already walked"):
                backward(loss)

    def test_ops_outside_a_tape_record_nothing(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = ad.tsum(ad.mul(x, x))
        assert loss.tape is None and not loss.requires_grad
        with pytest.raises(ListrankError, match="not attached to a tape"):
            backward(loss)
        assert x.grad is None

    def test_backward_frees_the_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            hidden = ad.mul(x, x)
            loss = ad.tsum(ad.mul(hidden, 2.0))
            backward(loss)
        ref = weakref.ref(hidden)
        del hidden
        # no gc.collect(): the tape must not keep the intermediate alive
        assert ref() is None
        assert len(tape) == 3
        np.testing.assert_array_equal(x.grad, 4 * np.ones(3))

    def test_shared_tape_context(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(2 * np.ones(3), requires_grad=True)
        with Tape():
            loss = ad.tsum(ad.add(ad.mul(x, x), ad.mul(y, y)))
            backward(loss)
        np.testing.assert_array_equal(x.grad, 2 * np.ones(3))
        np.testing.assert_array_equal(y.grad, 4 * np.ones(3))


# every op with two or more tensor operands, with operand shapes that
# exercise broadcasting, several parts and grouped heads
MULTI_OPERAND_OPS = {
    "add": (ad.add, [(3, 4), (4,)]),
    "sub": (ad.sub, [(3, 4), (1, 4)]),
    "mul": (ad.mul, [(3, 4), (3, 1)]),
    "matmul": (ad.matmul, [(3, 4), (4, 2)]),
    "rms_norm": (lambda x, gain: ad.rms_norm(x, gain, 1e-6), [(3, 4), (4,)]),
    "concat_rows": (lambda *parts: ad.concat_rows(parts), [(2, 4), (1, 4), (3, 4)]),
    "cosine": (ad.cosine, [(3, 4), (2, 4)]),
    "causal_attention": (lambda q, k, v: ad.causal_attention(q, k, v, 4, 2),
                         [(5, 8), (5, 4), (5, 4)]),
}


def _operand_grads(op, arrays, frozen=None):
    """Gradients of a weighted sum of ``op``'s output, operand ``frozen``
    built without ``requires_grad``."""
    operands = [Tensor(a, requires_grad=i != frozen) for i, a in enumerate(arrays)]
    with Tape():
        out = op(*operands)
        weights = np.random.default_rng(12).normal(size=out.shape)
        backward(ad.tsum(ad.mul(out, weights)))
    return [t.grad for t in operands]


class TestGradientContract:
    """Ops return one gradient per operand; ``backward`` alone routes them."""

    @pytest.mark.parametrize("name", sorted(MULTI_OPERAND_OPS))
    def test_frozen_operand_gets_no_gradient(self, name):
        op, shapes = MULTI_OPERAND_OPS[name]
        rng = np.random.default_rng(11)
        arrays = [rng.normal(size=shape) for shape in shapes]
        trainable = _operand_grads(op, arrays)
        assert [g.shape for g in trainable] == list(shapes)
        for frozen in range(len(arrays)):
            grads = _operand_grads(op, arrays, frozen)
            assert grads[frozen] is None
            for i, (g, ref) in enumerate(zip(grads, trainable)):
                if i != frozen:
                    assert g.tobytes() == ref.tobytes(), f"operand {i}, {frozen} frozen"

    def test_too_few_gradients_raise(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        with Tape():
            out = ad._record(Tensor(x.data + y.data), (x, y), lambda g: (g,))
            with pytest.raises(ValueError, match="shorter"):
                backward(ad.tsum(out))


class TestFiniteDiffCheck:
    def test_quadratic_closed_form(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)

        def f(t):
            return ad.tsum(ad.mul(t, t))

        assert finite_diff_check(f, x) < 1e-8
        x.zero_grad()
        with Tape():
            backward(f(x))  # fresh graph; grads are 2x
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_step_size_contract(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            finite_diff_check(lambda t: ad.tsum(t), x, h=1e-2)

    def test_rope_isometry_and_gradient(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        turns = ad.rope_table(10, 8, 10000.0)[[0, 1, 5, 9]]
        out = ad.rope(x, turns)
        for r in range(4):
            pairs_in = x.data[r].reshape(-1, 2)
            pairs_out = out.data[r].reshape(-1, 2)
            np.testing.assert_allclose(
                np.linalg.norm(pairs_in, axis=1),
                np.linalg.norm(pairs_out, axis=1),
                atol=1e-12,
            )
        w = Tensor(rng.normal(size=(4, 8)))
        err = finite_diff_check(
            lambda t: ad.tsum(ad.mul(ad.rope(t, turns), w)), x
        )
        assert err < 1e-6

    def test_determinism(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(3, 3))
        a = ad.causal_attention(Tensor(data), Tensor(data), Tensor(data), 1, 1).data
        b = ad.causal_attention(*(Tensor(data.copy()) for _ in range(3)), 1, 1).data
        assert (a == b).all()
