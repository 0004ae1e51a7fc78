import numpy as np
import pytest

from listrank import autodiff as ad
from listrank import backbone as bb
from listrank.autodiff import Tensor, backward, finite_diff_check
from listrank.embedding import (
    extract,
    init_projector,
    project,
    score,
)
from listrank.errors import ListrankError
from listrank.prompt import PromptLayout

from conftest import tiny_backbone_config


def _layout(doc_positions, query_position, dual=None):
    length = query_position + 2
    return PromptLayout(
        token_ids=[0] * length,
        doc_marker_positions=list(doc_positions),
        query_marker_position=query_position,
        dual_query_marker_position=dual,
    )


class TestExtract:
    def test_rows_match_positions(self):
        rng = np.random.default_rng(0)
        hidden = Tensor(rng.normal(size=(10, 4)))
        layout = _layout([2, 5, 7], 9)
        emb = ad.gather_rows(hidden, extract(layout)).data
        for i, pos in enumerate([2, 5, 7]):
            np.testing.assert_array_equal(emb[i], hidden.data[pos])
        np.testing.assert_array_equal(emb[3], hidden.data[9])
        assert emb.shape == (4, 4)  # no dual query row

    def test_dual_query(self):
        rng = np.random.default_rng(2)
        hidden = Tensor(rng.normal(size=(8, 3)))
        layout = _layout([4], 6, dual=1)
        assert extract(layout) == [4, 6, 1]  # the dual query row comes last
        emb = ad.gather_rows(hidden, extract(layout))
        np.testing.assert_array_equal(emb.data[-1], hidden.data[1])

    def test_no_dual_marker_no_dual_row(self):
        assert extract(_layout([4], 6)) == [4, 6]

    def test_position_out_of_range(self):
        cfg = tiny_backbone_config()
        with pytest.raises(ListrankError, match="outside"):  # 5 tokens, query marker at 6
            bb.forward([0] * 5, cfg, bb.init_weights(cfg, seed=0), rows=extract(_layout([2], 6)))

    def test_gradient_flows_only_to_selected_rows(self):
        hidden = Tensor(np.random.default_rng(3).normal(size=(6, 3)), requires_grad=True)
        layout = _layout([1], 4)
        with ad.Tape():
            backward(ad.tsum(ad.gather_rows(hidden, extract(layout))))  # the document and the query row
        touched = np.zeros((6, 3))
        touched[[1, 4]] = 1.0
        np.testing.assert_array_equal(hidden.grad, touched)


class TestProjector:
    def test_init_shapes_and_zero_biases(self):
        w = init_projector(6, seed=0)
        assert w["projector.w1"].shape == (6, 3)
        assert w["projector.w2"].shape == (3, 3)
        np.testing.assert_array_equal(w["projector.b1"].data, np.zeros(3))
        np.testing.assert_array_equal(w["projector.b2"].data, np.zeros(3))

    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(4)
        w = init_projector(6, seed=1)
        x = rng.normal(size=(2, 6))
        out = project(Tensor(x), w).data
        mid = np.maximum(x @ w["projector.w1"].data + w["projector.b1"].data, 0.0)
        ref = mid @ w["projector.w2"].data + w["projector.b2"].data
        np.testing.assert_allclose(out, ref, atol=1e-14)

    def test_width_mismatch(self):
        w = init_projector(6, seed=0)
        with pytest.raises(ListrankError, match="width 6"):
            project(Tensor(np.zeros((1, 5))), w)

    def test_gradient(self):
        rng = np.random.default_rng(5)
        w = init_projector(6, seed=2)
        # keep rectifier units strictly active so the loss is smooth
        w["projector.b1"] = Tensor(np.full(3, 0.5))
        x = Tensor(rng.normal(size=(1, 6)), requires_grad=True)
        target = Tensor(rng.normal(size=(1, 3)))
        err = finite_diff_check(lambda t: ad.tsum(ad.mul(project(t, w), target)), x)
        assert err < 1e-5


class TestScore:
    def test_is_cosine(self):
        rng = np.random.default_rng(6)
        q, d = rng.normal(size=5), rng.normal(size=5)
        s = float(score(Tensor([q]), Tensor([d])).data[0, 0])
        expected = q @ d / (np.linalg.norm(q) * np.linalg.norm(d))
        assert s == pytest.approx(expected, abs=1e-14)
        assert -1.0 <= s <= 1.0
