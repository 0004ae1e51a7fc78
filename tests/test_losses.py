import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listrank import autodiff as ad
from listrank.autodiff import Tensor, backward
from listrank.errors import ListrankError
from listrank.losses import TrainingBatch, all_losses

from conftest import stacked_batch


def _component(batch, name):
    return all_losses(batch)[1][name]


def _orthonormal_group(k, dim, base=0):
    """Positive and negatives mutually orthogonal: every cosine is zero."""
    eye = np.eye(dim)
    return dict(
        query=eye[base],
        positive=eye[base],
        negatives=[eye[base + 1 + i] for i in range(k)],
        dual_query=eye[base],
        augmented=eye[base],
    )


def _reference_infonce(anchor, positive, negatives, tau):
    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    sims = [cos(anchor, positive)] + [cos(anchor, n) for n in negatives]
    logits = np.array(sims) / tau
    m = logits.max()
    return float(m + np.log(np.exp(logits - m).sum()) - logits[0])


def _random_batch(rng, n_groups=3, k=4, dim=6, tau=0.25):
    groups = []
    arrays = []
    for _ in range(n_groups):
        q = rng.normal(size=dim)
        p = rng.normal(size=dim)
        dq = rng.normal(size=dim)
        aug = rng.normal(size=dim)
        negs = [rng.normal(size=dim) for _ in range(k)]
        groups.append(
            dict(
                query=q, positive=p,
                negatives=negs,
                dual_query=dq, augmented=aug,
            )
        )
        arrays.append((q, p, negs, dq, aug))
    return stacked_batch(groups, tau), arrays


class TestClosedForms:
    @pytest.mark.parametrize("k", [1, 9, 15, 25])
    def test_uniform_rank_loss_is_log_k_plus_one(self, k):
        """With query orthogonal to everything and all documents mutually
        orthogonal, every similarity is zero and the contrastive loss
        reduces to ln(K+1) at any temperature."""
        eye = np.eye(k + 2)
        g = dict(
            query=eye[k + 1],
            positive=eye[0],
            negatives=[eye[1 + i] for i in range(k)],
        )
        loss = _component(stacked_batch([g], temperature=0.25), "rank")
        assert float(loss.data) == pytest.approx(math.log(k + 1), abs=1e-12)

    def test_disperse_two_orthogonal_negatives(self):
        """K=2 with all pairwise similarities zero: three unit terms,
        loss = ln 3 - ln 2."""
        eye = np.eye(5)
        g = dict(
            query=eye[0], positive=eye[1],
            negatives=[eye[2], eye[3]],
        )
        loss = _component(stacked_batch([g], temperature=0.05), "disperse")
        assert float(loss.data) == pytest.approx(math.log(3.0 / 2.0), abs=1e-12)

    def test_similar_hand_case(self):
        """cos(d+, d*) = 0.9, one negative with cos(d+, n) = -0.2 at
        temperature 0.25: loss = log(1 + e^{(-0.2-0.9)/0.25}) = 0.012219...
        Verified against the independent numpy reference below."""
        p = np.array([1.0, 0.0])
        aug = np.array([0.9, math.sqrt(1 - 0.81)])
        neg = np.array([-0.2, -math.sqrt(1 - 0.04)])
        g = dict(
            query=p, positive=p,
            negatives=[neg], augmented=aug,
        )
        loss = _component(stacked_batch([g], temperature=0.25), "similar")
        expected = math.log(1.0 + math.exp((-0.2 - 0.9) / 0.25))
        assert float(loss.data) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(
            _reference_infonce(p, aug, [neg], 0.25), abs=1e-12
        )

    def test_perfect_separation_drives_rank_loss_down(self):
        g = dict(
            query=np.array([1.0, 0.0]),
            positive=np.array([1.0, 0.0]),
            negatives=[np.array([-1.0, 0.0])],
        )
        tight = float(_component(stacked_batch([g], temperature=0.05), "rank").data)
        assert tight < 1e-15


class TestAgainstReference:
    def test_rank_and_dual_and_similar(self):
        rng = np.random.default_rng(0)
        batch, arrays = _random_batch(rng)
        _, parts = all_losses(batch)
        got_rank, got_dual, got_sim = (float(parts[name].data)
                                       for name in ("rank", "dual", "similar"))
        tau = batch.temperature
        exp_rank = np.mean([_reference_infonce(q, p, negs, tau) for q, p, negs, _, _ in arrays])
        exp_dual = np.mean([_reference_infonce(dq, p, negs, tau) for _, p, negs, dq, _ in arrays])
        exp_sim = np.mean([_reference_infonce(p, aug, negs, tau) for _, p, negs, _, aug in arrays])
        assert got_rank == pytest.approx(exp_rank, abs=1e-12)
        assert got_dual == pytest.approx(exp_dual, abs=1e-12)
        assert got_sim == pytest.approx(exp_sim, abs=1e-12)

    def test_disperse(self):
        rng = np.random.default_rng(1)
        batch, arrays = _random_batch(rng, n_groups=2, k=4)
        tau = batch.temperature

        def cos(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        expected = []
        for _, p, negs, _, _ in arrays:
            terms = [cos(p, n) / tau for n in negs]
            for k in range(len(negs)):
                for j in range(k + 1, len(negs)):
                    terms.append(cos(negs[k], negs[j]) / tau)
            logits = np.array(terms)
            m = logits.max()
            expected.append(m + np.log(np.exp(logits - m).sum()) - np.log(len(negs)))
        got = float(_component(batch, "disperse").data)
        assert got == pytest.approx(np.mean(expected), abs=1e-12)

    def test_total_is_weighted_sum(self):
        rng = np.random.default_rng(2)
        batch, _ = _random_batch(rng)
        total, parts = all_losses(batch)
        expected = (
            float(parts["rank"].data)
            + 0.45 * float(parts["disperse"].data)
            + 0.85 * float(parts["dual"].data)
            + 0.85 * float(parts["similar"].data)
        )
        assert float(total.data) == pytest.approx(expected, abs=1e-12)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 1.0), st.integers(1, 6), st.integers(1, 3))
    def test_losses_finite_and_nonnegative_rank(self, tau, k, n_groups):
        rng = np.random.default_rng(k * 100 + n_groups)
        batch, _ = _random_batch(rng, n_groups=n_groups, k=k, tau=tau)
        total, parts = all_losses(batch)
        assert np.isfinite(total.data)
        # the contrastive losses are -log of a probability, hence >= 0
        for name in ("rank", "dual", "similar"):
            assert float(parts[name].data) >= 0.0

    def test_gradients_flow(self):
        rng = np.random.default_rng(3)
        batch, _ = _random_batch(rng, n_groups=2, k=3)
        batch.embeddings.requires_grad = True
        with ad.Tape():
            backward(all_losses(batch)[0])
        assert batch.embeddings.grad is not None
        for q in batch.query:
            assert np.linalg.norm(batch.embeddings.grad[q]) > 0


def _reference_disperse(positive, negatives, tau):
    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    terms = [cos(positive, n) / tau for n in negatives]
    for k in range(len(negatives)):
        for j in range(k + 1, len(negatives)):
            terms.append(cos(negatives[k], negatives[j]) / tau)
    logits = np.array(terms)
    m = logits.max()
    return float(m + np.log(np.exp(logits - m).sum()) - np.log(len(negatives)))


@st.composite
def index_batches(draw):
    """Groups with one negative count per batch, some of whose negatives are
    other groups' positives."""
    n_groups, k = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    embeddings = rng.normal(size=(n_groups * (4 + k), draw(st.integers(2, 7))))
    first = np.arange(n_groups) * (4 + k)
    positive = first + 2
    n_shared = draw(st.integers(0, n_groups - 1))
    shared = [rng.choice(np.delete(positive, gi), size=n_shared, replace=False)
              for gi in range(n_groups)]
    negatives = np.hstack([first[:, None] + np.arange(4, 4 + k),
                           np.array(shared, dtype=int).reshape(n_groups, n_shared)])
    return TrainingBatch(Tensor(embeddings), draw(st.floats(0.05, 1.0)), query=first,
                         dual_query=first + 1, positive=positive, augmented=first + 3,
                         negatives=negatives)


class TestMatchesNumpyReference:
    @settings(max_examples=60, deadline=None)
    @given(index_batches())
    def test_all_four_losses(self, batch):
        e, tau = batch.embeddings.data, batch.temperature
        groups = list(zip(batch.query, batch.positive, batch.negatives, batch.dual_query,
                          batch.augmented))
        expected = {
            "rank": np.mean([_reference_infonce(e[q], e[p], e[n], tau)
                             for q, p, n, _, _ in groups]),
            "dual": np.mean([_reference_infonce(e[dq], e[p], e[n], tau)
                             for _, p, n, dq, _ in groups]),
            "similar": np.mean([_reference_infonce(e[p], e[aug], e[n], tau)
                                for _, p, n, _, aug in groups]),
            "disperse": np.mean([_reference_disperse(e[p], e[n], tau)
                                 for _, p, n, _, _ in groups]),
        }
        _, parts = all_losses(batch)
        for name, value in expected.items():
            assert float(parts[name].data) == pytest.approx(value, abs=1e-12), name


class TestValidation:
    def test_group_rows_inside_the_matrix(self):
        with pytest.raises(ListrankError, match="outside"):
            TrainingBatch(Tensor(np.eye(3)), 0.25, query=[0], positive=[1],
                          negatives=[[2, 3]], dual_query=[0], augmented=[1])

    def test_temperature_positive(self):
        with pytest.raises(ListrankError, match="temperature must be positive, got 0.0"):
            stacked_batch([_orthonormal_group(1, 4)], temperature=0.0)

    def test_empty_batch(self):
        with pytest.raises(ListrankError, match="empty training batch"):
            stacked_batch([], temperature=0.25)

    def test_negatives_required(self):
        g = dict(query=[1.0, 0], positive=[0, 1.0], negatives=[])
        with pytest.raises(ListrankError, match="every query needs at least one negative"):
            stacked_batch([g], temperature=0.25)

    def test_unequal_negative_counts_refused(self):
        eye = np.eye(5)
        groups = [dict(query=eye[0], positive=eye[1], negatives=[eye[2], eye[3]]),
                  dict(query=eye[0], positive=eye[1], negatives=[eye[4]])]
        with pytest.raises(ListrankError, match="ragged batch indices: every query group "
                                                "needs the same number of negatives"):
            stacked_batch(groups, temperature=0.25)

    def test_index_shapes_must_agree(self):
        """Each of the four (G,) arrays and the (G, K) block name G groups."""
        good = dict(query=[0, 4], positive=[1, 5], negatives=[[2], [6]],
                    dual_query=[3, 7], augmented=[1, 5])
        TrainingBatch(Tensor(np.eye(8)), 0.25, **good)
        for name, value in [("positive", [1]), ("negatives", [2, 6]),
                            ("negatives", [[2], [6], [3]]), ("augmented", [[1, 5]])]:
            with pytest.raises(ListrankError, match=r"need \(G,\) four times and \(G, K\)"):
                TrainingBatch(Tensor(np.eye(8)), 0.25, **{**good, name: value})

    def test_row_indices_must_be_integers(self):
        with pytest.raises(ListrankError, match="must be integers"):
            TrainingBatch(Tensor(np.eye(3)), 0.25, query=[0.0], positive=[1],
                          negatives=[[2]], dual_query=[0], augmented=[1])
