"""Tests for the differentiable graph-aggregation op."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.sparse import gather_segment_mean

from tests.helpers import finite_difference_check


class TestGatherSegmentMean:
    def test_simple_mean(self):
        src = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        out = gather_segment_mean(src, np.array([0, 1]), np.array([0, 0]), 2)
        np.testing.assert_allclose(out.data[0], [2.0, 3.0])  # mean of rows 0,1
        np.testing.assert_allclose(out.data[1], [0.0, 0.0])  # empty segment

    def test_identity_routing(self):
        src = Tensor(np.arange(6, dtype=float).reshape(3, 2))
        out = gather_segment_mean(src, np.arange(3), np.arange(3), 3)
        np.testing.assert_allclose(out.data, src.data)

    def test_duplicate_gathers(self):
        src = Tensor(np.array([[2.0], [4.0]]))
        # Segment 0 receives row 0 twice and row 1 once -> mean = 8/3.
        out = gather_segment_mean(src, np.array([0, 0, 1]), np.array([0, 0, 0]), 1)
        np.testing.assert_allclose(out.data, [[8.0 / 3.0]])

    def test_empty_edge_list(self):
        src = Tensor(np.ones((3, 2)))
        out = gather_segment_mean(src, np.array([], dtype=int), np.array([], dtype=int), 2)
        np.testing.assert_allclose(out.data, np.zeros((2, 2)))

    def test_index_validation(self):
        src = Tensor(np.ones((2, 2)))
        with pytest.raises(IndexError):
            gather_segment_mean(src, np.array([5]), np.array([0]), 1)
        with pytest.raises(IndexError):
            gather_segment_mean(src, np.array([0]), np.array([3]), 1)
        with pytest.raises(ValueError):
            gather_segment_mean(src, np.array([0, 1]), np.array([0]), 1)

    def test_negative_indices_rejected(self):
        src = Tensor(np.ones((2, 2)))
        with pytest.raises(IndexError):
            gather_segment_mean(src, np.array([-1]), np.array([0]), 1)
        with pytest.raises(IndexError):
            gather_segment_mean(src, np.array([0]), np.array([-1]), 1)

    def test_gradcheck(self, rng):
        src = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        gather = np.array([0, 1, 1, 5, 4, 2, 2])
        seg = np.array([0, 0, 1, 1, 2, 3, 3])
        finite_difference_check(
            lambda s: (gather_segment_mean(s, gather, seg, 4) ** 2).sum(), [src]
        )

    def test_gradient_zero_for_ungathered_rows(self, rng):
        src = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        out = gather_segment_mean(src, np.array([0, 1]), np.array([0, 1]), 2)
        out.sum().backward()
        np.testing.assert_allclose(src.grad[2], np.zeros(2))
        np.testing.assert_allclose(src.grad[3], np.zeros(2))

    def test_permutation_invariance_within_segment(self, rng):
        src = Tensor(rng.standard_normal((5, 3)))
        gather = np.array([0, 1, 2])
        seg = np.array([0, 0, 0])
        a = gather_segment_mean(src, gather, seg, 1).data
        b = gather_segment_mean(src, gather[::-1].copy(), seg, 1).data
        np.testing.assert_allclose(a, b)

    def test_large_random_matches_dense(self, rng):
        """Compare against the dense normalized-adjacency formulation."""
        n_src, n_out, n_edges = 30, 12, 100
        src = Tensor(rng.standard_normal((n_src, 4)))
        gather = rng.integers(0, n_src, size=n_edges)
        seg = rng.integers(0, n_out, size=n_edges)
        sparse_out = gather_segment_mean(src, gather, seg, n_out).data

        dense = np.zeros((n_out, n_src))
        for g, s in zip(gather, seg):
            dense[s, g] += 1.0
        row_sums = dense.sum(axis=1, keepdims=True)
        dense = np.divide(
            dense, row_sums, out=np.zeros_like(dense), where=row_sums > 0
        )
        np.testing.assert_allclose(sparse_out, dense @ src.data, atol=1e-12)
