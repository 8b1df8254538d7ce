"""Eigenvalue-constraint checking and the clipping projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixclust import ConstraintConfig, NotPositiveDefiniteError, enforce_constraints
from oracles import check_constraints


def random_cov_set(seed, k=None, p=None, spread=4.0):
    rng = np.random.default_rng(seed)
    k = k or int(rng.integers(1, 5))
    p = p or int(rng.integers(1, 5))
    covs = []
    for _ in range(k):
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        vals = np.exp(rng.uniform(-spread, spread, size=p))
        covs.append((q * vals) @ q.T)
    return covs


class TestCheck:
    def test_identity_feasible(self):
        ok, big, small = check_constraints([np.eye(2)], ConstraintConfig(c=20, c1=0.1))
        assert ok and big == pytest.approx(1.0) and small == pytest.approx(1.0)

    def test_ratio_four_under_five(self):
        covs = [np.diag([4.0, 1.0])]
        ok, big, small = check_constraints(covs, ConstraintConfig(c=5, c1=0.1))
        assert ok
        assert big / small == pytest.approx(4.0)

    def test_ratio_hundred_fails(self):
        covs = [np.diag([100.0, 1.0])]
        ok, _, _ = check_constraints(covs, ConstraintConfig(c=10, c1=0.1))
        assert not ok

    def test_floor_violation(self):
        ok, _, _ = check_constraints([0.01 * np.eye(2)], ConstraintConfig(c=100, c1=0.1))
        assert not ok

    @pytest.mark.parametrize("bad", [
        np.array([[1.0, 0.5], [0.1, 1.0]]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
    ])
    def test_invalid_covariance_rejected(self, bad):
        # The oracle checks what it is given; enforce_constraints trusts its input.
        with pytest.raises(NotPositiveDefiniteError):
            check_constraints([np.eye(2), bad], ConstraintConfig(c=20, c1=0.1))

    def test_pools_across_components(self):
        covs = [np.diag([1.0, 2.0]), np.diag([30.0, 5.0])]
        ok, big, small = check_constraints(covs, ConstraintConfig(c=20, c1=0.1))
        assert big == pytest.approx(30.0) and small == pytest.approx(1.0)
        assert not ok


class TestEnforce:
    def test_feasible_unchanged(self):
        covs = [np.diag([2.0, 1.0]), np.diag([3.0, 1.5])]
        out = enforce_constraints(covs, ConstraintConfig(c=5, c1=0.1))
        # the given matrices themselves, not copies
        assert all(after is before for before, after in zip(covs, out))

    @pytest.mark.parametrize("c", [5.0, 2.0])
    def test_one_eigh_per_call(self, monkeypatch, c):
        # c = 5 leaves the set alone; c = 2 clips it.
        shapes = []
        real = np.linalg.eigh

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        covs = [np.diag([2.0, 1.0]), np.diag([3.0, 1.5]), np.diag([4.0, 1.0])]
        out = enforce_constraints(covs, ConstraintConfig(c=c, c1=0.1))
        assert shapes == [(3, 2, 2)]
        assert all((after is before) == (c == 5.0) for before, after in zip(covs, out))

    def test_scalar_floor(self):
        out = enforce_constraints([np.array([[0.01]])], ConstraintConfig(c=20, c1=0.1))
        assert out[0][0, 0] == pytest.approx(0.1)

    def test_ratio_clip_matches_candidate_scan(self):
        cfg = ConstraintConfig(c=10.0, c1=0.1)
        covs = [np.diag([100.0, 1.0])]
        out = enforce_constraints(covs, cfg)
        got = np.sort(np.linalg.eigvalsh(out[0]))
        # independent scan over the same candidate thresholds
        lams = np.array([1.0, 100.0])
        cands = np.unique(np.concatenate(([cfg.c1], lams, lams / cfg.c)))
        cands = cands[cands >= cfg.c1]
        best, best_loss = None, np.inf
        for t in cands:
            clipped = np.clip(lams, t, cfg.c * t)
            loss = np.sum((np.log(clipped) - np.log(lams)) ** 2)
            if loss < best_loss:
                best, best_loss = clipped, loss
        assert np.allclose(got, np.sort(best), rtol=1e-12)
        assert got.max() / got.min() <= cfg.c * (1 + 1e-12)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ConstraintConfig(c=0.5)
        with pytest.raises(ValueError):
            ConstraintConfig(c1=0.0)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       c=st.floats(1.0, 50.0),
       c1=st.floats(1e-4, 0.5))
def test_projection_properties(seed, c, c1):
    cfg = ConstraintConfig(c=c, c1=c1)
    covs = random_cov_set(seed)
    out = enforce_constraints(covs, cfg)

    # feasibility is unconditional
    ok, big, small = check_constraints(out, cfg)
    assert ok

    # idempotence: a feasible set projects to itself
    again = enforce_constraints(out, cfg)
    for first, second in zip(out, again):
        assert np.allclose(first, second, atol=1e-12 * max(1.0, np.abs(first).max()))

    for before, after in zip(covs, out):
        vals_b, vecs_b = np.linalg.eigh(before)
        vals_a = np.linalg.eigh(after)[0]
        # order preservation of the spectra
        assert np.all(np.diff(np.sort(vals_a)) >= -1e-10)
        order_b = np.argsort(vals_b)
        rebuilt_vals = np.array([vecs_b[:, i] @ after @ vecs_b[:, i]
                                 for i in range(len(vals_b))])
        # eigenvector preservation: the input's eigenvectors still diagonalize
        off = vecs_b.T @ after @ vecs_b - np.diag(rebuilt_vals)
        assert np.abs(off).max() <= 1e-10 * max(1.0, np.abs(after).max())
        # ordering of clipped eigenvalues follows the original ordering
        assert np.all(np.diff(rebuilt_vals[order_b]) >= -1e-10)
