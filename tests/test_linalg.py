import dataclasses
import importlib
import pkgutil
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import amaldup
from amaldup import linalg
from amaldup.errors import InvalidMatrix, ShapeError
from amaldup.linalg import (_FOLD_ROWS_PER_COL, Subspace, _streamed_nullspace,
                            rank_nullspace, solve_affine, subspace_contains,
                            subspace_equal, subspace_intersect, subspace_sum)

from conftest import assert_same_solve, conditioned


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestRankNullspace:
    def test_identity(self):
        rank, null = rank_nullspace(np.eye(2), 1e-9)
        assert rank == 2
        assert null.dim == 0

    def test_zero_matrix(self):
        rank, null = rank_nullspace(np.zeros((2, 2)))
        assert rank == 0
        assert null.dim == 2

    def test_rank_one(self):
        # SVD of [[1,1],[1,1]] by hand: singular values (2, 0), kernel (1,-1)/sqrt(2)
        rank, null = rank_nullspace(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert rank == 1
        assert null.dim == 1
        v = null.basis[:, 0]
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        phase = v[0] / expected[0]
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.allclose(v, phase * expected, atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrix):
            rank_nullspace(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @given(st.integers(0, 10**6), st.integers(1, 40), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_rank_plus_nullity(self, seed, rows, cols):
        # tall and wide shapes: rank and nullity agree with a full SVD
        rng = np.random.default_rng(seed)
        m = random_complex(rng, rows, cols)
        if seed % 3 == 0 and cols > 1:  # force rank deficiency sometimes
            m[:, -1] = m[:, 0]
        rank, null = rank_nullspace(m)
        _, s, vh = np.linalg.svd(m, full_matrices=True)
        full_rank = int(np.sum(s > 1e-9 * s[0]))
        assert rank == full_rank
        assert null.dim == cols - full_rank
        assert rank + null.dim == cols
        if null.dim:
            assert np.max(np.abs(m @ null.basis)) < 1e-9 * max(1, np.max(np.abs(m)))
            full_null = vh[full_rank:].conj().T
            assert np.allclose(null.projector(), full_null @ full_null.conj().T,
                               atol=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_single_row_keeps_wide_nullspace(self, n):
        # a 1 x n row has nullity n - 1: the n - 1 directions beyond the
        # first row of V^H must survive
        v = random_complex(np.random.default_rng(n), n)
        rank, null = rank_nullspace(v.reshape(1, -1))
        assert rank == 1
        assert null.dim == n - 1
        assert np.max(np.abs(v @ null.basis), initial=0.0) < 1e-12 * np.linalg.norm(v)


def split_rows(rng, m, most):
    """``m`` cut into consecutive row blocks of 1 to ``most`` rows."""
    cuts, at = [], 0
    while at < m.shape[0]:
        at = min(m.shape[0], at + int(rng.integers(1, most + 1)))
        cuts.append(at)
    return np.split(m, cuts[:-1])


def low_rank(rng, rows, cols, rank):
    return random_complex(rng, rows, rank) @ random_complex(rng, rank, cols)


class TestStreamedNullspace:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_dense_solve(self, seed):
        # tall rank-deficient systems, long enough to fold at least once,
        # in blocks from single rows (wider than tall) to several R heights
        rng = np.random.default_rng(seed)
        cols = int(rng.integers(2, 13))
        rows = int(rng.integers(_FOLD_ROWS_PER_COL, 4 * _FOLD_ROWS_PER_COL)) * cols
        m = low_rank(rng, rows, cols, int(rng.integers(0, cols + 1)))
        most = 1 if seed % 3 == 0 else int(rng.integers(1, 3 * cols))
        blocks = split_rows(rng, m, most)
        rank, null = _streamed_nullspace(iter(blocks), cols)
        assert rank == rank_nullspace(m)[0]
        assert_same_solve(m, null)

    def test_basis_change_condition_1e3(self):
        # M S has the rank of M and the nullspace S^-1 null(M)
        rng = np.random.default_rng(20)
        for _ in range(10):
            m = low_rank(rng, 40 * 6, 6, 4)
            s = conditioned(rng, 6, 1e3)
            rank, null = _streamed_nullspace(split_rows(rng, m @ s, 7), 6)
            assert rank == 4
            assert_same_solve(m @ s, null)

    def test_one_buffer_is_the_dense_solve(self):
        # a system below the fold height goes to rank_nullspace unchanged
        rng = np.random.default_rng(21)
        m = low_rank(rng, 3 * 5, 5, 3)
        _, dense = rank_nullspace(m)
        _, streamed = _streamed_nullspace(iter(np.split(m, 3)), 5)
        assert streamed.basis.tobytes() == dense.basis.tobytes()

    @pytest.mark.parametrize("extra", [1, 5, 2 * _FOLD_ROWS_PER_COL * 6 + 3])
    def test_trailing_rows_fold_into_a_square_r(self, monkeypatch, extra):
        # rows past the last full buffer are folded as well, so the one
        # SVD is of a cols x cols R, and the solve is the dense one
        shapes = []

        def recording(m, *args):
            shapes.append(np.shape(m))
            return rank_nullspace(m, *args)

        monkeypatch.setattr(linalg, "rank_nullspace", recording)
        rng = np.random.default_rng(23)
        cols = 6
        m = low_rank(rng, _FOLD_ROWS_PER_COL * cols + extra, cols, 4)
        rank, null = _streamed_nullspace(split_rows(rng, m, 5), cols)
        assert shapes == [(cols, cols)]
        assert rank == 4
        assert_same_solve(m, null)

    @pytest.mark.parametrize("sigma, edge", [
        (5e-9, True), (5e-10, True), (1e-3, False), (1e-12, False)])
    def test_edge_decision_is_left_to_the_longer_system(self, sigma, edge):
        # a singular value within 10x of the cut (1e-9), on either side,
        # hands the decision to the longer system; a clear one never reads it
        reads = []

        def every():
            reads.append(True)
            return iter([np.eye(3)])

        m = np.diag([1.0, 1.0, sigma])
        rank, _ = _streamed_nullspace(iter([m[:1], m[1:]]), 3, every=every)
        assert reads == [True] * edge
        assert rank == (3 if edge else 2 + int(sigma > 1e-9))

    def test_zero_columns_and_no_rows(self):
        rank, null = _streamed_nullspace(iter([np.zeros((k, 0)) for k in (3, 9)]), 0)
        assert (rank, null.ambient_dim, null.dim) == (0, 0, 0)
        rank, null = _streamed_nullspace(iter([]), 4)
        assert (rank, null.dim) == (0, 4)

    def test_absolute_floor_is_kept(self):
        # round-off sized rows count as zero below atol, folded or not
        rng = np.random.default_rng(22)
        noise = 1e-14 * random_complex(rng, 30 * 4, 4)
        for blocks in (np.split(noise, 30), [noise[:8]]):
            rank, null = _streamed_nullspace(iter(blocks), 4, atol=1e-9)
            assert (rank, null.dim) == (0, 4)


class TestSolveAffine:
    def test_identity_system(self):
        x = solve_affine(np.eye(2), np.array([3.0, 4.0j]))
        assert np.allclose(x, [3.0, 4.0j], atol=1e-12)

    def test_zero_zero(self):
        x = solve_affine(np.zeros((2, 2)), np.zeros(2))
        assert np.allclose(x, 0.0)

    def test_inconsistent_returns_none(self):
        # b = (1, 2) is outside the column span of [[1,1],[1,1]]
        assert solve_affine(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0])) is None

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            solve_affine(np.eye(2), np.zeros(3))

    @given(st.integers(0, 10**6), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_residual_certificate(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        a = random_complex(rng, rows, cols)
        b = random_complex(rng, rows)
        tol = 1e-9
        x = solve_affine(a, b, tol)
        if x is not None:
            assert np.linalg.norm(a @ x - b) <= tol * (1 + np.linalg.norm(b))


class TestSubspace:
    def test_contains_full(self):
        full = Subspace.full(3)
        s = Subspace.from_spanning([np.array([1.0, 2.0, 3.0])])
        assert subspace_contains(full, s)

    def test_orthogonal_intersection_is_zero(self):
        e1 = Subspace.from_spanning([np.array([1.0, 0.0])])
        e2 = Subspace.from_spanning([np.array([0.0, 1.0])])
        assert subspace_intersect(e1, e2).dim == 0

    def test_sum_spans_plane(self):
        s1 = Subspace.from_spanning([np.array([1.0, 1.0])])
        s2 = Subspace.from_spanning([np.array([1.0, -1.0])])
        total = subspace_sum(s1, s2)
        assert total.dim == 2
        assert subspace_equal(total, Subspace.full(2))

    def test_dependent_vectors_dropped(self):
        s = Subspace.from_spanning(
            [np.array([1.0, 0.0]), np.array([2.0, 0.0]), np.array([0.0, 0.0])])
        assert s.dim == 1

    def test_ambient_mismatch(self):
        with pytest.raises(ShapeError):
            subspace_sum(Subspace.full(2), Subspace.full(3))

    @given(st.integers(0, 10**6), st.integers(1, 8), st.integers(0, 8),
           st.integers(0, 12), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_span_cut_is_rank_nullspace_cut(self, seed, ambient, rank, copies,
                                            noise):
        # rank directions, each copied at norms from 1e-6 to 1e6 (one copy
        # of each at 1e3 or more), among columns of pure round-off: the span
        # keeps what rank_nullspace counts with atol = tol, which is the
        # true rank, so that a span of round-off alone is {0}
        rng = np.random.default_rng(seed)
        rank = min(rank, ambient)
        q = np.linalg.qr(random_complex(rng, ambient, ambient))[0][:, :rank]
        owner = np.concatenate([np.arange(rank), rng.integers(rank, size=copies)
                                if rank else np.zeros(0, int)])
        exponent = np.where(np.arange(owner.size) < rank,
                            rng.uniform(3, 6, owner.size), rng.uniform(-6, 6, owner.size))
        phase = np.exp(2j * np.pi * rng.random(owner.size))
        m = np.hstack([q[:, owner] * phase * 10.0 ** exponent,
                       1e-16 * random_complex(rng, ambient, noise)])
        tol = 1e-9
        span = Subspace.from_spanning(m, ambient, tol)
        assert span.dim == rank_nullspace(m, tol, atol=tol)[0] == rank
        gram = span.basis.conj().T @ span.basis
        assert np.max(np.abs(gram - np.eye(span.dim)), initial=0.0) <= 1e-12
        permuted = Subspace.from_spanning(m[:, rng.permutation(m.shape[1])],
                                          ambient, tol)
        assert subspace_equal(permuted, span)

    @given(st.integers(0, 10**6), st.integers(1, 6), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_projector_idempotent(self, seed, ambient, nvec):
        rng = np.random.default_rng(seed)
        s = Subspace.from_spanning(random_complex(rng, ambient, nvec), ambient)
        v = random_complex(rng, ambient)
        once = s.project(v)
        assert np.linalg.norm(s.project(once) - once) < 1e-10

    @given(st.integers(0, 10**6), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_intersection_contained_in_both(self, seed, ambient):
        rng = np.random.default_rng(seed)
        s1 = Subspace.from_spanning(random_complex(rng, ambient, 2), ambient)
        s2 = Subspace.from_spanning(random_complex(rng, ambient, 2), ambient)
        inter = subspace_intersect(s1, s2)
        assert subspace_contains(s1, inter, 1e-8)
        assert subspace_contains(s2, inter, 1e-8)


def tolerance_arithmetic(package_dir: Path) -> list[str]:
    """``file:line`` of each literal that multiplies a tol, and of each
    float literal with a negative exponent, outside linalg.py."""
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
               tokenize.INDENT, tokenize.DEDENT}
    hits = []
    for path in sorted(package_dir.glob("*.py")):
        if path.name == "linalg.py":
            continue
        with tokenize.open(path) as fh:
            toks = [t for t in tokenize.generate_tokens(fh.readline)
                    if t.type not in skipped]
        for i, tok in enumerate(toks):
            after = [t.string for t in toks[i + 1:i + 5]]
            if tok.type == tokenize.NUMBER and (
                    re.search(r"[eE]-", tok.string) or after[:2] == ["*", "tol"]
                    or after == ["*", "args", ".", "tol"]):
                hits.append(f"{path.name}:{tok.start[0]}")
    return hits


class TestTolerancePolicy:
    def test_thresholds_are_derived_in_linalg(self):
        # every other module states its slack through check_bound or
        # cluster_gap, never as a multiple of tol or a bare epsilon
        assert tolerance_arithmetic(Path(amaldup.__file__).parent) == []

    def test_no_dataclass_carries_a_tol(self):
        # every decision takes the caller's tol: no record keeps its own
        carriers = []
        for info in pkgutil.iter_modules(amaldup.__path__):
            module = importlib.import_module(f"amaldup.{info.name}")
            for name, obj in vars(module).items():
                if (isinstance(obj, type) and obj.__module__ == module.__name__
                        and dataclasses.is_dataclass(obj)
                        and "tol" in {f.name for f in dataclasses.fields(obj)}):
                    carriers.append(f"{info.name}.{name}")
        assert carriers == []

    def test_membership_decided_at_the_given_tol(self):
        # a subspace keeps no tol: without one, membership is decided at
        # DEFAULT_TOL and not at the tol the span was built with
        span = Subspace.from_spanning([[1, 0]], 2, tol=1e-3)
        assert not span.contains_vector([1, 1e-6])
