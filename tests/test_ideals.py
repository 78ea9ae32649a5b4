import json

import numpy as np
import pytest

from amaldup import audit
from amaldup.algebra import FinDimAlgebra, duplicate
from amaldup.bundles import parse_algebra
from amaldup.cli import _load_subspace
from amaldup.errors import NotAProperIdeal
from amaldup.ideals import (_MIX_RATIO, block_subspace, ideal_defect,
                            ideal_generated, is_ideal, is_maximal_left_ideal,
                            maximality_direction_oracle,
                            operator_algebra_dimension, product_ideal_test,
                            project_components, submodule_defect)
from amaldup.linalg import Subspace, rank_nullspace, subspace_equal
from amaldup.sampling import random_triple, random_unitary

from conftest import conditioned, matrix_algebra, pointwise_algebra


def span(vectors, ambient):
    return Subspace.from_spanning([np.asarray(v, dtype=complex) for v in vectors],
                                  ambient)


def in_basis(mult, s, vectors):
    """The algebra on the basis given by the columns of ``s``, and the span
    of the given vectors in the new coordinates."""
    sinv = np.linalg.inv(s)
    alg = FinDimAlgebra.from_mult(np.einsum("ai,bj,abk,mk->ijm", s, s, mult, sinv))
    return alg, span([sinv @ np.asarray(v, dtype=complex) for v in vectors], len(s))


def annihilator_vectors(n, kernel):
    """Spanning vectors of {X in M_n : X k = 0 for every k in ``kernel``}:
    the rank-one a b^T with b^T k = 0, row-major."""
    if not kernel:
        return []
    _, b = rank_nullspace(np.array(kernel, dtype=complex))
    return [np.kron(a, col) for a in np.eye(n) for col in b.basis.T]


class TestIsIdeal:
    def test_zero_and_full(self, triangular):
        dup = duplicate(*triangular)
        for side in ("left", "right", "two_sided"):
            assert is_ideal(dup, Subspace.zero(3), side)
            assert is_ideal(dup, Subspace.full(3), side)

    def test_triangular_module_two_sided(self, triangular):
        dup = duplicate(*triangular)  # basis (E12; E11, E22)
        assert is_ideal(dup, span([[1, 0, 0]], 3), "two_sided")

    def test_pointwise_axis(self):
        alg = pointwise_algebra(2)
        assert is_ideal(alg, span([[1, 0]], 2), "two_sided")

    def test_non_ideal_detected(self, triangular):
        dup = duplicate(*triangular)
        # span{E11} is a left ideal but not a right ideal: E11 E12 = E12
        assert is_ideal(dup, span([[0, 1, 0]], 3), "left")
        assert not is_ideal(dup, span([[0, 1, 0]], 3), "right")


class TestDefects:
    def test_match_per_operator_loop(self):
        # the stacked operators against one residual per basis operator
        rng = np.random.default_rng(8)
        for _ in range(30):
            a, f, act, _ = random_triple(rng)
            dup = duplicate(a, f, act, validate=False)
            ops = {"left": [dup.left_op(e) for e in np.eye(dup.dim)],
                   "right": [dup.right_op(e) for e in np.eye(dup.dim)]}
            acts = {"left": [act.left_op(e) for e in np.eye(f.dim)],
                    "right": [act.right_op(e) for e in np.eye(f.dim)]}
            for table in (ops, acts):
                table["two_sided"] = table["left"] + table["right"]
            for side in ("left", "right", "two_sided"):
                s_dup = span(rng.standard_normal((rng.integers(1, dup.dim), dup.dim)),
                             dup.dim)
                s_a = span(rng.standard_normal((rng.integers(1, a.dim + 1), a.dim)),
                           a.dim)
                assert ideal_defect(dup, s_dup, side) == pytest.approx(
                    max(s_dup.residual(op @ s_dup.basis) for op in ops[side]),
                    abs=1e-12)
                assert submodule_defect(act, s_a, side) == pytest.approx(
                    max(s_a.residual(op @ s_a.basis) for op in acts[side]),
                    abs=1e-12)


class TestProductIdealTest:
    def test_whole_space(self, lau_unital):
        a, f, act = lau_unital
        report = product_ideal_test(duplicate(a, f, act), Subspace.full(1), Subspace.full(1))
        assert report.conjunction and report.direct

    def test_first_factor_is_ideal(self, module_extension):
        a, f, act = module_extension
        report = product_ideal_test(duplicate(a, f, act), Subspace.full(1), Subspace.zero(1))
        assert report.conjunction and report.direct

    def test_lau_zero_times_f_fails(self, lau_unital):
        a, f, act = lau_unital
        report = product_ideal_test(duplicate(a, f, act), Subspace.zero(1), Subspace.full(1))
        assert not report.a_dot_j_inside_i
        assert not report.direct
        assert report.conjunction == report.direct

    def test_agreement_on_fixtures(self, lau_unital, module_extension, triangular):
        rng = np.random.default_rng(3)
        for a, f, act in (lau_unital, module_extension, triangular):
            for _ in range(25):
                i_vecs = rng.standard_normal((a.dim, rng.integers(0, a.dim + 1)))
                j_vecs = rng.standard_normal((f.dim, rng.integers(0, f.dim + 1)))
                report = product_ideal_test(duplicate(a, f, act),
                                            span(i_vecs.T, a.dim),
                                            span(j_vecs.T, f.dim))
                assert report.conjunction == report.direct


class TestProjections:
    def test_rectangular_block(self):
        i_sub = span([[1, 0]], 2)
        j_sub = span([[1]], 1)
        n_sub = block_subspace(i_sub, j_sub)
        i_n, j_n = project_components(2, 1, n_sub)
        assert subspace_equal(i_n, i_sub) and subspace_equal(j_n, j_sub)

    def test_diagonal_line_projects_onto_both(self, lau_unital):
        n_sub = span([[1.0, 1.0]], 2)
        i_n, j_n = project_components(1, 1, n_sub)
        assert i_n.dim == 1 and j_n.dim == 1
        assert n_sub.dim == 1  # strictly smaller than I_N x J_N

    def test_ideal_containing_second_factor_is_block(self, lau_unital):
        a, f, act = lau_unital
        dup = duplicate(a, f, act)
        n_sub = ideal_generated(dup, [np.array([0.0, 1.0])], "left")
        assert is_ideal(dup, n_sub, "left")
        i_n, j_n = project_components(1, 1, n_sub)
        assert subspace_equal(n_sub, block_subspace(i_n, Subspace.full(1)))


class TestIdealGenerated:
    def test_zero_seed(self):
        alg = pointwise_algebra(2)
        assert ideal_generated(alg, [np.zeros(2)]).dim == 0

    def test_unit_seed_generates_everything(self):
        alg = pointwise_algebra(3)
        assert ideal_generated(alg, [alg.unit()]).dim == 3

    def test_triangular_e11_left_ideal(self, triangular):
        dup = duplicate(*triangular)  # (E12; E11, E22)
        left_ideal = ideal_generated(dup, [np.array([0.0, 1.0, 0.0])], "left")
        # x E11 over the basis: E11 E11 = E11, E22 E11 = 0, E12 E11 = 0
        assert left_ideal.dim == 1
        assert subspace_equal(left_ideal, span([[0, 1, 0]], 3))

    def test_monotone_idempotent(self, triangular):
        dup = duplicate(*triangular)
        rng = np.random.default_rng(5)
        for _ in range(10):
            seeds = [rng.standard_normal(3) + 1j * rng.standard_normal(3)]
            first = ideal_generated(dup, seeds, "left")
            again = ideal_generated(dup, [first.basis[:, c] for c in
                                          range(first.dim)], "left")
            assert subspace_equal(first, again)
            assert first.residual(seeds) <= 1e-9


    def test_two_sided_needs_two_rounds(self):
        # in M_2, E11 generates the column {E11, E21} on the left and the
        # row {E11, E12} on the right; E22 = E21 E11 E12 needs both sides
        alg = FinDimAlgebra.from_mult(matrix_algebra(2))
        dims = [ideal_generated(alg, [np.eye(4)[0]], side).dim
                for side in ("left", "right", "two_sided")]
        assert dims == [2, 2, 4]


class TestMaximality:
    def test_operator_algebra_closed_forms(self):
        # the unital algebra generated by a k x k shift J is C[J], of
        # dimension k, one power of J per growth round; J with its transpose
        # generates all of M_k; both in any basis
        rng = np.random.default_rng(7)
        for k in (2, 3, 5):
            shift = np.eye(k, k=1)
            for s in (np.eye(k), conditioned(rng, k, 10.0)):
                moved = np.linalg.inv(s) @ np.stack([shift, shift.T]) @ s
                assert operator_algebra_dimension(moved[:1]) == k
                assert operator_algebra_dimension(moved) == k * k

    def test_codim_one_ideal_maximal(self, triangular):
        dup = duplicate(*triangular)
        assert is_maximal_left_ideal(dup, span([[1, 0, 0], [0, 1, 0]], 3))

    def test_zero_not_maximal_in_pointwise(self):
        alg = pointwise_algebra(2)
        assert not is_maximal_left_ideal(alg, Subspace.zero(2))

    def test_axis_maximal_in_pointwise(self):
        alg = pointwise_algebra(2)
        assert is_maximal_left_ideal(alg, span([[1, 0]], 2))

    def test_improper_rejected(self):
        alg = pointwise_algebra(2)
        with pytest.raises(NotAProperIdeal):
            is_maximal_left_ideal(alg, Subspace.full(2))
        with pytest.raises(NotAProperIdeal):
            # span{e1 + e2} is not an ideal of the pointwise product
            is_maximal_left_ideal(alg, span([[1, 1]], 2))

    def test_direction_oracle_agrees(self, triangular):
        dup = duplicate(*triangular)
        cases = [
            (dup, span([[1, 0, 0], [0, 1, 0]], 3)),
            (dup, span([[1, 0, 0]], 3)),
            (pointwise_algebra(2), Subspace.zero(2)),
            (pointwise_algebra(2), span([[1, 0]], 2)),
        ]
        for alg, ideal in cases:
            assert (maximality_direction_oracle(alg, ideal)
                    == is_maximal_left_ideal(alg, ideal))

    @pytest.mark.parametrize("n, kernel, maximal", [
        (2, [[1, 2]], True),
        (2, [], False),
        (3, [[1, 2, -1j]], True),
        (3, [[1, 2, -1j], [0, 1, 1]], False),
        (3, [], False),
    ])
    def test_matrix_algebra_closed_form(self, n, kernel, maximal):
        # L_v = {X : X v = 0} has the simple quotient C^n, so it is maximal;
        # {0} and L_{v,w} have quotients (C^n)^n and (C^n)^2, so they are not
        rng = np.random.default_rng(n)
        for s in (random_unitary(rng, n * n), conditioned(rng, n * n, 10.0)):
            alg, ideal = in_basis(matrix_algebra(n), s,
                                  annihilator_vectors(n, kernel))
            assert is_maximal_left_ideal(alg, ideal) is maximal
            assert maximality_direction_oracle(alg, ideal) is maximal

    def test_oracle_inconclusive_when_mix_is_scalar(self):
        # a basis b_j of M_2 with sum_j c^(j+1) b_j = I makes the oracle's
        # combination the identity on every quotient, so no eigenvalue has a
        # one-dimensional kernel and nothing certifies the simple quotient
        s = np.eye(4, dtype=complex)
        s[:, 0] = (np.eye(2).reshape(-1)
                   - s[:, 1:] @ _MIX_RATIO ** np.arange(2, 5)) / _MIX_RATIO
        alg, ideal = in_basis(matrix_algebra(2), s, [[0, 1, 0, 0], [0, 0, 0, 1]])
        assert is_maximal_left_ideal(alg, ideal)
        assert maximality_direction_oracle(alg, ideal) is None

    @pytest.mark.parametrize("excluded, cyclic", [
        (((0, 1), (2, 1)), 0),
        (((1, 0), (1, 2)), 1),
    ], ids=["dual-probe", "right-probe"])
    def test_oracle_probe_finds_hidden_submodule(self, excluded, cyclic):
        # A = {X in M_3 : X e1 in C e1} and I = {X in A : X e0 = 0}, so
        # A / I = C^3 with the submodule C e1. The basis makes the oracle's
        # combination Z = diag(1, 2, 2): e0 spans the kernel for 1 and
        # generates C^3, and a generic vector of span{e1, e2} does too, so
        # only the dual probe for 1 (e0* generates span{e0*, e2*}) sees C e1.
        # The transposed algebra, cut by the annihilator of e1, has the dual
        # module as quotient, and there only the right probe for 1 sees it.
        units = [(i, j) for i in range(3) for j in range(3)
                 if (i, j) not in excluded]
        index = {u: a for a, u in enumerate(units)}
        mult = np.zeros((7, 7, 7))
        for (i, j), a in index.items():
            for (jj, k), b in index.items():
                if j == jj:
                    mult[a, b, index[(i, k)]] = 1.0
        s = np.eye(7, dtype=complex)
        z = np.array([{(0, 0): 1, (1, 1): 2, (2, 2): 2}.get(u, 0) for u in units])
        s[:, 0] = (z - s[:, 1:] @ _MIX_RATIO ** np.arange(2, 8)) / _MIX_RATIO
        alg, ideal = in_basis(mult, s, [np.eye(7)[index[u]] for u in units
                                        if u[1] != cyclic])
        assert not is_maximal_left_ideal(alg, ideal)
        assert maximality_direction_oracle(alg, ideal) is False

    def test_audit_failure_witness_replays(self, monkeypatch, tmp_path):
        # an inconclusive oracle fails the row; the witness rebuilds the
        # algebra and, through the `ideals --subspace` reader, the ideal
        monkeypatch.setattr(audit, "maximality_direction_oracle",
                            lambda *args, **kwargs: None)
        row = audit.audit_maximality(pool_count=1, per_instance=1, seed=0)
        assert row.status == "fail" and row.trials == 1
        alg = parse_algebra(row.witness["algebra"])
        path = tmp_path / "subspace.json"
        path.write_text(json.dumps(row.witness["subspace"]))
        ideal = _load_subspace(path, alg.dim, 1e-9)
        assert is_ideal(alg, ideal) and 0 <= ideal.dim < alg.dim
        assert (f"ideal dim {ideal.dim}: burnside "
                f"{is_maximal_left_ideal(alg, ideal)} oracle None"
                in row.witness["note"])
