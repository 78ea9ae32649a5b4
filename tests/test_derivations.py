import tracemalloc

import numpy as np
import pytest

from amaldup.algebra import (BimoduleAction, FinDimAlgebra, direct_sum,
                             duplicate, natural_action, span_products)
from amaldup.derivations import (CYCLIC_IDENTITIES, _antisymmetry_rows,
                                 _leibniz_blocks, cohomology,
                                 corollary_dt_check,
                                 cyclic_amenability, cyclic_derivation_space,
                                 cyclic_quadruple_defects,
                                 cyclic_quadruple_space,
                                 decompose_derivation,
                                 derivation_defect,
                                 derivation_identities,
                                 derivation_quadruple_space, derivation_space,
                                 DerivationQuadruple, inner_derivation,
                                 inner_space, is_inner_match,
                                 module_derivation_space, property_h,
                                 unital_form_check, weak_amenability)
from amaldup.duals import (L, BlockLayout, DualBimodule, TransposedSum,
                           block_nullspace, block_residuals,
                           duplication_dual_blocks, duplication_nth_dual,
                           nth_dual_bimodule)
from amaldup.errors import HypothesisNotMet, UnitRequired
from amaldup.linalg import (_FOLD_ROWS_PER_COL, DEFAULT_TOL, rank_nullspace,
                            solve_affine, subspace_equal, subspace_intersect)
from amaldup.multipliers import (left_multiplier_space, multiplier_identities,
                                 multiplier_space, quadruple_space)
from amaldup.sampling import (COMMUTATIVE_CORES, NONCOMMUTATIVE_CORES,
                              random_triple, random_unitary)

from conftest import (assert_same_solve, block_system, conditioned,
                      extension_reference, group_algebra, matrix_algebra,
                      near_unital_algebra, pointwise_algebra, scalar_algebra,
                      zero_algebra)


class TestDerivationSpace:
    def test_unital_scalar_rigid(self):
        alg = scalar_algebra()
        # D(e) = D(e^2) = 2 e D(e) forces D(e) = 0
        assert derivation_space(alg, nth_dual_bimodule(alg, 0)).dim == 0

    def test_zero_pair_dup_first_dual_everything(self, zero_pair):
        dup = duplicate(*zero_pair)
        assert derivation_space(dup, nth_dual_bimodule(dup, 1)).dim == 4

    def test_pointwise_rigid(self):
        alg = pointwise_algebra(2)
        assert derivation_space(alg, nth_dual_bimodule(alg, 0)).dim == 0

    def test_inner_space_zero_cases(self, zero_pair):
        dup = duplicate(*zero_pair)
        assert inner_space(dup, nth_dual_bimodule(dup, 1)).dim == 0
        alg = pointwise_algebra(2)  # commutative, symmetric module
        assert inner_space(alg, nth_dual_bimodule(alg, 0)).dim == 0

    def test_triangular_inner_dimension(self, triangular):
        # ad by (E12; E11, E22): ad_E12 and ad_E11 are independent,
        # ad_E22 = -ad_E11, so the span has dimension 2 (= 3 minus the
        # one-dimensional centre spanned by the identity)
        dup = duplicate(*triangular)
        assert inner_space(dup, nth_dual_bimodule(dup, 0)).dim == 2

    def test_triangular_derivations_all_inner(self, triangular):
        dup = duplicate(*triangular)
        bim = nth_dual_bimodule(dup, 0)
        z1 = derivation_space(dup, bim)
        b1 = inner_space(dup, bim)
        assert z1.dim == b1.dim == 2
        assert subspace_intersect(b1, z1).dim == b1.dim


class TestCohomology:
    def test_zero_pair_dup_cyclic_obstruction(self, zero_pair):
        dup = duplicate(*zero_pair)
        report = cohomology(dup, 1)
        assert (report.dim_z1, report.dim_b1) == (4, 0)
        assert report.dim_z1_cyclic == 1  # antisymmetric 2x2 matrices
        assert report.dim_h1_cyclic == 1
        assert report.cyclically_amenable is False

    def test_dim1_zero_product_cyclically_amenable(self):
        report = cohomology(zero_algebra(1), 1)
        assert report.dim_z1 == 1
        assert report.dim_z1_cyclic == 0  # 1x1 antisymmetry forces 0
        assert report.dim_h1_cyclic == 0

    def test_pointwise_all_levels_trivial(self):
        alg = pointwise_algebra(2)
        for n in range(4):
            assert cohomology(alg, n).dim_h1 == 0

    def test_h1_stable_across_tolerances(self, lau_unital, triangular):
        for triple in (lau_unital, triangular):
            dup = duplicate(*triple)
            dims = {cohomology(dup, 1, tol=t).dim_h1
                    for t in (1e-10, 1e-9, 1e-8, 1e-7)}
            assert len(dims) == 1

    def test_b1_inside_z1(self, triangular):
        dup = duplicate(*triangular)
        for n in range(3):
            bim = nth_dual_bimodule(dup, n)
            z1 = derivation_space(dup, bim)
            b1 = inner_space(dup, bim)
            assert subspace_intersect(b1, z1).dim == b1.dim

    S3 = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]

    @pytest.mark.parametrize("mult, inner", [
        (matrix_algebra(2), 3),
        (matrix_algebra(3), 8),
        (group_algebra(S3, lambda g, h: tuple(g[h[i]] for i in range(3))), 3),
    ], ids=["M2", "M3", "C[S3]"])
    def test_separable_closed_forms(self, mult, inner):
        # separable algebras have H1 = 0 into every bimodule, so Z1 = B1,
        # of dimension dim A - dim Z(A) into A and dim A - dim (A/[A, A])
        # into A*: k^2 - 1 for M_k and 6 - 3 for C[S3], in any basis
        rng = np.random.default_rng(mult.shape[0])
        for cond in (10.0, 1e2, 1e3):
            for _ in range(3):
                s = conditioned(rng, mult.shape[0], cond)
                alg = FinDimAlgebra.from_mult(np.einsum(
                    "ai,bj,abk,mk->ijm", s, s, mult, np.linalg.inv(s)))
                for tol in (1e-8, 1e-9, 1e-10):
                    for n in (0, 1):
                        report = cohomology(alg, n, tol)
                        assert (report.dim_z1, report.dim_b1, report.dim_h1) == (
                            inner, inner, 0), (cond, tol, n)


@pytest.fixture
def witness_triples(zero_pair, lau_unital, module_extension, triangular):
    """The four fixtures and 20 draws of random_triple at seed 24."""
    rng = np.random.default_rng(24)
    return ([zero_pair, lau_unital, module_extension, triangular]
            + [random_triple(rng)[:3] for _ in range(20)])


def inner_roundtrip(triple, level, rng):
    """A random inner derivation's quadruple, matched and rebuilt."""
    a, f, act = triple
    bim = duplication_nth_dual(duplicate(a, f, act), level)
    dim = a.dim + f.dim
    w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    d = inner_derivation(bim, w)
    witness = is_inner_match(a, f, act, decompose_derivation(a, f, act, d, level))
    assert witness is not None, level
    x, phi = witness
    recovered = inner_derivation(bim, np.concatenate([x, phi]))
    assert np.max(np.abs(recovered - d)) < 1e-9


class TestDecomposition:
    def test_zero_derivation(self, lau_unital):
        a, f, act = lau_unital
        q = decompose_derivation(a, f, act, np.zeros((2, 2)), 1)
        assert np.all(q.assemble() == 0)

    def test_inner_blocks_odd(self, witness_triples):
        rng = np.random.default_rng(21)
        for triple in witness_triples:
            for level in (1, 3):
                inner_roundtrip(triple, level, rng)

    def test_zero_pair_unconstrained(self, zero_pair):
        a, f, act = zero_pair
        rng = np.random.default_rng(22)
        d = rng.standard_normal((2, 2))
        q = decompose_derivation(a, f, act, d, 1)  # all conditions vacuous
        assert np.allclose(q.assemble(), d)

    def test_antisymmetric_not_inner_on_zero_pair(self, zero_pair):
        a, f, act = zero_pair
        d = np.array([[0.0, 1.0], [-1.0, 0.0]])
        q = decompose_derivation(a, f, act, d, 1)
        assert is_inner_match(a, f, act, q) is None

    def test_quadruple_dimension_matches_direct(self, zero_pair, lau_unital,
                                                module_extension, triangular):
        for triple in (zero_pair, lau_unital, module_extension, triangular):
            a, f, act = triple
            dup = duplicate(a, f, act)
            for n in (0, 1, 2, 3):
                direct = derivation_space(dup, nth_dual_bimodule(dup, n)).dim
                blockwise = derivation_quadruple_space(a, f, act, n).dim
                assert direct == blockwise, (triple[0].labels, n)

    def test_quadruple_coords_assemble_to_derivations(self, triangular):
        a, f, act = triangular
        dup = duplicate(a, f, act)
        layout = BlockLayout(a.dim, f.dim)
        for n in (0, 1, 2, 3):
            space = derivation_quadruple_space(a, f, act, n)
            bim = nth_dual_bimodule(dup, n)
            for col in range(space.dim):
                q = DerivationQuadruple(*layout.blocks(space.basis[:, col]), n)
                assert derivation_defect(dup.mult, bim, q.assemble()) < 1e-8

    def test_even_inner_roundtrip(self, witness_triples):
        rng = np.random.default_rng(23)
        for triple in witness_triples:
            for level in (0, 2):
                inner_roundtrip(triple, level, rng)

    def test_even_d2a_perturbation_not_inner(self, witness_triples):
        # at even levels ad has no D2A block, so an inner quadruple with
        # D2A moved off zero has no witness
        rng = np.random.default_rng(25)
        for a, f, act in witness_triples:
            for level in (0, 2):
                bim = duplication_nth_dual(duplicate(a, f, act), level)
                w = rng.standard_normal(a.dim + f.dim)
                q = DerivationQuadruple.split(a.dim, inner_derivation(bim, w), level)
                assert np.max(np.abs(q.d2_a)) < 1e-12
                d2_a = 1e-3 * rng.standard_normal(q.d2_a.shape)
                moved = DerivationQuadruple(q.d1_a, q.d1_f, d2_a, q.d2_f, level)
                assert is_inner_match(a, f, act, moved) is None, level

    def test_random_quadruple_not_inner(self, witness_triples):
        # ad spans at most dim X of the (dim X)^2 quadruple coordinates
        rng = np.random.default_rng(26)
        for a, f, act in witness_triples:
            dim = a.dim + f.dim
            for level in range(4):
                d = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                q = DerivationQuadruple.split(a.dim, d, level)
                assert is_inner_match(a, f, act, q) is None, level


class TestCyclic:
    def test_cyclic_space_is_antisymmetric_derivations(self, zero_pair):
        dup = duplicate(*zero_pair)
        space = cyclic_derivation_space(dup)
        assert space.dim == 1
        d = space.basis[:, 0].reshape(2, 2)
        assert np.max(np.abs(d + d.T)) < 1e-9

    def test_cyclic_blocks_characterization(self, zero_pair, lau_unital,
                                            module_extension, triangular):
        for a, f, act in (zero_pair, lau_unital, module_extension, triangular):
            dup = duplicate(a, f, act)
            space = cyclic_derivation_space(dup)
            assert cyclic_quadruple_space(a, f, act).dim == space.dim
            for col in range(space.dim):
                d = space.basis[:, col].reshape(dup.dim, dup.dim)
                q = DerivationQuadruple.split(a.dim, d, 1)
                defects = cyclic_quadruple_defects(a, f, act, q)
                assert max(defects.values()) < 1e-8

    def test_non_cyclic_derivation_violates(self, zero_pair):
        a, f, act = zero_pair
        q = DerivationQuadruple.split(1, np.eye(2), 1)
        defects = cyclic_quadruple_defects(a, f, act, q)
        assert defects["d1a_antisymmetric"] > 0.5


def loop_block_residual(ident, blocks):
    """Reference: an identity's max-abs residual one pair (x, y) at a time."""
    if isinstance(ident, TransposedSum):
        return float(np.max(np.abs(blocks[ident.slot] + blocks[ident.other].T),
                            initial=0.0))
    x_dim, y_dim, _ = ident.tensor.shape
    worst = 0.0
    for x in range(x_dim):
        for y in range(y_dim):
            resid = blocks[ident.slot] @ ident.tensor[x, y]
            for side, t, ops in ident.terms:
                if side == L:
                    resid = resid - ops[x] @ blocks[t][:, y]
                else:
                    resid = resid - ops[y] @ blocks[t][:, x]
            worst = max(worst, float(np.max(np.abs(resid), initial=0.0)))
    return worst


class TestBlockIdentities:
    def test_residuals_and_rows_come_from_one_statement(
            self, zero_pair, lau_unital, module_extension, triangular):
        # the nullspace of the rows, which the residuals also read,
        # satisfies every identity
        for a, f, act in (zero_pair, lau_unital, module_extension, triangular):
            layout = BlockLayout(a.dim, f.dim)
            for identities in identity_tables(a, f, act).values():
                _, null = rank_nullspace(block_system(identities, layout))
                for col in range(null.dim):
                    blocks = layout.blocks(null.basis[:, col])
                    assert max(block_residuals(identities, blocks).values()) <= 1e-10

    def test_residuals_match_loop_reference(
            self, zero_pair, lau_unital, module_extension, triangular):
        # the residual derived from the rows agrees with the per-pair loop
        # on random quadruples and on the block route's solutions, alone
        # and as one stack
        rng = np.random.default_rng(32)
        triples = [zero_pair, lau_unital, module_extension, triangular]
        triples += [random_triple(rng)[:3] for _ in range(40)]
        for a, f, act in triples:
            layout = BlockLayout(a.dim, f.dim)
            size = layout.offsets[-1]
            for name, identities in identity_tables(a, f, act).items():
                coords = [rng.standard_normal(size) + 1j * rng.standard_normal(size)]
                coords += list(block_nullspace(identities, layout).basis.T)
                stack = [np.stack(parts) for parts in
                         zip(*(layout.blocks(c) for c in coords))]
                stacked = block_residuals(identities, stack)
                for k, c in enumerate(coords):
                    blocks = layout.blocks(c)
                    residuals = block_residuals(identities, blocks)
                    for ident in identities:
                        expected = loop_block_residual(ident, blocks)
                        assert residuals[ident.name] == pytest.approx(
                            expected, rel=1e-10, abs=1e-12), (name, ident.name)
                        assert stacked[ident.name][k] == pytest.approx(
                            expected, rel=1e-10, abs=1e-12), (name, ident.name)


def identity_tables(a, f, act):
    """Every table the block route solves: levels 0-3, cyclic, multipliers."""
    tables = {f"level{n}": derivation_identities(a, f, act, n) for n in range(4)}
    tables["cyclic"] = derivation_identities(a, f, act, 1) + list(CYCLIC_IDENTITIES)
    tables["multipliers"] = multiplier_identities(a, f, act)
    return tables


def joint_reference(identities, layout, tol=DEFAULT_TOL):
    """One SVD of the whole block system, floored at its largest entry."""
    system = block_system(identities, layout)
    scale = max(1.0, float(np.max(np.abs(system))))
    return system, scale, rank_nullspace(system, tol, tol * scale)[1]


@pytest.fixture(scope="module")
def zero_core_draws():
    """Draws of random_triple at seed 11 with a zero-product A core.

    Some of their slot-local systems are pure round-off; without the
    shared absolute floor their own relative cut calls them full rank
    (draw 383, zero3 A with one_sided_unit2 F: Z1 1 instead of 11).
    """
    rng = np.random.default_rng(11)
    draws = [random_triple(rng) for _ in range(389)]
    return [draws[i] for i in (167, 182, 207, 275, 302, 309, 342, 383, 388)]


class TestStagedSolve:
    def test_zero_product_cores_keep_their_dimensions(self, zero_core_draws):
        for a, f, act, recipe in zero_core_draws:
            assert recipe.a_core in ("zero1", "zero2", "zero3")
            dup = duplicate(a, f, act)
            layout = BlockLayout(a.dim, f.dim)
            for n in (0, 2):
                direct = derivation_space(dup, nth_dual_bimodule(dup, n)).dim
                staged = derivation_quadruple_space(a, f, act, n)
                _, _, joint = joint_reference(derivation_identities(a, f, act, n),
                                              layout)
                assert staged.dim == direct == joint.dim, (recipe, n)
                assert subspace_equal(staged, joint, 1e-8), (recipe, n)

    def test_staged_equals_joint_reference(
            self, zero_pair, lau_unital, module_extension, triangular):
        # same subspace as one SVD of the joint system, and every staged
        # basis vector solves the whole joint system
        rng = np.random.default_rng(5)
        triples = [zero_pair, lau_unital, module_extension, triangular]
        triples += [random_triple(rng)[:3] for _ in range(40)]
        tol = DEFAULT_TOL
        for a, f, act in triples:
            layout = BlockLayout(a.dim, f.dim)
            for name, identities in identity_tables(a, f, act).items():
                staged = block_nullspace(identities, layout, tol)
                system, scale, joint = joint_reference(identities, layout, tol)
                assert staged.dim == joint.dim, name
                assert subspace_equal(staged, joint, 1e-8), name
                assert np.allclose(staged.basis.conj().T @ staged.basis,
                                   np.eye(staged.dim), atol=1e-12), name
                if staged.dim:
                    worst = np.max(np.abs(system @ staged.basis))
                    assert worst <= 10 * tol * scale, name

    def test_public_spaces_are_the_staged_solve(self, triangular):
        a, f, act = triangular
        layout = BlockLayout(a.dim, f.dim)
        tables = identity_tables(a, f, act)
        spaces = [derivation_quadruple_space(a, f, act, n) for n in range(4)]
        spaces += [cyclic_quadruple_space(a, f, act), quadruple_space(a, f, act)]
        for space, identities in zip(spaces, tables.values()):
            expected = block_nullspace(identities, layout)
            assert np.array_equal(space.basis, expected.basis)

    def test_slot_rows_are_block_system_columns(
            self, zero_pair, lau_unital, module_extension, triangular):
        # an identity's rows have columns in exactly its ``slots``, the
        # split both stages read, and the per-pair loop confirms that no
        # other slot enters the identity
        rng = np.random.default_rng(33)
        for a, f, act in (zero_pair, lau_unital, module_extension, triangular):
            layout = BlockLayout(a.dim, f.dim)
            size = layout.offsets[-1]
            for identities in identity_tables(a, f, act).values():
                for ident in identities:
                    assert set(ident.coefficients(layout)) == ident.slots
                    blocks = list(layout.blocks(rng.standard_normal(size)))
                    before = loop_block_residual(ident, blocks)
                    for slot in set(range(4)) - ident.slots:
                        blocks[slot] = rng.standard_normal(blocks[slot].shape)
                    assert loop_block_residual(ident, blocks) == before

    @pytest.mark.parametrize("n", [12, 16])
    def test_folded_stages_equal_joint_reference(self, n):
        # on ladder rungs whose identities are taller than one fold buffer,
        # the streamed stages give the subspace of one SVD of the joint
        # system
        alg, act, _ = ladder_duplication(n)
        layout = BlockLayout(alg.dim, alg.dim)
        tables = identity_tables(alg, alg, act)
        for name in ("level0", "level1", "cyclic", "multipliers"):
            identities = tables[name]
            assert any(i.row_count(layout) > _FOLD_ROWS_PER_COL * layout.size(s)
                       for i in identities for s in i.slots), name
            staged = block_nullspace(identities, layout)
            _, _, joint = joint_reference(identities, layout)
            assert staged.dim == joint.dim, name
            assert subspace_equal(staged, joint, 1e-8), name


def ladder_core(n):
    """C[x]/(x^k) for even k = n/2, C^k (pointwise) for odd k."""
    k = n // 2
    mult = np.zeros((k, k, k), dtype=complex)
    for i in range(k):
        if k % 2:
            mult[i, i, i] = 1.0
        else:
            for j in range(k - i):
                mult[i, j, i + j] = 1.0
    return mult


class TestLadder:
    # self-duplications under the natural action: Z1 = N - 2 when
    # k = N/2 is even (truncated polynomials), 0 when k is odd
    # (pointwise), and LM = N, on both routes
    @pytest.mark.parametrize("n", [8, 10, 16])
    def test_closed_forms_on_both_routes(self, n):
        alg, act, dup = ladder_duplication(n)
        z1 = n - 2 if (n // 2) % 2 == 0 else 0
        for level in (0, 1):
            bim = nth_dual_bimodule(dup, level)
            assert derivation_space(dup, bim).dim == z1
            assert derivation_quadruple_space(alg, alg, act, level).dim == z1
        assert left_multiplier_space(dup).dim == n
        assert quadruple_space(alg, alg, act).dim == n

    def test_direct_route_never_holds_the_dense_system(self):
        # at N = 20 the level-0 Leibniz system and the left multipliers'
        # one-sided one are both 8000 x 400 complex; the streamed solves
        # peak below that size
        _, _, dup = ladder_duplication(20)
        bim = nth_dual_bimodule(dup, 0)
        dense_bytes = 20 ** 3 * 20 ** 2 * 16
        for solve in (lambda: derivation_space(dup, bim),
                      lambda: left_multiplier_space(dup)):
            tracemalloc.start()
            try:
                solve()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < dense_bytes

    def test_block_route_never_holds_all_identities(self):
        # at N = 20 the streamed stages of block Z1 (level 0) and of the
        # block multiplier system peak below the bytes of all their
        # identities' rows, which a dense assembly holds at once
        alg, act, _ = ladder_duplication(20)
        layout = BlockLayout(alg.dim, alg.dim)
        for identities in (derivation_identities(alg, alg, act, 0),
                           multiplier_identities(alg, alg, act)):
            rows_bytes = sum(block.nbytes for ident in identities
                             for block in ident.coefficients(layout).values())
            tracemalloc.start()
            try:
                block_nullspace(identities, layout)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < rows_bytes


def ladder_duplication(n):
    """The natural self-duplication of ``ladder_core(n)`` in a unitary basis."""
    k = n // 2
    s = random_unitary(np.random.default_rng(n), k)
    mult = np.einsum("ai,bj,abk,mk->ijm", s, s, ladder_core(n), s.conj().T)
    alg = FinDimAlgebra.from_mult(mult)
    act = natural_action(alg)
    return alg, act, duplicate(alg, alg, act)


def kron_derivation_constraints(mult, bim):
    """Reference: the Leibniz rows of one basis pair at a time, by kron."""
    n, dx = mult.shape[0], bim.module_dim
    eye = np.eye(n)
    blocks = [np.zeros((0, dx * n))]
    for i in range(n):
        for j in range(n):
            block = np.kron(np.eye(dx), mult[i, j][None, :])
            block = block - np.kron(bim.right_ops[j], eye[i][None, :])
            block = block - np.kron(bim.left_ops[i], eye[j][None, :])
            blocks.append(block)
    return np.vstack(blocks)


def kron_commutant_constraints(ops):
    """Reference: the rows of ``T op - op T`` one operator at a time."""
    d = ops.shape[1]
    eye = np.eye(d)
    return np.vstack([np.zeros((0, d * d))]
                     + [np.kron(eye, op.T) - np.kron(op, eye) for op in ops])


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def loop_derivation_defect(mult, bim, d):
    """Reference: the Leibniz residual one basis pair at a time."""
    n = mult.shape[0]
    worst = 0.0
    for i in range(n):
        for j in range(n):
            resid = d @ mult[i, j] - bim.right_ops[j] @ d[:, i] \
                - bim.left_ops[i] @ d[:, j]
            worst = max(worst, float(np.max(np.abs(resid))) if resid.size else 0.0)
    return worst


def loop_antisymmetry_rows(n):
    """Reference: the rows of D[i, j] + D[j, i] = 0, one pair at a time."""
    rows = []
    for i in range(n):
        for j in range(i, n):
            r = np.zeros(n * n)
            r[i * n + j] += 1.0
            r[j * n + i] += 1.0
            rows.append(r)
    return np.vstack(rows)


class TestDirectSystems:
    def test_builders_match_kron_reference(
            self, zero_pair, lau_unital, module_extension, triangular):
        # the vectorised builder forms the same products in the same row
        # order and subtracts in the same order as the per-pair kron, so the
        # matrices agree bit for bit, signed zeros included, at every dual
        # level and for the one-sided modules of the multipliers
        rng = np.random.default_rng(7)
        triples = [zero_pair, lau_unital, module_extension, triangular]
        triples += [random_triple(rng)[:3] for _ in range(6)]
        for a, f, act in triples:
            for alg in (a, f, duplicate(a, f, act, validate=False)):
                modules = [nth_dual_bimodule(alg, n) for n in range(4)]
                for bim in modules + one_sided_modules(alg):
                    assert same_bits(np.vstack(list(_leibniz_blocks(alg.mult, bim))),
                                     kron_derivation_constraints(alg.mult, bim))

    def test_defect_is_the_constraint_residual(
            self, zero_pair, lau_unital, module_extension, triangular):
        # the residual of the Leibniz rows agrees with the per-pair loop
        # on random matrices and on derivations
        rng = np.random.default_rng(8)
        triples = [zero_pair, lau_unital, module_extension, triangular]
        triples += [random_triple(rng)[:3] for _ in range(6)]
        for a, f, act in triples:
            dup = duplicate(a, f, act, validate=False)
            for n in range(4):
                bim = nth_dual_bimodule(dup, n)
                z1 = derivation_space(dup, bim)
                candidates = [rng.standard_normal((dup.dim, dup.dim))]
                candidates += [z1.basis[:, col].reshape(dup.dim, dup.dim)
                               for col in range(z1.dim)]
                for d in candidates:
                    assert derivation_defect(dup.mult, bim, d) == pytest.approx(
                        loop_derivation_defect(dup.mult, bim, d),
                        rel=1e-12, abs=1e-14)

    def test_streamed_solves_match_dense(
            self, zero_pair, lau_unital, module_extension, triangular):
        # Z1 at levels 0-3, both commutants and cyclic Z1 of A, F and the
        # duplication, from the rows at the generators, against one SVD of
        # all rows stacked: the fixtures, 40 draws, a factor of dimension
        # 0, and 12 duplications, M2 and the N = 8 ladder moved by basis
        # changes of condition number 10, 10^2 and 10^3
        rng = np.random.default_rng(9)
        triples = [zero_pair, lau_unital, module_extension, triangular]
        triples += [random_triple(rng)[:3] for _ in range(40)]
        algebras = [alg for a, f, act in triples
                    for alg in (a, f, duplicate(a, f, act, validate=False))]
        bases = algebras[2:3 * 12:3] + [FinDimAlgebra.from_mult(matrix_algebra(2)),
                                         ladder_duplication(8)[2]]
        grid = [moved(base, conditioned(rng, base.dim, cond))
                for cond in (1e3, 1e1, 1e2) for base in bases]
        assert sum(len(alg.generators()) < alg.dim for alg in grid) >= 3 * 7
        empty = zero_algebra(0)
        dup = duplicate(empty, scalar_algebra(), BimoduleAction.zero(0, 1))
        assert [left_multiplier_space(alg).dim for alg in (empty, dup)] == [0, 1]
        for alg in algebras + grid + [empty, dup]:
            assert_direct_route_is_the_dense_solve(alg, range(4))
        assert cyclic_derivation_space(empty).dim == 0
        assert cyclic_derivation_space(dup).dim == 0

    def test_antisymmetry_rows_match_loop(self):
        for n in range(1, 9):
            assert same_bits(_antisymmetry_rows(n), loop_antisymmetry_rows(n))


def depth2_rank(alg):
    """Rank of G ∪ G·G for ``alg.generators()``, by numpy's own rank."""
    g = list(alg.generators())
    vectors = np.vstack([np.eye(alg.dim)[g],
                         alg.mult[np.ix_(g, g)].reshape(-1, alg.dim)])
    return np.linalg.matrix_rank(vectors) if vectors.size else 0


def commutant_ops(alg, side):
    op = alg.left_op if side == "left" else alg.right_op
    return np.array([op(e) for e in np.eye(alg.dim)]).reshape((alg.dim,) * 3)


def one_sided_modules(alg):
    """A over itself with the right action zero, then with the left zero:
    the modules whose derivations are the left and right multipliers."""
    bim = nth_dual_bimodule(alg, 0)
    zero = np.zeros_like(bim.left_ops)
    return [DualBimodule(0, bim.left_ops, zero), DualBimodule(0, zero, bim.right_ops)]


class TestGenerators:
    def test_depth_two_spans_the_algebra(
            self, zero_pair, lau_unital, module_extension, triangular):
        # every sampler core, natural and moved, sums of two cores, the
        # fixtures and their duplications, M2, M3 and ladder rungs 8-20
        rng = np.random.default_rng(31)
        cores = [FinDimAlgebra.from_mult(core.mult)
                 for core in COMMUTATIVE_CORES + NONCOMMUTATIVE_CORES]
        algebras = cores + [moved(alg, random_unitary(rng, alg.dim))
                            for alg in cores]
        algebras += [moved(direct_sum(x, y), random_unitary(rng, x.dim + y.dim))
                     for x in cores for y in cores]
        for a, f, act in (zero_pair, lau_unital, module_extension, triangular):
            algebras += [a, f, duplicate(a, f, act)]
        algebras += [FinDimAlgebra.from_mult(matrix_algebra(n)) for n in (2, 3)]
        ladders = [ladder_duplication(n)[2] for n in range(8, 21, 2)]
        for alg in algebras + ladders:
            g = alg.generators()
            assert g == tuple(sorted(set(g))) and set(g) <= set(range(alg.dim))
            assert depth2_rank(alg) == alg.dim
        assert all(len(alg.generators()) < alg.dim for alg in ladders)
        assert sum(len(alg.generators()) < alg.dim for alg in algebras) > 100

    def test_zero_product_takes_every_index(self):
        for core in COMMUTATIVE_CORES:
            if not core.mult.any():
                alg = FinDimAlgebra.from_mult(core.mult)
                assert alg.generators() == tuple(range(alg.dim))
        for n in (0, 5, 9):
            assert zero_algebra(n).generators() == tuple(range(n))

    def test_edge_decisions_are_left_to_every_row(self, lau_unital):
        # C + C (the Lau duplication) at condition 10^3 beside a zero
        # block: its generator rows alone put a singular value under the
        # cut that the full rows keep (at seeds 2, 4 and 6 of these), and
        # the edge fallback gives the full answer
        lau = duplicate(*lau_unital)
        for seed in range(8):
            s = conditioned(np.random.default_rng(seed), 2, 1e3)
            alg = direct_sum(moved(lau, s), zero_algebra(3))
            assert alg.generators() == (0, 2, 3, 4)
            assert_direct_route_is_the_dense_solve(alg, (0, 1))


def moved(alg, s):
    """``alg`` in the basis of the columns of the invertible ``s``."""
    return FinDimAlgebra.from_mult(np.einsum("ai,bj,abk,mk->ijm", s, s, alg.mult,
                                             np.linalg.inv(s)))


def assert_direct_route_is_the_dense_solve(alg, levels):
    """Z1 at ``levels``, cyclic Z1 and both LMs against one SVD of the
    dense per-pair Leibniz rows, or of the commutant rows T op = op T."""
    for n in levels:
        bim = nth_dual_bimodule(alg, n)
        assert_same_solve(kron_derivation_constraints(alg.mult, bim),
                          derivation_space(alg, bim))
    bim = nth_dual_bimodule(alg, 1)
    assert_same_solve(np.vstack([kron_derivation_constraints(alg.mult, bim),
                                 _antisymmetry_rows(alg.dim)]),
                      cyclic_derivation_space(alg))
    for side in ("left", "right"):
        ops = commutant_ops(alg, side)
        assert_same_solve(kron_commutant_constraints(ops), multiplier_space(alg, side),
                          atol=DEFAULT_TOL * float(np.max(np.abs(ops), initial=0.0)))


def x_only_witness(a, f, act, t_block, n, tol=DEFAULT_TOL):
    """Reference: least-norm x with ad_A x = 0, ad_F x = 0 and mix x = T."""
    b = duplication_dual_blocks(a, f, act, n)
    rows = np.vstack([np.concatenate(b.a_left - b.a_right),
                      np.concatenate(b.mix_left - b.mix_right),
                      np.concatenate(b.act_left - b.act_right)])
    rhs = np.concatenate([np.zeros(a.dim * a.dim), t_block.T.reshape(-1),
                          np.zeros(f.dim * a.dim)])
    return solve_affine(rows, rhs, tol)


class TestCorollaryDT:
    def test_witness_is_x_only_least_norm(self, witness_triples):
        # T = mix(x) for x killed by both ad-actions is inner; the witness
        # is the x-only least-norm solve, and T = 0 gives witness 0
        rng = np.random.default_rng(27)
        inner_seen = 0
        for a, f, act in witness_triples:
            for n in (1, 3):
                b = duplication_dual_blocks(a, f, act, n)
                _, kernel = rank_nullspace(np.vstack([
                    np.concatenate(b.a_left - b.a_right),
                    np.concatenate(b.act_left - b.act_right)]))
                blocks = [np.zeros((f.dim, a.dim))]
                if kernel.dim:
                    x = kernel.basis @ rng.standard_normal(kernel.dim)
                    blocks.append(np.einsum("ikm,m->ki",
                                            b.mix_left - b.mix_right, x))
                for t_block in blocks:
                    report = corollary_dt_check(duplicate(a, f, act), t_block, n)
                    expected = x_only_witness(a, f, act, t_block, n)
                    assert report.is_derivation
                    assert expected is not None
                    assert report.inner_witness is not None
                    assert np.allclose(report.inner_witness, expected,
                                       rtol=1e-9, atol=1e-10)
                    inner_seen += bool(np.any(t_block))
        assert inner_seen > 0

    def test_zero_map_inner_with_zero_witness(self, lau_unital):
        a, f, act = lau_unital
        report = corollary_dt_check(duplicate(a, f, act), np.zeros((1, 1)), 1)
        assert report.is_derivation
        assert report.inner_witness is not None
        assert np.max(np.abs(report.inner_witness)) < 1e-9

    def test_zero_pair_nonzero_map_not_inner(self, zero_pair):
        a, f, act = zero_pair
        report = corollary_dt_check(duplicate(a, f, act), np.array([[1.0]]), 1)
        assert report.is_derivation
        assert report.inner_witness is None

    def test_module_extension_map(self, module_extension):
        a, f, act = module_extension
        report = corollary_dt_check(duplicate(a, f, act), np.array([[2.0]]), 1)
        assert report.is_derivation

    def test_hypothesis_enforced(self, lau_unital):
        a, f, act = lau_unital
        with pytest.raises(HypothesisNotMet):
            # products span A, so no nonzero map vanishes on them
            corollary_dt_check(duplicate(a, f, act), np.array([[1.0]]), 1)


class TestModuleDerivations:
    def test_zero_action_reduces_to_plain(self, zero_pair):
        a, f, act = zero_pair
        plain = derivation_space(a, nth_dual_bimodule(a, 0)).dim
        assert module_derivation_space(a, f, act, 0).dim == plain == 1

    def test_lau_scalar_rigid(self, lau_unital):
        a, f, act = lau_unital
        assert module_derivation_space(a, f, act, 0).dim == 0


class TestUnitalForm:
    def test_lau_passes_odd_and_even(self, lau_unital):
        a, f, act = lau_unital
        assert unital_form_check(duplicate(a, f, act), 1).passed
        assert unital_form_check(duplicate(a, f, act), 0).passed
        assert unital_form_check(duplicate(a, f, act), 2).passed

    def test_requires_unit(self, zero_pair):
        a, f, act = zero_pair
        with pytest.raises(UnitRequired):
            unital_form_check(duplicate(a, f, act), 1)

    def test_unit_decided_at_the_callers_tol(self):
        # A has a unit at 1e-5 and none at the default tol; F's zero
        # product gives the duplication one derivation per level to check
        a, f = near_unital_algebra(), zero_algebra(1)
        dup = duplicate(a, f, BimoduleAction.zero(2, 1), 1e-5)
        for n in (0, 1):
            report = unital_form_check(dup, n, 1e-5)
            assert report.checked == 1 and report.passed
            with pytest.raises(UnitRequired):
                unital_form_check(dup, n)


class TestPropertyH:
    # levels 1 and 3 (n = 0 and 1) agree: the dual tower has period 2

    def test_unital_first_factor(self, lau_unital):
        a, f, act = lau_unital
        assert property_h(a, f, act, 0)
        assert property_h(a, f, act, 1)

    def test_natural_self_action(self):
        alg = pointwise_algebra(2)
        assert property_h(alg, alg, natural_action(alg), 0)
        assert property_h(alg, alg, natural_action(alg), 1)

    def test_scalar_action_zero_product_fails(self, module_extension):
        # A = C with the zero product, F acting through the identity
        # character.  The product condition forces, for every extending
        # quadruple, 0 = D2A(x x) = 2 <D1A(x), x> theta, so only cyclic
        # derivations of A extend; D1A = id is not cyclic, hence False.
        a, f, act = module_extension
        assert not property_h(a, f, act, 0)
        assert not property_h(a, f, act, 1)

    def test_zero_pair(self, zero_pair):
        # with both products and the action zero the extension system is
        # homogeneous, so every derivation extends
        a, f, act = zero_pair
        assert property_h(a, f, act, 0)
        assert property_h(a, f, act, 1)

    def test_matches_extension_reference(
            self, zero_pair, lau_unital, module_extension, triangular):
        # the rank of the quadruple space's D1A rows against one extension
        # solve per Z1 basis column, on the fixtures and 64 draws
        rng = np.random.default_rng(17)
        triples = [zero_pair, lau_unital, module_extension, triangular]
        triples += [random_triple(rng)[:3] for _ in range(44)]
        triples += [random_triple(rng, unital_a=True)[:3] for _ in range(20)]
        verdicts = []
        for a, f, act in triples:
            for n in (0, 1):
                verdicts.append(property_h(a, f, act, n))
                assert verdicts[-1] == extension_reference(a, f, act, n), n
        assert 0 < sum(verdicts) < len(verdicts)


class TestAmenability:
    def test_zero_pair_table(self, zero_pair):
        a, f, act = zero_pair
        assert cyclic_amenability(a)
        assert cyclic_amenability(f)
        assert not cyclic_amenability(duplicate(a, f, act))
        assert span_products(a, "squares").dim < a.dim  # zero product

    def test_lau_all_one_weakly_amenable(self, lau_unital):
        a, f, act = lau_unital
        dup = duplicate(a, f, act)
        assert weak_amenability(a, 1) and weak_amenability(f, 1)
        assert weak_amenability(dup, 1)

    def test_unital_iff_small_levels(self, lau_unital):
        a, f, act = lau_unital
        dup = duplicate(a, f, act)
        for n in (0, 1, 2):
            both = weak_amenability(a, n) and weak_amenability(f, n)
            assert weak_amenability(dup, n) == both

    def test_cyclic_amenability_values(self, zero_pair):
        a, f, act = zero_pair
        assert cyclic_amenability(a) and cyclic_amenability(f)
        assert not cyclic_amenability(duplicate(a, f, act))
