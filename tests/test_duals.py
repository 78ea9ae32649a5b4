import numpy as np
import pytest

from amaldup.algebra import duplicate
from amaldup.duals import (arens_action_extensions, arens_products,
                           assemble_duplication_dual, duplication_dual_blocks,
                           duplication_nth_dual, essentiality, first_adjoint,
                           nth_dual_bimodule, second_adjoint,
                           second_dual_duplication_defect, topological_centres)

from amaldup.sampling import random_triple

from conftest import scalar_algebra


class TestAdjoints:
    def test_three_applications_are_identity(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        for adj in (first_adjoint, second_adjoint):
            assert np.array_equal(adj(adj(adj(t))), t)

    def test_first_adjoint_pairing_identity(self):
        # <m*(z', x), y> = <z', m(x, y)> on random data
        rng = np.random.default_rng(1)
        m = rng.standard_normal((2, 3, 4))
        x, y, zp = rng.standard_normal(2), rng.standard_normal(3), rng.standard_normal(4)
        lhs = np.einsum("c,a,cab,b->", zp, x, first_adjoint(m), y)
        rhs = np.einsum("c,a,b,abc->", zp, x, y, m)
        assert lhs == pytest.approx(rhs)

    def test_second_adjoint_pairing_identity(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((2, 3, 4))
        x, y, zp = rng.standard_normal(2), rng.standard_normal(3), rng.standard_normal(4)
        lhs = np.einsum("b,c,bca,a->", y, zp, second_adjoint(m), x)
        rhs = np.einsum("c,a,b,abc->", zp, x, y, m)
        assert lhs == pytest.approx(rhs)


def climbed(left, right, n):
    """A (left, right) family pair after n steps of L' = R^T, R' = L^T."""
    for _ in range(n):
        left, right = np.transpose(right, (0, 2, 1)), np.transpose(left, (0, 2, 1))
    return left, right


class TestDualTower:
    def test_level0_matches_multiplication(self, lau_unital):
        dup = duplicate(*lau_unital)
        bim = nth_dual_bimodule(dup, 0)
        x = np.array([1.0, 2.0])
        y = np.array([3.0, 4.0])
        assert np.allclose(np.einsum("i,ikj,j->k", x, bim.left_ops, y),
                           dup.multiply(x, y))

    def test_double_transpose_returns(self, triangular):
        # levels 0-5 against the recursion climbed one level at a time:
        # bit-equal to it and to level n mod 2, and labelled n
        a, f, act, _ = random_triple(np.random.default_rng(3))
        for triple in (triangular, (a, f, act)):
            dup = duplicate(*triple)
            bim0 = nth_dual_bimodule(dup, 0)
            blocks0 = duplication_dual_blocks(*triple, 0)
            for n in range(6):
                bim = nth_dual_bimodule(dup, n)
                blocks = duplication_dual_blocks(*triple, n)
                assert bim.level == blocks.level == n
                families = [(bim, nth_dual_bimodule(dup, n % 2), bim0,
                             "left_ops", "right_ops")]
                families += [(blocks, duplication_dual_blocks(*triple, n % 2),
                              blocks0, f"{fam}_left", f"{fam}_right")
                             for fam in ("a", "f", "act", "mix")]
                for got, parity, level0, left, right in families:
                    want = climbed(getattr(level0, left), getattr(level0, right), n)
                    for name, expected in zip((left, right), want):
                        assert np.array_equal(getattr(got, name), expected)
                        assert np.array_equal(getattr(parity, name), expected)

    def test_block_formulas_match_recursion(self, lau_unital, module_extension,
                                            triangular):
        for triple in (lau_unital, module_extension, triangular):
            for n in range(4):
                duplication_nth_dual(duplicate(*triple), n)  # raises on mismatch

    def test_odd_level_blocks_lower_triangular(self, triangular):
        a, f, act = triangular
        bim = duplication_nth_dual(duplicate(a, f, act), 1)
        da = a.dim
        # A-indexed left operators must not leak F-dual into A-dual at odd level
        assert np.max(np.abs(bim.left_ops[:da, :da, da:])) == 0.0

    def test_assemble_matches_level0_product(self, module_extension):
        a, f, act = module_extension
        blocks = duplication_dual_blocks(a, f, act, 0)
        bim = assemble_duplication_dual(blocks)
        dup = duplicate(a, f, act)
        assert np.allclose(bim.left_ops, nth_dual_bimodule(dup, 0).left_ops)


class TestArens:
    def test_dim1_trivial(self):
        st = arens_products(scalar_algebra())
        assert np.array_equal(st.first, st.second)

    def test_fixture_duplications(self, lau_unital, zero_pair, triangular):
        for triple in (lau_unital, zero_pair, triangular):
            dup = duplicate(*triple)
            st = arens_products(dup)
            assert np.max(np.abs(st.first - dup.mult)) <= 1e-10
            assert np.max(np.abs(st.second - dup.mult)) <= 1e-10

    def test_action_extensions_collapse(self, lau_unital):
        a, f, act = lau_unital
        ext = arens_action_extensions(duplicate(a, f, act))
        assert np.array_equal(ext.bullet.left, act.left)
        assert np.array_equal(ext.blacktriangle.right, act.right)

    def test_second_dual_duplication_identity(self, lau_unital, module_extension,
                                              triangular):
        for triple in (lau_unital, module_extension, triangular):
            assert second_dual_duplication_defect(duplicate(*triple)) <= 1e-10


class TestCentres:
    def test_all_full(self, lau_unital):
        cents = topological_centres(duplicate(*lau_unital))
        assert cents["Zt_dup"].dim == 2
        assert cents["Zt_A"].dim == 1
        assert cents["Z_F_on_A"].dim == 1

    def test_triangular_full(self, triangular):
        cents = topological_centres(duplicate(*triangular))
        assert cents["Zt_dup"].dim == 3

    def test_zero_pair_full(self, zero_pair):
        cents = topological_centres(duplicate(*zero_pair))
        assert all(s.dim == s.ambient_dim for s in cents.values())


ESSENTIALITY_MODES = ("algebra_left", "algebra_right")


class TestEssentiality:
    def test_unital_always_essential(self, lau_unital):
        a = lau_unital[0]
        for n in (0, 1, 2):
            for mode in ESSENTIALITY_MODES:
                assert essentiality(a, n, mode)

    def test_zero_product_not_essential(self, zero_pair, module_extension,
                                        triangular):
        # each first factor has the zero product (triangular: the corner M)
        for a, _, _ in (zero_pair, module_extension, triangular):
            for n in (0, 1, 2):
                for mode in ESSENTIALITY_MODES:
                    assert not essentiality(a, n, mode)

    @pytest.mark.parametrize("mode", ["action_left", "action_right", "left"])
    def test_unknown_mode_raises(self, lau_unital, mode):
        with pytest.raises(ValueError, match="unknown mode"):
            essentiality(lau_unital[0], 0, mode)
