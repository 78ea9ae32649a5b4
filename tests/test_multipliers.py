import numpy as np
import pytest

from amaldup.algebra import FinDimAlgebra, duplicate, natural_action
from amaldup.duals import BlockLayout
from amaldup.errors import DecompositionDefect
from amaldup.multipliers import (MultiplierQuadruple, corollary_form_check,
                                 decompose_multiplier, left_multiplier_space,
                                 multiplier_space, quadruple_space)
from amaldup.sampling import _left_scalar, _transform_core, random_unitary

from conftest import scalar_algebra, zero_algebra


class TestMultiplierSpace:
    def test_zero_product_dim1_all_operators(self):
        assert left_multiplier_space(zero_algebra(1)).dim == 1

    def test_unital_scalar_only_scalars(self):
        assert left_multiplier_space(scalar_algebra()).dim == 1

    def test_zero_pair_duplication_everything(self, zero_pair):
        dup = duplicate(*zero_pair)
        assert left_multiplier_space(dup).dim == 4

    def test_multiplications_are_multipliers(self, triangular):
        # T(cx) = c T(x) holds for right multiplications by associativity,
        # and T(xc) = T(x) c for left ones
        dup = duplicate(*triangular)
        left_space = left_multiplier_space(dup)
        right_space = multiplier_space(dup, "right")
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert left_space.contains_vector(dup.right_op(x).reshape(-1), 1e-8)
            assert right_space.contains_vector(dup.left_op(x).reshape(-1), 1e-8)

    def test_commutative_multiplications_both_sides(self, lau_unital):
        dup = duplicate(*lau_unital)
        space = left_multiplier_space(dup)
        rng = np.random.default_rng(12)
        x = rng.standard_normal(2)
        assert space.contains_vector(dup.left_op(x).reshape(-1), 1e-8)


    def test_left_scalar_every_operator(self):
        # every left multiplication is a scalar, so every operator commutes
        # with all of them; the multiplier rows are pure round-off
        core = _left_scalar(np.array([1.0, -0.5, 0.25]))
        moved = _transform_core(core, random_unitary(np.random.default_rng(8), 3))
        assert left_multiplier_space(FinDimAlgebra.from_mult(moved.mult)).dim == 9


class TestDecompose:
    def test_identity_splits_into_identities(self, lau_unital):
        q = decompose_multiplier(*lau_unital, np.eye(2))
        assert np.allclose(q.t1_a, [[1.0]]) and np.allclose(q.t2_f, [[1.0]])
        assert np.allclose(q.t1_f, 0.0) and np.allclose(q.t2_a, 0.0)

    def test_right_multiplication_blocks_verified(self, lau_unital, triangular):
        for triple in (lau_unital, triangular):
            dup = duplicate(*triple)
            rng = np.random.default_rng(13)
            x = rng.standard_normal(dup.dim) + 1j * rng.standard_normal(dup.dim)
            q = decompose_multiplier(*triple, dup.right_op(x))
            assert np.allclose(q.assemble(), dup.right_op(x))

    def test_zero_pair_everything_passes(self, zero_pair):
        rng = np.random.default_rng(14)
        t_op = rng.standard_normal((2, 2))
        q = decompose_multiplier(*zero_pair, t_op)  # all conditions vacuous
        assert np.allclose(q.assemble(), t_op)

    def test_violation_detected(self, lau_unital):
        # the flip (a, b) -> (b, a) is not a left multiplier of the Lau fixture
        with pytest.raises(DecompositionDefect):
            decompose_multiplier(*lau_unital, np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestQuadrupleDimension:
    def test_matches_direct_on_fixtures(self, zero_pair, lau_unital,
                                        module_extension, triangular):
        for triple in (zero_pair, lau_unital, module_extension, triangular):
            dup = duplicate(*triple)
            direct = left_multiplier_space(dup).dim
            blockwise = quadruple_space(*triple).dim
            assert direct == blockwise

    def test_quadruple_coords_roundtrip(self, triangular):
        a, f, act = triangular
        space = quadruple_space(a, f, act)
        layout = BlockLayout(a.dim, f.dim)
        for col in range(space.dim):
            q = MultiplierQuadruple(*layout.blocks(space.basis[:, col]))
            t_op = q.assemble()
            # assembled operator must be a genuine left multiplier
            dup = duplicate(a, f, act)
            lm = left_multiplier_space(dup)
            assert lm.contains_vector(t_op.reshape(-1), 1e-8)


class TestCorollary:
    def test_lau_hypothesis_and_conclusion(self, lau_unital):
        report = corollary_form_check(duplicate(*lau_unital))
        assert report.hypothesis_held and report.conclusion_verified

    def test_zero_pair_hypothesis_fails(self, zero_pair):
        report = corollary_form_check(duplicate(*zero_pair))
        assert not report.hypothesis_held
        assert report.conclusion_verified is None

    def test_module_extension_identity_action(self, module_extension):
        report = corollary_form_check(duplicate(*module_extension))
        assert report.hypothesis_held and report.conclusion_verified

    def test_left_scalar_bundle(self):
        core = _left_scalar(np.array([1.0, 0.5]))
        moved = _transform_core(core, random_unitary(np.random.default_rng(9), 2))
        a = FinDimAlgebra.from_mult(moved.mult)
        rep = corollary_form_check(duplicate(a, a, natural_action(a)))
        assert rep.hypothesis_held and rep.conclusion_verified
