import numpy as np
import pytest

from amaldup.algebra import (BimoduleAction, FinDimAlgebra, direct_sum,
                             duplicate, lau_action, left_family,
                             natural_action, right_family, span_products,
                             validate_action, validate_algebra)
from amaldup.errors import IncompatibleAction, MissingAction, NotACharacter
from amaldup.sampling import random_triple

from conftest import pointwise_algebra, scalar_algebra, zero_algebra


class TestValidateAlgebra:
    def test_idempotent_scalar(self):
        report = validate_algebra(scalar_algebra())
        assert report.passed
        assert report.associativity_defect == 0.0
        assert report.unit_defect <= 1e-12  # unit recovered by a linear solve

    def test_zero_product(self):
        assert validate_algebra(zero_algebra()).passed

    def test_nonassociative_rejected(self):
        # e1 e1 = e2 and e2 e1 = e1: then (e1 e1) e1 = e1 but e1 (e1 e1) = e1 e2 = 0
        c = np.zeros((2, 2, 2))
        c[0, 0, 1] = 1.0
        c[1, 0, 0] = 1.0
        report = validate_algebra(FinDimAlgebra.from_mult(c))
        assert report.associativity_defect > 0.5
        assert not report.passed

    def test_unit_detection(self):
        alg = pointwise_algebra(2)
        assert alg.unit() is not None
        assert np.allclose(alg.unit(), [1.0, 1.0])
        assert zero_algebra(2).unit() is None

    def test_growth_constant_reported_not_enforced(self):
        c = np.zeros((1, 1, 1))
        c[0, 0, 0] = 7.0
        report = validate_algebra(FinDimAlgebra.from_mult(c))
        assert report.submultiplicativity_constant == 7.0
        assert report.passed  # reported only


class TestOperatorFamilies:
    def test_families_are_the_basis_operators(self, triangular):
        # the one operator convention: left_family / right_family of the
        # product and action tensors are the left_op / right_op matrices of
        # the basis vectors, entry for entry
        rng = np.random.default_rng(5)
        triples = [triangular] + [random_triple(rng)[:3] for _ in range(10)]
        for a, f, act in triples:
            for alg in (a, f):
                for i, e in enumerate(np.eye(alg.dim)):
                    assert np.array_equal(left_family(alg.mult)[i], alg.left_op(e))
                    assert np.array_equal(right_family(alg.mult)[i], alg.right_op(e))
            for p, beta in enumerate(np.eye(f.dim)):
                assert np.array_equal(left_family(act.left)[p], act.left_op(beta))
                assert np.array_equal(right_family(act.right)[p], act.right_op(beta))


class TestValidateAction:
    def test_zero_action_passes_symmetric(self, zero_pair):
        a, f, act = zero_pair
        report = validate_action(a, f, act)
        assert report.passed and report.symmetric

    def test_lau_action_passes(self, lau_unital):
        a, f, act = lau_unital
        report = validate_action(a, f, act)
        assert report.passed and report.symmetric
        assert report.max_defect == 0.0

    def test_one_sided_action_fails_middle_identity(self, lau_unital):
        a, f, _ = lau_unital
        left = np.ones((1, 1, 1))
        act = BimoduleAction(left, np.zeros((1, 1, 1)))
        report = validate_action(a, f, act)
        assert not report.passed
        assert report.defects["middle_compatible"] > 0.5
        ok = {k: v for k, v in report.defects.items() if k != "middle_compatible"}
        assert all(v == 0.0 for v in ok.values())

    def test_theta_must_be_character(self):
        a, f = scalar_algebra(), scalar_algebra()
        with pytest.raises(NotACharacter):
            lau_action(a, f, np.array([2.0]))  # theta(f)^2 != theta(f^2)


class TestDuplicate:
    def test_lau_product_formula(self, lau_unital):
        dup = duplicate(*lau_unital)
        # (1,2)(3,4) = (1*3 + 1*4 + 2*3, 2*4) = (13, 8)
        assert np.allclose(dup.multiply([1.0, 2.0], [3.0, 4.0]), [13.0, 8.0])

    def test_zero_pair_is_zero_algebra(self, zero_pair):
        dup = duplicate(*zero_pair)
        assert dup.dim == 2
        assert np.max(np.abs(dup.mult)) == 0.0

    def test_labels_prefixed(self, lau_unital):
        dup = duplicate(*lau_unital)
        assert dup.labels == ("A:e", "F:f")

    def test_unit_recorded_when_f_unit_acts_as_identity(self, lau_unital):
        dup = duplicate(*lau_unital)
        assert dup.unit() is not None
        assert np.allclose(dup.unit(), [0.0, 1.0], atol=1e-9)

    def test_module_extension_product(self, module_extension):
        dup = duplicate(*module_extension)
        # (a, b)(x, y) = (a y + b x, b y): zero product on the first factor
        assert np.allclose(dup.multiply([2.0, 3.0], [5.0, 7.0]),
                           [2.0 * 7.0 + 3.0 * 5.0, 21.0])

    def test_incompatible_action_rejected(self, lau_unital):
        a, f, _ = lau_unital
        bad = BimoduleAction(np.ones((1, 1, 1)), np.zeros((1, 1, 1)))
        with pytest.raises(IncompatibleAction):
            duplicate(a, f, bad)

    def test_triangular_matches_matrix_multiplication(self, triangular):
        dup = duplicate(*triangular)
        assert dup.dim == 3
        # basis order (E12; E11, E22) inside 2x2 matrices
        e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        e22 = np.array([[0.0, 0.0], [0.0, 1.0]])
        basis = [e12, e11, e22]

        def to_matrix(v):
            return sum(v[i] * basis[i] for i in range(3))

        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            expected = to_matrix(x) @ to_matrix(y)
            assert np.allclose(to_matrix(dup.multiply(x, y)), expected, atol=1e-12)

    def test_quotient_by_first_factor_recovers_second(self, lau_unital):
        a, f, act = lau_unital
        dup = duplicate(a, f, act)
        # coordinates of F inside the duplication: the quotient tensor by the
        # A-block is the F-block of the duplication tensor
        da = a.dim
        assert np.allclose(dup.mult[da:, da:, da:], f.mult)
        assert np.max(np.abs(dup.mult[da:, da:, :da])) == 0.0


class TestSpans:
    def test_unital_squares_full(self, lau_unital):
        a, _, _ = lau_unital
        assert span_products(a, "squares").dim == 1

    def test_zero_product_squares_empty(self):
        assert span_products(zero_algebra(2), "squares").dim == 0

    def test_action_span_needs_action(self):
        with pytest.raises(MissingAction):
            span_products(zero_algebra(1), "left_action")

    def test_triangular_left_action_spans_module(self, triangular):
        a, _, act = triangular
        assert span_products(a, "left_action", act).dim == 1


class TestCommutativityCriterion:
    def test_symmetric_commutative_gives_commutative_duplication(self, lau_unital):
        dup = duplicate(*lau_unital)
        assert dup.is_commutative()

    def test_asymmetric_action_breaks_commutativity(self, triangular):
        a, f, act = triangular
        assert not act.is_symmetric()
        assert not duplicate(a, f, act).is_commutative()

    def test_criterion_both_directions(self):
        # commutative factors + symmetric action <=> commutative duplication
        f = pointwise_algebra(2)
        a = zero_algebra(2)
        sym = BimoduleAction(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))
        dup = duplicate(a, f, sym)
        assert (a.is_commutative() and f.is_commutative() and sym.is_symmetric()) \
            == dup.is_commutative()

        asym_left = np.zeros((2, 2, 2))
        asym_left[0, 0, 0] = 1.0
        asym = BimoduleAction(asym_left, np.zeros((2, 2, 2)))
        assert validate_action(a, f, asym).passed  # zero product keeps it compatible
        assert not duplicate(a, f, asym).is_commutative()


class TestConstructions:
    def test_natural_action_validates(self):
        alg = pointwise_algebra(2)
        report = validate_action(alg, alg, natural_action(alg))
        assert report.passed

    def test_direct_sum_unit(self):
        s = direct_sum(scalar_algebra("p"), scalar_algebra("q"))
        assert s.unit() is not None
        assert np.allclose(s.unit(), [1.0, 1.0])
