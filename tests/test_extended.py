"""Beyond the desk-scale corpus: nested duplications and larger factors."""

import numpy as np

from amaldup.algebra import canonical_construction, duplicate, lau_action
from amaldup.derivations import cohomology, derivation_quadruple_space
from amaldup.duals import duplication_nth_dual
from amaldup.ideals import is_maximal_left_ideal
from amaldup.linalg import Subspace, subspace_intersect
from amaldup.multipliers import left_multiplier_space, quadruple_space
from amaldup.spectrum import characters, duplication_spectrum

from conftest import pointwise_algebra, scalar_algebra


def upper_triangular_3() -> tuple:
    """The 3x3 upper-triangular algebra as a nested duplication.

    Corner decomposition [[C, M], [0, T2]] with M the row space C^2 and
    T2 itself the duplication of the 2x2 triangular fixture; the result
    has basis (E12, E13; E11, E23, E22, E33).
    """
    corner_a = scalar_algebra("d1")
    inner = canonical_construction(
        "triangular", corner_a=scalar_algebra("p"), corner_b=scalar_algebra("q"),
        m_left=np.ones((1, 1, 1)), m_right=np.ones((1, 1, 1)))
    corner_b = duplicate(*inner)  # basis (E23, E22, E33)
    m_left = np.zeros((1, 2, 2))
    m_left[0] = np.eye(2)
    m_right = np.zeros((2, 3, 2))
    m_right[0, 0, 1] = 1.0  # E12 . E23 = E13
    m_right[0, 1, 0] = 1.0  # E12 . E22 = E12
    m_right[1, 2, 1] = 1.0  # E13 . E33 = E13
    return canonical_construction("triangular", corner_a=corner_a,
                                  corner_b=corner_b, m_left=m_left,
                                  m_right=m_right)


def matrix_images():
    def unit(i, j):
        m = np.zeros((3, 3))
        m[i - 1, j - 1] = 1.0
        return m
    # duplication basis order: (M; corner_a, corner_b)
    return [unit(1, 2), unit(1, 3), unit(1, 1), unit(2, 3), unit(2, 2),
            unit(3, 3)]


class TestNestedTriangular:
    def test_matches_matrix_multiplication(self):
        dup = duplicate(*upper_triangular_3())
        assert dup.dim == 6
        basis = matrix_images()
        rng = np.random.default_rng(3)
        to_matrix = lambda v: sum(v[i] * basis[i] for i in range(6))
        for _ in range(25):
            x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            assert np.allclose(to_matrix(dup.multiply(x, y)),
                               to_matrix(x) @ to_matrix(y), atol=1e-12)

    def test_unit_is_identity_matrix(self):
        dup = duplicate(*upper_triangular_3())
        assert dup.unit() is not None
        ident = sum(dup.unit()[i] * matrix_images()[i] for i in range(6))
        assert np.allclose(ident, np.eye(3), atol=1e-9)

    def test_three_characters_all_from_second_factor(self):
        a, f, act = upper_triangular_3()
        e_list, f_list, sigma = duplication_spectrum(duplicate(a, f, act))
        assert len(e_list) == 0  # the module factor has the zero product
        assert len(f_list) == 3 and len(sigma) == 3

    def test_all_derivations_inner(self):
        dup = duplicate(*upper_triangular_3())
        rep = cohomology(dup, 0)
        # derivations of an upper-triangular matrix algebra are inner, and
        # ad has the one-dimensional centre (the identity) as kernel
        assert rep.dim_z1 == rep.dim_b1 == 5
        assert rep.dim_h1 == 0

    def test_block_dims_match_at_dim_six(self):
        a, f, act = upper_triangular_3()
        dup = duplicate(a, f, act)
        assert left_multiplier_space(dup).dim == quadruple_space(a, f, act).dim
        for n in (0, 1):
            direct = cohomology(dup, n).dim_z1
            assert derivation_quadruple_space(a, f, act, n).dim == direct
        duplication_nth_dual(dup, 3)  # block tower consistent

    def test_maximal_ideals_codim_one_diagonals(self):
        dup = duplicate(*upper_triangular_3())
        # strict upper triangle plus two of the three diagonal units
        span = Subspace.from_spanning(
            [np.eye(6)[i] for i in (0, 1, 3, 4, 5)], 6)
        assert is_maximal_left_ideal(dup, span)


class TestLargerPointwise:
    def test_seven_characters(self):
        a = pointwise_algebra(4)
        f = pointwise_algebra(3)
        theta = characters(f)[0]
        act = lau_action(a, f, theta.phi)
        e_list, f_list, sigma = duplication_spectrum(duplicate(a, f, act))
        assert len(e_list) == 4 and len(f_list) == 3 and len(sigma) == 7

    def test_semisimple_rigid(self):
        alg = pointwise_algebra(5)
        assert cohomology(alg, 1).dim_h1 == 0
        assert len(characters(alg)) == 5

    def test_intersections_scale(self):
        a = pointwise_algebra(4)
        bim_z1 = cohomology(a, 2)
        assert bim_z1.dim_h1 == 0
        s1 = Subspace.from_spanning(np.eye(16)[:, :9], 16)
        s2 = Subspace.from_spanning(np.eye(16)[:, 7:], 16)
        assert subspace_intersect(s1, s2).dim == 2
