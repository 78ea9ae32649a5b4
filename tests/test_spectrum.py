import numpy as np
import pytest

from amaldup.algebra import (BimoduleAction, FinDimAlgebra, duplicate,
                             natural_action, span_products)
from amaldup.errors import CommutativityRequired, NotACharacter
from amaldup.sampling import (COMMUTATIVE_CORES, NONCOMMUTATIVE_CORES, Core,
                              _transform_core, random_unitary)
from amaldup.spectrum import (characters, characters_match,
                              duplication_spectrum, gelfand_semisimple,
                              multiplicativity_defect, tilde)

from conftest import (conditioned, group_algebra, matrix_algebra,
                      pointwise_algebra, scalar_algebra, zero_algebra)


def local_algebra_dim3():
    """Unital with a 2-dim square-zero radical: basis (1, x, y)."""
    c = np.zeros((3, 3, 3))
    c[0, 0, 0] = 1.0
    c[0, 1, 1] = c[1, 0, 1] = 1.0
    c[0, 2, 2] = c[2, 0, 2] = 1.0
    return FinDimAlgebra.from_mult(c, ("one", "x", "y"))


def left_scalar_algebra(mu):
    """e_i e_j = mu_i e_j: left multiplication acts by scalars everywhere."""
    mu = np.asarray(mu, dtype=complex)
    d = mu.size
    c = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            c[i, j, j] = mu[i]
    return FinDimAlgebra.from_mult(c)


def block_sum(c1, c2):
    n, m = c1.shape[0], c2.shape[0]
    c = np.zeros((n + m,) * 3)
    c[:n, :n, :n] = c1
    c[n:, n:, n:] = c2
    return c


def change_basis(core, s):
    """Structure constants and characters of ``core`` in the basis ``s``."""
    mult = np.einsum("ai,bj,abk,mk->ijm", s, s, core.mult, np.linalg.inv(s))
    return mult, [s.T @ chi for chi in core.characters]


CORES = COMMUTATIVE_CORES + NONCOMMUTATIVE_CORES


class TestCharacters:
    def test_scalar_idempotent(self):
        chars = characters(scalar_algebra())
        assert len(chars) == 1
        assert np.allclose(chars[0].phi, [1.0], atol=1e-9)

    def test_zero_product_has_none(self):
        assert characters(zero_algebra(1)) == []
        assert characters(zero_algebra(3)) == []

    def test_pointwise_coordinates(self):
        chars = characters(pointwise_algebra(2))
        assert len(chars) == 2
        got = sorted(tuple(np.round(c.phi.real, 6)) for c in chars)
        assert got == [(0.0, 1.0), (1.0, 0.0)]

    def test_lau_duplication_two_characters(self, lau_unital):
        dup = duplicate(*lau_unital)
        chars = characters(dup)
        # chi1(a, b) = a + b and chi2(a, b) = b, from the 2-variable
        # multiplicativity system solved by hand
        assert characters_match([c.phi for c in chars],
                                [np.array([1.0, 1.0]), np.array([0.0, 1.0])],
                                1e-8)

    def test_residuals_recorded(self):
        for c in characters(pointwise_algebra(3)):
            assert c.residual <= 1e-9

    def test_local_algebra_single_character(self):
        # the radical is two-dimensional and every basis operator has a
        # repeated eigenvalue; only the unit's coefficient survives
        chars = characters(local_algebra_dim3())
        assert len(chars) == 1
        assert np.allclose(chars[0].phi, [1.0, 0.0, 0.0], atol=1e-8)

    def test_left_scalar_algebra_extraction(self):
        # left multiplications are scalar on the whole space, so no
        # eigenvalue separates anything; the commutators e_i e_j - e_j e_i
        # cut the covector space down to the single character
        mu = np.array([0.5, -0.25])
        chars = characters(left_scalar_algebra(mu))
        assert len(chars) == 1
        assert np.allclose(chars[0].phi, mu, atol=1e-8)

    @pytest.mark.parametrize("core", CORES, ids=lambda core: core.name)
    def test_every_core_in_any_basis(self, core):
        # the known characters of each sampler core, moved by the same
        # basis change as its structure constants
        rng = np.random.default_rng(3)
        changes = [_transform_core(core, random_unitary(rng, core.dim))
                   for _ in range(20)]
        changes += [Core(core.name, *change_basis(core, conditioned(rng, core.dim, cond)))
                    for cond in (10.0, 100.0) for _ in range(5)]
        for moved in changes:
            got = [c.phi for c in characters(FinDimAlgebra.from_mult(moved.mult))]
            size = max([1.0] + [float(np.max(np.abs(chi))) for chi in moved.characters])
            assert characters_match(got, list(moved.characters), 1e-7 * size)

    def test_closed_form_counts(self):
        s3 = [tuple(p) for p in ((0, 1, 2), (0, 2, 1), (1, 0, 2),
                                 (1, 2, 0), (2, 0, 1), (2, 1, 0))]
        cases = {
            "M2": (matrix_algebra(2), 0),
            "M3": (matrix_algebra(3), 0),
            # one-dimensional representations: trivial and sign
            "C[S3]": (group_algebra(s3, lambda g, h: tuple(g[h[i]] for i in range(3))), 2),
            "C[Z4]": (group_algebra(range(4), lambda g, h: (g + h) % 4), 4),
            "M2+C": (block_sum(matrix_algebra(2), np.ones((1, 1, 1))), 1),
        }
        rng = np.random.default_rng(4)
        for name, (mult, count) in cases.items():
            moved = _transform_core(Core(name, mult), random_unitary(rng, mult.shape[0]))
            for c in (mult, moved.mult):
                assert len(characters(FinDimAlgebra.from_mult(c))) == count, name

    def test_truncated_polynomials(self):
        c = np.zeros((3, 3, 3))
        for i in range(3):
            for j in range(3):
                if i + j < 3:
                    c[i, j, i + j] = 1.0
        chars = characters(FinDimAlgebra.from_mult(c))
        assert len(chars) == 1
        assert np.allclose(chars[0].phi, [1.0, 0.0, 0.0], atol=1e-8)


class TestTilde:
    def test_lau_identity_companion(self, lau_unital):
        a, f, act = lau_unital
        phi = characters(a)[0]
        assert np.allclose(tilde(phi, a, f, act), [1.0], atol=1e-9)

    def test_zero_action_companion_zero(self, zero_pair):
        a, f, act = zero_pair
        alg = scalar_algebra()
        out = tilde(np.array([1.0]), alg, f, BimoduleAction.zero(1, 1))
        assert np.allclose(out, [0.0])

    def test_module_extension_vacuous(self, module_extension):
        a, _, _ = module_extension
        assert characters(a) == []  # zero product: nothing to feed tilde

    def test_rejects_non_character(self, lau_unital):
        a, f, act = lau_unital
        with pytest.raises(NotACharacter):
            tilde(np.array([2.0]), a, f, act)

    def test_companion_nonzero_under_full_action_span(self, lau_unital):
        a, f, act = lau_unital
        assert span_products(a, "right_action", act).dim == a.dim
        for phi in characters(a):
            assert np.max(np.abs(tilde(phi, a, f, act))) > 1e-9

    def test_companion_nonzero_under_full_action_span_random(self):
        from amaldup.sampling import random_triple
        rng = np.random.default_rng(40)
        seen = 0
        for _ in range(60):
            a, f, act, _ = random_triple(rng)
            full = (span_products(a, "left_action", act).dim == a.dim
                    or span_products(a, "right_action", act).dim == a.dim)
            if not full:
                continue
            for phi in characters(a):
                seen += 1
                assert np.max(np.abs(tilde(phi, a, f, act))) > 1e-7
        assert seen > 5  # the draw must actually exercise the claim


class TestDuplicationSpectrum:
    def test_lau_fixture(self, lau_unital):
        e_list, f_list, sigma = duplication_spectrum(duplicate(*lau_unital))
        assert len(e_list) == 1 and len(f_list) == 1 and len(sigma) == 2
        assert characters_match(e_list, [np.array([1.0, 1.0])], 1e-8)
        assert characters_match(f_list, [np.array([0.0, 1.0])], 1e-8)

    def test_module_extension_fixture(self, module_extension):
        e_list, f_list, sigma = duplication_spectrum(duplicate(*module_extension))
        assert e_list == []
        assert len(f_list) == 1 and len(sigma) == 1
        assert characters_match(f_list, [np.array([0.0, 1.0])], 1e-8)

    def test_zero_pair_empty(self, zero_pair):
        e_list, f_list, sigma = duplication_spectrum(duplicate(*zero_pair))
        assert e_list == [] and f_list == [] and sigma == []

    def test_natural_self_action(self):
        alg = pointwise_algebra(2)
        e_list, f_list, sigma = duplication_spectrum(duplicate(alg, alg, natural_action(alg)))
        assert len(sigma) == len(e_list) + len(f_list) == 4


class TestSemisimple:
    def test_pointwise_true(self):
        assert gelfand_semisimple(pointwise_algebra(2))

    def test_zero_product_false(self):
        assert not gelfand_semisimple(zero_algebra(2))

    def test_lau_duplication_true(self, lau_unital):
        assert gelfand_semisimple(duplicate(*lau_unital))

    def test_radical_detected(self):
        assert not gelfand_semisimple(local_algebra_dim3())

    def test_noncommutative_rejected(self, triangular):
        with pytest.raises(CommutativityRequired):
            gelfand_semisimple(duplicate(*triangular))


class TestDefect:
    def test_defect_of_true_character_zero(self):
        alg = pointwise_algebra(2)
        assert multiplicativity_defect(alg, np.array([1.0, 0.0])) == 0.0

    def test_defect_of_sum_positive(self):
        alg = pointwise_algebra(2)
        assert multiplicativity_defect(alg, np.array([1.0, 1.0])) > 0.5
