"""Shared canonical fixtures.

Four small triples cover the construction's corner cases:

  zero_pair        -- both factors C with the zero product, zero action;
                      the duplication is the 2-dim zero-product algebra.
  lau_unital       -- both factors C with identity products, action scaled
                      by the identity character; the duplication is unital.
  module_extension -- first factor C with the zero product, second factor
                      C unital acting as the identity on it.
  triangular       -- module-extension form of the 2x2 upper-triangular
                      matrix algebra, basis (E12; E11, E22).
"""

import numpy as np
import pytest

from amaldup.algebra import (BimoduleAction, FinDimAlgebra,
                             canonical_construction)
from amaldup.derivations import derivation_identities, derivation_space
from amaldup.duals import D1A, D1F, D2A, D2F, BlockLayout, nth_dual_bimodule
from amaldup.linalg import (DEFAULT_TOL, rank_nullspace, solve_affine,
                            subspace_equal)
from amaldup.sampling import random_unitary


def scalar_algebra(label="e"):
    """C with e^2 = e."""
    return FinDimAlgebra.from_mult(np.ones((1, 1, 1)), (label,))


def zero_algebra(dim=1, prefix="z"):
    return FinDimAlgebra.from_mult(np.zeros((dim,) * 3),
                                   tuple(f"{prefix}{i}" for i in range(dim)))


def pointwise_algebra(dim=2):
    c = np.zeros((dim,) * 3)
    for i in range(dim):
        c[i, i, i] = 1.0
    return FinDimAlgebra.from_mult(c)


def near_unital_algebra():
    """C + C but for e0 e1 = 1e-7 e1: the least-squares unit (1, 1 - 5e-8)
    leaves a unit defect of 1e-7, a unit at tol 1e-5 and none at 1e-9."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[1, 1, 1] = 1.0
    c[0, 1, 1] = 1e-7
    return FinDimAlgebra.from_mult(c)


def matrix_algebra(n):
    """M_n on the basis E_ij (row-major): E_ij E_jl = E_il."""
    c = np.zeros((n * n,) * 3)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i * n + j, j * n + k, i * n + k] = 1.0
    return c


def group_algebra(elements, compose):
    """C[G] on the basis of group elements."""
    index = {g: k for k, g in enumerate(elements)}
    m = len(elements)
    c = np.zeros((m, m, m))
    for g in elements:
        for h in elements:
            c[index[g], index[h], index[compose(g, h)]] = 1.0
    return c


def conditioned(rng, n, cond):
    """A random basis change with condition number ``cond``."""
    spread = np.diag(np.geomspace(1.0, cond, n))
    return random_unitary(rng, n) @ spread @ random_unitary(rng, n)


def assert_same_solve(system, space, tol=DEFAULT_TOL, atol=0.0):
    """``space`` has the rank and nullspace of the dense ``system`` (the
    bases within ``tol`` of each other), and each of its basis vectors
    solves it to ten times the rank cut, ``10 * max(tol * |system|_2, atol)``."""
    _, dense = rank_nullspace(system, tol, atol)
    assert space.dim == dense.dim
    if space.dim and system.size:
        cut = max(tol * np.linalg.norm(system, 2), atol)
        resid = np.linalg.norm(system @ space.basis, axis=0)
        assert np.max(resid) <= 10 * cut
        assert subspace_equal(dense, space)


def block_system(identities, layout):
    """All identities as one constraint matrix over vec coordinates: the
    joint system whose nullspace ``block_nullspace`` solves in stages."""
    sizes = [ident.row_count(layout) for ident in identities]
    ends, offs = np.cumsum([0] + sizes), layout.offsets
    system = np.zeros((ends[-1], offs[-1]), dtype=complex)
    for ident, start, stop in zip(identities, ends[:-1], ends[1:]):
        for t, block in ident.coefficients(layout).items():
            system[start:stop, offs[t]:offs[t + 1]] = block
    return system


def extension_reference(a, f, act, n=0, tol=DEFAULT_TOL):
    """Property H by one extension solve per Z1 basis column.

    The odd identities that involve D1F or D2A, with the D1A columns moved
    to the right-hand side: every derivation of A into its (2n+1)-th dual
    extends when each column of a Z1 basis gives a solvable system.
    """
    level = 2 * n + 1
    z1 = derivation_space(a, nth_dual_bimodule(a, level), tol)
    identities = [i for i in derivation_identities(a, f, act, level)
                  if i.slots & {D1F, D2A}]
    layout = BlockLayout(a.dim, f.dim)
    system = block_system(identities, layout)
    offs = layout.offsets
    rhs = -system[:, offs[D1A]:offs[D1F]] @ z1.basis
    return all(solve_affine(system[:, offs[D1F]:offs[D2F]], rhs[:, col], tol)
               is not None for col in range(z1.dim))


@pytest.fixture
def zero_pair():
    a = zero_algebra(1, "a")
    f = zero_algebra(1, "f")
    return a, f, BimoduleAction.zero(1, 1)


@pytest.fixture
def lau_unital():
    a = scalar_algebra("e")
    f = scalar_algebra("f")
    return canonical_construction("lau", a=a, f=f, theta=np.array([1.0]))


@pytest.fixture
def module_extension():
    f = scalar_algebra("f")
    eye = np.ones((1, 1, 1))
    return canonical_construction("module_extension", f=f, left=eye, right=eye,
                                  labels=("x",))


@pytest.fixture
def triangular():
    corner_a = scalar_algebra("p")
    corner_b = scalar_algebra("q")
    eye = np.ones((1, 1, 1))
    return canonical_construction("triangular", corner_a=corner_a,
                                  corner_b=corner_b, m_left=eye, m_right=eye)
