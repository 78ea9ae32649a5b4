"""Ideal tests, generated ideals, maximality and block projections.

Subspaces of a duplication decompose through the coordinate projections
onto the two factors; the tests here implement the characterizations of
when a block subspace ``I x J`` is a (maximal) one-sided ideal of the
duplication in terms of conditions on the factors.

Maximality is decided by operator density: a proper left ideal is
maximal exactly when the quotient module is simple over the unitized
algebra, which over C holds exactly when the multiplicative closure of
the induced quotient operators is the whole operator algebra of the
quotient.  A second, seed-free route grows the ideal from the
eigen-directions of one fixed combination of the quotient operators and
certifies simplicity by Norton's irreducibility test, answering None
rather than guess when no eigenvalue of the combination is simple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (BimoduleAction, Duplication, FinDimAlgebra, left_family,
                      right_family)
from .errors import NotAProperIdeal, ShapeError
from .linalg import DEFAULT_TOL, Subspace, rank_nullspace


@dataclass(frozen=True)
class ProductIdealReport:
    i_left_ideal: bool
    j_left_ideal: bool
    i_submodule: bool
    a_dot_j_inside_i: bool
    direct: bool

    @property
    def conjunction(self) -> bool:
        return (self.i_left_ideal and self.j_left_ideal
                and self.i_submodule and self.a_dot_j_inside_i)


def _pick_side(left: np.ndarray, right: np.ndarray, side: str) -> np.ndarray:
    if side == "left":
        return left
    if side == "right":
        return right
    if side == "two_sided":
        return np.concatenate([left, right])
    raise ValueError(f"unknown side {side!r}")


def _side_ops(alg: FinDimAlgebra, side: str) -> np.ndarray:
    """Stacked basis multiplication operators, the level-0 families."""
    return _pick_side(left_family(alg.mult), right_family(alg.mult), side)


def ideal_defect(alg: FinDimAlgebra, s: Subspace, side: str = "left") -> float:
    """Largest distance of a basis product from the subspace."""
    if s.ambient_dim != alg.dim:
        raise ShapeError("subspace ambient dimension differs from the algebra")
    return s.residual(np.concatenate(_side_ops(alg, side) @ s.basis, axis=1))


def is_ideal(alg: FinDimAlgebra, s: Subspace, side: str = "left",
             tol: float = DEFAULT_TOL) -> bool:
    return ideal_defect(alg, s, side) <= tol


def submodule_defect(act: BimoduleAction, s: Subspace, side: str = "left") -> float:
    """Distance of F-action images of the subspace from the subspace."""
    ops = _pick_side(left_family(act.left), right_family(act.right), side)
    return s.residual(np.concatenate(ops @ s.basis, axis=1))


def block_subspace(i_sub: Subspace, j_sub: Subspace) -> Subspace:
    """The subspace I x J of the duplication's coordinate space."""
    da, df = i_sub.ambient_dim, j_sub.ambient_dim
    basis = np.zeros((da + df, i_sub.dim + j_sub.dim), dtype=complex)
    basis[:da, :i_sub.dim] = i_sub.basis
    basis[da:, i_sub.dim:] = j_sub.basis
    return Subspace(da + df, basis)


def project_components(a_dim: int, f_dim: int, n_sub: Subspace,
                       tol: float = DEFAULT_TOL) -> tuple[Subspace, Subspace]:
    """Coordinate projections of a duplication subspace onto the factors."""
    if n_sub.ambient_dim != a_dim + f_dim:
        raise ShapeError("subspace does not live in the duplication")
    i_n = Subspace.from_spanning(n_sub.basis[:a_dim, :], a_dim, tol)
    j_n = Subspace.from_spanning(n_sub.basis[a_dim:, :], f_dim, tol)
    return i_n, j_n


def product_ideal_test(dup: Duplication, i_sub: Subspace, j_sub: Subspace,
                       tol: float = DEFAULT_TOL) -> ProductIdealReport:
    """Blockwise criterion for ``I x J`` being a left ideal, vs the direct test.

    The four conditions: I a left ideal of A, J a left ideal of F, I a
    left F-submodule, and A . J inside I.  Their conjunction must agree
    with testing I x J directly on the duplication.
    """
    a, f, act = dup.a, dup.f, dup.act
    i_left = is_ideal(a, i_sub, "left", tol)
    j_left = is_ideal(f, j_sub, "left", tol)
    i_mod = submodule_defect(act, i_sub, "left") <= tol
    # A . J: column i of right_op(b) is a_i . b, for b in J's basis
    products = [act.right_op(beta) for beta in j_sub.basis.T]
    aj_inside = i_sub.residual(np.hstack(products)) <= tol if products else True
    direct = is_ideal(dup, block_subspace(i_sub, j_sub), "left", tol)
    return ProductIdealReport(i_left, j_left, i_mod, aj_inside, direct)


def ideal_generated(alg: FinDimAlgebra, seeds, side: str = "left",
                    tol: float = DEFAULT_TOL) -> Subspace:
    """Smallest one-sided ideal containing the seed vectors.

    Iterates ``S <- span[S | alg . S]`` (and/or ``S . alg``) to a fixed
    point, one span per round (:func:`_closure`); seeds are always kept,
    so the result is the unitized module closure.
    """
    return _closure(_side_ops(alg, side),
                    Subspace.from_spanning(list(seeds), alg.dim, tol), tol)


def _closure(ops: np.ndarray, span: Subspace, tol: float) -> Subspace:
    """Smallest ops-invariant subspace containing ``span``: each round is
    one span of ``[S | op S ...]``, until the dimension stops growing."""
    while True:
        grown = Subspace.from_spanning(
            np.concatenate([span.basis, *(ops @ span.basis)], axis=1),
            span.ambient_dim, tol)
        if grown.dim in (span.dim, span.ambient_dim):
            return grown
        span = grown


def quotient_operators(alg: FinDimAlgebra, i_sub: Subspace) -> np.ndarray:
    """Induced basis operators on the orthogonal model of alg / I, for a
    left ideal I."""
    # I's complement; I's basis is orthonormal, so no cut below 1 matters
    q = rank_nullspace(i_sub.basis.conj().T)[1].basis
    return q.conj().T @ left_family(alg.mult) @ q


def operator_algebra_dimension(ops: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Dimension of the unital algebra generated by the given operators."""
    k = ops.shape[1]
    if k == 0:
        return 0
    gens = np.concatenate([np.eye(k, dtype=complex)[None], ops])
    span = Subspace.from_spanning(gens.reshape(-1, k * k).T, k * k, tol)
    while True:
        # every basis matrix times every generator; x @ I = x keeps S
        products = span.basis.T.reshape(-1, 1, k, k) @ gens
        grown = Subspace.from_spanning(products.reshape(-1, k * k).T, k * k, tol)
        if grown.dim in (span.dim, k * k):
            return grown.dim
        span = grown


def is_maximal_left_ideal(alg: FinDimAlgebra, i_sub: Subspace,
                          tol: float = DEFAULT_TOL) -> bool:
    """Maximality via density of the quotient operator algebra.

    The quotient module is simple over the unitized algebra iff the
    generated operator algebra is everything, which over C is equivalent
    to no intermediate ideal existing.
    """
    if not is_ideal(alg, i_sub, "left", tol) or i_sub.dim >= alg.dim:
        raise NotAProperIdeal("input is not a proper one-sided ideal")
    ops = quotient_operators(alg, i_sub)
    k = ops.shape[1]
    return operator_algebra_dimension(ops, tol) == k * k


# Ratio c of the fixed combination sum_j c^(j+1) op_j probed by the oracle.
_MIX_RATIO = 0.8 * np.exp(0.5j)


def maximality_direction_oracle(alg: FinDimAlgebra, i_sub: Subspace,
                                tol: float = DEFAULT_TOL) -> bool | None:
    """Second route to maximality: grow the ideal from eigen-directions.

    For each eigenvalue lam of one fixed combination ``mix`` of the
    operators on V = alg / I, theta = mix - lam is singular. Every right
    kernel vector v of theta is grown with I into an ideal, and every left
    one u into a submodule of the dual V* (the annihilator of I, under the
    transposed operators). A probe that generates less than everything
    shows an intermediate ideal: False. If all generate everything and
    some lam has a one-dimensional kernel, Norton's irreducibility test
    (Holt and Rees, J. Austral. Math. Soc. A 57, 1994) certifies that V is
    simple: True. Otherwise None. The kernels' floor ``tol * max|mix|``
    keeps a scalar quotient's round-off from reading as a simple kernel.
    """
    if not is_ideal(alg, i_sub, "left", tol) or i_sub.dim >= alg.dim:
        raise NotAProperIdeal("input is not a proper one-sided ideal")
    ops = left_family(alg.mult)
    q = rank_nullspace(i_sub.basis.conj().T)[1].basis  # I's complement
    k = q.shape[1]
    weights = _MIX_RATIO ** np.arange(1, len(ops) + 1)
    mix = q.conj().T @ np.tensordot(weights, ops, axes=1) @ q
    floor = tol * float(np.max(np.abs(mix)))
    certified = False
    for lam in np.linalg.eigvals(mix):
        theta = mix - lam * np.eye(k)
        _, right = rank_nullspace(theta, tol, atol=floor)
        _, left = rank_nullspace(theta.T, tol, atol=floor)
        for v in right.basis.T:
            probe = Subspace(alg.dim, np.column_stack([i_sub.basis, q @ v]))
            if _closure(ops, probe, tol).dim < alg.dim:
                return False
        for u in left.basis.T:
            probe = Subspace(alg.dim, (q.conj() @ u).reshape(-1, 1))
            if _closure(ops.transpose(0, 2, 1), probe, tol).dim < k:
                return False
        certified = certified or right.dim == 1
    return True if certified else None
