"""Ideal tests, generated ideals, maximality and block projections.

Subspaces of a duplication decompose through the coordinate projections
onto the two factors; the tests here implement the characterizations of
when a block subspace ``I x J`` is a (maximal) one-sided ideal of the
duplication in terms of conditions on the factors.

Maximality is decided by operator density: a proper left ideal is
maximal exactly when the quotient module is simple over the unitized
algebra, which over C holds exactly when the multiplicative closure of
the induced quotient operators is the whole operator algebra of the
quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import BimoduleAction, FinDimAlgebra, duplicate
from .errors import NotAProperIdeal, ShapeError
from .linalg import DEFAULT_TOL, Subspace, rank_nullspace, subspace_sum


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


def _side_ops(alg: FinDimAlgebra, side: str) -> list[np.ndarray]:
    left = [alg.left_op(e) for e in np.eye(alg.dim)]
    right = [alg.right_op(e) for e in np.eye(alg.dim)]
    if side == "left":
        return left
    if side == "right":
        return right
    if side == "two_sided":
        return left + right
    raise ValueError(f"unknown side {side!r}")


def ideal_defect(alg: FinDimAlgebra, s: Subspace, side: str = "left") -> float:
    """Largest distance of a basis product from the subspace."""
    if s.ambient_dim != alg.dim:
        raise ShapeError("subspace ambient dimension differs from the algebra")
    if s.dim == 0:
        return 0.0
    worst = 0.0
    for op in _side_ops(alg, side):
        worst = max(worst, s.residual(op @ s.basis))
    return worst


def is_ideal(alg: FinDimAlgebra, s: Subspace, side: str = "left",
             tol: float = DEFAULT_TOL) -> bool:
    return ideal_defect(alg, s, side) <= tol


def submodule_defect(act: BimoduleAction, s: Subspace, side: str = "left") -> float:
    """Distance of F-action images of the subspace from the subspace."""
    df = act.left.shape[0]
    worst = 0.0
    if s.dim == 0:
        return 0.0
    for p in range(df):
        if side in ("left", "two_sided"):
            worst = max(worst, s.residual(act.left_op(np.eye(df)[p]) @ s.basis))
        if side in ("right", "two_sided"):
            worst = max(worst, s.residual(act.right_op(np.eye(df)[p]) @ s.basis))
    return worst


def block_subspace(i_sub: Subspace, j_sub: Subspace) -> Subspace:
    """The subspace I x J of the duplication's coordinate space."""
    da, df = i_sub.ambient_dim, j_sub.ambient_dim
    basis = np.zeros((da + df, i_sub.dim + j_sub.dim), dtype=complex)
    basis[:da, :i_sub.dim] = i_sub.basis
    basis[da:, i_sub.dim:] = j_sub.basis
    return Subspace(da + df, basis, i_sub.tol)


def project_components(a_dim: int, f_dim: int,
                       n_sub: Subspace) -> tuple[Subspace, Subspace]:
    """Coordinate projections of a duplication subspace onto the factors."""
    if n_sub.ambient_dim != a_dim + f_dim:
        raise ShapeError("subspace does not live in the duplication")
    i_n = Subspace.from_spanning(n_sub.basis[:a_dim, :], a_dim, n_sub.tol)
    j_n = Subspace.from_spanning(n_sub.basis[a_dim:, :], f_dim, n_sub.tol)
    return i_n, j_n


def product_ideal_test(a: FinDimAlgebra, f: FinDimAlgebra, act: BimoduleAction,
                       i_sub: Subspace, j_sub: Subspace,
                       tol: float = DEFAULT_TOL) -> ProductIdealReport:
    """Blockwise criterion for ``I x J`` being a left ideal, vs the direct test.

    The four conditions: I a left ideal of A, J a left ideal of F, I a
    left F-submodule, and A . J inside I.  Their conjunction must agree
    with testing I x J directly on the duplication.
    """
    i_left = is_ideal(a, i_sub, "left", tol)
    j_left = is_ideal(f, j_sub, "left", tol)
    i_mod = submodule_defect(act, i_sub, "left") <= tol
    # A . J: right-action values a_i . b for b in J's basis
    vectors = []
    for col in range(j_sub.dim):
        beta = j_sub.basis[:, col]
        for e in np.eye(a.dim):
            vectors.append(act.right_act(e, beta))
    aj_inside = i_sub.residual(vectors) <= tol if vectors else True
    direct = is_ideal(duplicate(a, f, act, validate=False),
                      block_subspace(i_sub, j_sub), "left", tol)
    return ProductIdealReport(i_left, j_left, i_mod, aj_inside, direct)


def ideal_generated(alg: FinDimAlgebra, seeds, side: str = "left",
                    tol: float = DEFAULT_TOL) -> Subspace:
    """Smallest one-sided ideal containing the seed vectors.

    Iterates ``S <- S + alg . S`` (and/or ``S . alg``) to a fixed point;
    seeds are always kept, so the result is the unitized module closure.
    """
    span = Subspace.from_spanning(list(seeds), alg.dim, tol)
    ops = _side_ops(alg, side)
    while True:
        new_vectors = [op @ span.basis for op in ops]
        grown = subspace_sum(
            span, Subspace.from_spanning(
                np.hstack(new_vectors) if new_vectors else [],
                alg.dim, tol))
        if grown.dim == span.dim:
            return grown
        span = grown


def quotient_operators(alg: FinDimAlgebra, i_sub: Subspace,
                       side: str = "left") -> np.ndarray:
    """Induced basis operators on the orthogonal model of alg / I."""
    _, compl = rank_nullspace(i_sub.basis.conj().T, i_sub.tol)
    q = compl.basis  # (n, k) orthonormal complement of I
    return np.stack([q.conj().T @ op @ q for op in _side_ops(alg, side)]) \
        if q.shape[1] else np.zeros((alg.dim, 0, 0), dtype=complex)


def operator_algebra_dimension(ops: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Dimension of the unital algebra generated by the given operators."""
    k = ops.shape[1]
    if k == 0:
        return 0
    gens = [np.eye(k, dtype=complex)] + [np.asarray(op) for op in ops]
    span = Subspace.from_spanning([g.reshape(-1) for g in gens], k * k, tol)
    while True:
        products = []
        for col in range(span.dim):
            x = span.basis[:, col].reshape(k, k)
            for g in gens:
                products.append((x @ g).reshape(-1))
        grown = subspace_sum(span, Subspace.from_spanning(products, k * k, tol))
        if grown.dim == span.dim:
            return span.dim
        span = grown


def is_maximal_left_ideal(alg: FinDimAlgebra, i_sub: Subspace,
                          tol: float = DEFAULT_TOL, side: str = "left") -> bool:
    """Maximality via density of the quotient operator algebra.

    The quotient module is simple over the unitized algebra iff the
    generated operator algebra is everything, which over C is equivalent
    to no intermediate ideal existing.
    """
    if not is_ideal(alg, i_sub, side, tol) or i_sub.dim >= alg.dim:
        raise NotAProperIdeal("input is not a proper one-sided ideal")
    ops = quotient_operators(alg, i_sub, side)
    k = ops.shape[1]
    return operator_algebra_dimension(ops, tol) == k * k


def maximality_direction_oracle(alg: FinDimAlgebra, i_sub: Subspace,
                                directions, side: str = "left",
                                tol: float = DEFAULT_TOL) -> bool:
    """Second route to maximality: grow the ideal along probe directions.

    A proper ideal is maximal iff adjoining any vector outside it
    generates the whole algebra; this checks the supplied direction set,
    so its reliability rests on the directions hitting every intermediate
    ideal (eigenvector directions of quotient operators do, generically).
    """
    if not is_ideal(alg, i_sub, side, tol) or i_sub.dim >= alg.dim:
        raise NotAProperIdeal("input is not a proper one-sided ideal")
    ops = np.stack(_side_ops(alg, side))
    n = alg.dim
    for v in directions:
        v = np.asarray(v, dtype=complex)
        if i_sub.contains_vector(v):
            continue
        # closure of span(I + v) under the action, via one SVD per round
        mat = np.hstack([i_sub.basis, (v / np.linalg.norm(v)).reshape(-1, 1)])
        dim = mat.shape[1]
        while True:
            grown = np.hstack([mat] + list(ops @ mat))
            u, s, _ = np.linalg.svd(grown, full_matrices=False)
            rank = int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0
            if rank == dim or rank == n:
                dim = rank
                break
            mat, dim = u[:, :rank], rank
        if dim < n:
            return False
    return True


def coset_direction_grid(alg: FinDimAlgebra, i_sub: Subspace, count: int,
                         seed: int = 0, side: str = "left") -> list[np.ndarray]:
    """Deterministic probe directions outside an ideal.

    Mixes a small-coefficient lattice over the quotient complement with
    eigenvector directions of generic combinations of the quotient
    operators (any intermediate ideal is invariant, so it contains an
    eigenvector of a generic combination), then pads with seeded random
    directions up to ``count``.
    """
    _, compl = rank_nullspace(i_sub.basis.conj().T, i_sub.tol)
    q = compl.basis
    k = q.shape[1]
    out: list[np.ndarray] = []
    coeffs = np.array([1.0, -1.0, 1.0j, -1.0j, 0.0])
    lattice = [np.zeros(0)] if k == 0 else np.stack(
        np.meshgrid(*([coeffs] * k), indexing="ij"), axis=-1).reshape(-1, k)
    for c in lattice:
        if k and np.any(c != 0):
            out.append(q @ c)
        if len(out) >= count:
            return out[:count]
    ops = quotient_operators(alg, i_sub, side)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        w = rng.standard_normal(len(ops)) + 1j * rng.standard_normal(len(ops))
        mix = np.einsum("p,pij->ij", w, ops) if len(ops) else np.zeros((k, k))
        if mix.size == 0:
            break
        _, vecs = np.linalg.eig(mix)
        for col in vecs.T:
            out.append(q @ col)
    while len(out) < count:
        c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        out.append(q @ c)
    return out[:count]
