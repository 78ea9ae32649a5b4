"""Characters, companion functionals and the spectrum of a duplication.

A character is a nonzero multiplicative linear functional, stored as a
coordinate covector.  Extraction is plain linear algebra with no random
probes:

  1. Every character vanishes on the Jacobson radical and on the
     commutators ``e_i e_j - e_j e_i``; call their span ``S``.  Modulo
     the radical the algebra is a sum of matrix blocks ``M_{n_i}``, the
     covectors annihilating ``S`` are the block traces, and those that
     also annihilate ``A S`` are the traces of the ``1 x 1`` blocks --
     exactly the characters.  So the characters span the annihilator of
     ``S + A S``: one nullspace computation.
  2. On that span the transposed left multiplications ``L_j^T`` commute
     and are diagonal in the character basis, with ``chi(e_j)`` as the
     eigenvalue of ``chi``.  Splitting the span by the eigenspaces of
     ``L_0^T, L_1^T, ...`` in turn leaves one line per character, since
     distinct characters differ on some basis vector.
  3. Each line is read off as ``chi_j = psi^H L_j^T psi`` for its unit
     vector ``psi`` and verified against the full multiplicativity
     system.  A piece that no basis operator splits raises
     :class:`DegenerateSpectrum`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (BimoduleAction, Duplication, FinDimAlgebra, join_element,
                      multiplicativity_defect)
from .errors import (CommutativityRequired, DegenerateSpectrum, NotACharacter,
                     IncompatibleAction, SpectrumTheoremViolation)
from .linalg import (DEFAULT_TOL, Subspace, as_cvector, check_bound, cluster_gap,
                     rank_nullspace)


@dataclass(frozen=True)
class Character:
    """A verified multiplicative functional."""

    phi: np.ndarray = field(repr=False)
    residual: float

    def __call__(self, x) -> complex:
        return complex(self.phi @ as_cvector(x, self.phi.size))


def characters(alg: FinDimAlgebra, tol: float = DEFAULT_TOL) -> list[Character]:
    """All characters of ``alg``, by the annihilator of ``rad + [A, A]``."""
    n = alg.dim
    scale = float(np.max(np.abs(alg.mult)))
    if scale == 0.0:
        return []
    mult = alg.mult / scale
    rows, cols = np.triu_indices(n, 1)
    s = np.vstack([radical_subspace(alg, tol).basis.T,
                   mult[rows, cols] - mult[cols, rows]])
    a_s = np.einsum("jik,si->jsk", mult, s).reshape(-1, n)
    _, span = rank_nullspace(np.vstack([s, a_s]), tol, atol=tol * n)

    pieces = [span.basis] if span.dim else []
    for op in mult:  # L_j^T acts on covectors as mult[j]
        pieces = [part for piece in pieces for part in _split(op, piece, tol)]

    found: list[np.ndarray] = []
    for piece in pieces:
        if piece.shape[1] > 1:
            raise DegenerateSpectrum(
                f"{piece.shape[1]}-dim joint eigenspace of the basis "
                "operators could not be split into characters")
        psi = piece[:, 0]
        chi = np.einsum("i,jik,k->j", psi.conj(), mult, psi) * scale
        if _accept_candidate(alg, chi, tol):
            _record(found, chi, tol)
    found.sort(key=_sort_key)
    return [Character(chi, multiplicativity_defect(alg, chi)) for chi in found]


def _split(op: np.ndarray, piece: np.ndarray, tol: float) -> list[np.ndarray]:
    """Eigenspaces of ``op`` restricted to the invariant span of ``piece``."""
    if piece.shape[1] == 1:
        return [piece]
    reduced = piece.conj().T @ op @ piece
    lams = np.linalg.eigvals(reduced)
    scale = max(1.0, float(np.max(np.abs(lams))))
    clusters: list[complex] = []
    for lam in lams:
        if all(abs(lam - c) > cluster_gap(tol, scale) for c in clusters):
            clusters.append(complex(lam))
    if len(clusters) == 1:
        return [piece]
    eye = np.eye(piece.shape[1])
    parts = []
    for lam in clusters:
        _, null = rank_nullspace(reduced - lam * eye, tol, atol=tol * scale)
        if null.dim:
            parts.append(piece @ null.basis)
    return parts


def _accept_candidate(alg, chi, tol) -> bool:
    """Scale-aware multiplicativity test with a nonzero floor.

    An absolute defect bound alone would accept any covector scaled
    close enough to zero (the defect of ``c v`` shrinks like ``c^2``):
    near-zero covectors on a nilpotent algebra can look multiplicative
    to absurd precision while approximating only the excluded zero
    functional.  A candidate therefore must (a) sit clearly above the
    set-matching scale ``check_bound(tol)`` and (b) keep its defect small
    relative to its own size.
    """
    size = float(np.max(np.abs(chi)))
    if size <= check_bound(tol):
        return False  # indistinguishable from the zero functional
    return multiplicativity_defect(alg, chi) <= tol * max(1.0, size) * size


def radical_subspace(alg: FinDimAlgebra, tol: float = DEFAULT_TOL) -> Subspace:
    """The Jacobson radical, from the characteristic-zero trace criterion.

    An element x is in the radical exactly when ``tr(L_x) = 0`` and
    ``tr(L_{x y}) = 0`` for every basis y (the trace form of the regular
    representation of the unitization); one nullspace computation.
    """
    t0 = np.einsum("ijj->i", alg.mult)
    t2 = np.einsum("ijm,m->ij", alg.mult, t0)
    system = np.vstack([t0[None, :], t2.T])
    scale = max(1.0, alg.dim * float(np.max(np.abs(alg.mult))))
    _, null = rank_nullspace(system, tol, atol=tol * scale ** 2)
    return null


def first_match(chi, covectors, match_tol: float) -> int | None:
    """Index of the first covector within sup-norm distance match_tol of
    ``chi``, or None."""
    for idx, known in enumerate(covectors):
        if np.max(np.abs(np.asarray(chi) - np.asarray(known))) <= match_tol:
            return idx
    return None


def _record(found: list[np.ndarray], chi: np.ndarray, tol: float) -> None:
    if first_match(chi, found, check_bound(tol)) is None:
        found.append(chi)


def _sort_key(chi: np.ndarray):
    return tuple((round(z.real, 7), round(z.imag, 7)) for z in chi)


def characters_match(first, second, match_tol: float) -> bool:
    """Greedy set matching of covector lists at sup-norm distance match_tol."""
    if len(first) != len(second):
        return False
    unused = list(second)
    for chi in first:
        hit = first_match(chi, unused, match_tol)
        if hit is None:
            return False
        del unused[hit]
    return True


def tilde(phi: Character | np.ndarray, a: FinDimAlgebra, f: FinDimAlgebra,
          act: BimoduleAction, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The companion functional of a character of A on F.

    Defined by ``tilde(b) = phi(b . a0)`` for any ``a0`` with
    ``phi(a0) = 1``; the result is independent of ``a0``, multiplicative
    or zero, and satisfies ``phi(x . b) = phi(b . x) = phi(x) tilde(b)``.
    All three facts are rechecked numerically here.
    """
    vec = phi.phi if isinstance(phi, Character) else as_cvector(phi, a.dim)
    if multiplicativity_defect(a, vec) > tol or np.max(np.abs(vec)) <= tol:
        raise NotACharacter("input functional is not a character of A")
    a0 = vec.conj() / (vec @ vec.conj())  # phi(a0) = 1
    out = np.einsum("i,pik,k->p", a0, act.left, vec)

    # independence of the normalizing element, when the kernel is nonzero
    if a.dim > 1:
        _, ker = rank_nullspace(vec.reshape(1, -1), tol)
        a1 = a0 + ker.basis @ np.ones(ker.dim)
        out2 = np.einsum("i,pik,k->p", a1, act.left, vec)
        if np.max(np.abs(out - out2)) > check_bound(tol, np.max(np.abs(out))):
            raise IncompatibleAction(
                "companion functional depends on the normalizing element")

    # phi(x . b) = phi(b . x) = phi(x) tilde(b) on all basis pairs
    left_vals = np.einsum("pik,k->pi", act.left, vec)
    right_vals = np.einsum("ipk,k->pi", act.right, vec)
    expected = np.outer(out, vec)
    defect = max(float(np.max(np.abs(left_vals - expected))),
                 float(np.max(np.abs(right_vals - expected))))
    if defect > check_bound(tol):
        raise IncompatibleAction(
            f"companion identity fails with defect {defect:.3g}")

    if np.max(np.abs(out)) > tol and multiplicativity_defect(f, out) > check_bound(tol):
        raise IncompatibleAction("companion functional is neither zero "
                                 "nor multiplicative")
    return out


def duplication_spectrum(dup: Duplication, tol: float = DEFAULT_TOL,
                         match_tol: float | None = None):
    """Assembled and direct spectra of the duplication, cross-checked.

    Returns ``(e_list, f_list, sigma)`` where ``e_list`` lifts each
    character of A with its companion, ``f_list`` lifts each character
    of F with zero A-part, and ``sigma`` is computed directly on the
    duplication.  Raises :class:`SpectrumTheoremViolation` when the two
    routes disagree -- that signals a bug, not a property of the input.
    The triple is not validated here: for outside input, build the record
    with a validating :func:`duplicate`.
    """
    if match_tol is None:
        match_tol = check_bound(tol)
    a, f, act = dup.a, dup.f, dup.act
    e_list = []
    for phi in characters(a, tol):
        e_list.append(join_element(phi.phi, tilde(phi, a, f, act, tol)))
    f_list = [join_element(np.zeros(a.dim), psi.phi)
              for psi in characters(f, tol)]
    sigma = [chi.phi for chi in characters(dup, tol)]

    if any(first_match(e_chi, f_list, match_tol) is not None for e_chi in e_list):
        raise SpectrumTheoremViolation("lifted character families intersect")
    if not characters_match(e_list + f_list, sigma, match_tol):
        raise SpectrumTheoremViolation(
            f"direct spectrum ({len(sigma)} characters) does not match the "
            f"assembled one ({len(e_list)} + {len(f_list)})")
    return e_list, f_list, sigma


def gelfand_semisimple(alg: FinDimAlgebra, tol: float = DEFAULT_TOL) -> bool:
    """True when the characters jointly separate points.

    Only defined for commutative algebras; equivalent to the coordinate
    matrix of all characters having a trivial nullspace.
    """
    if not alg.is_commutative(tol):
        raise CommutativityRequired("algebra is not commutative at tol")
    return separates_points([chi.phi for chi in characters(alg, tol)], tol)


def separates_points(covectors, tol: float = DEFAULT_TOL) -> bool:
    """True when the covectors' coordinate matrix has a trivial nullspace,
    i.e. they separate points; an empty list never does."""
    if not covectors:
        return False
    _, null = rank_nullspace(np.array(covectors), tol)
    return null.dim == 0
