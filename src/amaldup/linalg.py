"""Dense complex linear algebra with an explicit tolerance policy.

Every other module reduces to the primitives here: SVD-based rank and
nullspace with a relative threshold, least-norm linear solves with a
certified residual, and orthonormal subspaces supporting sum,
intersection and containment tests.  Every rank decision, spans
included, is one SVD cut at ``max(tol * sigma_max, atol)``
(:func:`_numerical_rank`); a span takes ``atol = tol``, so its cut is
``tol * max(1, sigma_max)``.  Systems too tall to hold whole go
through :func:`_streamed_nullspace`, which folds their row blocks into
one square triangular factor (sequential TSQR) and hands that factor to
:func:`rank_nullspace`.

Conventions:
  * matrices are ``numpy`` arrays of ``complex128``;
  * a :class:`Subspace` stores an orthonormal column basis and no tol;
  * all comparisons are made against an explicit ``tol`` argument
    (default ``DEFAULT_TOL``); there is no hidden global epsilon;
  * the tolerance policy: every threshold elsewhere derives from the
    caller's ``tol`` by :func:`check_bound`, the one pass/fail slack on
    computed data, or :func:`cluster_gap`, the eigenvalue cluster gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidMatrix, ShapeError

DEFAULT_TOL = 1e-9
# Fixed round-off bound on identities that hold exactly (associativity,
# collapsing extended products, dual towers, multiplier round trips).
IDENTITY_TOL = 1e-10


def check_bound(tol: float, scale=1.0):
    """Pass/fail slack ``10 tol max(1, scale)`` for a residual or match
    distance on computed data; ``scale`` may be an array of scales."""
    return 10 * tol * np.maximum(1.0, scale)


def cluster_gap(tol: float, scale: float) -> float:
    """Distance beyond which two computed eigenvalues of size up to
    ``scale`` are distinct; a cluster's eigenvalues carry more error."""
    return 1e3 * tol * scale


def as_cmatrix(entries, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce to a finite complex matrix, optionally checking its shape."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1) if cols == 1 else m.reshape(1, -1) if rows == 1 else m
    if not np.all(np.isfinite(m)):
        raise InvalidMatrix("matrix has non-finite entries")
    if rows is not None and m.shape[0] != rows:
        raise ShapeError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ShapeError(f"expected {cols} columns, got {m.shape[1]}")
    return m


def as_cvector(entries, length: int | None = None) -> np.ndarray:
    v = np.asarray(entries, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise InvalidMatrix("vector has non-finite entries")
    if length is not None and v.size != length:
        raise ShapeError(f"expected length {length}, got {v.size}")
    return v


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^n via an orthonormal ``(ambient_dim, dim)`` basis."""

    ambient_dim: int
    basis: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, np.zeros((ambient_dim, 0), dtype=complex))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, np.eye(ambient_dim, dtype=complex))

    @staticmethod
    def from_spanning(vectors, ambient_dim: int | None = None,
                      tol: float = DEFAULT_TOL) -> "Subspace":
        """Orthonormal basis of the span of vectors (given as columns or a list).

        One thin SVD: the left singular vectors whose singular value exceeds
        ``tol * max(1, sigma_max)`` are kept, the cut of
        :func:`rank_nullspace` with ``atol = tol``.  The floor keeps a span
        of pure round-off at dimension 0, and the result does not depend on
        the order of the vectors.
        """
        if isinstance(vectors, (list, tuple)):
            if len(vectors) == 0:
                if ambient_dim is None:
                    raise ShapeError("empty span needs an explicit ambient_dim")
                return Subspace.zero(ambient_dim)
            mat = np.column_stack([as_cvector(v) for v in vectors])
        else:
            mat = as_cmatrix(vectors)
        n = mat.shape[0]
        if ambient_dim is not None and n != ambient_dim:
            raise ShapeError(f"vectors live in C^{n}, expected C^{ambient_dim}")
        if mat.size == 0:
            return Subspace.zero(n)
        u, s, _ = np.linalg.svd(mat, full_matrices=False)
        return Subspace(n, u[:, :_numerical_rank(s, tol, tol)])

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def project(self, v: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.conj().T @ as_cvector(v, self.ambient_dim))

    def contains_vector(self, v: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        v = as_cvector(v, self.ambient_dim)
        resid = np.linalg.norm(v - self.project(v))
        return resid <= tol * max(1.0, np.linalg.norm(v))

    def residual(self, vectors) -> float:
        """Largest distance from the given vectors to this subspace."""
        if isinstance(vectors, (list, tuple)):
            if not vectors:
                return 0.0
            vectors = np.column_stack([as_cvector(v) for v in vectors])
        m = as_cmatrix(vectors, rows=self.ambient_dim)
        if m.shape[1] == 0:
            return 0.0
        defect = m - self.basis @ (self.basis.conj().T @ m)
        return float(np.max(np.linalg.norm(defect, axis=0)))


def rank_nullspace(m, tol: float = DEFAULT_TOL,
                   atol: float = 0.0) -> tuple[int, Subspace]:
    """Rank and orthonormal nullspace basis of ``m``.

    Rank counts singular values above ``max(tol * sigma_max, atol)``; the
    relative threshold keeps the decision stable under rescaling, while
    the optional absolute floor lets callers declare a scale below which
    the matrix counts as zero (otherwise a matrix of pure round-off noise
    would be assigned full rank).

    A tall or square matrix gets the thin SVD: its ``cols`` right singular
    vectors already span C^cols, and the rows x rows U, which nothing
    reads, is never built. A wide matrix keeps the full V^H, since the
    thin one has only ``rows`` of the ``cols`` rows and would drop the
    nullspace directions beyond them.
    """
    rank, null, _ = _decide(m, tol, atol)
    return rank, null


def _decide(m, tol: float, atol: float) -> tuple[int, Subspace, bool]:
    """:func:`rank_nullspace`, and whether the decision is on the edge: a
    singular value lies within a factor ``_CLEARANCE`` of the cut."""
    m = as_cmatrix(m)
    if m.size == 0:
        return 0, Subspace.full(m.shape[1]), False
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    rank, cut = _numerical_rank(s, tol, atol), _cut(s, tol, atol)
    edge = bool(np.any((_CLEARANCE * s > cut) & (s < _CLEARANCE * cut)))
    return rank, Subspace(m.shape[1], vh[rank:].conj().T), edge


def span_dim(vectors: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """``Subspace.from_spanning(vectors, tol=tol).dim`` for the columns of
    a matrix, from the singular values alone."""
    if vectors.size == 0:
        return 0
    return _numerical_rank(np.linalg.svd(vectors, compute_uv=False), tol, tol)


def _numerical_rank(s: np.ndarray, tol: float, atol: float) -> int:
    """The one rank cut: the number of singular values ``s`` (descending,
    not empty) above :func:`_cut`."""
    return int(np.sum(s > _cut(s, tol, atol)))


def _cut(s: np.ndarray, tol: float, atol: float) -> float:
    """The cut itself, ``max(tol * sigma_max, atol)``."""
    return max(tol * s[0], atol)


# A decision clears its cut when every singular value lies more than this
# factor above or below it; one that does not is on the edge.
_CLEARANCE = 10


# Rows buffered before each fold into R, as a multiple of the column count:
# a fold re-factors R along with the buffer, so a buffer several times
# taller than R keeps that repeated work a small share, while the rows in
# memory stay a fixed multiple of one R factor.
_FOLD_ROWS_PER_COL = 4


def _streamed_nullspace(blocks, cols: int, tol: float = DEFAULT_TOL,
                        atol: float = 0.0, every=None) -> tuple[int, Subspace]:
    """:func:`rank_nullspace` of the stacked row ``blocks`` (each ``cols`` wide).

    Blocks are buffered until they reach ``_FOLD_ROWS_PER_COL * cols``
    rows; each full buffer is folded into the R factor of everything seen
    so far, ``R = qr([R; buffer], mode="r")``, and once a fold has
    happened the trailing partial buffer is folded too, so
    :func:`rank_nullspace` gets a square cols x cols R.  R has the Gram
    matrix of the rows it replaces, so the singular values and right
    singular vectors are those of the whole system up to the backward
    error of the QR, and ``tol`` and ``atol`` keep their meaning (the
    normal equations are never formed).  A system shorter than one buffer
    is solved as it stands.

    ``every``, when given, returns the blocks of a longer system with the
    same exact nullspace.  Fewer rows can leave a singular value nearer
    the cut, so a decision on the edge (see :func:`_decide`) is left to
    that longer system.
    """
    limit = _FOLD_ROWS_PER_COL * cols
    buffer, height, folded = [np.zeros((0, cols))], 0, False
    for block in blocks:
        buffer.append(block)
        height += block.shape[0]
        if height >= limit:
            buffer, height, folded = [_fold(buffer)], 0, True
    if folded and height:
        buffer = [_fold(buffer)]
    if every is None:
        return rank_nullspace(np.vstack(buffer), tol, atol)
    rank, null, edge = _decide(np.vstack(buffer), tol, atol)
    return _streamed_nullspace(every(), cols, tol, atol) if edge else (rank, null)


def _fold(buffer: list) -> np.ndarray:
    """R factor of the stacked ``buffer``, which is emptied first so that
    its pieces are freed before the QR copies the stack."""
    stacked = np.vstack(buffer)
    buffer.clear()
    return np.linalg.qr(stacked, mode="r")


def solve_affine(a, b, tol: float = DEFAULT_TOL) -> np.ndarray | None:
    """Least-norm solution of ``a @ x = b``, or None when inconsistent.

    A returned vector is certified: its residual satisfies
    ``|a x - b| <= tol * (1 + |b|)``.
    """
    a = as_cmatrix(a)
    b = as_cvector(b)
    if a.shape[0] != b.size:
        raise ShapeError(f"matrix has {a.shape[0]} rows but rhs has length {b.size}")
    if a.shape[1] == 0:
        x = np.zeros(0, dtype=complex)
    else:
        x = np.linalg.lstsq(a, b, rcond=None)[0]
    resid = np.linalg.norm(a @ x - b)
    if resid > tol * (1.0 + np.linalg.norm(b)):
        return None
    return x


def subspace_sum(s1: Subspace, s2: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
    _check_ambient(s1, s2)
    return Subspace.from_spanning(np.hstack([s1.basis, s2.basis]), s1.ambient_dim, tol)


def subspace_intersect(s1: Subspace, s2: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
    """Intersection via the joint kernel of the two complement projectors."""
    _check_ambient(s1, s2)
    eye = np.eye(s1.ambient_dim)
    stacked = np.vstack([eye - s1.projector(), eye - s2.projector()])
    return rank_nullspace(stacked, tol)[1]


def subspace_contains(s1: Subspace, s2: Subspace, tol: float = DEFAULT_TOL) -> bool:
    """True when ``s2`` is contained in ``s1`` (residual test at tol)."""
    _check_ambient(s1, s2)
    return s1.residual(s2.basis) <= tol


def subspace_equal(s1: Subspace, s2: Subspace, tol: float = DEFAULT_TOL) -> bool:
    return subspace_contains(s1, s2, tol) and subspace_contains(s2, s1, tol)


def _check_ambient(s1: Subspace, s2: Subspace) -> None:
    if s1.ambient_dim != s2.ambient_dim:
        raise ShapeError(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}")
