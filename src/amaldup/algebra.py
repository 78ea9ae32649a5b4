"""Finite-dimensional complex algebras, bimodule actions and duplications.

An algebra is a dense structure-constant tensor ``mult`` with
``e_i e_j = sum_k mult[i, j, k] e_k``.  A bimodule action of an algebra F
on an algebra A is a pair of tensors

    ``left[p, i, k]``:  f_p . a_i = sum_k left[p, i, k] a_k
    ``right[i, p, k]``: a_i . f_p = sum_k right[i, p, k] a_k

The amalgamated duplication of F along A glues the two along the action:

    (a, b) * (x, y) = (a x + a . y + b . x, b y)

which is associative exactly when the action satisfies the bimodule
axioms plus three compatibility identities tying it to A's product; the
validators below report the worst defect of each identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (IncompatibleAction, MissingAction, NotACharacter,
                     ShapeError)
from .linalg import (_FOLD_ROWS_PER_COL, DEFAULT_TOL, Subspace, as_cvector,
                     solve_affine, span_dim)


def left_family(tensor: np.ndarray) -> np.ndarray:
    """Operators ``y -> t(x, y)`` of a product or action tensor ``t[x, y, k]``,
    one per basis x: ``ops[x][k, y] = t[x, y, k]``."""
    return np.transpose(tensor, (0, 2, 1))


def right_family(tensor: np.ndarray) -> np.ndarray:
    """Operators ``x -> t(x, y)``, one per basis y: ``ops[y][k, x] = t[x, y, k]``."""
    return np.transpose(tensor, (1, 2, 0))


@dataclass(frozen=True)
class FinDimAlgebra:
    """An algebra over C given by basis labels and a multiplication tensor.

    It keeps no tol: :meth:`unit` and :meth:`generators` are decided at the
    caller's ``tol``, each solved on the first read at that tol.
    """

    mult: np.ndarray = field(repr=False)
    labels: tuple[str, ...]

    @property
    def dim(self) -> int:
        return self.mult.shape[0]

    def unit(self, tol: float = DEFAULT_TOL) -> np.ndarray | None:
        """The two-sided unit, or None when the algebra has none at ``tol``."""
        kept = self.__dict__.setdefault("_unit", {})
        if tol not in kept:
            kept[tol] = _detect_unit(self.mult, tol)
        return kept[tol]

    def generators(self, tol: float = DEFAULT_TOL) -> tuple[int, ...]:
        """Basis indices G with span(G ∪ G·G) = A, or all of them.

        Greedy and seed-free: index i joins G when it raises the dimension
        of span(G ∪ G·G), cut as :meth:`Subspace.from_spanning` cuts at
        ``tol``.  When depth 2 does not fill A, G is ``range(dim)``.  Any
        subalgebra containing G is then A, which is what lets the direct
        route write its Leibniz rows at G only.  Up to
        ``_FOLD_ROWS_PER_COL`` basis elements all those rows are one
        broadcast and at most one fold buffer, and fewer of them save
        less than the search costs, so G is ``range(dim)`` there without
        a search.
        """
        kept = self.__dict__.setdefault("_generators", {})
        if tol in kept:
            return kept[tol]
        n, eye, picked, reached = self.dim, np.eye(self.dim), [], 0
        for i in range(n if n > _FOLD_ROWS_PER_COL else 0):
            if reached == n:
                break
            trial = picked + [i]
            products = self.mult[trial][:, trial].reshape(-1, n)
            dim = span_dim(np.vstack([eye[trial], products]).T, tol)
            if dim > reached:
                picked, reached = trial, dim
        kept[tol] = tuple(picked) if reached == n else tuple(range(n))
        return kept[tol]

    @classmethod
    def from_mult(cls, mult, labels=None, **parts):
        """Checked construction; ``parts`` are the fields a subclass adds."""
        mult = np.asarray(mult, dtype=complex)
        if mult.ndim != 3 or len(set(mult.shape)) != 1:
            raise ShapeError(f"multiplication tensor must be cubic, got {mult.shape}")
        if not np.all(np.isfinite(mult)):
            raise ShapeError("multiplication tensor has non-finite entries")
        n = mult.shape[0]
        if labels is None:
            labels = tuple(f"e{i}" for i in range(n))
        else:
            labels = tuple(labels)
            if len(labels) != n:
                raise ShapeError(f"{len(labels)} labels for dimension {n}")
        return cls(mult, labels, **parts)

    def multiply(self, x, y) -> np.ndarray:
        x = as_cvector(x, self.dim)
        y = as_cvector(y, self.dim)
        return np.einsum("i,j,ijk->k", x, y, self.mult)

    def left_op(self, x) -> np.ndarray:
        """Matrix of y -> x y."""
        return np.einsum("i,ijk->kj", as_cvector(x, self.dim), self.mult)

    def right_op(self, x) -> np.ndarray:
        """Matrix of y -> y x."""
        return np.einsum("j,ijk->ki", as_cvector(x, self.dim), self.mult)

    def is_commutative(self, tol: float = DEFAULT_TOL) -> bool:
        return float(np.max(np.abs(self.mult - self.mult.transpose(1, 0, 2)))) <= tol


@dataclass(frozen=True)
class BimoduleAction:
    """Left/right action tensors of an algebra F on an algebra A."""

    left: np.ndarray = field(repr=False)
    right: np.ndarray = field(repr=False)

    @staticmethod
    def from_tensors(left, right, a_dim: int, f_dim: int) -> "BimoduleAction":
        left = np.asarray(left, dtype=complex)
        right = np.asarray(right, dtype=complex)
        if left.shape != (f_dim, a_dim, a_dim):
            raise ShapeError(f"left action tensor shape {left.shape}, "
                             f"expected {(f_dim, a_dim, a_dim)}")
        if right.shape != (a_dim, f_dim, a_dim):
            raise ShapeError(f"right action tensor shape {right.shape}, "
                             f"expected {(a_dim, f_dim, a_dim)}")
        return BimoduleAction(left, right)

    @staticmethod
    def zero(a_dim: int, f_dim: int) -> "BimoduleAction":
        return BimoduleAction(np.zeros((f_dim, a_dim, a_dim), dtype=complex),
                              np.zeros((a_dim, f_dim, a_dim), dtype=complex))

    def left_op(self, beta) -> np.ndarray:
        """Matrix of x -> beta . x on A."""
        return np.einsum("p,pik->ki", as_cvector(beta), self.left)

    def right_op(self, beta) -> np.ndarray:
        """Matrix of x -> x . beta on A."""
        return np.einsum("p,ipk->ki", as_cvector(beta), self.right)

    def is_symmetric(self, tol: float = DEFAULT_TOL) -> bool:
        return float(np.max(np.abs(self.left - self.right.transpose(1, 0, 2)),
                            initial=0.0)) <= tol


@dataclass(frozen=True, kw_only=True)
class Duplication(FinDimAlgebra):
    """The duplication of ``f`` along ``a``: the assembled algebra (A's
    basis, then F's) together with the triple it was assembled from."""

    a: FinDimAlgebra = field(repr=False)
    f: FinDimAlgebra = field(repr=False)
    act: BimoduleAction = field(repr=False)


@dataclass(frozen=True)
class AlgebraReport:
    associativity_defect: float
    unit_defect: float
    submultiplicativity_constant: float
    passed: bool


@dataclass(frozen=True)
class ActionReport:
    defects: dict
    symmetric: bool
    passed: bool

    @property
    def max_defect(self) -> float:
        return max(self.defects.values()) if self.defects else 0.0


def associativity_defect(mult: np.ndarray) -> float:
    """Worst entry of (e_i e_j) e_k - e_i (e_j e_k) over all basis triples."""
    if not mult.size:
        return 0.0
    lhs = np.einsum("ijm,mkl->ijkl", mult, mult)   # (e_i e_j) e_k
    rhs = np.einsum("jkm,iml->ijkl", mult, mult)   # e_i (e_j e_k)
    return float(np.max(np.abs(lhs - rhs)))


def validate_algebra(alg: FinDimAlgebra, tol: float = DEFAULT_TOL) -> AlgebraReport:
    """Report associativity / unit defects and the l1 growth constant.

    The growth constant ``max_ij |e_i e_j|_1`` is informational only: any
    finite-dimensional algebra can be renormed to make the basis norm
    submultiplicative, so large values are reported but never rejected.
    """
    c = alg.mult
    assoc = associativity_defect(c)
    unit, unit_defect = alg.unit(tol), 0.0
    if unit is not None:
        ident = np.eye(alg.dim)
        unit_defect = max(float(np.max(np.abs(alg.left_op(unit) - ident))),
                          float(np.max(np.abs(alg.right_op(unit) - ident))))
    growth = float(np.max(np.sum(np.abs(c), axis=2))) if c.size else 0.0
    return AlgebraReport(assoc, unit_defect, growth,
                         passed=(assoc <= tol and unit_defect <= tol))


def validate_action(a: FinDimAlgebra, f: FinDimAlgebra, act: BimoduleAction,
                    tol: float = DEFAULT_TOL) -> ActionReport:
    """Worst defect of each bimodule and compatibility identity.

    Identities checked on all basis triples (l = left, r = right tensors,
    cA/cF the multiplication tensors):

      bimodule:      (fg).a = f.(g.a),   a.(fg) = (a.f).g,   (f.a).g = f.(a.g)
      compatibility: f.(ab) = (f.a)b,    (ab).f = a(b.f),    a(f.b) = (a.f)b
    """
    da, df = a.dim, f.dim
    left, right = act.left, act.right
    if left.shape != (df, da, da) or right.shape != (da, df, da):
        raise ShapeError("action tensor shapes do not match the algebras")
    ca, cf = a.mult, f.mult
    defects = {
        "left_action_associative": _d(
            np.einsum("pqr,rik->pqik", cf, left),
            np.einsum("qim,pmk->pqik", left, left)),
        "right_action_associative": _d(
            np.einsum("pqr,irk->ipqk", cf, right),
            np.einsum("ipm,mqk->ipqk", right, right)),
        "left_right_commute": _d(
            np.einsum("pim,mqk->piqk", left, right),
            np.einsum("iqm,pmk->piqk", right, left)),
        "left_compatible": _d(
            np.einsum("ijm,pmk->pijk", ca, left),
            np.einsum("pim,mjk->pijk", left, ca)),
        "right_compatible": _d(
            np.einsum("ijm,mpk->ijpk", ca, right),
            np.einsum("jpm,imk->ijpk", right, ca)),
        "middle_compatible": _d(
            np.einsum("pjm,imk->ipjk", left, ca),
            np.einsum("ipm,mjk->ipjk", right, ca)),
    }
    passed = all(v <= tol for v in defects.values())
    return ActionReport(defects, act.is_symmetric(tol), passed)


def duplicate(a: FinDimAlgebra, f: FinDimAlgebra, act: BimoduleAction,
              tol: float = DEFAULT_TOL, validate: bool = True) -> Duplication:
    """The amalgamated duplication of ``f`` along ``a``, as a record that
    the functions on duplications take instead of rebuilding it.

    Basis is A's basis followed by F's, labels prefixed ``A:`` / ``F:``.
    Raises :class:`IncompatibleAction` when a validator fails.
    """
    if validate:
        ra = validate_algebra(a, tol)
        rf = validate_algebra(f, tol)
        ract = validate_action(a, f, act, tol)
        if not (ra.passed and rf.passed and ract.passed):
            raise IncompatibleAction(
                "duplication input fails validation: "
                f"A defect {ra.associativity_defect:.3g}, "
                f"F defect {rf.associativity_defect:.3g}, "
                f"action defect {ract.max_defect:.3g}")
    da, df = a.dim, f.dim
    n = da + df
    c = np.zeros((n, n, n), dtype=complex)
    c[:da, :da, :da] = a.mult
    c[:da, da:, :da] = act.right
    c[da:, :da, :da] = act.left
    c[da:, da:, da:] = f.mult
    labels = tuple(f"A:{s}" for s in a.labels) + tuple(f"F:{s}" for s in f.labels)
    return Duplication.from_mult(c, labels, a=a, f=f, act=act)


def join_element(x, beta) -> np.ndarray:
    return np.concatenate([as_cvector(x), as_cvector(beta)])


def span_products(alg: FinDimAlgebra, mode: str = "squares",
                  act: BimoduleAction | None = None,
                  tol: float = DEFAULT_TOL) -> Subspace:
    """Span of all basis products, or of all basis action values.

    ``squares`` spans {e_i e_j}; ``left_action`` spans {f_p . a_i} and
    ``right_action`` spans {a_i . f_p} (both inside A).
    """
    if mode == "squares":
        vectors = alg.mult.reshape(-1, alg.dim)
        return Subspace.from_spanning(vectors.T, alg.dim, tol)
    if act is None:
        raise MissingAction(f"mode {mode!r} needs action tensors")
    if mode == "left_action":
        vectors = act.left.reshape(-1, act.left.shape[2])
    elif mode == "right_action":
        vectors = act.right.reshape(-1, act.right.shape[2])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return Subspace.from_spanning(vectors.T, vectors.shape[1], tol)


# ---------------------------------------------------------------------------
# canonical constructions


def multiplicativity_defect(alg: FinDimAlgebra, chi: np.ndarray) -> float:
    """max_ij |chi(e_i e_j) - chi(e_i) chi(e_j)|."""
    chi = as_cvector(chi, alg.dim)
    values = np.einsum("ijk,k->ij", alg.mult, chi)
    return float(np.max(np.abs(values - np.outer(chi, chi))))


def lau_action(a: FinDimAlgebra, f: FinDimAlgebra, theta,
               tol: float = DEFAULT_TOL) -> BimoduleAction:
    """Character-scaled action ``b.x = x.b = theta(b) x``.

    ``theta`` must be a nonzero multiplicative functional on ``f``.
    """
    theta = as_cvector(theta, f.dim)
    defect = multiplicativity_defect(f, theta)
    if defect > tol or np.max(np.abs(theta)) <= tol:
        raise NotACharacter(
            f"functional is not multiplicative (defect {defect:.3g})")
    eye = np.eye(a.dim)
    left = np.einsum("p,ik->pik", theta, eye)
    right = np.einsum("p,ik->ipk", theta, eye)
    return BimoduleAction(left, right)


def canonical_construction(kind: str, **inputs):
    """Build one of the canonical (a, f, action) triples.

    ``lau``: inputs a, f, theta.
    ``module_extension``: inputs f, left, right -- action tensors of f on a
        space X; returns X with the zero product as the first factor.
    ``triangular``: inputs corner_a, corner_b, m_left, m_right -- algebras
        A, B and an (A, B)-bimodule M; the duplication of the result is
        isomorphic to the upper-triangular algebra [[A, M], [0, B]] under
        the basis (M; A-basis, B-basis).
    """
    if kind == "lau":
        a, f, theta = inputs["a"], inputs["f"], inputs["theta"]
        return a, f, lau_action(a, f, theta)
    if kind == "module_extension":
        f = inputs["f"]
        left = np.asarray(inputs["left"], dtype=complex)
        right = np.asarray(inputs["right"], dtype=complex)
        x_dim = left.shape[1]
        a = FinDimAlgebra.from_mult(np.zeros((x_dim,) * 3, dtype=complex),
                                    inputs.get("labels"))
        return a, f, BimoduleAction.from_tensors(left, right, x_dim, f.dim)
    if kind == "triangular":
        return _triangular(inputs["corner_a"], inputs["corner_b"],
                           np.asarray(inputs["m_left"], dtype=complex),
                           np.asarray(inputs["m_right"], dtype=complex))
    raise ValueError(f"unknown construction {kind!r}")


def _triangular(corner_a: FinDimAlgebra, corner_b: FinDimAlgebra,
                m_left: np.ndarray, m_right: np.ndarray):
    """Module-extension form of an upper-triangular algebra.

    ``m_left[p, i, k]`` is the action of A's basis on M, ``m_right[i, q, k]``
    the action of B's basis.  The glue algebra is the direct product A x B
    acting on M (with the zero product) through its two components.
    """
    dm = m_left.shape[1]
    da, db = corner_a.dim, corner_b.dim
    if m_left.shape != (da, dm, dm) or m_right.shape != (dm, db, dm):
        raise ShapeError("bimodule tensors do not match the corner algebras")
    f = direct_sum(corner_a, corner_b)
    left = np.zeros((da + db, dm, dm), dtype=complex)
    left[:da] = m_left
    right = np.zeros((dm, da + db, dm), dtype=complex)
    right[:, da:, :] = m_right
    m_alg = FinDimAlgebra.from_mult(np.zeros((dm,) * 3, dtype=complex),
                                    tuple(f"m{i}" for i in range(dm)))
    return m_alg, f, BimoduleAction(left, right)


def direct_sum(a: FinDimAlgebra, b: FinDimAlgebra) -> FinDimAlgebra:
    n, m = a.dim, b.dim
    c = np.zeros((n + m,) * 3, dtype=complex)
    c[:n, :n, :n] = a.mult
    c[n:, n:, n:] = b.mult
    return FinDimAlgebra.from_mult(c, a.labels + b.labels)


def natural_action(alg: FinDimAlgebra) -> BimoduleAction:
    """The algebra acting on itself by its own multiplication."""
    return BimoduleAction(alg.mult.copy(), alg.mult.copy())


def homomorphism_action(a: FinDimAlgebra, f: FinDimAlgebra, t_matrix) -> BimoduleAction:
    """Action through an algebra homomorphism ``T: f -> a``.

    ``b.x = T(b) x`` and ``x.b = x T(b)``; ``t_matrix`` has shape
    ``(a.dim, f.dim)``.
    """
    t = np.asarray(t_matrix, dtype=complex)
    if t.shape != (a.dim, f.dim):
        raise ShapeError(f"homomorphism matrix shape {t.shape}, "
                         f"expected {(a.dim, f.dim)}")
    left = np.einsum("kp,kjm->pjm", t, a.mult)
    right = np.einsum("kp,jkm->jpm", t, a.mult)
    return BimoduleAction(left, right)


# ---------------------------------------------------------------------------


def _detect_unit(mult: np.ndarray, tol: float) -> np.ndarray | None:
    """Solve ``u e_j = e_j u = e_j`` for all j; None when unsolvable."""
    n = mult.shape[0]
    if n == 0:
        return None
    left_system = mult.transpose(1, 2, 0).reshape(n * n, n)   # rows (j,k): c[i,j,k]
    right_system = mult.transpose(0, 2, 1).reshape(n * n, n)  # rows (j,k): c[j,i,k]
    rhs = np.eye(n, dtype=complex).reshape(-1)
    u = solve_affine(np.vstack([left_system, right_system]),
                     np.concatenate([rhs, rhs]), tol)
    return u


def _d(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.max(np.abs(x - y))) if x.size else 0.0
