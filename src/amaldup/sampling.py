"""Seeded random generation of validated algebra/action triples.

Random structure-constant tensors are essentially never associative, so
instances are drawn from a catalog of structured cores (pointwise
products, truncated polynomials, square-zero radicals, triangular and
left-scalar algebras, direct sums) combined with actions that are
compatible by construction (zero, character-scaled, homomorphism-driven,
natural self-action, diagonal character actions on square-zero factors).
A random unitary change of basis on each factor hides the structured
coordinates while keeping every axiom exact to machine precision.

Every generated triple is validated before being returned; the recipe
that produced it travels along for reporting and shrinking.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import (BimoduleAction, FinDimAlgebra, direct_sum, homomorphism_action,
                      lau_action, validate_action, validate_algebra)
from .linalg import DEFAULT_TOL, Subspace, rank_nullspace, subspace_sum


@dataclass(frozen=True)
class Core:
    """A structured algebra plus the data needed to build actions on it."""

    name: str
    mult: np.ndarray = field(repr=False)
    characters: tuple = ()          # covectors, natural coordinates
    idempotents: tuple = ()         # nonzero idempotent vectors
    commutative: bool = True

    @property
    def dim(self) -> int:
        return self.mult.shape[0]


def _tensor(dim, entries):
    c = np.zeros((dim, dim, dim), dtype=complex)
    for (i, j, k), v in entries.items():
        c[i, j, k] = v
    return c


def _pointwise(d):
    c = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        c[i, i, i] = 1.0
    chars = tuple(np.eye(d)[i].astype(complex) for i in range(d))
    idems = tuple(np.eye(d)[i].astype(complex) for i in range(d)) \
        + (np.ones(d, dtype=complex),)
    return Core(f"pointwise{d}", c, chars, idems)


def _zero(d):
    return Core(f"zero{d}", np.zeros((d, d, d), dtype=complex))


def _trunc_poly(d):
    """C[x]/(x^d) on the basis 1, x, ..., x^(d-1)."""
    c = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            if i + j < d:
                c[i, j, i + j] = 1.0
    char = np.zeros(d, dtype=complex)
    char[0] = 1.0
    unit = np.zeros(d, dtype=complex)
    unit[0] = 1.0
    return Core(f"trunc_poly{d}", c, (char,), (unit,))


def _nilpotent(d):
    """x, x^2, ..., x^d with x^(d+1) = 0."""
    c = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            if i + j + 1 < d:
                c[i, j, i + j + 1] = 1.0
    return Core(f"nilpotent{d}", c)


def _local3():
    """Unit plus a two-dimensional square-zero radical."""
    c = _tensor(3, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1,
                    (0, 2, 2): 1, (2, 0, 2): 1})
    e = np.array([1.0, 0, 0], dtype=complex)
    return Core("local3", c, (e.copy(),), (e.copy(),))


def _left_scalar(mu):
    mu = np.asarray(mu, dtype=complex)
    d = mu.size
    c = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            c[i, j, j] = mu[i]
    idems = ()
    nz = np.flatnonzero(np.abs(mu) > 0.1)
    if nz.size:
        v = np.zeros(d, dtype=complex)
        v[nz[0]] = 1.0 / mu[nz[0]]
        idems = (v,)
    return Core(f"left_scalar{d}", c, (mu.copy(),), idems, commutative=False)


def _triangular_t2():
    """2x2 upper-triangular matrices on the basis (E12; E11, E22)."""
    c = _tensor(3, {(1, 1, 1): 1, (2, 2, 2): 1, (1, 0, 0): 1, (0, 2, 0): 1})
    chars = (np.array([0, 1, 0], dtype=complex), np.array([0, 0, 1], dtype=complex))
    idems = (np.array([0, 1, 0], dtype=complex), np.array([0, 0, 1], dtype=complex),
             np.array([0, 1, 1], dtype=complex))
    return Core("triangular_t2", c, chars, idems, commutative=False)


def _heisenberg3():
    c = _tensor(3, {(0, 1, 2): 1})
    return Core("heisenberg3", c, commutative=False)


def _one_sided_unit2():
    """e^2 = e, e x = x, x e = 0."""
    c = _tensor(2, {(0, 0, 0): 1, (0, 1, 1): 1})
    return Core("one_sided_unit2", c, (np.array([1, 0], dtype=complex),),
                (np.array([1, 0], dtype=complex),), commutative=False)


def _direct_sum(c1: Core, c2: Core) -> Core:
    """The direct sum, each summand's characters and idempotents padded."""
    alg = direct_sum(*(FinDimAlgebra.from_mult(c.mult)
                       for c in (c1, c2)))
    widths = ((0, c2.dim), (c1.dim, 0))

    def padded(attr):
        return tuple(np.pad(x, w) for c, w in zip((c1, c2), widths)
                     for x in getattr(c, attr))

    return Core(f"{c1.name}+{c2.name}", alg.mult, padded("characters"),
                padded("idempotents"), c1.commutative and c2.commutative)


def _frozen(core: Core) -> Core:
    """The core with every array read-only, so a shared core cannot change."""
    for arr in (core.mult, *core.characters, *core.idempotents):
        arr.setflags(write=False)
    return core


# The catalogue, built once at import and shared by every draw.
COMMUTATIVE_CORES = tuple(map(_frozen, (
    _trunc_poly(1), _zero(1),
    _pointwise(2), _trunc_poly(2), _zero(2), _nilpotent(2),
    _direct_sum(_trunc_poly(1), _zero(1)),
    _pointwise(3), _trunc_poly(3), _local3(), _zero(3),
    _direct_sum(_pointwise(2), _zero(1)),
    _direct_sum(_trunc_poly(2), _trunc_poly(1)),
    _nilpotent(3),
)))
NONCOMMUTATIVE_CORES = tuple(map(_frozen, (
    _left_scalar(np.array([1.0, 0.5])),
    _left_scalar(np.array([1.0, -0.5, 0.25])),
    _one_sided_unit2(),
    _triangular_t2(),
    _heisenberg3(),
    _direct_sum(_one_sided_unit2(), _zero(1)),
    _direct_sum(_left_scalar(np.array([1.0, 0.5])), _trunc_poly(1)),
)))


_UNITAL_COMM = ("trunc_poly1", "pointwise2", "trunc_poly2", "pointwise3",
                "trunc_poly3", "local3")


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _transform_core(core: Core, s: np.ndarray) -> Core:
    sinv = s.conj().T  # unitary
    mult = np.einsum("ai,bj,abk,mk->ijm", s, s, core.mult, sinv)
    chars = tuple(s.T @ x for x in core.characters)
    idems = tuple(sinv @ x for x in core.idempotents)
    return Core(core.name, mult, chars, idems, core.commutative)


def _transform_action(act: BimoduleAction, s_a: np.ndarray,
                      s_f: np.ndarray) -> BimoduleAction:
    sinv = s_a.conj().T
    left = np.einsum("qp,ai,qak,mk->pim", s_f, s_a, act.left, sinv)
    right = np.einsum("ai,qp,aqk,mk->ipm", s_a, s_f, act.right, sinv)
    return BimoduleAction(left, right)


def _diagonal_character_action(a_core: Core, f_core: Core, rng,
                               symmetric: bool) -> BimoduleAction | None:
    """Coordinatewise character scalings; valid on square-zero factors."""
    if np.max(np.abs(a_core.mult)) > 0:
        return None
    choices = list(f_core.characters) + [np.zeros(f_core.dim, dtype=complex)]
    if not f_core.characters:
        return None
    da, df = a_core.dim, f_core.dim
    left = np.zeros((df, da, da), dtype=complex)
    right = np.zeros((da, df, da), dtype=complex)
    for i in range(da):
        chi_l = choices[rng.integers(len(choices))]
        chi_r = chi_l if symmetric else choices[rng.integers(len(choices))]
        left[:, i, i] = chi_l
        right[i, :, i] = chi_r
    return BimoduleAction(left, right)


@dataclass(frozen=True)
class TripleRecipe:
    a_core: str
    f_core: str
    action: str
    seed: int


def random_triple(rng: np.random.Generator, commutative_symmetric: bool = False,
                  unital_a: bool = False, transform: bool = True
                  ) -> tuple[FinDimAlgebra, FinDimAlgebra, BimoduleAction,
                             TripleRecipe]:
    """One triple (A, F, action), validated at ``DEFAULT_TOL``, plus the
    recipe that made it."""
    seed_echo = int(rng.integers(2 ** 31))
    sub = np.random.default_rng(seed_echo)
    comm = COMMUTATIVE_CORES
    pool_a = comm if commutative_symmetric else comm + NONCOMMUTATIVE_CORES
    if unital_a:
        pool_a = [c for c in pool_a if c.name in _UNITAL_COMM
                  or (not commutative_symmetric and c.name == "triangular_t2")]
    pool_f = comm if commutative_symmetric else comm + NONCOMMUTATIVE_CORES

    for _ in range(40):
        a_core = pool_a[sub.integers(len(pool_a))]
        mode = sub.integers(5)
        if mode == 4 and not commutative_symmetric:
            f_core = a_core
        else:
            f_core = pool_f[sub.integers(len(pool_f))]
        act, action_name = _draw_action(a_core, f_core, sub,
                                        commutative_symmetric, mode)
        if act is None:
            continue
        if transform:
            s_a = random_unitary(sub, a_core.dim)
            s_f = random_unitary(sub, f_core.dim)
            a_core_t = _transform_core(a_core, s_a)
            f_core_t = _transform_core(f_core, s_f)
            act = _transform_action(act, s_a, s_f)
        else:
            a_core_t, f_core_t = a_core, f_core
        a = FinDimAlgebra.from_mult(a_core_t.mult)
        f = FinDimAlgebra.from_mult(f_core_t.mult)
        if not (validate_algebra(a).passed and validate_algebra(f).passed
                and validate_action(a, f, act).passed):
            raise AssertionError(
                f"generator produced an invalid triple: {a_core.name}, "
                f"{f_core.name}, {action_name}")
        return a, f, act, TripleRecipe(a_core.name, f_core.name,
                                       action_name, seed_echo)
    raise AssertionError("no compatible action found after many draws")


def _draw_action(a_core: Core, f_core: Core, rng, symmetric: bool, mode: int):
    da, df = a_core.dim, f_core.dim
    if mode == 0:
        return BimoduleAction.zero(da, df), "zero"
    if mode == 1 and f_core.characters:
        theta = f_core.characters[rng.integers(len(f_core.characters))]
        act = lau_action(FinDimAlgebra.from_mult(a_core.mult),
                         FinDimAlgebra.from_mult(f_core.mult), theta)
        return act, "character_scaled"
    if mode == 2 and f_core.characters and a_core.idempotents \
            and (a_core.commutative or not symmetric):
        theta = f_core.characters[rng.integers(len(f_core.characters))]
        u = a_core.idempotents[rng.integers(len(a_core.idempotents))]
        t_matrix = np.outer(u, theta)
        a_alg = FinDimAlgebra.from_mult(a_core.mult)
        f_alg = FinDimAlgebra.from_mult(f_core.mult)
        if symmetric and not a_core.commutative:
            return None, ""
        return homomorphism_action(a_alg, f_alg, t_matrix), "homomorphism"
    if mode == 3:
        act = _diagonal_character_action(a_core, f_core, rng, symmetric)
        if act is not None:
            return act, "diagonal_characters"
        return None, ""
    if mode == 4 and a_core.name == f_core.name and da == df:
        if symmetric and not a_core.commutative:
            return None, ""
        return BimoduleAction(a_core.mult.copy(), a_core.mult.copy()), "natural"
    return None, ""


def random_left_ideal(rng: np.random.Generator, alg: FinDimAlgebra,
                      tol: float = DEFAULT_TOL) -> Subspace:
    """Ideal-biased subspace draw: images and kernels of right multiplications."""
    n = alg.dim
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if rng.integers(2):
        x[rng.integers(n)] = 0.0
    op = alg.right_op(x)
    kind = rng.integers(3)
    if kind == 0:
        return Subspace.from_spanning(op, n, tol)
    if kind == 1:
        _, null = rank_nullspace(op, tol)
        return null
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return subspace_sum(Subspace.from_spanning(op, n, tol),
                        Subspace.from_spanning(alg.right_op(y), n, tol), tol)


def shrink_triple(a, f, act, recipe: TripleRecipe, still_fails) -> tuple:
    """Greedy shrink of a violating triple, keeping the violation alive.

    Tries zeroing the action, then replacing each factor by the dim-1
    zero algebra; returns the smallest variant for which ``still_fails``
    is still true.
    """
    tiny = FinDimAlgebra.from_mult(np.zeros((1, 1, 1)))
    current = (a, f, act, recipe)
    changed = True
    while changed:
        changed = False
        a0, f0, act0, rec0 = current
        candidates = [
            (a0, f0, BimoduleAction.zero(a0.dim, f0.dim),
             replace(rec0, action="zero")),
            (tiny, f0, BimoduleAction.zero(1, f0.dim),
             replace(rec0, a_core="zero1", action="zero")),
            (a0, tiny, BimoduleAction.zero(a0.dim, 1),
             replace(rec0, f_core="zero1", action="zero")),
        ]
        for cand in candidates:
            if _strictly_smaller(cand, current) and still_fails(*cand[:3]):
                current = cand
                changed = True
                break
    return current


def _strictly_smaller(cand, current) -> bool:
    size = lambda t: t[0].dim + t[1].dim + (0 if np.max(np.abs(t[2].left),
                                                        initial=0) == 0 else 1)
    return size(cand) < size(current)
