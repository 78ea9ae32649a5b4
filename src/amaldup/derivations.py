"""Derivations into dual towers, cohomology, and amenability predicates.

A derivation ``D`` from an algebra into a bimodule X is stored as a
matrix ``(dim X, dim alg)`` with columns ``D(e_i)``; its vectorization is
row-major.  Z1, the inner space B1, and the cyclic subspace at level one
are single nullspace or span computations on the Leibniz system: this
is the direct route.  Its Leibniz identity is written once, as the row
blocks of :func:`_leibniz_blocks` (up to one fold buffer of left
factors e_i at a time), which the nullspace solves fold into one R
factor without stacking; :func:`derivation_defect` is their residual.
Multipliers (:mod:`amaldup.multipliers`) are derivations into a
one-sided module and read the same rows.

Every direct solve is one call of :func:`_leibniz_nullspace`, the one
reader of ``alg.generators(tol)``: it writes those rows only at G, a set
with span(G ∪ G·G) = A, decided at the solve's own ``tol``.  That
suffices: the elements a at which D obeys D(ax) = D(a)x + aD(x) for
every x form a subspace S, and S is closed under products, since for
a, b in S, D(ab) = D(a)b + aD(b) and D(abx) = D(a)bx + aD(bx) =
D(ab)x + abD(x).  So S contains G, G·G and
their span, which is A.  Nothing here depends on the bimodule, so it
covers every dual level, the cyclic space and the one-sided modules of
the multipliers.  Fewer rows can leave a singular value nearer the
cut, so when G is a proper subset a decision within 10× of it is made
on every row instead (``every`` of :func:`_streamed_nullspace`).

The block route splits a derivation of a duplication into the level-n
dual into D1A|D1F|D2A|D2F and states the paper's identities once, in
:func:`derivation_identities` (two shared, six by parity of n, in the
grammar of :class:`~amaldup.duals.BlockIdentity`).  That one table gives
the residual checks and the quadruple spaces whose dimensions must equal
the direct ones; :func:`property_h` reads the D1A blocks of the odd one.

Inner derivations ad(x, phi) have their own table, :func:`_ad_table`:
per slot, the witness parts read and the families ``Op_L - Op_R``; the
D2A entry is empty at even n.  :func:`is_inner_match` solves it against
a quadruple, and :func:`corollary_dt_check` is that solve on (0, 0, T, 0).

Weak amenability at level n means H1 into the n-th dual vanishes;
cyclic amenability means every cyclic derivation into the first dual is
inner.  The quotient for the cyclic group uses ``B1 intersect Z1_cyclic``
as denominator, since inner derivations need not be cyclic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .algebra import BimoduleAction, Duplication, FinDimAlgebra
from .duals import (D1A, D1F, D2A, D2F, L, R, BlockIdentity, BlockLayout,
                    BlockQuadruple, DualActionBlocks, DualBimodule, TransposedSum,
                    block_nullspace, block_residuals, duplication_dual_blocks,
                    duplication_nth_dual, nth_dual_bimodule)
from .errors import DecompositionDefect, HypothesisNotMet, UnitRequired
from .linalg import (_FOLD_ROWS_PER_COL, DEFAULT_TOL, Subspace,
                     _streamed_nullspace, check_bound, rank_nullspace,
                     solve_affine, subspace_intersect)


# ---------------------------------------------------------------------------
# generic derivation machinery


def _leibniz_blocks(mult: np.ndarray, bim: DualBimodule, left=None):
    """The Leibniz rows over vec(D) at the left factors e_i, i in ``left``
    (default all), for up to ``_FOLD_ROWS_PER_COL`` of them per block:
    each i gives N·dx rows, one column count, so a block fills at most
    one fold buffer."""
    n, dx = mult.shape[0], bim.module_dim
    eye_n, eye_x = np.eye(n), np.eye(dx)
    left = list(range(n) if left is None else left)
    for start in range(0, len(left), _FOLD_ROWS_PER_COL):
        i = left[start:start + _FOLD_ROWS_PER_COL]
        # axes (i, j, k | l, m): row (i, j, k) is entry k of
        # D(e_i e_j) - D(e_i).e_j - e_i.D(e_j), column (l, m) is D[l, m].
        # Each term is a broadcast product, not an einsum sum from +0.0, so
        # every entry, signed zeros included, is that of the Kronecker form
        rows = (eye_x[None, None, :, :, None] * mult[i][:, :, None, None, :]
                - bim.right_ops[None, :, :, :, None]
                * eye_n[i][:, None, None, None, :]
                - bim.left_ops[i][:, None, :, :, None]
                * eye_n[None, :, None, None, :])
        yield rows.reshape(len(i) * n * dx, dx * n)


def _leibniz_nullspace(alg: FinDimAlgebra, bim: DualBimodule, tol: float,
                       atol: float = 0.0, extra=()) -> Subspace:
    """The direct solve: nullspace of the Leibniz rows into ``bim`` at G =
    ``alg.generators(tol)`` and of the row blocks in the list ``extra``.
    Only when G is a proper subset is an edge decision left to every row."""
    g = alg.generators(tol)

    def rows(left=None):
        return itertools.chain(_leibniz_blocks(alg.mult, bim, left), extra)

    _, null = _streamed_nullspace(rows(g), bim.module_dim * alg.dim, tol, atol,
                                  every=rows if len(g) < alg.dim else None)
    return null


def derivation_space(alg: FinDimAlgebra, bim: DualBimodule,
                     tol: float = DEFAULT_TOL) -> Subspace:
    """All derivations of the algebra into the bimodule, as vec'd matrices."""
    return _leibniz_nullspace(alg, bim, tol)


def derivation_defect(mult: np.ndarray, bim: DualBimodule, d: np.ndarray) -> float:
    """Worst Leibniz residual of a candidate derivation matrix."""
    vec = np.reshape(d, -1)
    return max((float(np.max(np.abs(block @ vec), initial=0.0))
                for block in _leibniz_blocks(mult, bim)), default=0.0)


def inner_derivation(bim: DualBimodule, x: np.ndarray) -> np.ndarray:
    """The matrix of ``c -> c.x - x.c``."""
    return np.einsum("ckm,m->kc", bim.left_ops - bim.right_ops, x)


def inner_space(alg: FinDimAlgebra, bim: DualBimodule,
                tol: float = DEFAULT_TOL) -> Subspace:
    """B1: column m is vec of :func:`inner_derivation` at the basis vector e_m."""
    dx = bim.module_dim
    spanning = np.einsum("ckm->kcm", bim.left_ops - bim.right_ops)
    return Subspace.from_spanning(spanning.reshape(dx * alg.dim, dx),
                                  dx * alg.dim, tol)


def _antisymmetry_rows(n: int) -> np.ndarray:
    """Rows expressing D[i, j] + D[j, i] = 0 over vec(D) for square D."""
    i, j = np.triu_indices(n)
    rows = np.zeros((i.size, n * n))
    rows[np.arange(i.size), i * n + j] += 1.0
    rows[np.arange(i.size), j * n + i] += 1.0
    return rows


def cyclic_derivation_space(alg: FinDimAlgebra, tol: float = DEFAULT_TOL) -> Subspace:
    """Derivations into the first dual with antisymmetric pairing matrix."""
    return _leibniz_nullspace(alg, nth_dual_bimodule(alg, 1), tol,
                              extra=[_antisymmetry_rows(alg.dim)])


@dataclass(frozen=True)
class CohomologyReport:
    level: int
    dim_z1: int
    dim_b1: int
    dim_h1: int
    dim_z1_cyclic: int | None = None
    dim_h1_cyclic: int | None = None

    @property
    def weakly_amenable(self) -> bool:
        return self.dim_h1 == 0

    @property
    def cyclically_amenable(self) -> bool | None:
        return None if self.dim_h1_cyclic is None else self.dim_h1_cyclic == 0


def cohomology(alg: FinDimAlgebra, n: int,
               tol: float = DEFAULT_TOL) -> CohomologyReport:
    """Dimensions of Z1, B1 and H1 into the n-th dual (cyclic ones at n=1)."""
    bim = nth_dual_bimodule(alg, n)
    z1 = derivation_space(alg, bim, tol)
    b1 = inner_space(alg, bim, tol)
    z1c_dim, h1c = _cyclic_dims(alg, b1, tol) if n == 1 else (None, None)
    return CohomologyReport(n, z1.dim, b1.dim, _h1_dim(b1, z1, tol), z1c_dim, h1c)


def _h1_dim(b1: Subspace, z: Subspace, tol: float) -> int:
    """dim Z - dim(B1 ∩ Z): the cocycles in ``z`` modulo the inner ones."""
    return z.dim - subspace_intersect(b1, z, tol).dim


def cyclic_cohomology(alg: FinDimAlgebra, tol: float = DEFAULT_TOL) -> tuple[int, int]:
    """Dimensions of cyclic Z1 and cyclic H1 at level one, without Z1 itself."""
    return _cyclic_dims(alg, inner_space(alg, nth_dual_bimodule(alg, 1), tol), tol)


def _cyclic_dims(alg: FinDimAlgebra, b1: Subspace, tol: float) -> tuple[int, int]:
    z1c = cyclic_derivation_space(alg, tol)
    return z1c.dim, _h1_dim(b1, z1c, tol)


# ---------------------------------------------------------------------------
# block structure on a duplication


@dataclass(frozen=True)
class DerivationQuadruple(BlockQuadruple):
    """Blocks of a derivation of a duplication into its level-n dual.

    ``d1_a: A -> A^(n)``, ``d1_f: F -> A^(n)``, ``d2_a: A -> F^(n)``,
    ``d2_f: F -> F^(n)``; the parity of ``level`` selects the identities.
    """

    d1_a: np.ndarray = field(repr=False)
    d1_f: np.ndarray = field(repr=False)
    d2_a: np.ndarray = field(repr=False)
    d2_f: np.ndarray = field(repr=False)
    level: int = 1

    @staticmethod
    def split(a_dim: int, d: np.ndarray, level: int) -> "DerivationQuadruple":
        return DerivationQuadruple(
            *BlockLayout(a_dim, d.shape[-1] - a_dim).split(d), level)


def derivation_identities(a: FinDimAlgebra, f: FinDimAlgebra,
                          act: BimoduleAction, n: int) -> list[BlockIdentity]:
    """The identities characterizing derivations into the level-n dual.

    Two are shared by all levels; six more depend on the parity of n.
    """
    b = duplication_dual_blocks(a, f, act, n)
    ca, cf = a.mult, f.mult
    shared = [  # the factor blocks derive into their own towers
        BlockIdentity("d1f_leibniz", D1F, cf,
                      ((R, D1F, b.act_right), (L, D1F, b.act_left))),
        BlockIdentity("d2f_leibniz", D2F, cf,
                      ((R, D2F, b.f_right), (L, D2F, b.f_left)))]
    if n % 2 == 1:
        return shared + [
            BlockIdentity("d1a_leibniz", D1A, ca,
                          ((R, D1A, b.a_right), (L, D1A, b.a_left))),
            BlockIdentity("d1a_left_action", D1A, act.left,
                          ((R, D1F, b.a_right), (L, D1A, b.act_left))),
            BlockIdentity("d1a_right_action", D1A, act.right,
                          ((L, D1F, b.a_left), (R, D1A, b.act_right))),
            BlockIdentity("d2a_left_action", D2A, act.left,
                          ((R, D1F, b.mix_right), (L, D2A, b.f_left))),
            BlockIdentity("d2a_right_action", D2A, act.right,
                          ((L, D1F, b.mix_left), (R, D2A, b.f_right))),
            BlockIdentity("d2a_products", D2A, ca,
                          ((R, D1A, b.mix_right), (L, D1A, b.mix_left)))]
    return shared + [
        BlockIdentity("d1a_leibniz", D1A, ca,
                      ((R, D1A, b.a_right), (R, D2A, b.mix_right),
                       (L, D1A, b.a_left), (L, D2A, b.mix_left))),
        BlockIdentity("d1a_left_action", D1A, act.left,
                      ((R, D1F, b.a_right), (R, D2F, b.mix_right),
                       (L, D1A, b.act_left))),
        BlockIdentity("d1a_right_action", D1A, act.right,
                      ((L, D1F, b.a_left), (L, D2F, b.mix_left),
                       (R, D1A, b.act_right))),
        BlockIdentity("d2a_products", D2A, ca),
        BlockIdentity("d2a_left_module", D2A, act.left, ((L, D2A, b.f_left),)),
        BlockIdentity("d2a_right_module", D2A, act.right, ((R, D2A, b.f_right),))]


# Extra identities of cyclic derivations at level one.
CYCLIC_IDENTITIES = (TransposedSum("d1a_antisymmetric", D1A, D1A),
                     TransposedSum("d2f_antisymmetric", D2F, D2F),
                     TransposedSum("cross_blocks_balance", D1F, D2A))


def decompose_derivation(a: FinDimAlgebra, f: FinDimAlgebra, act: BimoduleAction,
                         d: np.ndarray, n: int, tol: float = DEFAULT_TOL
                         ) -> DerivationQuadruple:
    """Blocks of a derivation into the level-n dual, identities verified."""
    d = np.asarray(d, dtype=complex)
    q = DerivationQuadruple.split(a.dim, d, n)
    defects = block_residuals(derivation_identities(a, f, act, n), q.blocks)
    worst = max(defects.values()) if defects else 0.0
    if worst > check_bound(tol, np.max(np.abs(d), initial=0.0)):
        bad = max(defects, key=defects.get)
        raise DecompositionDefect(
            f"derivation block identity {bad!r} fails with defect {worst:.3g}")
    return q


def derivation_quadruple_space(a: FinDimAlgebra, f: FinDimAlgebra,
                               act: BimoduleAction, n: int,
                               tol: float = DEFAULT_TOL) -> Subspace:
    """Solutions of the block identities, independent of the direct Z1.

    Coordinates are ``vec(D1A) + vec(D1F) + vec(D2A) + vec(D2F)``; the
    dimension equals ``dim Z1(duplication, level n)`` when both the block
    identities and the direct Leibniz computation are right.
    """
    return block_nullspace(derivation_identities(a, f, act, n),
                           BlockLayout(a.dim, f.dim), tol)


def cyclic_quadruple_space(a: FinDimAlgebra, f: FinDimAlgebra,
                           act: BimoduleAction,
                           tol: float = DEFAULT_TOL) -> Subspace:
    """Level-one quadruples that are blockwise cyclic.

    On top of the odd block identities: the diagonal blocks carry
    antisymmetric pairing matrices and the off-diagonal blocks balance
    transposedly.  The solution dimension must equal the dimension of
    the cyclic derivation space of the duplication.
    """
    identities = derivation_identities(a, f, act, 1) + list(CYCLIC_IDENTITIES)
    return block_nullspace(identities, BlockLayout(a.dim, f.dim), tol)


# Witness parts of an inner derivation: x in the dual of A, phi in that of F.
X, PHI = 0, 1


def _ad_table(b: DualActionBlocks) -> dict[int, list]:
    """Slot -> [(witness part, Op_L - Op_R)]: column c of ad(w) is
    ``(Op_L(c) - Op_R(c)) w``.  The mixing families carry x into F's dual
    at odd levels and phi into A's at even ones, where D2A reads nothing."""
    ad_a = (X, b.a_left - b.a_right)
    ad_act = (X, b.act_left - b.act_right)
    ad_f = (PHI, b.f_left - b.f_right)
    mix = b.mix_left - b.mix_right
    if b.level % 2 == 1:
        return {D1A: [ad_a], D1F: [ad_act], D2A: [(X, mix)], D2F: [ad_f]}
    return {D1A: [ad_a, (PHI, mix)], D1F: [ad_act], D2A: [], D2F: [ad_f]}


def is_inner_match(a: FinDimAlgebra, f: FinDimAlgebra, act: BimoduleAction,
                   q: DerivationQuadruple, tol: float = DEFAULT_TOL
                   ) -> tuple[np.ndarray, np.ndarray] | None:
    """Witness ``(x, phi)`` in the level-n dual with blockwise ad = q, or None.

    Each slot of the ad-table gives the rows ``ad(x, phi) e_c = q e_c``
    (zero rows where it reads no part); they are solved jointly, and the
    residual certificate of the solver decides innerness.
    """
    table = _ad_table(duplication_dual_blocks(a, f, act, q.level))
    offs = (0, a.dim, a.dim + f.dim)
    rows, rhs = [], []
    for slot, terms in table.items():
        target = q.blocks[slot]
        block = np.zeros((target.size, offs[-1]), dtype=complex)
        for part, ops in terms:
            width = offs[part + 1] - offs[part]
            block[:, offs[part]:offs[part + 1]] = ops.reshape(target.size, width)
        rows.append(block)
        rhs.append(target.T.reshape(-1))
    solution = solve_affine(np.vstack(rows), np.concatenate(rhs), tol)
    if solution is None:
        return None
    return solution[:a.dim], solution[a.dim:]


@dataclass(frozen=True)
class AugmentedDerivationReport:
    is_derivation: bool
    derivation_defect: float
    inner_witness: np.ndarray | None


def corollary_dt_check(dup: Duplication, t_block: np.ndarray, n: int,
                       tol: float = DEFAULT_TOL) -> AugmentedDerivationReport:
    """Checks that ``(a, b) -> (0, T(a))`` derives, and whether it is inner.

    ``t_block`` maps A into the level-n dual of F (n odd); it must be a
    left module map vanishing on the span of products, else
    :class:`HypothesisNotMet`.  Innerness needs a witness in A's dual
    that is annihilated by both ad-actions and realizes T: the x part of
    :func:`is_inner_match` on the quadruple ``(0, 0, T, 0)``.
    """
    if n % 2 == 0:
        raise ValueError("this construction lives at odd dual levels")
    a, f, act = dup.a, dup.f, dup.act
    t_block = np.asarray(t_block, dtype=complex)
    f_left = duplication_dual_blocks(a, f, act, n).f_left
    da, df = a.dim, f.dim
    mod_defect = float(np.max(np.abs(
        np.einsum("pim,km->pik", act.left, t_block)
        - np.einsum("pkm,mi->pik", f_left, t_block)))) if df else 0.0
    prod_defect = float(np.max(np.abs(
        np.einsum("ijm,km->ijk", a.mult, t_block)))) if da else 0.0
    if max(mod_defect, prod_defect) > tol:
        raise HypothesisNotMet(
            f"map is not a module map vanishing on products "
            f"(defects {mod_defect:.3g}, {prod_defect:.3g})")
    q = DerivationQuadruple(np.zeros((da, da)), np.zeros((da, df)),
                            t_block, np.zeros((df, df)), n)
    defect = derivation_defect(dup.mult, duplication_nth_dual(dup, n),
                               q.assemble())
    witness = is_inner_match(a, f, act, q, tol)
    return AugmentedDerivationReport(defect <= check_bound(tol), defect,
                                     None if witness is None else witness[0])


def module_derivation_space(a: FinDimAlgebra, f: FinDimAlgebra,
                            act: BimoduleAction, n: int,
                            tol: float = DEFAULT_TOL) -> Subspace:
    """Derivations A -> A^(n) commuting with the F-action (n even).

    These are the quadruples ``(D1A, 0, 0, 0)``: the even identities on
    D1A with every other block set to zero.
    """
    if n % 2 == 1:
        raise ValueError("module derivations live at even dual levels")
    layout = BlockLayout(a.dim, f.dim)
    rows = (i.coefficients(layout)[D1A]
            for i in derivation_identities(a, f, act, n) if i.slot == D1A)
    return _streamed_nullspace(rows, layout.size(D1A), tol)[1]


@dataclass(frozen=True)
class UnitalFormReport:
    level: int
    checked: int
    max_defect: float
    passed: bool


def unital_form_check(dup: Duplication, n: int,
                      tol: float = DEFAULT_TOL) -> UnitalFormReport:
    """With A unital, the off-diagonal blocks are determined by D1A (odd n)
    or vanish against D2F corrections (even n); verified on a Z1 basis."""
    a, f, act = dup.a, dup.f, dup.act
    e = a.unit(tol)
    if e is None:
        raise UnitRequired("first factor has no unit")
    b = duplication_dual_blocks(a, f, act, n)
    mix_l = np.einsum("i,ikm->km", e, b.mix_left)[None]
    mix_r = np.einsum("i,ikm->km", e, b.mix_right)[None]
    e_dot = np.einsum("i,ipm->pm", e, act.right)[None]   # e . f_p
    dot_e = np.einsum("i,pim->pm", e, act.left)[None]    # f_p . e
    eye_a = np.eye(a.dim)[None]
    if n % 2 == 1:
        # D1F = D1A(e . -) = D1A(- . e) and D2A = mix(e) D1A on both sides
        identities = [
            BlockIdentity("d1f_right_unit", D1A, e_dot, ((L, D1F, eye_a),)),
            BlockIdentity("d1f_left_unit", D1A, dot_e, ((L, D1F, eye_a),)),
            BlockIdentity("d2a_right_mix", D2A, eye_a, ((L, D1A, mix_r),)),
            BlockIdentity("d2a_left_mix", D2A, eye_a, ((L, D1A, mix_l),))]
    else:
        # D1F = D1A(e . -) - mix(e) D2F on both sides, and D2A = 0
        identities = [
            BlockIdentity("d1f_right_unit", D1A, e_dot,
                          ((L, D1F, eye_a), (L, D2F, mix_r))),
            BlockIdentity("d1f_left_unit", D1A, dot_e,
                          ((L, D1F, eye_a), (L, D2F, mix_l))),
            BlockIdentity("d2a_vanishes", D2A, eye_a)]
    space = derivation_space(dup, duplication_nth_dual(dup, n), tol)
    basis = space.basis.T.reshape(-1, dup.dim, dup.dim)
    residuals = block_residuals(identities, BlockLayout(a.dim, f.dim).split(basis))
    worst = float(np.max(list(residuals.values()), initial=0.0))
    return UnitalFormReport(n, space.dim, worst, worst <= check_bound(tol))


def property_h(a: FinDimAlgebra, f: FinDimAlgebra, act: BimoduleAction,
               n: int = 0, tol: float = DEFAULT_TOL) -> bool:
    """Whether every derivation of A into its (2n+1)-th dual extends.

    Extension means a compatible pair (D1F derivation, D2A linear)
    satisfying the odd block identities, so D1A extends exactly when it is
    the D1A block of a quadruple (D2F = 0 completes one).  Those blocks lie
    in Z1(A, 2n+1) by D1A's own Leibniz identity; the property holds when
    they span it, i.e. the D1A rows of the orthonormal quadruple basis
    have rank dim Z1, cut at ``tol``.
    """
    level = 2 * n + 1
    z1 = derivation_space(a, nth_dual_bimodule(a, level), tol)
    quads = derivation_quadruple_space(a, f, act, level, tol)
    rank, _ = rank_nullspace(quads.basis[:a.dim * a.dim], tol, tol)
    return rank == z1.dim


def weak_amenability(alg: FinDimAlgebra, n: int, tol: float = DEFAULT_TOL) -> bool:
    """H1 into the n-th dual vanishes."""
    bim = nth_dual_bimodule(alg, n)
    return _h1_dim(inner_space(alg, bim, tol), derivation_space(alg, bim, tol),
                   tol) == 0


def cyclic_amenability(alg: FinDimAlgebra, tol: float = DEFAULT_TOL) -> bool:
    """Every cyclic derivation into the dual is inner."""
    return cyclic_cohomology(alg, tol)[1] == 0


def cyclic_quadruple_defects(a: FinDimAlgebra, f: FinDimAlgebra,
                             act: BimoduleAction, q: DerivationQuadruple
                             ) -> dict[str, float]:
    """Extra identities a cyclic derivation's blocks satisfy at level one.

    On top of the odd identities: D1A and D2F antisymmetric, and the
    transposed A-to-F block balancing the F-to-A block.
    """
    identities = derivation_identities(a, f, act, q.level)
    return block_residuals(identities + list(CYCLIC_IDENTITIES), q.blocks)
