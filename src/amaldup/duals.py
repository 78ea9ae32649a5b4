"""Dual bimodule towers, Arens products and topological centres.

Everything here works in coordinates with the bilinear pairing
``<x', x> = sum_i x'_i x_i``, under which the n-th dual of C^d is C^d
again and dualizing an operator is a plain (unconjugated) transpose.
Three rules build everything below, each stated once:

1. The operator convention: a product or action tensor ``t[x, y, k]``
   has the left family ``y -> t(x, y)`` and the right family
   ``x -> t(x, y)``, the axis permutations
   :func:`~amaldup.algebra.left_family` and
   :func:`~amaldup.algebra.right_family`.

2. The parity rule, :func:`_dual_pair`: dualizing a bimodule swaps and
   transposes its families,

       L_{n+1}(c) = R_n(c)^T,   R_{n+1}(c) = L_n(c)^T,

   so dualizing twice returns the same arrays, and level n is level 0's
   (left, right) at even n and (right^T, left^T) at odd n.  The tower of
   an algebra (:func:`nth_dual_bimodule`) and all four family pairs of a
   duplication's blockwise tower (:func:`duplication_dual_blocks`) read
   it; n is kept only as the label.

3. The three-step extension, :func:`_extensions`.  A bilinear map
   ``m: X x Y -> Z`` is a 3-tensor ``m[a, b, c]`` whose two adjoints are
   pure axis permutations:

       first_adjoint(m):  Z' x X -> Y'   <m*(z', x), y> = <z', m(x, y)>
       second_adjoint(m): Y x Z' -> X'   <m~(y, z'), x> = <z', m(x, y)>

   Iterating one three times is the literal construction of the first
   (or second) extension on second duals.  Both return to the original
   tensor, the coordinate form of reflexivity, and :func:`_extensions`
   raises :class:`ArensDefect` when either does not.  Products and both
   actions of a duplication are extended by it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .algebra import (BimoduleAction, Duplication, FinDimAlgebra, duplicate,
                      left_family, right_family)
from .errors import ArensDefect, InternalInconsistency
from .ideals import block_subspace
from .linalg import (DEFAULT_TOL, IDENTITY_TOL, Subspace, _streamed_nullspace,
                     check_bound, rank_nullspace, subspace_equal, subspace_intersect)


def first_adjoint(tensor: np.ndarray) -> np.ndarray:
    return np.transpose(tensor, (2, 0, 1))


def second_adjoint(tensor: np.ndarray) -> np.ndarray:
    return np.transpose(tensor, (1, 2, 0))


def _extensions(tensor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both three-step extensions of a bilinear map, checked to collapse
    onto it; disagreement indicates a bug, not a property of the input."""
    first = first_adjoint(first_adjoint(first_adjoint(tensor)))
    second = second_adjoint(second_adjoint(second_adjoint(tensor)))
    defect = max(float(np.max(np.abs(ext - tensor), initial=0.0))
                 for ext in (first, second))
    if defect > IDENTITY_TOL:
        raise ArensDefect(f"extensions differ from the original tensor "
                          f"by {defect:.3g}")
    return first, second


@dataclass(frozen=True)
class DualBimodule:
    """Operator families of an algebra acting on the n-th dual of a module."""

    level: int
    left_ops: np.ndarray = field(repr=False)   # (alg_dim, d, d), op of e_i
    right_ops: np.ndarray = field(repr=False)

    @property
    def module_dim(self) -> int:
        return self.left_ops.shape[1]


def _dual_pair(left_tensor: np.ndarray, right_tensor: np.ndarray,
               n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (left, right) families at level n of the left family of one
    tensor and the right family of another: as they are at even n,
    swapped at odd n with each operator transposed, its action on the
    dual."""
    if n < 0:
        raise ValueError("dual level must be nonnegative")
    left, right = left_family(left_tensor), right_family(right_tensor)
    if n % 2 == 0:
        return left, right
    return np.transpose(right, (0, 2, 1)), np.transpose(left, (0, 2, 1))


def nth_dual_bimodule(alg: FinDimAlgebra, n: int) -> DualBimodule:
    """The algebra acting on its own n-th dual."""
    return DualBimodule(n, *_dual_pair(alg.mult, alg.mult, n))


@dataclass(frozen=True)
class ArensStructure:
    """Extended products on the second dual plus extended actions, if any."""

    first: np.ndarray = field(repr=False)
    second: np.ndarray = field(repr=False)
    bullet: BimoduleAction | None = None
    blacktriangle: BimoduleAction | None = None


def arens_products(alg: FinDimAlgebra) -> ArensStructure:
    """Both three-step extended products on the second dual."""
    return ArensStructure(*_extensions(alg.mult))


def arens_action_extensions(dup: Duplication) -> ArensStructure:
    """Extended products together with both extended actions on second duals.

    The first-convention extension of the right action sends
    ``A'' x F'' -> A''`` and of the left action ``F'' x A'' -> A''``; the
    second-convention ones likewise.
    """
    left_first, left_second = _extensions(dup.act.left)
    right_first, right_second = _extensions(dup.act.right)
    return ArensStructure(*_extensions(dup.mult),
                          BimoduleAction(left_first, right_first),
                          BimoduleAction(left_second, right_second))


def second_dual_duplication_defect(dup: Duplication) -> float:
    """Gap between the dup's extended product and the dup of the extensions."""
    ext = arens_action_extensions(dup)
    a2 = FinDimAlgebra.from_mult(arens_products(dup.a).first, dup.a.labels)
    f2 = FinDimAlgebra.from_mult(arens_products(dup.f).first, dup.f.labels)
    assembled = duplicate(a2, f2, ext.bullet, validate=False)
    return float(np.max(np.abs(ext.first - assembled.mult)))


# ---------------------------------------------------------------------------
# blockwise dual tower of a duplication


@dataclass(frozen=True)
class DualActionBlocks:
    """All operator families of the level-n dual structure of a duplication.

    ``a_left/a_right`` and ``f_left/f_right`` are the factors' own towers.
    ``act_left/act_right`` are F acting on the n-th dual of A.  The mixing
    families are indexed by A-basis elements and swap shape with parity:
    at even levels they map F-dual to A-dual (``(da, da, df)``), at odd
    levels A-dual to F-dual (``(da, df, da)``).
    """

    level: int
    a_left: np.ndarray = field(repr=False)
    a_right: np.ndarray = field(repr=False)
    f_left: np.ndarray = field(repr=False)
    f_right: np.ndarray = field(repr=False)
    act_left: np.ndarray = field(repr=False)
    act_right: np.ndarray = field(repr=False)
    mix_left: np.ndarray = field(repr=False)
    mix_right: np.ndarray = field(repr=False)


def duplication_dual_blocks(a: FinDimAlgebra, f: FinDimAlgebra,
                            act: BimoduleAction, n: int) -> DualActionBlocks:
    """The level-n families, each pair by the parity rule.  At level 0 the
    mixing families are a acting on F by ``a . f`` (left) and ``f . a``
    (right)."""
    return DualActionBlocks(n, *_dual_pair(a.mult, a.mult, n),
                            *_dual_pair(f.mult, f.mult, n),
                            *_dual_pair(act.left, act.right, n),
                            *_dual_pair(act.right, act.left, n))


def assemble_duplication_dual(blocks: DualActionBlocks) -> DualBimodule:
    """Glue the block families into operators on the duplication's dual."""
    b = blocks
    da = b.a_left.shape[0]
    n = da + b.f_left.shape[0]
    on_a, on_f = slice(None, da), slice(da, None)
    mix = (on_a, on_f) if b.level % 2 == 0 else (on_f, on_a)
    places = ((on_a, on_a, on_a), (on_a, *mix), (on_f, on_a, on_a),
              (on_f, on_f, on_f))
    left = np.zeros((n, n, n), dtype=complex)
    right = np.zeros((n, n, n), dtype=complex)
    for ops, families in ((left, (b.a_left, b.mix_left, b.act_left, b.f_left)),
                          (right, (b.a_right, b.mix_right, b.act_right, b.f_right))):
        for place, family in zip(places, families):
            ops[place] = family
    return DualBimodule(b.level, left, right)


def duplication_nth_dual(dup: Duplication, n: int) -> DualBimodule:
    """Level-n dual bimodule of the duplication, built blockwise.

    Cross-checked against the generic transpose recursion applied to the
    assembled duplication; a mismatch raises InternalInconsistency.
    """
    assembled = assemble_duplication_dual(
        duplication_dual_blocks(dup.a, dup.f, dup.act, n))
    generic = nth_dual_bimodule(dup, n)
    defect = max(float(np.max(np.abs(assembled.left_ops - generic.left_ops))),
                 float(np.max(np.abs(assembled.right_ops - generic.right_ops))))
    if defect > IDENTITY_TOL:
        raise InternalInconsistency(
            f"blockwise dual structure deviates from the recursion by {defect:.3g}")
    return assembled


# ---------------------------------------------------------------------------
# block identities of quadruples
#
# A quadruple splits a map on the duplication into the slots D1A: A -> A,
# D1F: F -> A, D2A: A -> F and D2F: F -> F, whose targets are the factors
# (multipliers) or their n-th duals (derivations).  Every block identity
# of the paper reads
#
#     D_s T[x, y] - sum_L Op[x] D_t e_y - sum_R Op[y] D_t e_x = 0
#
# for a product or action tensor T and terms (side, slot t, family Op)
# from the blockwise dual tower; a TransposedSum reads D_s + D_t^T = 0.
# A record's rows over vec(D1A) | vec(D1F) | vec(D2A) | vec(D2F), split
# by the slots they touch (``slots``), are its only statement: both
# block_residuals and block_nullspace read them.  Most identities touch
# one slot only, so block_nullspace solves each slot's local identities
# over its columns, then the coupling ones in the coordinates of the
# local nullspaces, streaming the rows of both stages one identity at a
# time.  Both cut at one absolute floor, tol * max(1, largest entry of the
# joint system), so a local system of pure round-off is not promoted to
# full rank by its own relative cut.  The direct route never reads these.

D1A, D1F, D2A, D2F = range(4)
L, R = "L", "R"


@dataclass(frozen=True)
class BlockLayout:
    """Slot shapes and vec offsets of quadruples over a pair of factors.

    Blocks are vec'd row-major and concatenated in slot order; the
    assembled operator on the duplication is ``[[D1A, D1F], [D2A, D2F]]``.
    """

    a_dim: int
    f_dim: int

    def shape(self, slot: int) -> tuple[int, int]:
        dims = (self.a_dim, self.f_dim)
        return dims[slot // 2], dims[slot % 2]

    def size(self, slot: int) -> int:
        p, q = self.shape(slot)
        return p * q

    @property
    def offsets(self) -> np.ndarray:
        return np.cumsum([0] + [self.size(s) for s in range(4)])

    def split(self, op: np.ndarray) -> tuple[np.ndarray, ...]:
        """The four blocks of an operator on the duplication (or of each
        operator of a stack, along the leading axes)."""
        da = self.a_dim
        return (op[..., :da, :da], op[..., :da, da:],
                op[..., da:, :da], op[..., da:, da:])

    def blocks(self, coords) -> tuple[np.ndarray, ...]:
        """The four blocks with the given vec coordinates."""
        coords = np.asarray(coords, dtype=complex).reshape(-1)
        offs = self.offsets
        return tuple(coords[offs[s]:offs[s + 1]].reshape(self.shape(s))
                     for s in range(4))


class BlockQuadruple:
    """Shared reading of a dataclass whose first four fields are the slots."""

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, f.name) for f in fields(self)[:4])

    def assemble(self) -> np.ndarray:
        """The operator ``[[D1A, D1F], [D2A, D2F]]`` on the duplication."""
        d1a, d1f, d2a, d2f = self.blocks
        return np.block([[d1a, d1f], [d2a, d2f]])


class BlockIdentity(NamedTuple):
    """``D_slot T[x, y] - sum_L Op[x] D_t e_y - sum_R Op[y] D_t e_x = 0``.

    ``tensor[x, y]`` lies in the input space of ``slot``; each term is
    ``(side, t, Op)`` with ``Op[x]`` (side L) or ``Op[y]`` (side R) mapping
    the output space of slot t into that of ``slot``.
    """

    name: str
    slot: int
    tensor: np.ndarray
    terms: tuple = ()

    @property
    def slots(self) -> frozenset:
        return frozenset((self.slot, *(t for _, t, _ in self.terms)))

    def row_count(self, layout: BlockLayout) -> int:
        x, y, _ = self.tensor.shape
        return x * y * layout.shape(self.slot)[0]

    def scale(self) -> float:
        """Largest entry of the tensor and the term operators."""
        return max(float(np.max(np.abs(arr), initial=0.0))
                   for arr in (self.tensor, *(ops for _, _, ops in self.terms)))

    def coefficients(self, layout: BlockLayout) -> dict[int, np.ndarray]:
        """This identity's rows, split by the slots whose columns they touch.

        Row (x, y, k) is entry k of the identity at (e_x, e_y), column
        (l, m) is D_t[l, m]; each term is a broadcast product.
        """
        (p, q), rows = layout.shape(self.slot), self.row_count(layout)
        eye = np.eye(max(layout.a_dim, layout.f_dim), dtype=complex)
        cols = {self.slot: (eye[None, None, :p, :p, None]
                            * self.tensor[:, :, None, None, :]).reshape(rows, p * q)}
        for side, t, ops in self.terms:
            n = layout.shape(t)[1]
            if side == L:    # Op[x] D_t e_y
                block = ops[:, None, :, :, None] * eye[None, :n, None, None, :n]
            else:            # Op[y] D_t e_x
                block = ops[None, :, :, :, None] * eye[:n, None, None, None, :n]
            block = block.reshape(rows, layout.size(t))
            cols[t] = np.subtract(cols.get(t, 0), block, out=block)
        return cols


class TransposedSum(NamedTuple):
    """``D_slot + D_other^T = 0``, for slots of transposed shapes."""

    name: str
    slot: int
    other: int

    @property
    def slots(self) -> frozenset:
        return frozenset((self.slot, self.other))

    def row_count(self, layout: BlockLayout) -> int:
        return layout.size(self.slot)

    def scale(self) -> float:
        return 1.0

    def coefficients(self, layout: BlockLayout) -> dict[int, np.ndarray]:
        """Row (k, m) reads D_slot[k, m] and D_other[m, k]."""
        p, q = layout.shape(self.slot)
        eye = np.eye(p * q, dtype=complex)
        swap = eye.reshape(p * q, p, q).swapaxes(1, 2).reshape(p * q, p * q)
        if self.other == self.slot:
            return {self.slot: eye + swap}
        return {self.slot: eye, self.other: swap}


def block_residuals(identities, blocks) -> dict:
    """``max|sum_t rows_t vec(D_t)|`` of each identity on a quadruple, or per
    quadruple of a stack whose blocks carry leading axes."""
    lead, layout = blocks[D1A].shape[:-2], BlockLayout(*blocks[D1F].shape[-2:])
    count = int(np.prod(lead))
    vecs = [np.reshape(b, (count, b.shape[-2] * b.shape[-1])).T for b in blocks]

    def residual(ident):
        r = sum(rows @ vecs[t] for t, rows in ident.coefficients(layout).items())
        return np.max(np.abs(r), axis=0, initial=0.0).reshape(lead)[()]

    return {ident.name: residual(ident) for ident in identities}


def block_nullspace(identities, layout: BlockLayout,
                    tol: float = DEFAULT_TOL) -> Subspace:
    """Nullspace of the identities' joint system, solved slot by slot.

    Stage 1 takes, for every slot s, the nullspace N_s of the identities
    that touch s alone (all of C^size(s) when there are none).  Stage 2
    multiplies each slot's columns of the coupling identities by N_s and
    returns ``blockdiag(N_s) . null(reduced)``, an orthonormal basis since
    the N_s have orthonormal columns on disjoint coordinates.  Each stage
    streams its rows, one identity at a time, into
    :func:`~amaldup.linalg._streamed_nullspace` and cuts at
    ``max(tol * sigma_max, floor)`` with the one absolute floor
    ``tol * max(1, largest tensor or operator entry)``, the scale of the
    joint system's entries.
    """
    floor = tol * max([1.0] + [ident.scale() for ident in identities])
    slots = [ident.slots for ident in identities]
    nulls = [_streamed_nullspace((ident.coefficients(layout)[s]
                                  for ident, touched in zip(identities, slots)
                                  if touched == {s}),
                                 layout.size(s), tol, floor)[1].basis
             for s in range(4)]
    ends = np.cumsum([0] + [n.shape[1] for n in nulls])

    def reduced():
        for ident, touched in zip(identities, slots):
            if len(touched) > 1:
                chunk = np.zeros((ident.row_count(layout), ends[-1]), dtype=complex)
                for t, block in ident.coefficients(layout).items():
                    chunk[:, ends[t]:ends[t + 1]] = block @ nulls[t]
                yield chunk

    _, null = _streamed_nullspace(reduced(), ends[-1], tol, floor)
    return Subspace(layout.offsets[-1], np.vstack(
        [n @ null.basis[ends[s]:ends[s + 1]] for s, n in enumerate(nulls)]))


# ---------------------------------------------------------------------------
# topological centres, essentiality


def _centre_of_difference(diff: np.ndarray, over: str,
                          tol: float) -> Subspace:
    """Nullspace of a tensor contracted against its first or second slot.

    A difference tensor below tol in absolute size counts as zero; the
    relative rank threshold would otherwise promote float noise to rank.
    """
    dim = diff.shape[0] if over == "first" else diff.shape[1]
    if diff.size == 0 or float(np.max(np.abs(diff))) <= tol:
        return Subspace.full(dim)
    if over == "first":
        system = np.transpose(diff, (1, 2, 0)).reshape(-1, dim)
    else:
        system = np.transpose(diff, (0, 2, 1)).reshape(-1, dim)
    _, null = rank_nullspace(system, tol)
    return null


def topological_centres(dup: Duplication,
                        tol: float = DEFAULT_TOL) -> dict[str, Subspace]:
    """All five centres, plus a consistency check of the product formula.

    Each centre is the solution set of ``z * w = z (*') w`` for the two
    extended products or actions; in finite dimension the extensions
    coincide, so every centre is full and the check validates that the
    assembled formulas agree, not any genuine irregularity.
    """
    ext = arens_action_extensions(dup)

    def centre(st: ArensStructure) -> Subspace:
        return _centre_of_difference(st.first - st.second, "first", tol)

    zt_dup = centre(ext)
    zt_a = centre(arens_products(dup.a))
    zt_f = centre(arens_products(dup.f))
    z_f_on_a = _centre_of_difference(ext.bullet.right - ext.blacktriangle.right,
                                     "first", tol)
    z_a_on_f = _centre_of_difference(ext.bullet.left - ext.blacktriangle.left,
                                     "first", tol)

    left_block = subspace_intersect(zt_a, z_f_on_a, tol)
    right_block = subspace_intersect(zt_f, z_a_on_f, tol)
    product = block_subspace(left_block, right_block)
    if not subspace_equal(zt_dup, product, check_bound(tol)):
        raise InternalInconsistency("centre product formula fails")
    return {"Zt_dup": zt_dup, "Zt_A": zt_a, "Zt_F": zt_f,
            "Z_F_on_A": z_f_on_a, "Z_A_on_F": z_a_on_f}


def essentiality(a: FinDimAlgebra, n: int, mode: str = "algebra_left",
                 tol: float = DEFAULT_TOL) -> bool:
    """Whether basis actions span the full n-th dual of A.

    Modes: ``algebra_left``/``algebra_right`` use A's own dual actions
    (the hypotheses of the odd-level sufficiency result, with even n).
    """
    if mode not in ("algebra_left", "algebra_right"):
        raise ValueError(f"unknown mode {mode!r}")
    bim = nth_dual_bimodule(a, n)
    ops = bim.left_ops if mode == "algebra_left" else bim.right_ops
    da = a.dim
    vectors = np.transpose(ops, (1, 0, 2)).reshape(da, -1)
    rank, _ = rank_nullspace(vectors.T, tol)
    return rank == da
