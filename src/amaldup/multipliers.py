"""Multiplier spaces and their four-block structure on a duplication.

A left multiplier of C is an operator with ``T(cx) = c T(x)``, that is,
a derivation of C into C with the right action zero; a right multiplier,
``T(cx) = T(c) x``, is one with the left action zero.  The space of all
of them is a single nullspace over operator coordinates,
``vec(T) = T.reshape(-1)``: the Leibniz solve of
:mod:`amaldup.derivations` for that one-sided module is the direct route.

The block route splits a multiplier into T1A|T1F|T2A|T2F and states its
eight identities once, in :func:`multiplier_identities`; the residual
check and the block system whose dimension must equal ``dim LM`` are
both generated from that table, which the direct route never reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import BimoduleAction, Duplication, FinDimAlgebra, span_products
from .derivations import _leibniz_nullspace
from .duals import (D1A, D1F, D2A, D2F, L, BlockIdentity, BlockLayout,
                    BlockQuadruple, DualBimodule, block_nullspace,
                    block_residuals, duplication_dual_blocks,
                    nth_dual_bimodule)
from .errors import DecompositionDefect, ShapeError
from .linalg import DEFAULT_TOL, Subspace, check_bound


@dataclass(frozen=True)
class MultiplierQuadruple(BlockQuadruple):
    """Blocks of a left multiplier of a duplication.

    ``t1_a: A -> A``, ``t1_f: F -> A``, ``t2_a: A -> F``, ``t2_f: F -> F``.
    """

    t1_a: np.ndarray = field(repr=False)
    t1_f: np.ndarray = field(repr=False)
    t2_a: np.ndarray = field(repr=False)
    t2_f: np.ndarray = field(repr=False)


def multiplier_space(alg: FinDimAlgebra, side: str = "left",
                     tol: float = DEFAULT_TOL) -> Subspace:
    """Left multipliers, ``T(ab) = aT(b)``, or right ones, ``T(ab) = T(a)b``:
    the derivations into A with the right (or left) action zero.  A scalar
    multiplication, ``L_a = cI``, gives rows that cancel to round-off, so
    the cut has the absolute floor ``tol·max|ops|``."""
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    bim = nth_dual_bimodule(alg, 0)
    ops = bim.left_ops if side == "left" else bim.right_ops
    zero = np.zeros_like(ops)
    one_sided = (DualBimodule(0, ops, zero) if side == "left"
                 else DualBimodule(0, zero, ops))
    return _leibniz_nullspace(alg, one_sided, tol,
                              atol=tol * float(np.max(np.abs(ops), initial=0.0)))


def left_multiplier_space(alg: FinDimAlgebra, tol: float = DEFAULT_TOL) -> Subspace:
    return multiplier_space(alg, "left", tol)


def multiplier_identities(a: FinDimAlgebra, f: FinDimAlgebra,
                          act: BimoduleAction) -> list[BlockIdentity]:
    """The eight block identities of a left multiplier of the duplication."""
    b = duplication_dual_blocks(a, f, act, 0)
    ca, cf = a.mult, f.mult
    return [
        # T1A(a b) = a T1A(b) + a . T2A(b)
        BlockIdentity("product_rule", D1A, ca,
                      ((L, D1A, b.a_left), (L, D2A, b.mix_left))),
        # T1A(a . b) = a T1F(b) + a . T2F(b)
        BlockIdentity("action_rule", D1A, act.right,
                      ((L, D1F, b.a_left), (L, D2F, b.mix_left))),
        # T2A vanishes on products and on right-action values
        BlockIdentity("t2a_kills_products", D2A, ca),
        BlockIdentity("t2a_kills_action", D2A, act.right),
        # module-map memberships
        BlockIdentity("t1a_module_map", D1A, act.left, ((L, D1A, b.act_left),)),
        BlockIdentity("t1f_module_map", D1F, cf, ((L, D1F, b.act_left),)),
        BlockIdentity("t2a_module_map", D2A, act.left, ((L, D2A, b.f_left),)),
        BlockIdentity("t2f_left_multiplier", D2F, cf, ((L, D2F, b.f_left),))]


def decompose_multiplier(a: FinDimAlgebra, f: FinDimAlgebra, act: BimoduleAction,
                         t_op: np.ndarray, tol: float = DEFAULT_TOL
                         ) -> MultiplierQuadruple:
    """Blocks of a left multiplier of the duplication, identities verified.

    ``t_op`` may be a stack of operators along a leading axis: the
    identities are then stated once and each operator is held to its own
    bound ``check_bound(tol, max|T|)``.
    """
    da, df = a.dim, f.dim
    t_op = np.asarray(t_op, dtype=complex)
    if t_op.shape[-2:] != (da + df, da + df) or t_op.ndim > 3:
        raise ShapeError("operator does not act on the duplication")
    q = MultiplierQuadruple(*BlockLayout(da, df).split(t_op))
    defects = block_residuals(multiplier_identities(a, f, act), q.blocks)
    worst = np.max(list(defects.values()), axis=0)
    scale = np.max(np.abs(t_op), axis=(-2, -1), initial=0.0)
    if np.any(worst > check_bound(tol, scale)):
        bad = max(defects, key=lambda name: np.max(defects[name]))
        raise DecompositionDefect(f"multiplier block identity {bad!r} fails "
                                  f"with defect {np.max(worst):.3g}")
    return q


def quadruple_space(a: FinDimAlgebra, f: FinDimAlgebra, act: BimoduleAction,
                    tol: float = DEFAULT_TOL) -> Subspace:
    """Solution space of the block-constrained multiplier system.

    Unknowns are (vec T1A, vec T1F, vec T2A, vec T2F); the constraints are
    exactly the identities :func:`decompose_multiplier` checks, so the
    dimension must equal ``dim LM`` of the duplication.
    """
    return block_nullspace(multiplier_identities(a, f, act),
                           BlockLayout(a.dim, f.dim), tol)


@dataclass(frozen=True)
class CorollaryReport:
    hypothesis_held: bool
    conclusion_verified: bool | None


def corollary_form_check(dup: Duplication,
                         tol: float = DEFAULT_TOL) -> CorollaryReport:
    """When products or right-action values span A, multipliers simplify.

    Under the hypothesis, every left multiplier of the duplication has a
    vanishing A-to-F block and its A-block is itself a left multiplier
    of A.  Returns whether the hypothesis held and, if so, whether the
    conclusion checked out on a basis of the multiplier space.
    """
    a, f, act = dup.a, dup.f, dup.act
    squares_full = span_products(a, "squares", tol=tol).dim == a.dim
    action_full = span_products(a, "right_action", act, tol=tol).dim == a.dim
    if not (squares_full or action_full):
        return CorollaryReport(False, None)
    space = left_multiplier_space(dup, tol)
    lm_a = left_multiplier_space(a, tol)
    t_ops = space.basis.T.reshape(-1, dup.dim, dup.dim)
    q = decompose_multiplier(a, f, act, t_ops, tol)
    scale = np.max(np.abs(t_ops), axis=(1, 2), initial=0.0)
    ok = bool(np.all(np.max(np.abs(q.t2_a), axis=(1, 2), initial=0.0)
                     <= check_bound(tol, scale)))
    ok = ok and all(lm_a.contains_vector(t1_a.reshape(-1), check_bound(tol))
                    for t1_a in q.t1_a)
    return CorollaryReport(True, ok)
