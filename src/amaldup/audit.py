"""Randomized verification of the structure theorems, at desk scale.

Each audit checks one claim on seeded random triples: spectra assemble
from the factors, semisimplicity and amenability transfer as stated,
multiplier and derivation spaces match their block-system dimensions,
and maximal ideals agree with a direction oracle.  ``random_triple``
validates each triple at the tol a duplication uses, and :func:`_draw`
assembles it once, unvalidated and read-only, into the
:class:`~amaldup.algebra.Duplication` its checks share.  Every family
reads its triples from :func:`_shared_draws`, the draws of one stream
per (seed, sampler flags); within one :func:`run_full_audit` call each
stream is drawn once, so a run has three: plain, commutative-symmetric
and A unital.  Families that also draw ideals or witnesses take them
from a generator of their own, ``default_rng((seed, k))``, so every
family sees the triples it sees run alone.  A violation is shrunk by
re-running the check that found it (the transfer results (a)-(e) are
one table, :data:`_TRANSFER_CLAIMS`) and serialized into the returned
row; since every claim is a theorem for valid inputs, any failure
indicates an implementation bug.
"""

from __future__ import annotations

import contextvars
import functools
from dataclasses import dataclass, field

import numpy as np

from .algebra import (FinDimAlgebra, associativity_defect, duplicate,
                      span_products)
from .bundles import algebra_to_obj, bundle_from_triple, bundle_to_obj
from .derivations import (DerivationQuadruple, cyclic_amenability,
                          cyclic_derivation_space, cyclic_quadruple_defects,
                          cyclic_quadruple_space, decompose_derivation,
                          derivation_quadruple_space, derivation_space,
                          inner_derivation, is_inner_match, property_h,
                          unital_form_check, weak_amenability)
from .duals import (arens_products, duplication_nth_dual, essentiality,
                    nth_dual_bimodule, second_dual_duplication_defect,
                    topological_centres)
from .errors import InternalInconsistency, SpectrumTheoremViolation
from .ideals import (block_subspace, ideal_generated, is_ideal,
                     is_maximal_left_ideal, maximality_direction_oracle,
                     product_ideal_test, project_components)
from .linalg import DEFAULT_TOL, IDENTITY_TOL, Subspace, check_bound, subspace_equal
from .multipliers import (decompose_multiplier, left_multiplier_space,
                          quadruple_space)
from .sampling import (COMMUTATIVE_CORES, NONCOMMUTATIVE_CORES,
                       random_left_ideal, random_triple, random_unitary,
                       shrink_triple, _transform_core)
from .spectrum import duplication_spectrum, separates_points


@dataclass(frozen=True)
class AuditRow:
    id: str
    status: str               # "pass" or "fail"
    trials: int
    defect: float = 0.0
    witness: dict | None = field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _row(check_id, trials, failures, defect=0.0):
    if failures:
        return AuditRow(check_id, "fail", trials, defect, failures[0])
    return AuditRow(check_id, "pass", trials, defect)


def _witness(dup, recipe, note, shrink_with=None):
    """``dup``'s triple as a bundle, shrunk while ``shrink_with(dup)`` holds."""
    a, f, act = dup.a, dup.f, dup.act
    if shrink_with is not None:
        a, f, act, recipe = shrink_triple(
            a, f, act, recipe,
            lambda *t: shrink_with(duplicate(*t, validate=False)))
    bundle = bundle_from_triple(a, f, act, name=f"violation:{note}",
                                recipe=str(recipe))
    return {"note": note, "bundle": bundle_to_obj(bundle)}


def _draw(rng, **flags):
    """``(dup, recipe)`` of one ``random_triple(rng, **flags)``, assembled
    once and read-only, so no check can change what the next one reads."""
    a, f, act, recipe = random_triple(rng, **flags)
    dup = duplicate(a, f, act, validate=False)
    for arr in (a.mult, f.mult, act.left, act.right, dup.mult):
        arr.setflags(write=False)
    return dup, recipe


# (seed, flags) -> (generator, draws so far), set for one run_full_audit call.
_STREAMS: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "audit_streams", default=None)


def _shared_draws(trials, seed, commutative_symmetric=False, unital_a=False):
    """The first ``trials`` ``(dup, recipe)`` draws of ``default_rng(seed)``.

    Inside :func:`run_full_audit` the list of each stream is kept and only
    grown, so families reading the same stream share its triples; outside
    it every call draws afresh.
    """
    streams = _STREAMS.get()
    if streams is None:
        streams = {}
    rng, drawn = streams.setdefault((seed, commutative_symmetric, unital_a),
                                    (np.random.default_rng(seed), []))
    while len(drawn) < trials:
        drawn.append(_draw(rng, commutative_symmetric=commutative_symmetric,
                           unital_a=unital_a))
    return drawn[:trials]


def audit_associativity(trials: int = 200, seed: int = 0,
                        tol: float = IDENTITY_TOL) -> AuditRow:
    """Duplications of validated triples stay associative."""
    worst, failures = 0.0, []
    for dup, recipe in _shared_draws(trials, seed):
        defect = associativity_defect(dup.mult)
        worst = max(worst, defect)
        if defect > tol:
            failures.append(_witness(
                dup, recipe, "associativity",
                lambda d: associativity_defect(d.mult) > tol))
    return _row("duplication-associativity", trials, failures, worst)


def audit_spectrum(trials: int = 100, seed: int = 0, tol: float = DEFAULT_TOL,
                   match_tol: float | None = None) -> list[AuditRow]:
    """Direct spectra match the assembled families; the families are disjoint.

    Semisimplicity of A, F and the duplication is read from the three
    character lists the spectrum check has already found.
    """
    union_failures, ss_failures = [], []
    for dup, recipe in _shared_draws(trials, seed, commutative_symmetric=True):
        try:
            e_list, f_list, sigma = duplication_spectrum(dup, tol,
                                                         match_tol=match_tol)
        except SpectrumTheoremViolation as exc:
            union_failures.append(_witness(dup, recipe, f"spectrum: {exc}"))
            continue
        da = dup.a.dim
        transfer = (separates_points([e[:da] for e in e_list], tol)
                    and separates_points([x[da:] for x in f_list], tol))
        if separates_points(sigma, tol) != transfer:
            ss_failures.append(_witness(dup, recipe, "semisimplicity"))
    return [_row("spectrum-union-and-disjoint", trials, union_failures),
            _row("semisimplicity-transfer", trials, ss_failures)]


def audit_arens(trials: int = 50, seed: int = 0,
                tol: float = IDENTITY_TOL) -> AuditRow:
    """Both extended products collapse; second duals assemble blockwise."""
    worst, failures = 0.0, []
    for dup, recipe in _shared_draws(trials, seed):
        defect = 0.0
        for alg in (dup.a, dup.f, dup):
            st = arens_products(alg)  # raises ArensDefect beyond IDENTITY_TOL
            defect = max(defect,
                         float(np.max(np.abs(st.first - alg.mult))),
                         float(np.max(np.abs(st.second - alg.mult))))
        defect = max(defect, second_dual_duplication_defect(dup))
        worst = max(worst, defect)
        if defect > tol:
            failures.append(_witness(dup, recipe, "arens"))
    return _row("arens-collapse-and-second-dual", trials, failures, worst)


def audit_centres(trials: int = 25, seed: int = 0,
                  tol: float = DEFAULT_TOL) -> AuditRow:
    """Centre product formula consistent; all centres full at desk scale."""
    failures = []
    for dup, recipe in _shared_draws(trials, seed):
        try:
            cents = topological_centres(dup, tol)
        except InternalInconsistency as exc:
            failures.append(_witness(dup, recipe, f"centres: {exc}"))
            continue
        if any(s.dim != s.ambient_dim for s in cents.values()):
            failures.append(_witness(dup, recipe, "centre not full"))
    return _row("topological-centre-formula", trials, failures)


def audit_multipliers(trials: int = 100, seed: int = 0,
                      tol: float = DEFAULT_TOL) -> list[AuditRow]:
    """dim LM(dup) equals the block-system dimension; blocks reassemble."""
    dim_failures, round_failures, worst = [], [], 0.0
    for dup, recipe in _shared_draws(trials, seed):
        space = left_multiplier_space(dup, tol)
        blockwise = quadruple_space(dup.a, dup.f, dup.act, tol)
        if space.dim != blockwise.dim:
            dim_failures.append(_witness(
                dup, recipe, f"dim LM {space.dim} vs quadruples {blockwise.dim}"))
            continue
        # every basis operator at once, against one statement of the identities
        t_ops = space.basis.T.reshape(-1, dup.dim, dup.dim)
        q = decompose_multiplier(dup.a, dup.f, dup.act, t_ops, tol)
        gap = float(np.max(np.abs(q.assemble() - t_ops), initial=0.0))
        worst = max(worst, gap)
        if gap > IDENTITY_TOL:
            round_failures.append(_witness(dup, recipe, "roundtrip"))
    return [_row("multiplier-dimension", trials, dim_failures),
            _row("multiplier-roundtrip", trials, round_failures, worst)]


def audit_derivations(trials: int = 50, seed: int = 0, tol: float = DEFAULT_TOL,
                      levels=(0, 1, 2)) -> list[AuditRow]:
    """dim Z1 equals the quadruple dimension; inner witnesses roundtrip."""
    dim_failures, inner_failures, worst = [], [], 0.0
    rng = np.random.default_rng((seed, 1))  # the inner witnesses
    for dup, recipe in _shared_draws(trials, seed):
        a, f, act = dup.a, dup.f, dup.act
        # level n is level n - 2: each route solves each parity once
        dims = {p: (derivation_space(dup, nth_dual_bimodule(dup, p), tol).dim,
                    derivation_quadruple_space(a, f, act, p, tol).dim)
                for p in {n % 2 for n in levels}}
        for n in levels:
            direct, blockwise = dims[n % 2]
            if direct != blockwise:
                dim_failures.append(_witness(
                    dup, recipe,
                    f"level {n}: Z1 {direct} vs quadruples {blockwise}"))
                continue
            bim = duplication_nth_dual(dup, n)
            w = rng.standard_normal(dup.dim) + 1j * rng.standard_normal(dup.dim)
            d = inner_derivation(bim, w)
            q = decompose_derivation(a, f, act, d, n, tol)
            witness = is_inner_match(a, f, act, q, tol)
            if witness is None:
                inner_failures.append(_witness(dup, recipe,
                                               f"level {n}: ad not matched"))
                continue
            recovered = inner_derivation(bim, np.concatenate(witness))
            gap = float(np.max(np.abs(recovered - d)))
            worst = max(worst, gap)
            if gap > IDENTITY_TOL:
                inner_failures.append(_witness(dup, recipe,
                                               f"level {n}: witness gap {gap:.3g}"))
    return [_row("derivation-dimension", trials, dim_failures),
            _row("inner-witness-roundtrip", trials, inner_failures, worst)]


class _Premises:
    """One triple's transfer premises, each computed at most once.

    Level n is level n - 2, so weak amenability is kept per (algebra,
    parity); property H lives at the odd level 2n+1 for every n, so one
    answer serves all.
    """

    def __init__(self, dup, tol):
        a, f, act = dup.a, dup.f, dup.act
        algs = {"A": a, "F": f, "dup": dup}
        self.unital_a = a.unit(tol) is not None
        self._weak = functools.cache(
            lambda name, parity: weak_amenability(algs[name], parity, tol))
        self.cyclic = functools.cache(lambda name: cyclic_amenability(algs[name], tol))
        self.extends = functools.cache(lambda: property_h(a, f, act, 0, tol))
        self.squares_full = lambda: span_products(a, "squares", tol=tol).dim == a.dim
        self.essential = lambda: any(essentiality(a, 2, side, tol)
                                     for side in ("algebra_left", "algebra_right"))

    def weak(self, name, level):
        return self._weak(name, level % 2)


# The transfer results (a)-(e), each stated once as (row, note, drawn
# with A unital?, predicate on _Premises that holds on a violation).  The
# predicate that finds a violation also keeps it alive while it shrinks.
_TRANSFER_CLAIMS = (
    *(("transfer-odd-weak-to-F", f"(a) level {lv}", False,
       lambda p, lv=lv: p.weak("dup", lv) and not p.weak("F", lv))
      for lv in (1, 3)),
    *(("transfer-odd-weak-to-A-with-extension", f"(b) level {lv}", False,
       lambda p, lv=lv: p.weak("dup", lv) and p.extends()
       and not p.weak("A", lv))
      for lv in (1, 3)),
    ("transfer-cyclic", "(c) sufficiency", False,
     lambda p: p.cyclic("A") and p.cyclic("F") and p.squares_full()
     and not p.cyclic("dup")),
    ("transfer-cyclic", "(c) necessity for F", False,
     lambda p: p.cyclic("dup") and not p.cyclic("F")),
    ("transfer-cyclic", "(c) necessity for A", False,
     lambda p: p.cyclic("dup") and p.extends() and not p.cyclic("A")),
    *(("transfer-unital-iff", f"(d) level {n}", True,
       lambda p, n=n: p.unital_a
       and p.weak("dup", n) != (p.weak("A", n) and p.weak("F", n)))
      for n in (0, 1, 2)),
    ("transfer-odd-sufficiency", "(e) sufficiency", False,
     lambda p: p.weak("A", 3) and p.weak("F", 3) and p.essential()
     and not p.weak("dup", 3)),
)


def audit_transfers(trials: int = 100, seed: int = 0,
                    tol: float = DEFAULT_TOL) -> list[AuditRow]:
    """Amenability transfer between the factors and the duplication.

    (a) duplication (2n+1)-weakly amenable forces it for F (n in {0,1});
    (b) plus the extension property, for A as well;
    (c) cyclic amenability of both factors with full product span forces
        it for the duplication, and conversely the duplication's cyclic
        amenability forces F's (and A's, with the extension property);
    (d) with A unital, n-weak amenability of the duplication is
        equivalent to that of both factors (n <= 2);
    (e) both factors (2n+1)-weakly amenable plus dual essentiality
        forces the duplication (n = 1).
    """
    fail = {row: [] for row, *_ in _TRANSFER_CLAIMS}
    for unital in (False, True):
        claims = [c for c in _TRANSFER_CLAIMS if c[2] == unital]
        for dup, recipe in _shared_draws(trials, seed, unital_a=unital):
            premises = _Premises(dup, tol)
            for row, note, _, violated in claims:
                if violated(premises):
                    fail[row].append(_witness(
                        dup, recipe, note,
                        lambda d, v=violated: v(_Premises(d, tol))))
    return [_row(row, trials, failures) for row, failures in fail.items()]


def audit_ideals(trials: int = 60, seed: int = 0,
                 tol: float = DEFAULT_TOL) -> list[AuditRow]:
    """Block criterion for product ideals; projection identities."""
    crit_failures, proj_failures = [], []
    rng = np.random.default_rng((seed, 2))  # the ideals and seed vectors
    for dup, recipe in _shared_draws(trials, seed):
        a, f = dup.a, dup.f
        i_sub = random_left_ideal(rng, a, tol)
        j_sub = random_left_ideal(rng, f, tol)
        report = product_ideal_test(dup, i_sub, j_sub, tol)
        if report.conjunction != report.direct:
            crit_failures.append(_witness(dup, recipe, "block criterion"))
        f_embedded = block_subspace(Subspace.zero(a.dim), Subspace.full(f.dim))
        seeds = [f_embedded.basis[:, c] for c in range(f_embedded.dim)]
        seeds.append(np.concatenate([
            rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim),
            np.zeros(f.dim)]))
        n_sub = ideal_generated(dup, seeds, "left", tol)
        i_n, _ = project_components(a.dim, f.dim, n_sub, tol)
        if not (is_ideal(a, i_n, "left", tol)
                and subspace_equal(n_sub, block_subspace(
                    i_n, Subspace.full(f.dim)), check_bound(tol))):
            proj_failures.append(_witness(dup, recipe, "projection"))
    return [_row("ideal-block-criterion", trials, crit_failures),
            _row("ideal-projection-identity", trials, proj_failures)]


def audit_cyclic_blocks(trials: int = 40, seed: int = 0,
                        tol: float = DEFAULT_TOL) -> AuditRow:
    """Cyclic derivations are exactly the blockwise-cyclic quadruples.

    Checked as exact dimension equality between the direct cyclic space
    of the duplication and the constrained quadruple system, plus
    residual checks of the block identities on a direct basis.
    """
    failures = []
    for dup, recipe in _shared_draws(trials, seed):
        a, f, act = dup.a, dup.f, dup.act
        direct = cyclic_derivation_space(dup, tol)
        blockwise = cyclic_quadruple_space(a, f, act, tol)
        if direct.dim != blockwise.dim:
            failures.append(_witness(
                dup, recipe, f"cyclic dims {direct.dim} vs {blockwise.dim}"))
            continue
        # every basis derivation at once, against one statement of the identities
        q = DerivationQuadruple.split(
            a.dim, direct.basis.T.reshape(-1, dup.dim, dup.dim), 1)
        worst = np.max(list(cyclic_quadruple_defects(a, f, act, q).values()),
                       axis=0)
        bad = np.flatnonzero(worst > check_bound(tol))
        if bad.size:
            failures.append(_witness(
                dup, recipe, f"cyclic identity defect {worst[bad[0]]:.3g}"))
    return _row("cyclic-block-characterization", trials, failures)


def audit_unital_form(trials: int = 30, seed: int = 0,
                      tol: float = DEFAULT_TOL) -> AuditRow:
    """With A unital, every duplication derivation takes the stated form."""
    failures = []
    for dup, recipe in _shared_draws(trials, seed, unital_a=True):
        # level n is level n - 2: each parity checked once
        reports = {p: unital_form_check(dup, p, tol) for p in (0, 1)}
        for n in (0, 1, 2):
            rep = reports[n % 2]
            if not rep.passed:
                failures.append(_witness(
                    dup, recipe,
                    f"level {n} defect {rep.max_defect:.3g}"))
    return _row("unital-derivation-form", trials, failures)


def audit_splitting(trials: int = 60, seed: int = 0,
                    tol: float = DEFAULT_TOL) -> AuditRow:
    """A x {0} is a two-sided ideal and {0} x F a subalgebra, always."""
    failures = []
    for dup, recipe in _shared_draws(trials, seed):
        a, f = dup.a, dup.f
        a_block = block_subspace(Subspace.full(a.dim), Subspace.zero(f.dim))
        if not is_ideal(dup, a_block, "two_sided", tol):
            failures.append(_witness(dup, recipe, "A-block not an ideal"))
            continue
        f_block = block_subspace(Subspace.zero(a.dim), Subspace.full(f.dim))
        products = [dup.multiply(f_block.basis[:, i], f_block.basis[:, j])
                    for i in range(f_block.dim) for j in range(f_block.dim)]
        if f_block.residual(products) > tol:
            failures.append(_witness(dup, recipe, "F-block not closed"))
            continue
        # the quotient by the A-block multiplies exactly like F
        da = a.dim
        if float(np.max(np.abs(dup.mult[da:, da:, da:] - f.mult))) > tol \
                or float(np.max(np.abs(dup.mult[da:, da:, :da]))) > tol:
            failures.append(_witness(dup, recipe, "quotient tensor"))
    return _row("splitting-extension", trials, failures)


def audit_maximal_blocks(trials: int = 40, seed: int = 0,
                         tol: float = DEFAULT_TOL) -> AuditRow:
    """Maximality of block ideals reduces to the factors as characterized."""
    failures, checked = [], 0
    rng = np.random.default_rng((seed, 3))  # the ideals
    for dup, recipe in _shared_draws(trials, seed):
        a, f = dup.a, dup.f
        full_a = Subspace.full(a.dim)
        full_f = Subspace.full(f.dim)
        j_sub = random_left_ideal(rng, f, tol)
        if j_sub.dim < f.dim:
            checked += 1
            lhs = is_maximal_left_ideal(f, j_sub, tol)
            rhs = is_maximal_left_ideal(dup, block_subspace(full_a, j_sub), tol)
            if lhs != rhs:
                failures.append(_witness(dup, recipe, "A x J maximality"))
        i_sub = random_left_ideal(rng, a, tol)
        block = block_subspace(i_sub, full_f)
        if i_sub.dim < a.dim and is_ideal(dup, block, "left", tol):
            checked += 1
            lhs = is_maximal_left_ideal(a, i_sub, tol)
            rhs = is_maximal_left_ideal(dup, block, tol)
            if lhs != rhs:
                failures.append(_witness(dup, recipe, "I x F maximality"))
        j2 = random_left_ideal(rng, f, tol)
        block = block_subspace(i_sub, j2)
        if block.dim < dup.dim and is_ideal(dup, block, "left", tol) \
                and is_maximal_left_ideal(dup, block, tol):
            checked += 1
            first = i_sub.dim == a.dim and j2.dim < f.dim \
                and is_maximal_left_ideal(f, j2, tol)
            second = j2.dim == f.dim and i_sub.dim < a.dim \
                and is_maximal_left_ideal(a, i_sub, tol)
            if not (first or second):
                failures.append(_witness(dup, recipe, "maximal I x J shape"))
    return _row("ideal-maximal-blocks", checked, failures)


def maximality_pool(count: int = 20, seed: int = 0) -> list[FinDimAlgebra]:
    """A fixed pool of dim-3 algebras built from transformed cores."""
    cores = [c for c in COMMUTATIVE_CORES + NONCOMMUTATIVE_CORES if c.dim == 3]
    rng = np.random.default_rng(seed)
    pool = []
    while len(pool) < count:
        core = cores[len(pool) % len(cores)]
        s = random_unitary(rng, 3)
        pool.append(FinDimAlgebra.from_mult(_transform_core(core, s).mult))
    return pool


def audit_maximality(pool_count: int = 20, per_instance: int = 5,
                     seed: int = 0, tol: float = DEFAULT_TOL) -> AuditRow:
    """Burnside maximality against the eigen-direction oracle.

    An inconclusive oracle (None) counts as a disagreement. A failure's
    witness carries the algebra and the ideal's spanning vectors in the
    ``[re, im]`` format of ``amaldup ideals --subspace``.
    """
    failures, checked = [], 0
    rng = np.random.default_rng(seed)
    for idx, alg in enumerate(maximality_pool(pool_count, seed)):
        found = 0
        for _ in range(40):
            if found >= per_instance:
                break
            cand = random_left_ideal(rng, alg, tol)
            if cand.dim > 2 or cand.dim >= alg.dim \
                    or not is_ideal(alg, cand, "left", tol):
                continue
            found += 1
            checked += 1
            burnside = is_maximal_left_ideal(alg, cand, tol)
            oracle = maximality_direction_oracle(alg, cand, tol)
            if burnside != oracle:
                vectors = np.stack([cand.basis.T.real, cand.basis.T.imag], -1)
                failures.append({"note": f"pool {idx} ideal dim {cand.dim}: "
                                         f"burnside {burnside} oracle {oracle}",
                                 "algebra": algebra_to_obj(alg),
                                 "subspace": {"vectors": vectors.tolist()}})
    return _row("maximality-burnside-vs-oracle", checked, failures)


def run_full_audit(trials: int = 40, seed: int = 0,
                   tol: float = DEFAULT_TOL) -> list[AuditRow]:
    """Every family in turn; the shared draws live for this call only."""
    token = _STREAMS.set({})
    try:
        rows = [audit_associativity(trials, seed)]
        rows += audit_spectrum(trials, seed, tol)
        rows.append(audit_arens(max(10, trials // 2), seed))
        rows.append(audit_centres(max(10, trials // 2), seed, tol))
        rows += audit_multipliers(trials, seed, tol)
        rows += audit_derivations(max(10, trials // 2), seed, tol)
        rows += audit_transfers(trials, seed, tol)
        rows.append(audit_cyclic_blocks(max(10, trials // 2), seed, tol))
        rows.append(audit_unital_form(max(10, trials // 3), seed, tol))
        rows += audit_ideals(trials, seed, tol)
        rows.append(audit_splitting(trials, seed, tol))
        rows.append(audit_maximal_blocks(trials, seed, tol))
        rows.append(audit_maximality(10, 3, seed, tol))
        return rows
    finally:
        _STREAMS.reset(token)
