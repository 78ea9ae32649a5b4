"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the status lines.
Trial counts, tolerances and time budgets are fixed here and match the
project contract; the randomized checks are seeded and deterministic.
"""

import time

import numpy as np
import pytest

from amaldup import audit
from amaldup.algebra import duplicate, validate_action, validate_algebra
from amaldup.derivations import cohomology
from amaldup.duals import arens_products, second_dual_duplication_defect

def report(criterion, passed, detail=""):
    line = f"ACCEPTANCE {criterion}: {'pass' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


@pytest.fixture
def all_fixtures(zero_pair, lau_unital, module_extension, triangular):
    return {"zero_pair": zero_pair, "lau_unital": lau_unital,
            "module_extension": module_extension, "triangular": triangular}


def test_criterion_1_axiom_suite(all_fixtures):
    start = time.perf_counter()
    worst = 0.0
    for name, (a, f, act) in all_fixtures.items():
        for alg in (a, f):
            rep = validate_algebra(alg, 1e-12)
            assert rep.passed, name
            worst = max(worst, rep.associativity_defect, rep.unit_defect)
        act_rep = validate_action(a, f, act, 1e-12)
        assert act_rep.passed, name
        worst = max(worst, act_rep.max_defect)
    elapsed = time.perf_counter() - start
    report("1 axiom suite", worst <= 1e-12 and elapsed < 1.0,
           f"max defect {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_duplication_associativity():
    row = audit.audit_associativity(trials=200, seed=20, tol=1e-10)
    detail = f"200 triples, worst defect {row.defect:.2e}"
    if not row.passed:
        detail += f"; witness: {row.witness}"
    report("2 duplication associativity", row.passed, detail)


def test_criterion_3_and_4_spectrum_and_semisimplicity():
    start = time.perf_counter()
    rows = audit.audit_spectrum(trials=100, seed=34, match_tol=1e-7)
    elapsed = time.perf_counter() - start
    union_row, transfer_row = rows
    report("3 spectrum theorem", union_row.passed and elapsed < 10.0,
           f"100 commutative-symmetric triples, {elapsed:.2f}s")
    report("4 semisimplicity transfer", transfer_row.passed,
           "same 100 triples, exact boolean agreement")


def test_criterion_5_arens_identity(all_fixtures):
    worst = 0.0
    for name, (a, f, act) in all_fixtures.items():
        dup = duplicate(a, f, act)
        for alg in (a, f, dup):
            st = arens_products(alg)
            worst = max(worst,
                        float(np.max(np.abs(st.first - alg.mult))),
                        float(np.max(np.abs(st.second - alg.mult))))
        worst = max(worst, second_dual_duplication_defect(dup))
    row = audit.audit_arens(trials=50, seed=50, tol=1e-10)
    worst = max(worst, row.defect)
    report("5 extended-product identity", row.passed and worst <= 1e-10,
           f"fixtures + 50 random algebras, worst defect {worst:.2e}")


def test_criterion_6_multiplier_decomposition():
    dim_row, round_row = audit.audit_multipliers(trials=100, seed=60)
    report("6 multiplier decomposition",
           dim_row.passed and round_row.passed and round_row.defect <= 1e-10,
           f"100 triples, exact dimension match, "
           f"roundtrip defect {round_row.defect:.2e}")


def test_criterion_7_derivation_decomposition():
    dim_row, inner_row = audit.audit_derivations(trials=50, seed=70,
                                                 levels=(0, 1, 2))
    report("7 derivation decomposition",
           dim_row.passed and inner_row.passed and inner_row.defect <= 1e-9,
           f"50 triples x levels 0,1,2; witness defect {inner_row.defect:.2e}")


def test_criterion_8_zero_pair_reproduction(zero_pair):
    a, f, act = zero_pair
    dup = duplicate(a, f, act)
    rep_a = cohomology(a, 1)
    rep_f = cohomology(f, 1)
    rep_dup = cohomology(dup, 1)
    ok = (rep_a.dim_h1_cyclic == 0 and rep_f.dim_h1_cyclic == 0
          and rep_dup.dim_h1_cyclic == 1
          and rep_dup.cyclically_amenable is False)
    report("8 zero-pair cyclic obstruction", ok,
           f"factors H1_cyclic = ({rep_a.dim_h1_cyclic}, "
           f"{rep_f.dim_h1_cyclic}), duplication = {rep_dup.dim_h1_cyclic}")


def test_criterion_9_transfer_audit():
    rows = audit.audit_transfers(trials=100, seed=90)
    bad = [r for r in rows if not r.passed]
    detail = "100 general + 100 unital-A triples, checks (a)-(e)"
    if bad:
        detail += "; " + "; ".join(
            f"{r.id}: {r.witness['note']}" for r in bad)
    report("9 transfer audit", not bad, detail)


def test_criterion_10_maximality_oracle():
    row = audit.audit_maximality(pool_count=20, per_instance=5, seed=100)
    detail = (f"{row.trials} proper ideals over a 20-instance pool, "
              "eigen-direction probes, inconclusive counts as failure")
    if not row.passed:
        detail += f"; {row.witness['note']}"
    report("10 maximality oracle", row.passed, detail)
