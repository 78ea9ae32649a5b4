"""One draw and one assembly per audit triple, with the same rows."""

import sys

import numpy as np
import pytest

from amaldup import algebra, audit, spectrum
from amaldup.algebra import Duplication, FinDimAlgebra, duplicate
from amaldup.errors import DecompositionDefect
from amaldup.multipliers import decompose_multiplier, left_multiplier_space


def families_on_their_own(trials, seed, tol):
    """The rows of run_full_audit, each family called by itself."""
    half, third = max(10, trials // 2), max(10, trials // 3)
    return [audit.audit_associativity(trials, seed),
            *audit.audit_spectrum(trials, seed, tol),
            audit.audit_arens(half, seed),
            audit.audit_centres(half, seed, tol),
            *audit.audit_multipliers(trials, seed, tol),
            *audit.audit_derivations(half, seed, tol),
            *audit.audit_transfers(trials, seed, tol),
            audit.audit_cyclic_blocks(half, seed, tol),
            audit.audit_unital_form(third, seed, tol),
            *audit.audit_ideals(trials, seed, tol),
            audit.audit_splitting(trials, seed, tol),
            audit.audit_maximal_blocks(trials, seed, tol),
            audit.audit_maximality(10, 3, seed, tol)]


class TestSharedDraws:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_match_families_on_their_own(self, seed):
        tol = 1e-9
        # AuditRow equality compares id, status, trials, defect and witness
        assert audit.run_full_audit(20, seed, tol) == families_on_their_own(
            20, seed, tol)

    def test_each_triple_drawn_and_assembled_once(self, monkeypatch):
        calls = {"random_triple": 0, "Duplication": 0, "characters": 0}
        unit_callers, readers = [], {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def detect_unit(*args):
            unit_callers.append(sys._getframe(1).f_code.co_name)
            return detect(*args)

        def shared_draws(trials, seed, commutative_symmetric=False,
                         unital_a=False):
            stream = (seed, commutative_symmetric, unital_a)
            readers.setdefault(stream, set()).add(sys._getframe(1).f_code.co_name)
            return shared(trials, seed, commutative_symmetric, unital_a)

        detect, shared = algebra._detect_unit, audit._shared_draws
        monkeypatch.setattr(audit, "random_triple",
                            counted("random_triple", audit.random_triple))
        monkeypatch.setattr(audit, "_shared_draws", shared_draws)
        monkeypatch.setattr(Duplication, "__init__",
                            counted("Duplication", Duplication.__init__))
        monkeypatch.setattr(spectrum, "characters",
                            counted("characters", spectrum.characters))
        monkeypatch.setattr(algebra, "_detect_unit", detect_unit)
        audit.run_full_audit(50, 0)
        # 50 draws of each of the plain, commutative-symmetric and unital
        # streams; each assembled once, and the 25 arens trials each
        # assemble one second-dual duplication besides
        assert calls["random_triple"] == 150
        assert calls["Duplication"] == 150 + 25
        # the families that also draw ideals or witnesses read the plain
        # stream too, and claim (d) the unital form's stream
        assert set(readers) == {(0, False, False), (0, True, False),
                                (0, False, True)}
        assert {"audit_derivations", "audit_ideals",
                "audit_maximal_blocks"} <= readers[0, False, False]
        assert readers[0, False, True] == {"audit_transfers",
                                           "audit_unital_form"}
        # A, F and the duplication once per spectrum trial
        assert calls["characters"] == 150
        assert unit_callers and set(unit_callers) == {"unit"}
        assert audit._STREAMS.get() is None

    def test_associativity_audit_solves_no_unit(self, monkeypatch):
        calls = []
        detect = algebra._detect_unit
        token = audit._STREAMS.set({})
        try:
            audit._shared_draws(5, 0)
            monkeypatch.setattr(algebra, "_detect_unit",
                                lambda *args: calls.append(1) or detect(*args))
            assert audit.audit_associativity(5, 0).passed
        finally:
            audit._STREAMS.reset(token)
        assert calls == []

    def test_shared_arrays_are_read_only(self):
        for dup, _ in audit._shared_draws(5, 0):
            for arr in (dup.mult, dup.a.mult, dup.f.mult, dup.act.left,
                        dup.act.right):
                with pytest.raises(ValueError):
                    arr[(0,) * arr.ndim] += 1.0


class TestLazyUnit:
    def test_unit_solved_on_first_read_only(self, monkeypatch, lau_unital):
        calls = []
        detect = algebra._detect_unit
        monkeypatch.setattr(algebra, "_detect_unit",
                            lambda *args: calls.append(1) or detect(*args))
        alg = FinDimAlgebra.from_mult(np.ones((1, 1, 1)))
        dup = duplicate(*lau_unital, validate=False)
        assert calls == []
        assert np.allclose(alg.unit(), [1.0]) and alg.unit() is alg.unit()
        assert np.allclose(dup.unit(), [0.0, 1.0], atol=1e-9)
        assert len(calls) == 2

    def test_unit_tolerance_is_the_callers_tolerance(self):
        # e0 is a unit but for x e0 = (1 + 1e-6) x; one object answers at
        # each tol it is asked at
        c = np.zeros((2, 2, 2))
        c[0, 0, 0] = c[0, 1, 1] = 1.0
        c[1, 0, 1] = 1.0 + 1e-6
        alg = FinDimAlgebra.from_mult(c)
        assert alg.unit(1e-3) is not None
        assert alg.unit(1e-12) is None
        assert alg.unit(1e-3) is alg.unit(1e-3)


class TestStackedDecomposition:
    def test_stack_gives_each_operators_blocks(self, triangular):
        dup = duplicate(*triangular)
        t_ops = left_multiplier_space(dup).basis.T.reshape(-1, dup.dim, dup.dim)
        stacked = decompose_multiplier(*triangular, t_ops)
        for k, t_op in enumerate(t_ops):
            single = decompose_multiplier(*triangular, t_op)
            for got, want in zip(stacked.blocks, single.blocks):
                assert np.array_equal(got[k], want)
        assert np.array_equal(stacked.assemble(), t_ops)

    def test_each_operator_held_to_its_own_bound(self, lau_unital):
        # the large multiplier's bound 10 tol 1e8 would pass the small
        # operator's 1e-5 defect; its own bound 10 tol must not
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        t_ops = np.stack([1e8 * np.eye(2), np.eye(2) + 1e-5 * swap])
        decompose_multiplier(*lau_unital, t_ops[:1])
        with pytest.raises(DecompositionDefect):
            decompose_multiplier(*lau_unital, t_ops)
