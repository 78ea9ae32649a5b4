"""The three benchmark workloads: ``audit``, ``ladder`` and ``query``.

A workload makes the inputs of pass ``p`` from ``(seed, p)`` alone, then
yields its ops one at a time as ``(label, thunk, check)``: ``thunk()``
calls the public ``amaldup`` API and is timed, ``check(raw)`` judges
the raw result afterwards and returns an :class:`Outcome`.  Every call
into the package goes through the module objects held in ``self.am``
and is looked up while the pass runs, so a tracer installed before the
pass sees it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bench_trace import CLI_COMMANDS, LAYERS


@dataclass
class Outcome:
    """Judgement of one op.

    ``units`` is how many checked results the op produced (report rows
    for ``audit``, one otherwise); ``failures`` are counted as failed;
    ``wrong`` lists outputs that contradict a known answer, which makes
    the whole run incorrect.
    """

    units: int = 1
    failures: list = field(default_factory=list)
    wrong: list = field(default_factory=list)


def import_amaldup() -> types.SimpleNamespace:
    """Import the package afresh, dropping any earlier import of it."""
    for name in [m for m in sys.modules if m == "amaldup" or m.startswith("amaldup.")]:
        del sys.modules[name]
    importlib.import_module("amaldup")
    return types.SimpleNamespace(**{layer: importlib.import_module(f"amaldup.{layer}")
                                    for layer in LAYERS})


def pass_seed(seed: int, p: int) -> int:
    """Seed of pass ``p``; pass 999 of seed 0 is reserved for the warm-up."""
    return seed * 1000 + p


# The warm-up runs on the same inputs at every seed, so that set-up costs
# the same whatever the seed.
WARM_UP_SEED, WARM_UP_PASS = 0, 999


def _exception_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# audit


def expected_audit_trials(trials: int) -> dict:
    """Row id -> allowed (low, high) trial count of ``check-paper --trials``.

    Follows the family sizes of ``run_full_audit``; the two rows that
    count only the draws meeting their premise get a range that excludes
    a vacuous pass.
    """
    half, third = max(10, trials // 2), max(10, trials // 3)
    sizes = {
        "duplication-associativity": trials,
        "spectrum-union-and-disjoint": trials,
        "semisimplicity-transfer": trials,
        "arens-collapse-and-second-dual": half,
        "topological-centre-formula": half,
        "multiplier-dimension": trials,
        "multiplier-roundtrip": trials,
        "derivation-dimension": half,
        "inner-witness-roundtrip": half,
        "transfer-odd-weak-to-F": trials,
        "transfer-odd-weak-to-A-with-extension": trials,
        "transfer-cyclic": trials,
        "transfer-unital-iff": trials,
        "transfer-odd-sufficiency": trials,
        "cyclic-block-characterization": half,
        "unital-derivation-form": third,
        "ideal-block-criterion": trials,
        "ideal-projection-identity": trials,
        "splitting-extension": trials,
    }
    allowed = {row: (n, n) for row, n in sizes.items()}
    allowed["ideal-maximal-blocks"] = (1, 3 * trials)
    allowed["maximality-burnside-vs-oracle"] = (1, 30)
    return allowed


class Audit:
    """``check-paper --trials 50``: thousands of tiny systems."""

    name = "audit"
    trials = 50

    def __init__(self, am, root: Path, workdir: Path):
        self.am = am
        self.expected = expected_audit_trials(self.trials)

    def inputs(self, seed: int, p: int) -> int:
        return pass_seed(seed, p)

    def warm_up(self) -> None:
        self.am.cli.run_command(["check-paper", "--trials", "1", "--seed",
                                 str(pass_seed(WARM_UP_SEED, WARM_UP_PASS)),
                                 "--format", "json"])

    def ops(self, audit_seed: int):
        argv = ["check-paper", "--trials", str(self.trials), "--seed",
                str(audit_seed), "--format", "json"]
        yield "check-paper", functools.partial(self.am.cli.run_command, argv), self.check

    def check(self, raw) -> Outcome:
        units = len(self.expected)
        if isinstance(raw, BaseException):
            text = _exception_text(raw)
            return Outcome(units, [text] * units, [text])
        code, report = raw
        try:
            rows = json.loads(report)["results"]
        except (json.JSONDecodeError, KeyError, TypeError):
            text = f"exit code {code} with no JSON report"
            return Outcome(units, [text] * units, [text])
        out = Outcome(len(rows))
        for row in rows:
            if row["status"] != "pass":
                out.failures.append(f"{row['id']}: {row['status']}")
            low, high = self.expected.get(row["id"], (1, 0))
            trials = int(str(row["value"]).split()[0])
            if not low <= trials <= high:
                out.wrong.append(f"{row['id']}: {trials} trials, expected {low}..{high}")
        if sorted(r["id"] for r in rows) != sorted(self.expected):
            out.wrong.append(f"rows {[r['id'] for r in rows]} differ from the 21 expected")
        if code != (1 if out.failures else 0):
            out.wrong.append(f"exit code {code} disagrees with the rows")
        out.wrong.extend(out.failures)
        return out


# ---------------------------------------------------------------------------
# ladder


def ladder_core(n: int) -> np.ndarray:
    """C[x]/(x^k) for even k = n/2, C^k (pointwise) for odd k."""
    k = n // 2
    mult = np.zeros((k, k, k), dtype=complex)
    for i in range(k):
        if k % 2:
            mult[i, i, i] = 1.0
        else:
            for j in range(k - i):
                mult[i, j, i + j] = 1.0
    return mult


def ladder_expected(n: int) -> dict:
    """Closed forms for the self-duplication of ``ladder_core(n)``."""
    z1 = n - 2 if (n // 2) % 2 == 0 else 0
    return {"z1-direct.level0": z1, "z1-block.level0": z1,
            "z1-direct.level1": z1, "z1-block.level1": z1,
            "lm-direct": n, "lm-block": n}


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def change_basis(mult: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Structure constants in the basis given by the columns of unitary ``s``."""
    return np.einsum("ai,bj,abk,mk->ijm", s, s, mult, s.conj().T)


def ladder_rung(am, mult: np.ndarray) -> dict:
    """Direct and block Z1 at levels 0 and 1, direct and block LM, on one rung."""
    alg = am.algebra.FinDimAlgebra.from_mult(mult)
    act = am.algebra.natural_action(alg)
    dup = am.algebra.duplicate(alg, alg, act)
    dims = {}
    for level in (0, 1):
        bim = am.duals.nth_dual_bimodule(dup, level)
        dims[f"z1-direct.level{level}"] = am.derivations.derivation_space(dup, bim).dim
        dims[f"z1-block.level{level}"] = am.derivations.derivation_quadruple_space(
            alg, alg, act, level).dim
    dims["lm-direct"] = am.multipliers.left_multiplier_space(dup).dim
    dims["lm-block"] = am.multipliers.quadruple_space(alg, alg, act).dim
    return dims


class Ladder:
    """Direct and block Z1 and multiplier systems on growing duplications.

    One op is one rung: its duplication and the six computations on it.
    """

    name = "ladder"
    rungs = (8, 10, 12, 14)
    warm_up_rungs = (4, 6)

    def __init__(self, am, root: Path, workdir: Path):
        self.am = am

    def tensors(self, seed: int, p: int, rungs) -> list:
        rng = np.random.default_rng(pass_seed(seed, p))
        return [(n, change_basis(ladder_core(n), random_unitary(rng, n // 2)))
                for n in rungs]

    def inputs(self, seed: int, p: int) -> list:
        return self.tensors(seed, p, self.rungs)

    def warm_up(self) -> None:
        for _, thunk, _ in self.ops(self.tensors(WARM_UP_SEED, WARM_UP_PASS,
                                                 self.warm_up_rungs)):
            thunk()

    def ops(self, tensors: list):
        for n, mult in tensors:
            yield (f"N{n}", functools.partial(ladder_rung, self.am, mult),
                   functools.partial(self.check, n))

    @staticmethod
    def check(n: int, raw) -> Outcome:
        """Six computations per rung, each against its closed form."""
        want = ladder_expected(n)
        if isinstance(raw, BaseException):
            problems = [f"{item}: {_exception_text(raw)}" for item in want]
        else:
            problems = [f"{item}: dimension {raw.get(item)}, closed form {dim}"
                        for item, dim in want.items() if raw.get(item) != dim]
        return Outcome(len(want), problems, list(problems))


# ---------------------------------------------------------------------------
# query

# Duplication dimensions of the 20 random bundles of a pass.  The shares
# follow random_triple's own distribution (3 %, 4 %, 25 %, 27 % and 40 %
# for dimensions 2 to 6, from 2000 draws); fixing them keeps the cost of
# a pass from swinging with the seed while every core can still appear.
QUERY_QUOTA = {2: 1, 3: 1, 4: 5, 5: 5, 6: 8}
# A pass makes this many draws and keeps the first that fit the quota, so
# that making its inputs costs the same at every seed: filling the quota
# alone takes 20 to 130 draws of about 1 ms.  In the rare case that 300
# draws leave the quota short, drawing goes on until it is full.
QUERY_DRAWS = 300
WARM_UP_QUOTA = {4: 1, 6: 1}
ROW_KEYS = ("id", "status", "defect", "value", "witness")


class Query:
    """Eleven CLI subcommands on each of 24 bundles, as a user runs them."""

    name = "query"

    def __init__(self, am, root: Path, workdir: Path):
        self.am = am
        self.bundle_dir = workdir / "bundles"
        self.bundle_dir.mkdir(parents=True, exist_ok=True)
        self.fixtures = sorted((root / "fixtures").glob("*.json"))
        if len(self.fixtures) != 4:
            raise FileNotFoundError(f"expected 4 fixtures under {root / 'fixtures'}")

    def bundles(self, seed: int, p: int, quota: dict, draws: int = 0) -> list:
        """Seeded random_triple draws, kept while their dimension has room.

        At least ``draws`` triples are drawn, the kept ones among them.
        """
        am = self.am
        rng = np.random.default_rng(pass_seed(seed, p))
        need = dict(quota)
        out = []
        drawn = 0
        while any(need.values()) or drawn < draws:
            a, f, act, recipe = am.sampling.random_triple(rng)
            drawn += 1
            if not need.get(a.dim + f.dim):
                continue
            need[a.dim + f.dim] -= 1
            name = f"q{seed}-{p}-{len(out):02d}-{recipe.a_core}-{recipe.f_core}-{recipe.action}"
            path = self.bundle_dir / f"q{seed}-{p}-{len(out):02d}.json"
            bundle = am.bundles.bundle_from_triple(a, f, act, name=name)
            path.write_text(am.bundles.serialize_bundle(bundle), encoding="utf-8")
            out.append((name, path, a.dim + f.dim))
        return out

    def inputs(self, seed: int, p: int) -> list:
        fixtures = []
        for path in self.fixtures:
            obj = json.loads(path.read_text(encoding="utf-8"))
            dim = obj["algebra_a"]["dim"] + obj["algebra_f"]["dim"]
            fixtures.append((path.stem, path, dim))
        return fixtures + self.bundles(seed, p, QUERY_QUOTA, QUERY_DRAWS)

    def warm_up(self) -> None:
        for _, thunk, _ in self.ops(self.bundles(WARM_UP_SEED, WARM_UP_PASS, WARM_UP_QUOTA)):
            try:
                thunk()
            except Exception:  # noqa: BLE001 - warm-up results are not judged
                pass

    def ops(self, bundles: list):
        run_command = self.am.cli.run_command
        for name, path, dim in bundles:
            for cmd in CLI_COMMANDS:
                yield (f"{name}:{cmd}",
                       functools.partial(run_command, [cmd, str(path), "--format", "json"]),
                       functools.partial(self.check, cmd, dim))

    @staticmethod
    def check(cmd: str, dim: int, raw) -> Outcome:
        """Pass, fail row or uncaught exception; malformed output is wrong."""
        if isinstance(raw, BaseException):
            return Outcome(1, [f"uncaught {_exception_text(raw)}"])
        code, report = raw
        try:
            doc = json.loads(report)
        except json.JSONDecodeError as exc:
            problem = f"output is not JSON: {exc}"
            return Outcome(1, [problem], [problem])
        if cmd == "duplicate" and code == 0:
            if doc.get("dim") != dim:
                problem = f"duplication has dim {doc.get('dim')}, expected {dim}"
                return Outcome(1, [problem], [problem])
            return Outcome()
        rows = doc.get("results")
        if not isinstance(rows, list) or not rows or any(
                not isinstance(r, dict) or tuple(r) != ROW_KEYS
                or r["status"] not in ("pass", "fail", "info") for r in rows):
            problem = "report rows do not follow the id/status/defect/value/witness schema"
            return Outcome(1, [problem], [problem])
        failed = [r["id"] for r in rows if r["status"] == "fail"]
        out = Outcome(1, [f"fail rows {failed}"] if failed else [])
        if code != (1 if failed else 0):
            out.wrong.append(f"exit code {code} disagrees with the rows")
        return out


WORKLOADS = {w.name: w for w in (Audit, Ladder, Query)}
