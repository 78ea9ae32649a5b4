import json
import os
import re

import numpy as np
import pytest

from amaldup.algebra import BimoduleAction, duplicate
from amaldup.bundles import (bundle_from_triple, bundle_to_obj, parse_bundle,
                             serialize_bundle)
from amaldup.cli import emit_report, run_command
from amaldup.errors import DuplicateEntry, ParseError
from amaldup.sampling import random_triple

from conftest import near_unital_algebra, scalar_algebra

FIXDIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "block_route_cli.json")
# (id, status, value) of every row of `check-paper --trials 10 --seed 0`;
# defects are left out, being BLAS-dependent floats
CHECK_PAPER_ROWS = os.path.join(os.path.dirname(__file__), "golden",
                                "check_paper_rows.json")

# The commands whose answers come from the block identities, keyed as in
# the golden file.
BLOCK_ROUTE_COMMANDS = {
    "multipliers": ["multipliers"],
    **{f"derivations-level-{n}": ["derivations", "--level", str(n)]
       for n in range(4)},
    "cyclic": ["cyclic"],
    **{f"property-h-n-{n}": ["property-h", "--n", str(n)] for n in range(2)},
    "amenability": ["amenability"],
}


# f.e = 2e breaks (ff).e = f.(f.e)
_UNIT = '{"dim": 1, "mult": [[0, 0, 0, 1.0, 0.0]]}'
BAD_ACTION = (f'{{"algebra_a": {_UNIT}, "algebra_f": {_UNIT}, '
              '"action": {"left": [[0, 0, 0, 2.0, 0.0]], '
              '"right": [[0, 0, 0, 2.0, 0.0]]}}')


def fixture_path(name):
    return os.path.join(FIXDIR, f"{name}.json")


MINIMAL = """
{
  "name": "zeros",
  "algebra_a": {"dim": 1, "mult": []},
  "algebra_f": {"dim": 1, "mult": []},
  "action": {"left": [], "right": []}
}
"""


class TestParse:
    def test_minimal_is_zero_pair(self):
        bundle = parse_bundle(MINIMAL)
        assert bundle.algebra_a.dim == bundle.algebra_f.dim == 1
        assert np.max(np.abs(bundle.algebra_a.mult)) == 0.0
        dup = duplicate(bundle.algebra_a, bundle.algebra_f, bundle.action)
        assert np.max(np.abs(dup.mult)) == 0.0

    def test_lau_fixture_file(self, lau_unital):
        with open(fixture_path("lau_unital"), "rb") as fh:
            bundle = parse_bundle(fh.read())
        a, f, act = lau_unital
        assert np.array_equal(bundle.algebra_a.mult, a.mult)
        assert np.array_equal(bundle.algebra_f.mult, f.mult)
        assert np.array_equal(bundle.action.left, act.left)

    def test_all_fixture_files_validate(self, zero_pair, module_extension,
                                        triangular):
        expected = {"zero_pair": zero_pair, "module_extension": module_extension,
                    "triangular": triangular}
        for name, (a, f, act) in expected.items():
            with open(fixture_path(name), "rb") as fh:
                bundle = parse_bundle(fh.read())
            assert np.array_equal(bundle.algebra_a.mult, a.mult), name
            assert np.array_equal(bundle.action.right, act.right), name

    def test_out_of_range_index_names_field(self):
        text = ('{"algebra_a": {"dim": 2, "mult": [[5, 0, 0, 1, 0]]},'
                ' "algebra_f": {"dim": 1}, "action": {}}')
        with pytest.raises(IndexError, match=r"algebra_a\.mult\[0\]"):
            parse_bundle(text)

    def test_duplicate_triplet_rejected(self):
        text = ('{"algebra_a": {"dim": 1, "mult": [[0,0,0,1,0], [0,0,0,2,0]]},'
                ' "algebra_f": {"dim": 1}, "action": {}}')
        with pytest.raises(DuplicateEntry):
            parse_bundle(text)

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError, match="line"):
            parse_bundle("{not json")

    def test_missing_field(self):
        with pytest.raises(ParseError, match="algebra_f"):
            parse_bundle('{"algebra_a": {"dim": 1}, "action": {}}')

    def test_non_utf8(self):
        with pytest.raises(ParseError, match="UTF-8"):
            parse_bundle(b"\xff\xfe{}")

    @pytest.mark.parametrize("path, value", [
        ("algebra_a.dim", 1.9), ("algebra_a.dim", "1"), ("algebra_a.dim", True),
        ("algebra_a.mult[0][0]", 0.7), ("algebra_a.mult[0][2]", True),
        ("action.left[0][0]", 0.7), ("action.right[0][1]", "0"),
        ("algebra_f.mult[0][3]", "1.0"), ("action.left[0][4]", False),
        ("action.right[0][3]", 10 ** 400)])
    def test_only_json_integers_and_numbers(self, path, value):
        # int() and float() would truncate or convert all but the last,
        # which float() cannot convert at all
        with open(fixture_path("lau_unital"), encoding="utf-8") as fh:
            obj = json.load(fh)
        *keys, last = [int(k) if k.isdigit() else k
                       for k in path.replace("]", "").replace("[", ".").split(".")]
        target = obj
        for key in keys:
            target = target[key]
        target[last] = value
        with pytest.raises(ParseError, match=re.escape(f"'{path}'")):
            parse_bundle(json.dumps(obj))


class TestRoundtrip:
    def test_parse_serialize_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a, f, act, _ = random_triple(rng)
            bundle = bundle_from_triple(a, f, act, name="roundtrip")
            again = parse_bundle(serialize_bundle(bundle))
            assert np.max(np.abs(again.algebra_a.mult - a.mult)) <= 1e-15
            assert np.max(np.abs(again.algebra_f.mult - f.mult)) <= 1e-15
            assert np.max(np.abs(again.action.left - act.left)) <= 1e-15
            assert np.max(np.abs(again.action.right - act.right)) <= 1e-15

    def test_metadata_preserved(self):
        bundle = parse_bundle(MINIMAL.replace('"name": "zeros",',
                                              '"name": "zeros", "note": "hi",'))
        assert bundle.metadata["note"] == "hi"
        assert bundle_to_obj(bundle)["note"] == "hi"


class TestCli:
    def test_validate_ok_exit_zero(self):
        code, report = run_command(["validate", fixture_path("lau_unital")])
        assert code == 0
        assert "pass" in report

    def test_validate_decides_the_unit_at_its_tol(self, tmp_path):
        # A's unit defect is 1e-7: a unit at --tol 1e-5, none at 1e-9
        path = tmp_path / "near_unital.json"
        path.write_text(serialize_bundle(bundle_from_triple(
            near_unital_algebra(), scalar_algebra(), BimoduleAction.zero(2, 1))))
        for tol, unital in (("1e-5", True), ("1e-9", False)):
            _, report = run_command(["validate", str(path), "--tol", tol,
                                     "--format", "json"])
            row = next(r for r in json.loads(report)["results"]
                       if r["id"] == "algebra-a-unit")
            assert row["status"] == "pass"
            assert row["value"] == ("unital" if unital else "non-unital")
            assert (row["defect"] > 0.0) is unital

    def test_fail_row_gives_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"algebra_a": {"dim": 2, "mult": '
                       '[[0,0,1,1,0],[1,0,0,1,0]]}, '
                       '"algebra_f": {"dim": 1}, "action": {}}')
        code, report = run_command(["validate", str(bad)])
        assert code == 1
        assert "fail" in report

    def test_spectrum_validates_its_bundle(self, tmp_path):
        # the spectrum command's one validation is the duplicate it builds
        bad = tmp_path / "bad.json"
        bad.write_text(BAD_ACTION)
        code, report = run_command(["spectrum", str(bad)])
        assert code == 1
        assert "fails validation" in report

    def test_property_h_validates_its_bundle(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(BAD_ACTION)
        _, spectrum = run_command(["spectrum", str(bad)])
        code, report = run_command(["property-h", str(bad)])
        assert code == 1
        # the same row but for the command name
        assert report.split(None, 1)[1] == spectrum.split(None, 1)[1]

    def test_usage_error_exit_two(self):
        code, _ = run_command(["no-such-command"])
        assert code == 2

    def test_missing_file_exit_one(self):
        code, report = run_command(["spectrum", "/nonexistent.json"])
        assert code == 1

    def test_duplicate_emits_parseable_algebra(self):
        code, report = run_command(["duplicate", fixture_path("triangular")])
        assert code == 0
        obj = json.loads(report)
        assert obj["dim"] == 3
        assert obj["labels"] == ["A:m0", "F:p", "F:q"]

    def test_json_format_schema(self):
        code, report = run_command(["spectrum", fixture_path("lau_unital"),
                                    "--format", "json"])
        assert code == 0
        results = json.loads(report)["results"]
        assert all(set(r) == {"id", "status", "defect", "value", "witness"}
                   for r in results)

    def test_seed_determinism(self):
        args = ["check-paper", "--trials", "3", "--seed", "11",
                "--format", "json"]
        first = run_command(args)
        second = run_command(args)
        assert first == second

    def test_check_paper_rows_match_golden(self):
        # pins which triples each family sees and the row order, which a
        # second run of the same code cannot catch
        code, report = run_command(["check-paper", "--trials", "10",
                                    "--seed", "0", "--format", "json"])
        assert code == 0
        rows = [{k: r[k] for k in ("id", "status", "value")}
                for r in json.loads(report)["results"]]
        with open(CHECK_PAPER_ROWS, encoding="utf-8") as fh:
            assert rows == json.load(fh)

    def test_check_paper_witness_parts_load(self, tmp_path, monkeypatch):
        # a failing maximality row carries an algebra and a subspace, not a
        # bundle; both come inline in the JSON and load back in the CLI
        from amaldup import audit
        from amaldup.bundles import algebra_to_obj, parse_algebra
        from amaldup.cli import _load_subspace
        from amaldup.linalg import Subspace, subspace_equal
        from conftest import pointwise_algebra

        alg = pointwise_algebra(3)
        cand = Subspace.from_spanning([np.array([1.0, 1j, 0.0])], 3)
        vectors = np.stack([cand.basis.T.real, cand.basis.T.imag], -1)
        row = audit.AuditRow("maximality-burnside-vs-oracle", "fail", 1, 0.0, {
            "note": "pool 0 ideal dim 1: burnside True oracle False",
            "algebra": algebra_to_obj(alg),
            "subspace": {"vectors": vectors.tolist()}})
        monkeypatch.setattr(audit, "run_full_audit", lambda *args: [row])
        code, report = run_command(["check-paper", "--trials", "1",
                                    "--format", "json"])
        assert code == 1
        (result,) = json.loads(report)["results"]
        witness = result["witness"]
        assert set(witness) == {"note", "algebra", "subspace"}
        back = parse_algebra(witness["algebra"])
        assert np.array_equal(back.mult, alg.mult)
        sub = tmp_path / "subspace.json"
        sub.write_text(json.dumps(witness["subspace"]))
        loaded = _load_subspace(str(sub), 3, 1e-9)
        assert subspace_equal(loaded, cand)

    def test_spectrum_tags_at_the_matching_tolerance(self, monkeypatch):
        # a character within 10 * tol of its lift is tagged by that lift,
        # the tolerance duplication_spectrum matched the lists at
        from amaldup import cli
        e = np.array([1.0, 0.5 + 0j])
        f = np.array([0.0, 1.0 + 0j])
        monkeypatch.setattr(cli, "duplication_spectrum", lambda *args: (
            [e], [f], [e + 5e-6, f]))
        code, report = run_command(["spectrum", fixture_path("lau_unital"),
                                    "--tol", "1e-6", "--format", "json"])
        assert code == 0
        rows = {r["id"]: r["value"] for r in json.loads(report)["results"]}
        assert rows["character[0]"]["family"] == "A-lifted"
        assert rows["character[1]"]["family"] == "F-lifted"

    def test_cyclic_reports_obstruction(self):
        code, report = run_command(["cyclic", fixture_path("zero_pair"),
                                    "--format", "json"])
        rows = {r["id"]: r["value"] for r in json.loads(report)["results"]}
        assert rows["cyclic-duplication"]["H1_cyclic"] == 1
        assert rows["cyclic-a"]["cyclically_amenable"] is True

    def test_cyclic_builds_no_full_derivation_space(self, monkeypatch):
        # the cyclic rows read cyclic Z1 and B1 only, never Z1 at level one
        from amaldup import derivations
        calls, solve = [], derivations.derivation_space
        monkeypatch.setattr(derivations, "derivation_space",
                            lambda *args: calls.append(args) or solve(*args))
        code, _ = run_command(["cyclic", fixture_path("triangular"),
                               "--format", "json"])
        assert code == 0
        assert calls == []

    def test_ideals_subcommand(self, tmp_path):
        sub = tmp_path / "sub.json"
        sub.write_text('{"vectors": [[[0, 0], [1, 0], [0, 0]]]}')
        code, report = run_command(["ideals", fixture_path("triangular"),
                                    "--subspace", str(sub)])
        assert code == 0
        assert "is-left-ideal" in report

    @pytest.mark.parametrize("content", ['{"vectors": [[1, 2]]}', '[1, 2]',
                                         '{"vectors": [[[1, "x"], [0, 0]]]}',
                                         '{"vectors": [[[1, 0], ["1", 0]]]}',
                                         '{"vectors": [[[true, 0], [0, 0]]]}'])
    def test_ideals_rejects_malformed_subspace(self, tmp_path, content):
        sub = tmp_path / "sub.json"
        sub.write_text(content)
        code, report = run_command(["ideals", fixture_path("lau_unital"),
                                    "--subspace", str(sub), "--format", "json"])
        assert code == 1
        (row,) = json.loads(report)["results"]
        assert (row["id"], row["status"]) == ("input", "fail")
        assert "vectors" in row["value"]

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_check_paper_needs_a_trial(self, trials):
        assert run_command(["check-paper", "--trials", trials]) == (2, "")

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "-inf", "abc"])
    @pytest.mark.parametrize("command", ["validate", "derivations", "check-paper"])
    def test_tolerance_must_be_positive_and_finite(self, command, tol, capsys):
        # a usage error before any solve: no report and no traceback
        args = [command] + ([] if command == "check-paper"
                            else [fixture_path("lau_unital")])
        assert run_command(args + ["--tol", tol, "--format", "json"]) == (2, "")
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command, option", [
        ("amenability", "--max-level"), ("derivations", "--level"),
        ("property-h", "--n"), ("check-paper", "--seed")])
    def test_levels_must_be_nonnegative(self, command, option, capsys):
        path = fixture_path("lau_unital")
        assert run_command([command, path, option, "-1"]) == (2, "")
        assert option in capsys.readouterr().err
        code, report = run_command([command, path, option, "0",
                                    "--format", "json"])
        assert code == 0 and json.loads(report)["results"]

    def test_amenability_subcommand(self):
        code, report = run_command(["amenability", fixture_path("lau_unital"),
                                    "--max-level", "1", "--format", "json"])
        assert code == 0
        rows = {r["id"]: r["value"] for r in json.loads(report)["results"]}
        assert rows["weakly-amenable-level-1"]["duplication"] is True

    def test_block_route_commands_match_golden(self):
        # tests/golden/block_route_cli.json holds the exit code and JSON
        # report of each command on each fixture, recorded before the block
        # identities were generated from one table; the reports carry only
        # ints, bools and statuses, so they must match exactly
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
        assert sorted(golden) == sorted(os.path.splitext(name)[0]
                                        for name in os.listdir(FIXDIR))
        for fixture, expected in golden.items():
            assert sorted(expected) == sorted(BLOCK_ROUTE_COMMANDS)
            for key, argv in BLOCK_ROUTE_COMMANDS.items():
                code, report = run_command(
                    argv + [fixture_path(fixture), "--format", "json"])
                got = {"exit": code, "report": json.loads(report)}
                assert got == expected[key], (fixture, key)


class TestEmitReport:
    def test_empty(self):
        assert emit_report([], "text") == "no results"
        assert json.loads(emit_report([], "json")) == {"results": []}

    def test_twelve_significant_digits(self):
        row = {"id": "x", "status": "pass", "defect": 1 / 3,
               "value": None, "witness": None}
        assert "0.333333333333" in emit_report([row], "text")


class TestShrinker:
    def test_keeps_violation_alive(self):
        from amaldup.sampling import shrink_triple, TripleRecipe
        rng = np.random.default_rng(23)
        # fake "violation": the duplication is commutative; shrinking must
        # land on the smallest commutative variant (two zero factors)
        while True:
            a, f, act, recipe = random_triple(rng, commutative_symmetric=True)
            if a.dim + f.dim > 2:
                break
        predicate = lambda aa, ff, aact: duplicate(aa, ff, aact).is_commutative()
        sa, sf, sact, srec = shrink_triple(a, f, act, recipe, predicate)
        assert predicate(sa, sf, sact)
        assert sa.dim + sf.dim <= a.dim + f.dim
        assert sa.dim == sf.dim == 1  # fully shrunk for this predicate

    def test_noop_when_shrinking_breaks_violation(self):
        from amaldup.sampling import shrink_triple
        rng = np.random.default_rng(24)
        a, f, act, recipe = random_triple(rng, unital_a=True)
        predicate = lambda aa, ff, aact: aa.unit() is not None and aa.dim == a.dim
        sa, sf, sact, _ = shrink_triple(a, f, act, recipe, predicate)
        assert predicate(sa, sf, sact)
        assert sa.dim == a.dim


class TestAudit:
    def test_transfer_violation_shrinks(self, monkeypatch):
        # only the duplication (whose labels carry the A:/F: prefixes) is
        # cyclically amenable, so (c) necessity for F fails; only the
        # factors are weakly amenable, so (e) fails where A is essential,
        # and (d) fails too, whose witness must keep its premise, A unital
        # (neither (c) necessity nor (e) had a shrinker before)
        from amaldup import audit
        from amaldup.linalg import DEFAULT_TOL

        is_dup = lambda alg: alg.labels[0].startswith("A:")
        monkeypatch.setattr(audit, "cyclic_amenability",
                            lambda alg, tol: is_dup(alg))
        monkeypatch.setattr(audit, "weak_amenability",
                            lambda alg, n, tol: not is_dup(alg))
        rows = {r.id: r for r in audit.audit_transfers(trials=10, seed=0)}
        witnesses = {}
        for row_id, note in (("transfer-cyclic", "(c) necessity for F"),
                             ("transfer-unital-iff", "(d) level 0"),
                             ("transfer-odd-sufficiency", "(e) sufficiency")):
            row = rows[row_id]
            assert not row.passed
            assert row.witness["note"] == note
            bundle = parse_bundle(json.dumps(row.witness["bundle"]))
            witnesses[note] = (bundle.algebra_a, bundle.algebra_f, bundle.action)
        a, f, act = witnesses["(c) necessity for F"]
        assert a.dim == f.dim == 1
        assert not (np.any(a.mult) or np.any(f.mult)
                    or np.any(act.left) or np.any(act.right))
        assert witnesses["(d) level 0"][0].unit() is not None
        claims = {note: violated
                  for _, note, _, violated in audit._TRANSFER_CLAIMS}
        for note, triple in witnesses.items():
            dup = duplicate(*triple, validate=False)
            assert claims[note](audit._Premises(dup, DEFAULT_TOL))
