"""Command-line surface: bundle validation, computations and the audit.

Every subcommand reads an algebra bundle (see :mod:`amaldup.bundles`),
runs one family of computations, and emits a report whose rows carry a
stable schema: ``id``, ``status`` (pass / fail / info), ``defect``,
``value`` and ``witness``.  Exit code 0 means no row failed, 1 means at
least one did (including unreadable input), 2 is a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import audit as audit_mod
from .algebra import (Duplication, associativity_defect, duplicate,
                      span_products, validate_action, validate_algebra)
from .bundles import (AlgebraBundle, _load_json, algebra_to_obj, json_number,
                      parse_bundle)
from .derivations import (cohomology, cyclic_cohomology,
                          derivation_quadruple_space, derivation_space,
                          property_h)
from .duals import (arens_products, essentiality, nth_dual_bimodule,
                    second_dual_duplication_defect, topological_centres)
from .errors import DuplicateEntry, ParseError
from .ideals import is_ideal, product_ideal_test, project_components
from .linalg import DEFAULT_TOL, IDENTITY_TOL, Subspace, check_bound
from .multipliers import (corollary_form_check, left_multiplier_space,
                          quadruple_space)
from .spectrum import duplication_spectrum, first_match, gelfand_semisimple


def main(argv=None) -> int:
    code, report = run_command(sys.argv[1:] if argv is None else argv)
    if report:
        print(report)
    return code


def run_command(argv) -> tuple[int, str]:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (int(exc.code) if exc.code else 0), ""
    try:
        rows = args.handler(args)
    except (ParseError, DuplicateEntry, IndexError, OSError) as exc:
        rows = [_row("input", "fail", value=str(exc))]
    except ValueError as exc:
        rows = [_row(args.command, "fail", value=str(exc))]
    if args.command == "duplicate" and all(r["status"] != "fail" for r in rows):
        return 0, rows[0]["value"]
    report = emit_report(rows, args.format)
    code = 1 if any(r["status"] == "fail" for r in rows) else 0
    return code, report


def _checked(kind, ok, need: str):
    """Argument type: a ``kind`` value for which ``ok`` holds; any other
    value is a usage error that says it must be ``need``."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value
    parse.__name__ = kind.__name__   # argparse's "invalid int value" names it
    return parse


_NONNEGATIVE = _checked(int, lambda v: v >= 0, "at least 0")
_POSITIVE = _checked(int, lambda v: v >= 1, "at least 1")
# NaN fails both comparisons
_TOLERANCE = _checked(float, lambda v: 0 < v < np.inf, "positive and finite")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    shown_tol = np.format_float_scientific(DEFAULT_TOL, trim="-", exp_digits=1)
    common.add_argument("--tol", type=_TOLERANCE, default=DEFAULT_TOL,
                        help=f"comparison tolerance (default {shown_tol})")
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(
        prog="amaldup",
        description="Amalgamated duplications of finite-dimensional "
                    "complex algebras: structure computations and "
                    "property audits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, helptext):
        p = sub.add_parser(name, parents=[common], help=helptext)
        p.add_argument("bundle", help="path to an algebra bundle (JSON)")
        p.set_defaults(handler=handler)
        return p

    add("validate", cmd_validate, "check algebra and action axioms")
    add("duplicate", cmd_duplicate,
        "emit the duplication as a single-algebra JSON document")
    add("spectrum", cmd_spectrum,
        "characters of the duplication, tagged by originating family")
    add("semisimple", cmd_semisimple,
        "joint point-separation of the character sets")
    p = add("ideals", cmd_ideals, "ideal tests for a duplication subspace")
    p.add_argument("--subspace", required=True,
                   help="JSON file with a 'vectors' list over the duplication")
    add("multipliers", cmd_multipliers,
        "left multiplier dimension and its block decomposition")
    add("arens", cmd_arens, "extended products on second duals")
    add("centres", cmd_centres, "topological centres")
    p = add("derivations", cmd_derivations, "derivation space dimensions")
    p.add_argument("--level", type=_NONNEGATIVE, default=1, help="dual level n")
    add("cyclic", cmd_cyclic, "cyclic derivations at the first dual")
    p = add("property-h", cmd_property_h,
            "extension property of the pair at an odd dual level")
    p.add_argument("--n", type=_NONNEGATIVE, default=0, help="check level 2n+1")
    p = add("amenability", cmd_amenability,
            "weak and cyclic amenability per dual level")
    p.add_argument("--max-level", type=_NONNEGATIVE, default=2)
    p = sub.add_parser("check-paper", parents=[common],
                       help="randomized audit of the structure theorems")
    p.add_argument("bundle", nargs="?",
                   help="optional bundle to include as a deterministic case")
    p.add_argument("--trials", type=_POSITIVE, default=50,
                   help="random triples per audit family, at least 1")
    p.add_argument("--seed", type=_NONNEGATIVE, default=0,
                   help="seed of the randomized audit")
    p.set_defaults(handler=cmd_check)
    return parser


def _row(check_id, status, defect=None, value=None, witness=None):
    return {"id": check_id, "status": status, "defect": defect,
            "value": value, "witness": witness}


def _load(args) -> AlgebraBundle:
    with open(args.bundle, "rb") as fh:
        return parse_bundle(fh.read())


def _load_duplication(args) -> Duplication:
    """The bundle's duplication, validated: the command's one validation."""
    bundle = _load(args)
    return duplicate(bundle.algebra_a, bundle.algebra_f, bundle.action, args.tol)


def _tagged(dup: Duplication):
    """The command's three algebras, each with its row tag."""
    return (("a", dup.a), ("f", dup.f), ("duplication", dup))


def _thresh(defect, tol):
    return "pass" if defect <= tol else "fail"


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args):
    bundle = _load(args)
    rows = []
    for tag, alg in (("algebra-a", bundle.algebra_a), ("algebra-f", bundle.algebra_f)):
        rep = validate_algebra(alg, args.tol)
        rows.append(_row(f"{tag}-associativity", _thresh(rep.associativity_defect,
                                                         args.tol),
                         rep.associativity_defect))
        rows.append(_row(f"{tag}-unit", _thresh(rep.unit_defect, args.tol),
                         rep.unit_defect,
                         value="unital" if alg.unit(args.tol) is not None
                         else "non-unital"))
        rows.append(_row(f"{tag}-l1-growth", "info",
                         value=rep.submultiplicativity_constant))
    act_rep = validate_action(bundle.algebra_a, bundle.algebra_f,
                              bundle.action, args.tol)
    for name, defect in act_rep.defects.items():
        rows.append(_row(f"action-{name.replace('_', '-')}",
                         _thresh(defect, args.tol), defect))
    rows.append(_row("action-symmetric", "info", value=act_rep.symmetric))
    return rows


def cmd_duplicate(args):
    dup = _load_duplication(args)
    return [_row("duplication", "pass",
                 value=json.dumps(algebra_to_obj(dup), indent=2))]


def cmd_spectrum(args):
    e_list, f_list, sigma = duplication_spectrum(_load_duplication(args), args.tol)
    rows = [_row("character-count", "info", value=len(sigma))]
    match = check_bound(args.tol)  # the tolerance duplication_spectrum matched at
    for k, chi in enumerate(sigma):
        if first_match(chi, e_list, match) is not None:
            family = "A-lifted"
        elif first_match(chi, f_list, match) is not None:
            family = "F-lifted"
        else:
            family = "unmatched"
        rows.append(_row(f"character[{k}]", "info",
                         value={"family": family,
                                "coords": [[float(z.real), float(z.imag)]
                                           for z in chi]}))
    rows.append(_row("spectrum-assembles", "pass",
                     value=f"{len(e_list)} lifted from A, {len(f_list)} from F"))
    return rows


def cmd_semisimple(args):
    rows = []
    flags = {}
    for tag, alg in _tagged(_load_duplication(args)):
        if not alg.is_commutative(args.tol):
            rows.append(_row(f"semisimple-{tag}", "info",
                             value="not commutative; skipped"))
            continue
        flags[tag] = gelfand_semisimple(alg, args.tol)
        rows.append(_row(f"semisimple-{tag}", "info", value=flags[tag]))
    if len(flags) == 3:
        ok = flags["duplication"] == (flags["a"] and flags["f"])
        rows.append(_row("semisimplicity-transfer", "pass" if ok else "fail",
                         value=flags))
    return rows


def _load_subspace(path, ambient, tol) -> Subspace:
    """The span of a JSON object's ``vectors``, each a list of ``ambient``
    ``[re, im]`` pairs."""
    with open(path, "rb") as fh:
        obj = _load_json(fh.read())
    vectors = obj.get("vectors", []) if isinstance(obj, dict) else None
    if not isinstance(vectors, list):
        raise ParseError("subspace must be a JSON object with a 'vectors' list")
    out = []
    for pos, vec in enumerate(vectors):
        where = f"vectors[{pos}]"
        if not (isinstance(vec, list) and len(vec) == ambient
                and all(isinstance(p, list) and len(p) == 2 for p in vec)):
            raise ParseError(f"{where} must list {ambient} [re, im] pairs")
        out.append(np.array([complex(json_number(re, f"{where}[{k}][0]"),
                                     json_number(im, f"{where}[{k}][1]"))
                             for k, (re, im) in enumerate(vec)]))
    return Subspace.from_spanning(out, ambient, tol)


def cmd_ideals(args):
    dup = _load_duplication(args)
    sub = _load_subspace(args.subspace, dup.dim, args.tol)
    rows = [_row("subspace-dim", "info", value=sub.dim)]
    for side in ("left", "right", "two_sided"):
        rows.append(_row(f"is-{side.replace('_', '-')}-ideal", "info",
                         value=is_ideal(dup, sub, side, args.tol)))
    i_n, j_n = project_components(dup.a.dim, dup.f.dim, sub, args.tol)
    rows.append(_row("projection-dims", "info",
                     value={"onto-A": i_n.dim, "onto-F": j_n.dim}))
    report = product_ideal_test(dup, i_n, j_n, args.tol)
    rows.append(_row("block-criterion", "info", value=vars(report)))
    agree = report.conjunction == report.direct
    rows.append(_row("block-criterion-consistent", "pass" if agree else "fail"))
    return rows


def cmd_multipliers(args):
    dup = _load_duplication(args)
    direct = left_multiplier_space(dup, args.tol).dim
    blockwise = quadruple_space(dup.a, dup.f, dup.act, args.tol).dim
    rows = [_row("dim-left-multipliers", "info", value=direct),
            _row("dim-block-system", "info", value=blockwise),
            _row("dimensions-agree", "pass" if direct == blockwise else "fail")]
    rep = corollary_form_check(dup, args.tol)
    rows.append(_row("span-hypothesis", "info", value=rep.hypothesis_held))
    if rep.hypothesis_held:
        rows.append(_row("simplified-form", "pass" if rep.conclusion_verified
                         else "fail"))
    return rows


def cmd_arens(args):
    dup = _load_duplication(args)
    rows = []
    for tag, alg in _tagged(dup):
        st = arens_products(alg)
        defect = max(float(np.max(np.abs(st.first - alg.mult))),
                     float(np.max(np.abs(st.second - alg.mult))))
        rows.append(_row(f"extended-products-collapse-{tag}",
                         _thresh(defect, IDENTITY_TOL), defect))
    iso = second_dual_duplication_defect(dup)
    rows.append(_row("second-dual-duplication", _thresh(iso, IDENTITY_TOL), iso))
    return rows


def cmd_centres(args):
    cents = topological_centres(_load_duplication(args), args.tol)
    rows = [_row(f"centre-{name}", "info",
                 value={"dim": s.dim, "ambient": s.ambient_dim})
            for name, s in cents.items()]
    full = all(s.dim == s.ambient_dim for s in cents.values())
    rows.append(_row("centres-full", "pass" if full else "fail",
                     value="expected at finite dimension"))
    return rows


def cmd_derivations(args):
    dup = _load_duplication(args)
    n = args.level
    reports = {tag: cohomology(alg, n, tol=args.tol) for tag, alg in _tagged(dup)}
    rows = []
    for tag, rep in reports.items():
        rows.append(_row(f"cohomology-{tag}", "info",
                         value={"Z1": rep.dim_z1, "B1": rep.dim_b1,
                                "H1": rep.dim_h1}))
    blockwise = derivation_quadruple_space(dup.a, dup.f, dup.act, n, args.tol).dim
    direct = reports["duplication"].dim_z1
    rows.append(_row("block-system-dim", "info", value=blockwise))
    rows.append(_row("dimensions-agree",
                     "pass" if blockwise == direct else "fail"))
    return rows


def cmd_cyclic(args):
    rows = []
    for tag, alg in _tagged(_load_duplication(args)):
        z1c, h1c = cyclic_cohomology(alg, args.tol)
        rows.append(_row(f"cyclic-{tag}", "info",
                         value={"Z1_cyclic": z1c, "H1_cyclic": h1c,
                                "cyclically_amenable": h1c == 0}))
    return rows


def cmd_property_h(args):
    dup = _load_duplication(args)
    holds = property_h(dup.a, dup.f, dup.act, args.n, args.tol)
    return [_row(f"extension-property-level-{2 * args.n + 1}", "info",
                 value=holds)]


def cmd_amenability(args):
    dup = _load_duplication(args)
    a, f, act = dup.a, dup.f, dup.act
    algebras = dict(_tagged(dup))
    # one report per (algebra, parity), since level n is level n - 2; the
    # odd one is level 1, which also carries the cyclic rows
    reports = {(tag, p): cohomology(alg, p, tol=args.tol)
               for p in {n % 2 for n in range(args.max_level + 1)} | {1}
               for tag, alg in algebras.items()}
    rows = []
    for n in range(args.max_level + 1):
        rows.append(_row(f"weakly-amenable-level-{n}", "info", value={
            tag: reports[tag, n % 2].weakly_amenable for tag in algebras}))
    for tag in algebras:
        rows.append(_row(f"cyclically-amenable-{tag}", "info",
                         value=reports[tag, 1].cyclically_amenable))
    rows.append(_row("hypothesis-flags", "info", value={
        "squares-span-a": span_products(a, "squares", tol=args.tol).dim == a.dim,
        "essential-level-2": essentiality(a, 2, "algebra_left", args.tol),
        "extension-property-level-1": property_h(a, f, act, 0, args.tol)}))
    return rows


def cmd_check(args):
    rows = _bundle_checks(_load_duplication(args), args.tol) if args.bundle else []
    for res in audit_mod.run_full_audit(args.trials, args.seed, args.tol):
        rows.append(_row(res.id, res.status, res.defect,
                         value=f"{res.trials} trials",
                         witness=res.witness))
    return rows


def _bundle_checks(dup: Duplication, tol: float):
    a, f, act = dup.a, dup.f, dup.act
    rows = []
    assoc = associativity_defect(dup.mult)
    rows.append(_row("bundle-duplication-associative", _thresh(assoc, tol), assoc))
    try:
        duplication_spectrum(dup, tol)
        rows.append(_row("bundle-spectrum-assembles", "pass"))
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        rows.append(_row("bundle-spectrum-assembles", "fail", value=str(exc)))
    direct = left_multiplier_space(dup, tol).dim
    blockwise = quadruple_space(a, f, act, tol).dim
    rows.append(_row("bundle-multiplier-dimension",
                     "pass" if direct == blockwise else "fail",
                     value={"direct": direct, "blocks": blockwise}))
    dims = {p: (derivation_space(dup, nth_dual_bimodule(dup, p), tol).dim,
                derivation_quadruple_space(a, f, act, p, tol).dim)
            for p in (0, 1)}  # level n is level n - 2
    for n in (0, 1, 2):
        dz, bz = dims[n % 2]
        rows.append(_row(f"bundle-derivation-dimension-level-{n}",
                         "pass" if dz == bz else "fail",
                         value={"direct": dz, "blocks": bz}))
    return rows


# ---------------------------------------------------------------------------
# rendering


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, dict):
        return json.dumps(value, default=_json_default)
    return str(value)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


def emit_report(rows, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps({"results": rows}, indent=2, default=_json_default)
    if not rows:
        return "no results"
    width = max(len(r["id"]) for r in rows)
    lines = []
    for r in rows:
        defect = "" if r["defect"] is None else f"  defect={r['defect']:.12g}"
        value = "" if r["value"] is None else f"  {_fmt(r['value'])}"
        lines.append(f"{r['id']:<{width}}  {r['status']:<4}{defect}{value}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
