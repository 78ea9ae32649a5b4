#!/usr/bin/env python3
"""Run the randomized theorem audit and print the per-check table.

Equivalent to ``amaldup check-paper`` but convenient for experiments:
sweeps several seeds, prints timing per check family, and optionally
dumps failing witnesses to a directory.

    python3 scripts/run_audit.py --trials 100 --seeds 0 1 2 --witness-dir /tmp/w
"""

import argparse
import json
import pathlib
import sys
import time

from amaldup import audit
from amaldup.linalg import DEFAULT_TOL


def write_witness(out: pathlib.Path, stem: str, witness: dict) -> None:
    """Write each part of a failing row's witness (a bundle, or an algebra
    and a subspace) to ``<stem>-<part>.json``; the note is printed only."""
    out.mkdir(parents=True, exist_ok=True)
    for part, obj in witness.items():
        if part == "note":
            continue
        path = out / f"{stem}-{part}.json"
        path.write_text(json.dumps(obj, indent=2))
        print(f"        witness written to {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--witness-dir", default=None,
                        help="write the JSON parts of failing witnesses here")
    args = parser.parse_args()

    any_fail = False
    for seed in args.seeds:
        print(f"== seed {seed}, {args.trials} trials per check ==")
        start = time.time()
        rows = audit.run_full_audit(args.trials, seed, args.tol)
        for row in rows:
            mark = "pass" if row.passed else "FAIL"
            print(f"  {mark}  {row.id:<42s} trials={row.trials:<5d} "
                  f"defect={row.defect:.3e}")
            if not row.passed:
                any_fail = True
                print(f"        {row.witness['note']}")
                if args.witness_dir:
                    write_witness(pathlib.Path(args.witness_dir),
                                  f"{row.id}-seed{seed}", row.witness)
        print(f"  ({time.time() - start:.1f}s)")
    return 1 if any_fail else 0


if __name__ == "__main__":
    sys.exit(main())
