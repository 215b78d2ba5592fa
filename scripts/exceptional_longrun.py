#!/usr/bin/env python3
"""Opt-in long jobs: verify the change of variables for E7 and E8.

These are deliberately not part of the test suite.  E7 builds a lattice with
4160 elements; a cold run took 22 s wall and 164 MB peak RSS on a 2-core
Intel Xeon with CPython 3.11.  E8 has 25080 elements and a Moebius table
that is quadratic in that, so expect a long run and a few GB of RAM.
Pass --type e8 explicitly if you really want it.  With --cache-dir, a
second run loads the lattice, Moebius table included, instead of building it.

Usage:
    python scripts/exceptional_longrun.py --type e7 [--cache-dir DIR]
    python scripts/exceptional_longrun.py --type e8 --yes [--cache-dir DIR]
"""

import argparse
import sys
import time

from fmtri.cache import load_or_build_lattice
from fmtri.conjecture import verify_conjecture
from fmtri.weyl import invariant_formulas


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--type", choices=("e7", "e8"), required=True)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--yes", action="store_true", help="required for e8")
    args = parser.parse_args()

    spec = args.type.upper()
    if spec == "E8" and not args.yes:
        print("E8 is a long job (|L| = 25080); rerun with --yes to proceed.")
        return 2

    forms = invariant_formulas(spec)
    print(f"{spec}: expecting |L| = {forms.cardinality}, mu = {forms.mobius_number}")

    t0 = time.perf_counter()
    lat = load_or_build_lattice(spec, cache_dir=args.cache_dir)
    print(f"lattice built: {lat.cardinality} elements in {time.perf_counter() - t0:.1f}s")
    assert lat.cardinality == forms.cardinality
    assert lat.mobius_number == forms.mobius_number

    t0 = time.perf_counter()
    report = verify_conjecture(spec, lattice=lat)
    print(f"comparison done in {time.perf_counter() - t0:.1f}s")
    print(f"verified: {report.verified}, evidence: {report.evidence.as_dict()}")
    for k, l, lhs, rhs in report.mismatches:
        print(f"mismatch at x^{k} y^{l}: {lhs} != {rhs}")
    return 0 if report.verified and report.evidence.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
