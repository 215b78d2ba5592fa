#!/usr/bin/env python3
"""Opt-in long jobs: ``fmtri verify --timings`` for E7 and E8.

These are deliberately not part of the test suite.  E7 builds a lattice with
4160 elements; a cold run took 22 s wall and 164 MB peak RSS on a 2-core
Intel Xeon with CPython 3.11.  E8 has 25080 elements and a Moebius table
that is quadratic in that, so expect a long run and a few GB of RAM; it runs
only with --yes.  Every built or cache-loaded lattice is checked against the
closed-form |L| and Moebius number, and a failed check exits 4.  With
--cache-dir, a second run loads the lattice, Moebius table included, instead
of building it.  Output and exit status are those of ``fmtri verify``.

Usage:
    python scripts/exceptional_longrun.py --type e7 [--cache-dir DIR]
    python scripts/exceptional_longrun.py --type e8 --yes [--cache-dir DIR]

which run ``fmtri verify E7 --timings [--cache-dir DIR]`` and
``fmtri verify E8 --timings [--cache-dir DIR]``.
"""

import argparse
import sys

from fmtri import cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--type", choices=("e7", "e8"), required=True)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--yes", action="store_true", help="required for e8")
    args = parser.parse_args(argv)

    spec = args.type.upper()
    if spec == "E8" and not args.yes:
        print("E8 is a long job (|L| = 25080); rerun with --yes to proceed.", file=sys.stderr)
        return 2
    cache = ["--cache-dir", args.cache_dir] if args.cache_dir else []
    return cli.main(["verify", spec, "--timings", *cache])


if __name__ == "__main__":
    sys.exit(main())
