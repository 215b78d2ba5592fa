#!/usr/bin/env python3
"""Long jobs: ``fmtri verify --timings`` for E7 and E8.

E7 (|L| = 4160) is also built and verified in the test suite; a cold run
through this script took 1.7 s wall and 50 MB peak RSS on a 2-core Intel
Xeon with CPython 3.11.  E8 (|L| = 25080) runs only with --yes; a cold run
took 62 s wall and 362 MB peak RSS on the same host, mostly in the Moebius
table.  Every built or cache-loaded lattice must pass
``weyl.check_lattice``, and a failed check exits 4.  With --cache-dir, a
second run loads the lattice instead of building it.  Output and exit status
are those of ``fmtri verify``.

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
