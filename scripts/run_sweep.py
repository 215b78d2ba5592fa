#!/usr/bin/env python3
"""Desk-scale verification sweep: ``fmtri sweep`` over a fixed spec list.

Verifies the change of variables for every irreducible type of rank <= 6
(plus E6, F4 and G2) and three reducible specs.  Any further arguments go to
``fmtri sweep`` unchanged; exit status 0 means everything verified.

Usage:
    python scripts/run_sweep.py [--jobs N] [--cache-dir DIR] [--format csv] ...
"""

import sys

from fmtri import cli

DESK_SPECS = (
    [f"A{n}" for n in range(1, 7)]
    + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(3, 7)]
    + ["D4", "D5", "D6", "E6", "F4", "G2", "A1xA1", "A2xA1", "B2xA1"]
)

if __name__ == "__main__":
    sys.exit(cli.main(["sweep", *DESK_SPECS, *sys.argv[1:]]))
