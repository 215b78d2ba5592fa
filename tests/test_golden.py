"""CLI stdout, and the lattice cache files ``verify --cache-dir`` writes,
pinned byte for byte against files under ``tests/golden/``.

To regenerate the stdout files after a deliberate output change, run from
the repository root:
``PYTHONPATH=src:tests python -c "import test_golden; test_golden.write_all()"``.
``cache_sha256.txt`` is ``sha256sum`` output for the files that
``fmtri verify <spec> --coxeter-order <order> --cache-dir <dir>`` writes.
"""

import hashlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from fmtri.cartan import FAMILIES, CartanType, spec_of
from fmtri.cli import main
from fmtri.errors import SpecError
from fmtri.weyl import invariant_formulas

GOLDEN = Path(__file__).parent / "golden"
# (command, --coxeter-order or None, the formats the parser offers it)
COMMANDS = (
    ("verify", None, ("json", "csv")),
    ("mtriangle", None, ("json", "csv", "tex")),
    ("mtriangle", "3,2,1", ("json", "csv", "tex")),
    ("ftriangle", None, ("json", "csv", "tex")),
    ("fvector", None, ("json", "csv", "tex")),
    ("invariants", None, ("json", "csv")),
)
# (command, specs separated by spaces, --coxeter-order or None, format)
CASES = [
    (cmd, spec, order, fmt)
    for cmd, order, formats in COMMANDS
    for spec in ("A3", "B3", "A2xA1")
    for fmt in formats
] + [("sweep", "A1 B2 A2xA1", None, fmt) for fmt in ("json", "csv")] + [
    ("sweep", "A3xA3 B3xB3 G2xG2xA1 D4xA2 F4xG2", None, "json")
]


def _name(cmd, spec, order, fmt):
    tag = f"_order_{order.replace(',', '-')}" if order else ""
    return f"{cmd}_{spec.replace(' ', '_')}{tag}.{fmt}"


def _run(cmd, spec, order, fmt):
    argv = [cmd, *spec.split(), "--format", fmt] + (["--coxeter-order", order] if order else [])
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue()


def write_all():
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / _name(*case)).write_text(_run(*case))


@pytest.mark.parametrize("case", CASES, ids=lambda c: _name(*c))
def test_stdout_matches_golden(case):
    assert _run(*case) == (GOLDEN / _name(*case)).read_text()


# (sha256, file name) for each pinned cache file
CACHE_DIGESTS = [
    tuple(line.split()) for line in (GOLDEN / "cache_sha256.txt").read_text().splitlines()
]


@pytest.mark.parametrize("digest, name", CACHE_DIGESTS, ids=[name for _, name in CACHE_DIGESTS])
def test_cache_file_matches_digest(digest, name, tmp_path):
    _, spec, order, _ = name.split("__")
    order = order.removeprefix("order_").replace("-", ",")
    argv = ["verify", spec, "--coxeter-order", order, "--cache-dir", str(tmp_path)]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# ``fmtri sweep <specs> --format csv`` over every irreducible type with
# |L| <= 250000, in family then rank order: the identity checked for every
# family far past the ranks the paper reports.  The sweep takes minutes, so
# CI diffs it and the test below reads the file alone.
SWEEP_LIMIT = 250000
SWEEP_FILE = GOLDEN / "sweep_irreducible_to_250000.csv"


def test_sweep_file_lists_every_irreducible_type_up_to_the_limit():
    expected = []
    for family in FAMILIES:
        # |L| grows with the rank, and every family's rank 20 is past the limit
        for n in range(1, 21):
            try:
                t = CartanType(family, n)
            except SpecError:
                continue
            if str(t) == f"{family}{n}" and invariant_formulas(spec_of(t)).cardinality <= SWEEP_LIMIT:
                assert n < 20, t
                expected.append(str(t))
    lines = SWEEP_FILE.read_text().splitlines()
    assert [line.rpartition(",")[0] for line in lines] == expected
    assert all(line.endswith(",true") for line in lines)
