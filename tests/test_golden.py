"""CLI stdout pinned byte for byte against files under ``tests/golden/``.

To regenerate after a deliberate output change, run from the repository
root: ``PYTHONPATH=src:tests python -c "import test_golden; test_golden.write_all()"``
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from fmtri.cli import main

GOLDEN = Path(__file__).parent / "golden"
# (command, --coxeter-order or None)
COMMANDS = (
    ("verify", None),
    ("mtriangle", None),
    ("mtriangle", "3,2,1"),
    ("ftriangle", None),
    ("fvector", None),
    ("invariants", None),
)
CASES = [
    (cmd, spec, order, fmt)
    for cmd, order in COMMANDS
    for spec in ("A3", "B3", "A2xA1")
    for fmt in ("json", "csv")
]


def _name(cmd, spec, order, fmt):
    tag = f"_order_{order.replace(',', '-')}" if order else ""
    return f"{cmd}_{spec}{tag}.{fmt}"


def _run(cmd, spec, order, fmt):
    argv = [cmd, spec, "--format", fmt] + (["--coxeter-order", order] if order else [])
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
