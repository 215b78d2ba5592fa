"""Smoke tests for scripts/: each script is a thin wrapper of one fmtri command."""

import runpy
import sys
from pathlib import Path

import pytest

from fmtri import cli, weyl

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

DESK_SPECS = [
    "A1", "A2", "A3", "A4", "A5", "A6",
    "B2", "B3", "B4", "B5", "B6",
    "C3", "C4", "C5", "C6",
    "D4", "D5", "D6", "E6", "F4", "G2",
    "A1xA1", "A2xA1", "B2xA1",
]


@pytest.fixture
def cli_calls(monkeypatch):
    """Record the argv each script hands to ``cli.main``; fail on any lattice build."""
    calls = []

    def fake_main(argv):
        calls.append(argv)
        return 0

    def no_build(*args, **kwargs):
        raise AssertionError("a script built a lattice")

    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(weyl, "build_nc_lattice", no_build)
    return calls


def longrun_main():
    return runpy.run_path(str(SCRIPTS / "exceptional_longrun.py"))["main"]


def test_longrun_e8_needs_yes(cli_calls, capsys):
    assert longrun_main()(["--type", "e8"]) == 2
    assert cli_calls == []
    assert "--yes" in capsys.readouterr().err


def test_longrun_is_fmtri_verify(cli_calls, tmp_path):
    main = longrun_main()
    assert main(["--type", "e7", "--cache-dir", str(tmp_path)]) == 0
    assert main(["--type", "e8", "--yes"]) == 0
    assert cli_calls == [
        ["verify", "E7", "--timings", "--cache-dir", str(tmp_path)],
        ["verify", "E8", "--timings"],
    ]


def test_run_sweep_is_fmtri_sweep(cli_calls, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["run_sweep.py", "--jobs", "2"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "run_sweep.py"), run_name="__main__")
    assert exit_info.value.code == 0
    assert cli_calls == [["sweep", *DESK_SPECS, "--jobs", "2"]]
