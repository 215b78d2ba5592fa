"""Tests of the benchmark's own checker, span arithmetic, inputs and tracer.

Run from the root of the checkout:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def fmtri(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "fmtri.cli", *argv], capture_output=True, env=ENV, cwd=ROOT
    )


@pytest.fixture(scope="module")
def reference():
    return check.load_reference()


@pytest.fixture(scope="module")
def a2_stdout():
    done = fmtri("verify", "A2", "--coxeter-order", "2,1")
    assert done.returncode == 0
    return done.stdout


def tampered(stdout: bytes, edit) -> bytes:
    doc = json.loads(stdout)
    edit(doc["payload"])
    return json.dumps(doc, sort_keys=True, indent=2).encode() + b"\n"


class TestChecker:
    def test_accepts_real_output_in_any_coxeter_order(self, a2_stdout, reference):
        assert check.verify_problems("A2", 0, a2_stdout, reference) == []

    def test_rejects_nonzero_exit(self, a2_stdout, reference):
        assert check.verify_problems("A2", 1, a2_stdout, reference) == ["A2: exit code 1"]

    def test_rejects_flipped_evidence_flag(self, a2_stdout, reference):
        out = tampered(a2_stdout, lambda p: p["evidence"].update(m_self_dual=False))
        problems = check.verify_problems("A2", 0, out, reference)
        assert "A2: evidence m_self_dual is False" in problems

    def test_rejects_altered_rhs_coefficient(self, a2_stdout, reference):
        def bump(p):
            p["rhs"][1][0] += 1

        problems = check.verify_problems("A2", 0, tampered(a2_stdout, bump), reference)
        assert "A2: lhs and rhs differ" in problems
        assert "A2: stdout differs from the reference" in problems

    def test_rejects_output_for_another_spec(self, a2_stdout, reference):
        assert check.verify_problems("A3", 0, a2_stdout, reference)

    def test_sweep_counts_every_spec(self, reference):
        done = fmtri("sweep", "A2", "A1xA1")
        assert check.sweep_problems(["A2", "A1xA1"], 0, done.stdout, reference) == {
            "A2": [],
            "A1xA1": [],
        }
        failed = check.sweep_problems(["A2", "A1xA1"], 3, done.stdout, reference)
        assert all(failed.values())
        doc = json.loads(done.stdout)
        doc["payload"]["results"][1]["report"]["rhs"][0][0] = 7
        bad = check.sweep_problems(["A2", "A1xA1"], 0, json.dumps(doc).encode(), reference)
        assert bad["A2"] == [] and "A1xA1: lhs and rhs differ" in bad["A1xA1"]


def span(sid, name, start, end, parent=None, info=None):
    return [sid, name, start, end, parent, "j0", info]


class TestSelfTime:
    def test_nested_spans(self):
        example = [
            span(0, "cli.main", 0.0, 10.0),
            span(1, "cache.load_or_build_lattice", 1.0, 6.0, 0),
            span(2, "weyl.nc_lattice", 2.0, 5.0, 1),
            span(3, "weyl.build_nc_lattice", 2.5, 4.5, 2),
            span(4, "cli._emit", 7.0, 8.0, 0),
        ]
        assert spans.self_times(example) == {0: 4.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 1.0}

    def test_overlapping_children_are_covered_once(self):
        assert spans.covered([(1.0, 3.0), (2.0, 5.0), (9.0, 12.0)], 0.0, 10.0) == 5.0

    def test_layer_metrics(self):
        lattice = {"elements": 5, "covers": 6, "mobius_entries": 12, "invariants_ok": True}
        job = [
            span(0, "cache.load_or_build_lattice", 0.0, 4.0, None, {"cache_dir": True}),
            span(1, "weyl.nc_lattice", 0.5, 3.0, 0),
            span(2, "weyl.build_nc_lattice", 1.0, 3.0, 1, dict(lattice, key="A2/1,2")),
            span(3, "cache.atomic_write_json", 3.0, 3.5, 0, {"bytes": 100}),
            span(4, "conjecture.verify_conjecture", 5.0, 9.0),
            span(5, "weyl.nc_lattice", 5.5, 7.5, 4),
            span(6, "weyl.build_nc_lattice", 5.5, 7.0, 5, dict(lattice, key="A2/1,2")),
            span(7, "weyl.nc_lattice", 8.0, 8.5, 4),
            span(8, "conjecture.conjecture_rhs", 8.5, 8.75, 4),
        ]
        warm = [
            span(0, "cache.load_or_build_lattice", 0.0, 1.0, None, {"cache_dir": True}),
            span(1, "cache.lattice_from_doc", 0.5, 1.0, 0),
        ]
        metrics = spans.layer_metrics([job, warm])
        assert spans.job_problems(job, warm=False) == []
        assert metrics["cache.hits"] == 1 and metrics["cache.misses"] == 1
        assert metrics["cache.bytes_written"] == 100 and metrics["cache.save_s"] == 0.5
        assert metrics["cache.load_s"] == pytest.approx(1.0 + 0.5 + 0.5)
        assert metrics["weyl.lattice_builds"] == 2 and metrics["weyl.duplicate_builds"] == 1
        assert metrics["weyl.elements"] == 10 and metrics["weyl.covers"] == 12
        assert metrics["weyl.elements_per_s"] == pytest.approx(10 / 3.5)
        assert metrics["weyl.memo_lookups"] == 3
        assert metrics["weyl.memo_hit_ratio"] == pytest.approx(1 / 3)
        assert metrics["conjecture.evidence_lattice_s"] == pytest.approx(2.5)
        assert metrics["conjecture.rhs_s"] == 0.25
        assert metrics["conjecture.self_s"] == pytest.approx(4.0 - 2.0 - 0.5 - 0.25)

    def test_invariant_failure_marks_the_job(self):
        info = {"elements": 5, "covers": 6, "mobius_entries": 12, "invariants_ok": False, "key": "k"}
        job = [span(0, "weyl.build_nc_lattice", 0.0, 1.0, None, info)]
        assert spans.job_problems(job, warm=False) == ["lattice k disagrees with invariant_formulas"]

    def test_warm_job_must_hit_the_cache_once(self):
        lookup = span(0, "cache.load_or_build_lattice", 0.0, 1.0, None, {"cache_dir": True})
        hit = [lookup, span(1, "cache.lattice_from_doc", 0.5, 1.0, 0)]
        miss = [lookup, span(1, "weyl.nc_lattice", 0.5, 1.0, 0)]
        assert spans.job_problems(hit, warm=True) == []
        assert spans.job_problems(miss, warm=True) == ["warm cache: 0 hits and 1 misses, not one hit"]
        assert spans.job_problems([], warm=True) == ["warm cache: 0 hits and 0 misses, not one hit"]
        assert spans.job_problems(miss, warm=False) == []


class TestInputs:
    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            assert workloads.inputs(name, 7) == workloads.inputs(name, 7)

    def test_seed_permutes_specs_and_orders(self):
        a, b = workloads.inputs("cold_desk", 1), workloads.inputs("cold_desk", 2)
        assert a != b and sorted(a) != sorted(b)
        assert sorted(s for s, _ in a) == sorted(workloads.DESK_SPECS)
        for spec, order in a:
            assert sorted(order) == list(range(1, workloads.spec_rank(spec) + 1))

    def test_product_sweep_is_one_job(self):
        items = workloads.inputs("product_sweep", 3)
        (job,) = workloads.jobs("product_sweep", items, None)
        assert job.argv[:3] == ("sweep", "--jobs", "1")
        assert sorted(job.specs) == sorted(workloads.PRODUCT_SPECS)


def test_tracer_records_spans_between_layers(tmp_path, reference):
    out = tmp_path / "spans.json"
    cache = tmp_path / "cache"
    done = subprocess.run(
        [sys.executable, str(BENCH / "trace_child.py"), str(out), "j7",
         "verify", "A2xA1", "--cache-dir", str(cache)],
        capture_output=True, env=ENV, cwd=ROOT,
    )
    assert check.verify_problems("A2xA1", done.returncode, done.stdout, reference) == []
    doc = json.loads(out.read_text())
    recorded = doc["spans"]
    assert doc["tracer_s"] > 0
    by_id = {s[0]: s for s in recorded}
    names = {s[1] for s in recorded}
    assert {"cli.main", "cli._emit", "cache.load_or_build_lattice", "cache.atomic_write_json",
            "weyl.build_nc_lattice", "conjecture.verify_conjecture", "ftriangle.f_triangle",
            "poly.conjecture_substitution"} <= names
    assert "weyl.mat_mul" not in names
    for s in recorded:
        assert s[5] == "j7" and s[2] <= s[3]
        if s[1] == "conjecture.verify_conjecture":
            assert by_id[s[4]][1] == "cli._verify_payload"
    metrics = spans.layer_metrics([recorded])
    assert spans.job_problems(recorded, warm=False) == []
    # A2xA1 itself (10 elements), then A2 (5) and A1 (2) for the evidence check
    assert metrics["weyl.elements"] == 17 and metrics["cache.misses"] == 1
    assert metrics["cache.bytes_written"] == sum(p.stat().st_size for p in cache.iterdir())


def test_warm_job_that_writes_the_cache_fails(tmp_path, reference):
    import run

    run.WORK.mkdir(exist_ok=True)
    runner = run.Runner(reference, deadline=time.perf_counter() + 60)
    cache = tmp_path / "cache"
    a1 = workloads.Job(("verify", "A1", "--cache-dir", str(cache)), ("A1",))
    runner.job(a1)
    runner.freeze(cache)
    runner.job(a1)
    assert (runner.tally.attempted, runner.tally.failed) == (2, 0)
    runner.job(workloads.Job(("verify", "A2", "--cache-dir", str(cache)), ("A2",)))
    assert (runner.tally.attempted, runner.tally.failed) == (3, 1)
    assert runner.tally.problems == ["A2: wrote to the warm cache dir"]
