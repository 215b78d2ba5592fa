"""Benchmark of ``fmtri verify`` and ``fmtri sweep``, driven through the real CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload cold_desk --seed 1 --seconds 30 --trace 0

Workloads are described in ``workloads.py`` and ``README.md``.  A run first
sets up (three times, or once on warm_desk, whose set-up is a whole cold
pass) and reports the median set-up time.  It then cycles through the
workload's jobs until ``--seconds`` have passed, each job at least once,
and reports the sum and the maximum of the jobs' median wall times.
Every job is a fresh process; its wall time is taken around the process
and its peak RSS from ``os.wait4``.  Every job the benchmark
starts, set-up included, is checked by ``check.py`` and counts toward
``attempted`` and ``failed``.  On warm_desk a job also fails if it
changes the filled cache dir, since only a cache miss writes there.

With ``--trace 1`` the run instead makes one traced pass (see
``trace_child.py``) and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
run's context (seed, Python version, nproc, commit).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import check
import spans as span_metrics
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_CHILD = Path(__file__).with_name("trace_child.py")

SETUPS = {"cold_desk": 3, "warm_desk": 1, "product_sweep": 3}
STARTUP_PROBES = 7
# the whole run must end within 180 s, whatever a job does
RUN_BUDGET_S = 170.0
PREFLIGHT_SPEC = "A1"


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, problems_by_spec: dict[str, list[str]]) -> None:
        self.attempted += len(problems_by_spec)
        for found in problems_by_spec.values():
            self.failed += bool(found)
            self.problems += found


class Runner:
    """Starts program processes, waits for each, and checks what they print."""

    def __init__(self, reference: dict, deadline: float):
        self.reference = reference
        self.deadline = deadline
        self.tally = Tally()
        # the warm cache dir and its file listing; no job may change it
        self.frozen: tuple[Path, list] | None = None
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env

    def launch(self, cmd: list[str]) -> tuple[int, bytes, float, float]:
        """Run ``cmd`` to completion: (exit code, stdout, seconds, peak RSS in MB)."""
        timeout = max(1.0, self.deadline - perf_counter())
        with tempfile.TemporaryFile(dir=WORK) as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                proc.stdout.close()
            seconds = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                err.seek(0)
                sys.stderr.write(err.read()[-2000:].decode(errors="replace"))
        return proc.returncode, out, seconds, usage.ru_maxrss / 1024

    def freeze(self, cache_dir: Path) -> None:
        self.frozen = (cache_dir, listing(cache_dir))

    def job(self, job: workloads.Job, trace_out: Path | None = None):
        """Run and check one job: (seconds, peak RSS in MB, trace document or None)."""
        if trace_out is None:
            cmd = [sys.executable, "-m", "fmtri.cli", *job.argv]
        else:
            cmd = [sys.executable, str(TRACE_CHILD), str(trace_out), trace_out.stem, *job.argv]
        code, out, seconds, rss = self.launch(cmd)
        job_problems = []
        if self.frozen is not None:
            cache_dir, before = self.frozen
            after = listing(cache_dir)
            if after != before:
                job_problems.append("wrote to the warm cache dir")
                self.frozen = (cache_dir, after)
        trace = None
        if trace_out is not None:
            try:
                trace = json.loads(trace_out.read_text())
            except (OSError, ValueError) as exc:
                job_problems.append(f"no readable trace: {exc}")
            else:
                job_problems += span_metrics.job_problems(trace["spans"], warm=self.frozen is not None)
        if job.argv[0] == "sweep":
            by_spec = check.sweep_problems(job.specs, code, out, self.reference)
        else:
            spec = job.specs[0]
            by_spec = {spec: check.verify_problems(spec, code, out, self.reference)}
        for spec, found in by_spec.items():
            found += [f"{spec}: {p}" for p in job_problems]
        self.tally.add(by_spec)
        return seconds, rss, trace


def listing(directory: Path) -> list[tuple[str, int, int]]:
    """Every file under ``directory``: (relative path, size, mtime in ns)."""
    return sorted(
        (path.relative_to(directory).as_posix(), st.st_size, st.st_mtime_ns)
        for path in directory.rglob("*")
        for st in [path.stat()]
    )


def set_up(runner: Runner, workload: str, seed: int, work: Path):
    """Prepare one run's inputs: (items, cache dir for warm_desk or None)."""
    items = workloads.inputs(workload, seed)
    # also compiles the program's bytecode, so no timed job pays for it
    runner.job(workloads.Job(("verify", PREFLIGHT_SPEC), (PREFLIGHT_SPEC,)))
    if workload != "warm_desk":
        return items, None
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=work))
    for job in workloads.jobs(workload, items, str(cache_dir)):
        runner.job(job)
    runner.freeze(cache_dir)
    return items, cache_dir


def pass_jobs(workload: str, items, cache_dir: Path | None, work: Path):
    """The jobs of one pass; cold_desk gets a fresh empty cache dir each pass."""
    if workload == "cold_desk":
        cache_dir = Path(tempfile.mkdtemp(prefix="cold-", dir=work))
    return workloads.jobs(workload, items, str(cache_dir) if cache_dir else None)


def startup_s(runner: Runner) -> float:
    """Median fresh ``import fmtri.cli`` minus median bare interpreter start."""
    bare, full = [], []
    for _ in range(STARTUP_PROBES):
        for cmd, into in (("pass", bare), ("import fmtri.cli", full)):
            code, _, seconds, _ = runner.launch([sys.executable, "-c", cmd])
            if code != 0:
                raise RuntimeError(f"python -c {cmd!r} exited {code}")
            into.append(seconds)
    return statistics.median(full) - statistics.median(bare)


def measure(runner: Runner, workload: str, items, cache_dir, work: Path, seconds: float):
    """Cycle through the pass's jobs until ``seconds`` have passed.

    Every job runs at least once.  Returns each job's wall times and the
    largest peak RSS seen.
    """
    jobs = pass_jobs(workload, items, cache_dir, work)
    samples: list[list[float]] = [[] for _ in jobs]
    peak_mb = 0.0
    t0 = perf_counter()
    for k in itertools.count():
        i = k % len(jobs)
        if i == 0 and k:
            jobs = pass_jobs(workload, items, cache_dir, work)
        job_s, mb, _ = runner.job(jobs[i])
        samples[i].append(job_s)
        peak_mb = max(peak_mb, mb)
        if k + 1 >= len(jobs) and perf_counter() - t0 >= seconds:
            return samples, peak_mb


def end_to_end(samples: list[list[float]], peak_mb: float, setups: list[float]) -> dict[str, float]:
    medians = [statistics.median(s) for s in samples]
    return {
        "wall_s": sum(medians),
        "max_job_s": max(medians),
        "peak_rss_mb": peak_mb,
        "setup_s": statistics.median(setups),
    }


def traced(runner: Runner, workload: str, items, cache_dir, work: Path, workload_seed: int):
    """One pass with every job under ``trace_child.py``; the per-layer metrics."""
    trace_dir = work / "spans"
    trace_dir.mkdir()
    jobs = []
    wall_s = tracer_s = 0.0
    for i, job in enumerate(pass_jobs(workload, items, cache_dir, work)):
        seconds, _, trace = runner.job(job, trace_dir / f"job{i:03d}.json")
        wall_s += seconds
        if trace is not None:
            jobs.append(trace["spans"])
            tracer_s += trace["tracer_s"]
    layers = span_metrics.layer_metrics(jobs)
    layers["cli.startup_s"] = startup_s(runner)
    # traced wall time over the untraced wall time it implies, minus 1
    layers["trace.overhead_frac"] = tracer_s / (wall_s - tracer_s)
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    with open(WORK / "traces" / f"{workload}-seed{workload_seed}.json", "w") as fh:
        json.dump({"workload": workload, "seed": workload_seed, "jobs": jobs}, fh)
    return layers


def declared_units(kind: str) -> dict[str, str]:
    """Metric name to unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def context(workload: str, seed: int, seconds: int, trace: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fmtri" / "cli.py").is_file():
        print(f"error: no fmtri source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    started = perf_counter()
    runner = Runner(check.load_reference(), started + RUN_BUDGET_S)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setups = []
        for _ in range(SETUPS[args.workload]):
            t0 = perf_counter()
            items, cache_dir = set_up(runner, args.workload, args.seed, work)
            setups.append(perf_counter() - t0)
        if args.trace:
            metrics = traced(runner, args.workload, items, cache_dir, work, args.seed)
        else:
            samples, peak_mb = measure(runner, args.workload, items, cache_dir, work, args.seconds)
            metrics = end_to_end(samples, peak_mb, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = runner.tally
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    info = context(args.workload, args.seed, args.seconds, args.trace)
    info["error_rate"] = tally.failed / tally.attempted
    info["set_ups"] = len(setups)
    if not args.trace:
        info["samples_per_job"] = [len(s) for s in samples]
    info["elapsed_s"] = perf_counter() - started
    print(json.dumps(info, sort_keys=True))
    declared = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(declared)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
