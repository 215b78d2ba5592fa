"""Run one fmtri command with a span around every call into the library's layers.

Usage: python perfbench/trace_child.py OUT JOB_ID <fmtri arguments...>

Nothing inside the program changes.  Before the command runs, each public
function of the traced modules is replaced, at every ``fmtri`` module
attribute that refers to it, by a wrapper that records a span (id, name,
start, end, parent span, job id).  Callers look these functions up through
module attributes at call time, so the wrappers see every call between
layers.  Spans stay in memory and are written to OUT as JSON when the
command ends; the exit code is the command's own.

Work counts are read from what the functions return, after the span has
ended: |L|, covers and Moebius entries from a lattice's public ``ranks``
and ``mobius_rows``, and bytes from the cache file a write left behind.
Each built lattice is also checked against ``invariant_formulas``.

The file also holds ``tracer_s``, the time the tracer added to the process:
wrapping, describing results, writing the spans and calibrating, plus the
number of wrapped calls times the cost of one wrapper, timed on a no-op
function in the same process.  All of it is measured in the process it
describes, so a slow or fast spell of the host scales it together with the
program's own time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
from time import perf_counter

TRACED_MODULES = ("cli", "cache", "weyl", "ftriangle", "poly", "conjecture")
DESCRIBE = "trace.describe"
# no-op calls per calibration batch, and batches; the cheapest batch counts
CALIBRATION_CALLS = 1000
CALIBRATION_BATCHES = 3
# private functions that are layer boundaries all the same
PRIVATE_BOUNDARIES = {"cli": ("_emit", "_verify_payload")}
# helpers called millions of times inside a build; their time stays in the caller's self time
INNER_LOOP = {
    "weyl": {"mat_identity", "mat_mul", "mat_sub", "mat_apply", "int_rank"},
    "poly": {"uni_trim", "uni_add", "uni_mul", "uni_scale", "uni_eval"},
}


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, describe=None):
        signature = inspect.signature(fn)
        spans, stack, job = self.spans, self._stack, self.job

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [sid, name, 0.0, 0.0, stack[-1] if stack else None, job, None]
            spans.append(span)
            stack.append(sid)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if describe is not None:
                # a sibling span, so the counting stays out of every layer's self time
                t0 = perf_counter()
                span[6] = describe(signature.bind(*args, **kwargs).arguments, result)
                spans.append([len(spans), DESCRIBE, t0, perf_counter(), span[4], job, None])
            return result

        traced.__wrapped__ = fn
        return traced


def _describers(weyl):
    invariant_formulas = weyl.invariant_formulas

    def lattice(arguments, lat):
        ranks = lat.ranks
        order = arguments.get("coxeter_order") or tuple(range(1, lat.n + 1))
        expected = invariant_formulas(lat.spec)
        return {
            "key": f"{lat.spec}/{','.join(map(str, order))}",
            "elements": len(ranks),
            "mobius_entries": sum(len(row) for row in lat.mobius_rows),
            "covers": sum(
                1
                for a, row in enumerate(lat.mobius_rows)
                for b, _ in row
                if ranks[b] - ranks[a] == 1
            ),
            "invariants_ok": lat.cardinality == expected.cardinality
            and lat.mobius_number == expected.mobius_number,
        }

    def cache_lookup(arguments, _result):
        return {"cache_dir": arguments.get("cache_dir") is not None}

    def cache_write(arguments, _result):
        return {"bytes": os.path.getsize(arguments["path"])}

    return {
        "weyl.build_nc_lattice": lattice,
        "cache.load_or_build_lattice": cache_lookup,
        "cache.load_or_build_triangle": cache_lookup,
        "cache.atomic_write_json": cache_write,
    }


def wrapper_cost() -> float:
    """Seconds one wrapper adds to a call, timed on a no-op function."""

    def noop():
        return None

    wrapped = Tracer("calibration").wrap("noop", noop)
    best = float("inf")
    for _ in range(CALIBRATION_BATCHES):
        t0 = perf_counter()
        for _ in range(CALIBRATION_CALLS):
            noop()
        t1 = perf_counter()
        for _ in range(CALIBRATION_CALLS):
            wrapped()
        best = min(best, (perf_counter() - t1) - (t1 - t0))
    return max(best, 0.0) / CALIBRATION_CALLS


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap the traced functions at every fmtri module attribute bound to them."""
    describers = _describers(modules["weyl"])
    wrappers = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            public = not attr.startswith("_") and attr not in INNER_LOOP.get(short, ())
            if not (public or attr in PRIVATE_BOUNDARIES.get(short, ())):
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                name = f"{short}.{attr}"
                wrappers[id(obj)] = (obj, tracer.wrap(name, obj, describers.get(name)))
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "fmtri" or name.startswith("fmtri.")):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])


def main(argv: list[str]) -> int:
    out, job, args = argv[0], argv[1], argv[2:]
    tracer = Tracer(job)
    # importing the program is the program's own cost, not the tracer's
    modules = {m: importlib.import_module(f"fmtri.{m}") for m in TRACED_MODULES}
    t0 = perf_counter()
    install(tracer, modules)
    tracer_s = perf_counter() - t0
    try:
        return modules["cli"].main(args)
    finally:
        t0 = perf_counter()
        spans = tracer.spans
        calls = sum(s[1] != DESCRIBE for s in spans)
        tracer_s += sum(s[3] - s[2] for s in spans if s[1] == DESCRIBE)
        tracer_s += calls * wrapper_cost()
        text = json.dumps(spans)
        tracer_s += perf_counter() - t0
        with open(out, "w") as fh:
            fh.write(f'{{"job": {json.dumps(job)}, "tracer_s": {tracer_s!r}, "spans": {text}}}')


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
