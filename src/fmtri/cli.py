"""Command-line interface.

Subcommands: ftriangle | fvector | mtriangle | invariants | verify | sweep.
Output formats: json (default, stable envelope with a schema version), csv,
and tex (matrix layouts) for ftriangle, fvector and mtriangle only.

``main`` parses the spec (for ``sweep``, every spec), emits the output and
chooses the exit code.  Each command returns its JSON payload, the rows that
csv and tex print, and its exit code: csv joins each row with commas, tex
sets the rows in a bmatrix.  Exit codes: 0 success/verified, 1 conjecture
mismatch or failed evidence check, 2 usage error, 3 time budget exceeded, 4
internal error (a broken invariant or any unexpected exception), 120 the
output could not be written (``error: cannot write the output: ...``, for a
closed pipe among others, the code CPython gives when its last flush fails).
``sweep`` verifies its specs in turn, in this process, each with its own
``--max-seconds`` budget; it reports an internal error as that spec's entry,
goes on, and exits 4.

``main`` writes the output with one write and a flush.  ``run``, the entry
point of ``python -m fmtri.cli`` and of the ``fmtri`` script, ends the
process right after that flush: it runs the atexit handlers, flushes what
they wrote, and calls ``os._exit``, which skips the interpreter's teardown
(its last GC pass and module cleanup): about 8 ms of a 66-75 ms ``verify``
process on a shared 2-core host under CPython 3.11.7.

``--cache-dir`` exists on ``verify`` only, which keeps it because the
benchmark passes it: it saves the lattice's file there, unless the file
already holds the same bytes.  The lattice itself always comes from the
search, so the flag changes no output.  A file that cannot be written is a
usage error (2).

Every command is deterministic: the same invocation produces byte-identical
output, warm or cold cache.  Timings are therefore only emitted under
--timings, and only in JSON.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import json
import os
import sys
import time

from .cache import load_or_build_lattice
from .cartan import invariants, parse_spec
from .conjecture import verify_conjecture
from .errors import ComputationTimeout, Deadline, InvariantViolation, SpecError
from .ftriangle import f_triangle, f_vector, h_vector, natural_f_vector, positive_f_vector
from .weyl import invariant_formulas, nc_lattice

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3
EXIT_INTERNAL = 4
EXIT_WRITE = 120  # what CPython exits with when its final flush of stdout fails
ENVELOPE_VERSION = 1  # the JSON output's schema_version, not the cache file's


# --------------------------------------------------------------------------
# renderer
# --------------------------------------------------------------------------

def _emit(spec: str, kind: str, fmt: str, payload: dict, rows: list[list]) -> str:
    """The output of one command: JSON wraps ``payload`` in the envelope; CSV
    and TeX print ``rows``, the table the command built next to it."""
    if fmt == "json":
        doc = {
            "schema_version": ENVELOPE_VERSION,
            "spec": spec,
            "kind": kind,
            "format": fmt,
            "payload": payload,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt == "tex":
        body = "\\\\\n".join("&".join(map(str, row)) for row in rows)
        return "\\begin{bmatrix}\n" + body + "\n\\end{bmatrix}\n"
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_ftriangle(spec, args):
    n = spec.rank
    payload = {"n": n, "f": [row[: n + 1 - k] for k, row in enumerate(f_triangle(spec))]}
    return payload, payload["f"], EXIT_OK


def cmd_fvector(spec, args):
    ft = f_triangle(spec)
    payload = {
        "n": spec.rank,
        "f": list(f_vector(ft)),
        "f_positive": list(positive_f_vector(ft)),
        "f_natural": list(natural_f_vector(ft)),
    }
    if args.format == "tex":
        rows = [payload["f"]]
    else:
        rows = [[key, *payload[key]] for key in ("f", "f_positive", "f_natural")]
    return payload, rows, EXIT_OK


def cmd_mtriangle(spec, args):
    lat = nc_lattice(spec, _parse_order(args.coxeter_order))
    payload = {
        "n": lat.n,
        "coxeter_order": list(lat.coxeter_order),
        "m": lat.m_triangle,
    }
    return payload, payload["m"], EXIT_OK


def cmd_invariants(spec, args):
    # imported here: the Zeta coefficients are the one rational output
    from fractions import Fraction

    forms = invariant_formulas(spec)
    payload = {
        "n": spec.rank,
        "components": [
            {"type": str(t), "h": h, "exponents": list(exponents)}
            for t, (h, exponents) in zip(spec.components, map(invariants, spec.components))
        ],
        "cardinality": forms.cardinality,
        "mobius": forms.mobius_number,
        "zeta": [str(Fraction(c, forms.group_order)) for c in forms.zeta],
        "h_vector": list(h_vector(f_triangle(spec))),
    }
    rows = [[key, payload[key]] for key in ("cardinality", "mobius")]
    rows += [[key, " ".join(map(str, payload[key]))] for key in ("zeta", "h_vector")]
    rows += [
        ["component", c["type"], f"h={c['h']}", "exponents=" + " ".join(map(str, c["exponents"]))]
        for c in payload["components"]
    ]
    return payload, rows, EXIT_OK


def _verify_payload(spec, coxeter_order, max_seconds, cache_dir, with_timings):
    """Run one verification of a parsed spec; returns (payload, exit_code)."""
    deadline = Deadline(max_seconds)
    t0 = time.perf_counter()
    try:
        lat = load_or_build_lattice(spec, coxeter_order, cache_dir, deadline=deadline)
        t1 = time.perf_counter()
        ft = f_triangle(spec)
        t2 = time.perf_counter()
        payload = verify_conjecture(lat, ft, deadline=deadline)
    except ComputationTimeout:
        return {"timeout": True, "n": spec.rank, "verified": False}, EXIT_TIMEOUT
    if with_timings:
        timings = {"lattice": t1 - t0, "f_triangle": t2 - t1, "compare": time.perf_counter() - t2}
        payload["timings"] = {k: round(v, 6) for k, v in timings.items()}
    payload["timeout"] = False
    code = EXIT_OK if payload["verified"] and all(payload["evidence"].values()) else EXIT_MISMATCH
    return payload, code


def cmd_verify(spec, args):
    order, cache_dir = _parse_order(args.coxeter_order), _cache_dir(args.cache_dir)
    payload, code = _verify_payload(spec, order, args.max_seconds, cache_dir, args.timings)
    rows = [["verified", str(payload["verified"]).lower()]]
    if payload["timeout"]:
        rows.append(["timeout", "true"])
    rows += [["evidence", k, str(v).lower()] for k, v in sorted(payload.get("evidence", {}).items())]
    rows += [["mismatch", *m] for m in payload.get("mismatches", ())]
    return payload, rows, code


def _internal_error(exc: Exception) -> str:
    """The message of an internal error, after the traceback of an unexpected one."""
    if isinstance(exc, InvariantViolation):
        return str(exc)
    # imported here: only this path needs the cost of the import
    import traceback

    traceback.print_exception(exc)
    return f"{type(exc).__name__}: {exc}"


def cmd_sweep(specs, args):
    entries, codes, errors = [], [], []
    for spec in specs:
        try:
            payload, code = _verify_payload(spec, None, args.max_seconds, None, False)
        except Exception as exc:
            # an internal error becomes this spec's report; its stderr line
            # waits, so every traceback comes before every error line
            error = _internal_error(exc)
            errors.append(f"error: internal: {spec}: {error}")
            payload = {"verified": False, "timeout": False, "error": f"internal: {error}"}
            code = EXIT_INTERNAL
        entries.append(
            {
                "spec": str(spec),
                "verified": payload["verified"],
                "timeout": payload["timeout"],
                "report": payload,
            }
        )
        codes.append(code)
    for line in errors:
        print(line, file=sys.stderr)
    payload = {"results": entries, "all_verified": all(c == EXIT_OK for c in codes)}
    rows = [[e["spec"], str(e["verified"]).lower()] for e in entries]
    worst = (c for c in (EXIT_INTERNAL, EXIT_MISMATCH, EXIT_TIMEOUT) if c in codes)
    return payload, rows, next(worst, EXIT_OK)


def _parse_order(text) -> tuple[int, ...] | None:
    """The integers of a --coxeter-order value; ``weyl.node_order`` checks
    that they are a permutation."""
    if text is None:
        return None
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise SpecError(f"--coxeter-order {text!r} is not a comma-separated permutation")


def _cache_dir(path: str | None) -> str | None:
    """A --cache-dir value, refused before any work, and without making a
    directory, if it is empty (which would mean the current directory) or its
    nearest existing ancestor (itself, if it exists; a dangling symlink
    exists) is not a directory, so no lattice file could be written there."""
    if path is None:
        return None
    if not path:
        raise SpecError("--cache-dir '' is empty and names no directory")
    full = probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        where = "exists" if probe == full else f"is under {probe!r}, which exists"
        raise SpecError(f"--cache-dir {path!r} {where} and is not a directory")
    return path


def _max_seconds(text: str) -> float:
    """The type of --max-seconds: a number of seconds >= 0, which nan is not."""
    try:
        value = float(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid time budget {text!r}: expected a number >= 0")


# --------------------------------------------------------------------------
# parser and entry point
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own print discards a failed write; main must see it
        (file or sys.stdout or sys.stderr).write(self.format_help())


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fmtri",
        description="Exact F-triangles, M-triangles, and the change-of-variables check relating them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, tex=False, order_flag=False, seconds_flag=False):
        p = sub.add_parser(name, help=help)
        if name == "sweep":
            p.add_argument("specs", nargs="+")
        else:
            p.add_argument("spec")
        p.add_argument("--format", choices=("json", "tex", "csv") if tex else ("json", "csv"), default="json")
        if order_flag:
            p.add_argument(
                "--coxeter-order",
                help="node order for the Coxeter element, e.g. '2,1,3' (default: 1,2,...,n)",
            )
        if seconds_flag:
            p.add_argument("--max-seconds", type=_max_seconds, help="time budget in seconds")
        p.set_defaults(fn=fn)
        return p

    command("ftriangle", cmd_ftriangle, "print the F-triangle of a spec", tex=True)
    command("fvector", cmd_fvector, "print f, positive f, and natural f vectors", tex=True)
    command(
        "mtriangle",
        cmd_mtriangle,
        "print the M-triangle of the noncrossing partition lattice",
        tex=True,
        order_flag=True,
    )
    command("invariants", cmd_invariants, "print closed-form lattice invariants")
    p = command(
        "verify",
        cmd_verify,
        "check the F/M change-of-variables identity for one spec",
        order_flag=True,
        seconds_flag=True,
    )
    p.add_argument("--cache-dir", help="directory for JSON lattice caches")
    p.add_argument("--timings", action="store_true", help="JSON-only timings (breaks byte-reproducibility)")
    p = command("sweep", cmd_sweep, "verify a list of specs; exit 0 only if all pass", seconds_flag=True)
    p.add_argument(
        "--jobs", type=int, choices=(1,), default=1, help="only 1: the specs are verified in turn"
    )
    return parser


def _command(argv) -> tuple[int, str]:
    """Parse ``argv`` and run its command: (exit code, stdout text).  Errors
    go to stderr here; argparse writes --help to stdout itself."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on usage errors
        return (EXIT_OK if exc.code == 0 else EXIT_USAGE), ""
    try:
        # sweep takes a list of specs, every other command one
        many = args.command == "sweep"
        spec = [parse_spec(s) for s in args.specs] if many else parse_spec(args.spec)
        payload, rows, code = args.fn(spec, args)
        name = " ".join(map(str, spec)) if many else str(spec)
        return code, _emit(name, args.command, args.format, payload, rows)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE, ""
    except Exception as exc:
        print(f"error: internal: {_internal_error(exc)}", file=sys.stderr)
        return EXIT_INTERNAL, ""


def main(argv=None) -> int:
    """Run one command, write its output with one write and a flush, and
    return the exit code; a write or flush that fails is one error line."""
    try:
        code, text = _command(argv)
        if sys.stdout is not None:
            sys.stdout.write(text)
            sys.stdout.flush()
        elif text:
            # None: fd 1 was closed at start-up
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    except OSError as exc:
        print(f"error: cannot write the output: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_WRITE
    return code


def run() -> None:
    """End the process once main has written its output: run the atexit
    handlers and flush what they wrote, as CPython's own exit would, then
    skip the rest of its teardown (its last GC pass and module cleanup)."""
    code = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError):
            pass  # no stream, or one main could not write either
    os._exit(code)


if __name__ == "__main__":
    run()
