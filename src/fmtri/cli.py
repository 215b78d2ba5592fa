"""Command-line interface.

Subcommands: ftriangle | fvector | mtriangle | invariants | verify | sweep.
Output formats: json (default, stable envelope with a schema version), csv,
and tex (matrix layouts) for ftriangle, fvector and mtriangle only.  Each
command builds its JSON payload and, next to it, the rows that csv and tex
print: csv joins each row with commas, tex sets the rows in a bmatrix.  Exit
codes: 0 success/verified, 1 conjecture mismatch or failed evidence check,
2 usage error, 3 time budget exceeded, 4 internal error (a broken invariant
or any unexpected exception).  ``sweep`` verifies its specs in turn, in this
process, each with its own ``--max-seconds`` budget; it reports an internal
error as that spec's entry, goes on, and exits 4.

``--cache-dir`` exists on the commands that need a lattice (mtriangle,
verify, sweep) and persists lattices only.

Every command is deterministic: the same invocation produces byte-identical
output, warm or cold cache.  Timings are therefore only emitted under
--timings, and only in JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .cache import load_or_build_lattice
from .cartan import invariants, parse_spec
from .conjecture import verify_conjecture
from .errors import ComputationTimeout, Deadline, InvariantViolation, SpecError
from .ftriangle import f_triangle, f_vector, h_vector, natural_f_vector, positive_f_vector
from .weyl import invariant_formulas

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3
EXIT_INTERNAL = 4
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

def cmd_ftriangle(args) -> int:
    spec = parse_spec(args.spec)
    n = spec.rank
    dense = f_triangle(spec).dense_rows(n)
    payload = {"n": n, "f": [row[: n + 1 - k] for k, row in enumerate(dense)]}
    print(_emit(str(spec), "ftriangle", args.format, payload, payload["f"]), end="")
    return EXIT_OK


def cmd_fvector(args) -> int:
    spec = parse_spec(args.spec)
    payload = {
        "n": spec.rank,
        "f": list(f_vector(spec)),
        "f_positive": list(positive_f_vector(spec)),
        "f_natural": list(natural_f_vector(spec)),
    }
    if args.format == "tex":
        rows = [payload["f"]]
    else:
        rows = [[key, *payload[key]] for key in ("f", "f_positive", "f_natural")]
    print(_emit(str(spec), "fvector", args.format, payload, rows), end="")
    return EXIT_OK


def cmd_mtriangle(args) -> int:
    spec = parse_spec(args.spec)
    order, cache_dir = _parse_order(args.coxeter_order), _cache_dir(args.cache_dir)
    lat = load_or_build_lattice(spec, order, cache_dir)
    payload = {
        "n": lat.n,
        "coxeter_order": list(lat.coxeter_order),
        "m": lat.m_triangle.dense_rows(lat.n),
    }
    print(_emit(str(spec), "mtriangle", args.format, payload, payload["m"]), end="")
    return EXIT_OK


def cmd_invariants(args) -> int:
    # imported here: the Zeta coefficients are the one rational output
    from fractions import Fraction

    spec = parse_spec(args.spec)
    forms = invariant_formulas(spec)
    payload = {
        "n": spec.rank,
        "components": [
            {
                "type": str(t),
                "h": invariants(t).coxeter_number,
                "exponents": list(invariants(t).exponents),
            }
            for t in spec.components
        ],
        "cardinality": forms.cardinality,
        "mobius": forms.mobius_number,
        "zeta": [str(Fraction(c, forms.group_order)) for c in forms.zeta],
        "h_vector": list(h_vector(spec)),
    }
    rows = [[key, payload[key]] for key in ("cardinality", "mobius")]
    rows += [[key, " ".join(map(str, payload[key]))] for key in ("zeta", "h_vector")]
    rows += [
        ["component", c["type"], f"h={c['h']}", "exponents=" + " ".join(map(str, c["exponents"]))]
        for c in payload["components"]
    ]
    print(_emit(str(spec), "invariants", args.format, payload, rows), end="")
    return EXIT_OK


def _verify_payload(spec, coxeter_order, max_seconds, cache_dir, with_timings):
    """Run one verification of a parsed spec; returns (payload, exit_code)."""
    deadline = Deadline(max_seconds)
    try:
        t0 = time.perf_counter()
        lat = load_or_build_lattice(spec, coxeter_order, cache_dir, deadline=deadline)
        lattice_s = time.perf_counter() - t0
        payload, timings = verify_conjecture(lat, deadline=deadline)
    except ComputationTimeout:
        return {"timeout": True, "n": spec.rank, "verified": False}, EXIT_TIMEOUT
    if with_timings:
        timings["lattice"] = lattice_s
        payload["timings"] = {k: round(v, 6) for k, v in timings.items()}
    payload["timeout"] = False
    code = EXIT_OK if payload["verified"] and all(payload["evidence"].values()) else EXIT_MISMATCH
    return payload, code


def cmd_verify(args) -> int:
    spec = parse_spec(args.spec)
    order, cache_dir = _parse_order(args.coxeter_order), _cache_dir(args.cache_dir)
    payload, code = _verify_payload(spec, order, args.max_seconds, cache_dir, args.timings)
    rows = [["verified", str(payload["verified"]).lower()]]
    if payload["timeout"]:
        rows.append(["timeout", "true"])
    rows += [["evidence", k, str(v).lower()] for k, v in sorted(payload.get("evidence", {}).items())]
    rows += [["mismatch", *m] for m in payload.get("mismatches", ())]
    print(_emit(str(spec), "verify", args.format, payload, rows), end="")
    return code


def _internal_error(exc: Exception) -> str:
    """The message of an internal error, after the traceback of an unexpected one."""
    if isinstance(exc, InvariantViolation):
        return str(exc)
    # imported here: only this path needs the cost of the import
    import traceback

    traceback.print_exception(exc)
    return f"{type(exc).__name__}: {exc}"


def cmd_sweep(args) -> int:
    specs = [parse_spec(s) for s in args.specs]
    cache_dir = _cache_dir(args.cache_dir)
    entries, codes, errors = [], [], []
    for spec in specs:
        try:
            payload, code = _verify_payload(spec, None, args.max_seconds, cache_dir, False)
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
                "verified": bool(payload.get("verified")),
                "timeout": bool(payload.get("timeout")),
                "report": payload,
            }
        )
        codes.append(code)
    for line in errors:
        print(line, file=sys.stderr)
    payload = {"results": entries, "all_verified": all(c == EXIT_OK for c in codes)}
    rows = [[e["spec"], str(e["verified"]).lower()] for e in entries]
    print(_emit(" ".join(map(str, specs)), "sweep", args.format, payload, rows), end="")
    for worst in (EXIT_INTERNAL, EXIT_MISMATCH, EXIT_TIMEOUT):
        if worst in codes:
            return worst
    return EXIT_OK


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

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmtri",
        description="Exact F-triangles, M-triangles, and the change-of-variables check relating them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tex=False, cache_flag=False, order_flag=False, seconds_flag=False):
        formats = ("json", "tex", "csv") if tex else ("json", "csv")
        p.add_argument("--format", choices=formats, default="json")
        if cache_flag:
            p.add_argument("--cache-dir", default=None, help="directory for JSON lattice caches")
        if order_flag:
            p.add_argument(
                "--coxeter-order",
                default=None,
                help="node order for the Coxeter element, e.g. '2,1,3' (default: 1,2,...,n)",
            )
        if seconds_flag:
            p.add_argument("--max-seconds", type=_max_seconds, default=None, help="time budget in seconds")

    p = sub.add_parser("ftriangle", help="print the F-triangle of a spec")
    p.add_argument("spec")
    common(p, tex=True)
    p.set_defaults(fn=cmd_ftriangle)

    p = sub.add_parser("fvector", help="print f, positive f, and natural f vectors")
    p.add_argument("spec")
    common(p, tex=True)
    p.set_defaults(fn=cmd_fvector)

    p = sub.add_parser("mtriangle", help="print the M-triangle of the noncrossing partition lattice")
    p.add_argument("spec")
    common(p, tex=True, cache_flag=True, order_flag=True)
    p.set_defaults(fn=cmd_mtriangle)

    p = sub.add_parser("invariants", help="print closed-form lattice invariants")
    p.add_argument("spec")
    common(p)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("verify", help="check the F/M change-of-variables identity for one spec")
    p.add_argument("spec")
    common(p, cache_flag=True, order_flag=True, seconds_flag=True)
    p.add_argument("--timings", action="store_true", help="JSON-only timings (breaks byte-reproducibility)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="verify a list of specs; exit 0 only if all pass")
    p.add_argument("specs", nargs="+")
    common(p, cache_flag=True, seconds_flag=True)
    p.add_argument(
        "--jobs", type=int, choices=(1,), default=1, help="only 1: the specs are verified in turn"
    )
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize other exits
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: internal: {_internal_error(exc)}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
