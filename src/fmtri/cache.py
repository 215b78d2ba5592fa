"""Persistent JSON cache for noncrossing partition lattices.

One file per lattice, keyed by canonical spec string, Coxeter ordering, and
schema version; writes go through a temp file and an atomic rename so a
killed run never leaves a truncated cache.  The file stores element
matrices, ranks, and Moebius rows; the order relation is persisted as the
support of the Moebius rows, so a loaded lattice is the same value as a
freshly built one.  A file is trusted only if it parses, names the requested
spec and order, and passes ``weyl.check_lattice``; any other file is a miss,
and the rebuilt lattice replaces it.  Corruption inside the Moebius table
that keeps |L| and mu(0, 1) intact is not detected.

F-triangles are not cached: the node-deletion recursion takes milliseconds
even for E8.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .cartan import RootSystemSpec, as_spec, parse_spec
from .errors import Deadline, InvariantViolation, NO_DEADLINE
from .weyl import NCLattice, check_lattice, nc_lattice, node_order

SCHEMA_VERSION = 1


def atomic_write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _lattice_path(cache_dir: Path, spec: RootSystemSpec, order: tuple[int, ...]) -> Path:
    order_tag = "-".join(str(i) for i in order)
    return cache_dir / f"lattice__{spec}__order_{order_tag}__v{SCHEMA_VERSION}.json"


def lattice_to_doc(lat: NCLattice) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "spec": str(lat.spec),
        "coxeter_order": list(lat.coxeter_order),
        "n": lat.n,
        "elements": [[list(row) for row in g] for g in lat.elements],
        "ranks": list(lat.ranks),
        "mobius_rows": [[[b, mu] for b, mu in row] for row in lat.mobius_rows],
    }


def lattice_from_doc(doc: dict) -> NCLattice:
    return NCLattice(
        spec=parse_spec(doc["spec"]),
        coxeter_order=tuple(doc["coxeter_order"]),
        n=doc["n"],
        elements=tuple(tuple(tuple(row) for row in mat) for mat in doc["elements"]),
        ranks=tuple(doc["ranks"]),
        mobius_rows=tuple(tuple((b, mu) for b, mu in row) for row in doc["mobius_rows"]),
    )


# what reading a missing, truncated, foreign or doctored file can raise: I/O,
# JSON and spec parse errors (ValueError), a document of the wrong shape
# (LookupError, TypeError, AttributeError), and a failed ``check_lattice``
_UNTRUSTED = (OSError, ValueError, LookupError, TypeError, AttributeError, InvariantViolation)


def load_or_build_lattice(
    spec,
    coxeter_order=None,
    cache_dir: str | os.PathLike | None = None,
    deadline: Deadline = NO_DEADLINE,
) -> NCLattice:
    """The lattice of ``spec`` and ``coxeter_order``, read from ``cache_dir``
    when a trusted file is there, else built and written there."""
    spec = as_spec(spec)
    order = node_order(spec.rank, coxeter_order)
    if cache_dir is None:
        return nc_lattice(spec, order, deadline=deadline)
    path = _lattice_path(Path(cache_dir), spec, order)
    try:
        with open(path) as fh:
            lat = lattice_from_doc(json.load(fh))
        if (lat.spec, lat.coxeter_order) == (spec, order):
            check_lattice(lat)
            return lat
    except _UNTRUSTED:
        pass
    lat = nc_lattice(spec, order, deadline=deadline)
    atomic_write_json(path, lattice_to_doc(lat))
    return lat
