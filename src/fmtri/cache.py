"""Persistent JSON cache for noncrossing partition lattices.

One file per lattice, keyed by canonical spec string, Coxeter ordering, and
schema version 5; writes go through a temp file and an atomic rename so a
killed run never leaves a truncated cache.  The file holds the spec, the
Coxeter order, the element masks and their ranks, and nothing else: the
masks carry the order relation, the rank of the lattice is the spec's, and
the Moebius row and M-triangle are derived in one pass on load by the same
``weyl.lattice_from_masks`` a build uses, so a loaded lattice is the same
value as a freshly built one and passes the same checks.  A file is
trusted only if it parses, has schema version 5, names the requested spec
and order, holds JSON integers (not 2.0, not true) wherever the lattice
holds an int, and passes ``weyl.lattice_from_masks``, which checks the
masks and ranks against each other and the counts of the order they give
against the closed forms; any other file is a miss, and the rebuilt
lattice replaces it.  Every single-bit mask edit fails a check, but an edit
that keeps every check is trusted, and M is derived from the order it gives.

F-triangles are not cached: the node-deletion recursion takes milliseconds
even for E8.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import chain
from pathlib import Path

from .cartan import RootSystemSpec, as_spec, parse_spec
from .errors import Deadline, InvariantViolation, NO_DEADLINE
from .weyl import NCLattice, lattice_from_masks, nc_lattice, node_order

SCHEMA_VERSION = 5


def atomic_write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            # json.dumps runs the C encoder; json.dump always runs the Python one
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
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
        "elements": list(lat.elements),
        "ranks": list(lat.ranks),
    }


def _require_ints(values) -> None:
    """Raise ValueError unless every value is a JSON integer: 2.0 and true
    equal an int in Python but are not one."""
    if not set(map(type, values)) <= {int}:
        raise ValueError("a cache entry is not an integer")


def lattice_from_doc(doc: dict, deadline: Deadline = NO_DEADLINE) -> NCLattice:
    version = doc["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"cache schema version {version!r}, expected {SCHEMA_VERSION}")
    spec = parse_spec(doc["spec"])
    order, elements, ranks = doc["coxeter_order"], doc["elements"], doc["ranks"]
    _require_ints(chain(order, elements, ranks))
    return lattice_from_masks(spec, order, elements, ranks, deadline)


# what reading a missing, truncated, foreign or doctored file can raise: I/O,
# JSON, spec and schema version errors (ValueError), a document of the wrong
# shape (LookupError, TypeError, AttributeError), and a lattice that fails a
# check of ``weyl.lattice_from_masks``
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
            lat = lattice_from_doc(json.load(fh), deadline)
        if (lat.spec, lat.coxeter_order) == (spec, order):
            return lat
    except _UNTRUSTED:
        pass
    lat = nc_lattice(spec, order, deadline=deadline)
    atomic_write_json(path, lattice_to_doc(lat))
    return lat
