"""Persistent JSON caches for lattices and triangles.

One file per artifact, keyed by canonical spec string, Coxeter ordering, and
schema version; writes go through a temp file and an atomic rename so a
killed run never leaves a truncated cache.  The lattice file stores element
matrices, ranks, and Moebius rows; the order relation is persisted as the
support of the Moebius rows, so a loaded lattice is the same value as a
freshly built one.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .cartan import RootSystemSpec, as_spec, parse_spec
from .errors import Deadline, NO_DEADLINE
from .ftriangle import FTriangle, f_triangle
from .poly import BivarPoly
from .weyl import NCLattice, nc_lattice, node_order

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


def _triangle_path(cache_dir: Path, spec: RootSystemSpec) -> Path:
    return cache_dir / f"triangle__{spec}__v{SCHEMA_VERSION}.json"


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


def load_or_build_lattice(
    spec,
    coxeter_order=None,
    cache_dir: str | os.PathLike | None = None,
    deadline: Deadline = NO_DEADLINE,
) -> NCLattice:
    spec = as_spec(spec)
    order = node_order(spec.rank, coxeter_order)
    if cache_dir is None:
        return nc_lattice(spec, order, deadline=deadline)
    path = _lattice_path(Path(cache_dir), spec, order)
    if path.exists():
        with open(path) as fh:
            return lattice_from_doc(json.load(fh))
    lat = nc_lattice(spec, order, deadline=deadline)
    atomic_write_json(path, lattice_to_doc(lat))
    return lat


def triangle_to_doc(ft: FTriangle) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": ft.n,
        "f": [[ft.data.coeff(k, l) for l in range(ft.n + 1 - k)] for k in range(ft.n + 1)],
    }


def triangle_from_doc(doc: dict) -> FTriangle:
    n = doc["n"]
    rows = [list(row) + [0] * (n + 1 - len(row)) for row in doc["f"]]
    return FTriangle(n, BivarPoly(rows))


def load_or_build_triangle(
    spec, cache_dir: str | os.PathLike | None = None
) -> FTriangle:
    spec = as_spec(spec)
    if cache_dir is None:
        return f_triangle(spec)
    path = _triangle_path(Path(cache_dir), spec)
    if path.exists():
        with open(path) as fh:
            doc = json.load(fh)
        ft = triangle_from_doc(doc)
        if ft.n != spec.rank:
            raise ValueError(f"cache file {path} does not match spec {spec}")
        return ft
    ft = f_triangle(spec)
    atomic_write_json(path, triangle_to_doc(ft))
    return ft
