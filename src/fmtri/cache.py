"""Lattice files: each built lattice saved as JSON, and compared, never loaded.

``fmtri verify --cache-dir`` is the one command that writes them.  One file
per lattice, keyed by canonical spec string, Coxeter ordering, and schema
version 5; it holds the spec, the Coxeter order, the element masks and their
ranks, and nothing else.  The lattice always comes from the search,
``weyl.nc_lattice``, so M is computed from [1, c] itself.  With a cache dir,
the file there is then read as bytes, if it is a regular file of the size a
save would write, and compared with those bytes: an equal file is a hit and
is left as it is, and anything else at the path (no file, another file, a
FIFO) is a miss, which the built lattice's file replaces.  No byte read from
disk reaches an ``NCLattice``, so a doctored file can cost a write but never
change a result.  Writes go through a temp file and an atomic rename, so a
killed run never leaves a truncated file, and the file gets the mode the
umask gives, as ``open`` would; a write that fails is a usage error
(``SpecError``) naming the file.

F-triangles are not saved: the node-deletion recursion takes milliseconds
even for E8.
"""

from __future__ import annotations

import json
import os
import stat
import tempfile
from pathlib import Path

from .errors import Deadline, NO_DEADLINE, SpecError
from .weyl import NCLattice, nc_lattice

SCHEMA_VERSION = 5


def atomic_write_json(path: Path, data: bytes) -> None:
    """Write ``data``, the bytes of a JSON file, to ``path`` atomically."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            # mkstemp makes the file 0600; give it the mode open(path, "w") would
            os.umask(umask := os.umask(0))
            os.chmod(tmp, 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _lattice_path(cache_dir: Path, lat: NCLattice) -> Path:
    order_tag = "-".join(str(i) for i in lat.coxeter_order)
    return cache_dir / f"lattice__{lat.spec}__order_{order_tag}__v{SCHEMA_VERSION}.json"


def _file_bytes(lat: NCLattice) -> bytes:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "spec": str(lat.spec),
        "coxeter_order": list(lat.coxeter_order),
        "elements": list(lat.elements),
        "ranks": list(lat.ranks),
    }
    # json.dumps runs the C encoder; json.dump always runs the Python one
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def lattice_from_doc(data: bytes, own: bytes, lat: NCLattice) -> NCLattice:
    """``lat``, the built lattice, if ``data`` are ``own``, the bytes of its
    file; else ValueError.  A call that returns is a cache hit."""
    if data != own:
        raise ValueError(f"the file is not the lattice file of {lat.spec}")
    return lat


def load_or_build_lattice(
    spec,
    coxeter_order=None,
    cache_dir: str | os.PathLike | None = None,
    deadline: Deadline = NO_DEADLINE,
) -> NCLattice:
    """The lattice of ``spec`` and ``coxeter_order``, built by the search;
    its file in ``cache_dir`` is written unless it already holds these
    bytes, and a failed write raises SpecError."""
    lat = nc_lattice(spec, coxeter_order, deadline=deadline)
    if cache_dir is None:
        return lat
    path = _lattice_path(Path(cache_dir), lat)
    # made once: the size guard, the compare and the write all use it
    own = _file_bytes(lat)
    try:
        # only a regular file of the saved size is read: a FIFO or a device
        # at the path would block the read, and any other size is a miss
        found = os.stat(path)
        if stat.S_ISREG(found.st_mode) and found.st_size == len(own):
            return lattice_from_doc(path.read_bytes(), own, lat)
    except (OSError, ValueError):
        pass
    try:
        atomic_write_json(path, own)
    except OSError as exc:
        raise SpecError(f"cannot write the lattice file {str(path)!r}: {exc.strerror or exc}") from None
    return lat
