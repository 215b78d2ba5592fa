"""The benchmark's workloads and the inputs each one generates from a seed.

Every workload is a closed loop with one client: the next job starts when
the previous one has exited.  The seed permutes the spec order and, on the
verify workloads, picks each spec's ``--coxeter-order``.  The program only
ever sees spec strings and flags.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The desk-scale list of scripts/run_sweep.py.
DESK_SPECS = (
    [f"A{n}" for n in range(1, 7)]
    + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(3, 7)]
    + ["D4", "D5", "D6", "E6", "F4", "G2", "A1xA1", "A2xA1", "B2xA1"]
)

# Products whose components recur, so one process shares lattice work.
PRODUCT_SPECS = [
    "D4", "A2", "A3", "G2", "F4", "A2xA1", "B2xA1", "A3xA3", "B3xB3", "D4xA2",
    "A2xA2xA2", "G2xG2xA1", "D5xA1", "A5xA1", "B4xA2", "F4xA2", "F4xG2",
    "A4xA3", "D4xD4",
]

# BENCHMARK.json and README.md say why each workload was chosen.
WORKLOADS = ("cold_desk", "warm_desk", "product_sweep")


def spec_rank(spec: str) -> int:
    return sum(int(part[1:]) for part in spec.split("x"))


@dataclass(frozen=True)
class Job:
    """One program invocation: ``fmtri <argv>``, verifying ``specs`` in order."""

    argv: tuple[str, ...]
    specs: tuple[str, ...]


def inputs(workload: str, seed: int) -> list[tuple[str, tuple[int, ...] | None]]:
    """The workload's (spec, coxeter order) list for ``seed``; same seed, same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "product_sweep":
        specs = list(PRODUCT_SPECS)
        rng.shuffle(specs)
        return [(s, None) for s in specs]
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    specs = list(DESK_SPECS)
    rng.shuffle(specs)
    return [(s, tuple(rng.sample(range(1, spec_rank(s) + 1), spec_rank(s)))) for s in specs]


def jobs(workload: str, items, cache_dir: str | None) -> list[Job]:
    """The processes one pass of ``workload`` starts, in order."""
    if workload == "product_sweep":
        specs = tuple(s for s, _ in items)
        return [Job(("sweep", "--jobs", "1", *specs), specs)]
    return [
        Job(
            ("verify", spec, "--coxeter-order", ",".join(map(str, order)), "--cache-dir", cache_dir),
            (spec,),
        )
        for spec, order in items
    ]
