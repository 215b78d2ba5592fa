"""Per-layer metrics from the spans of a traced pass.

A span is ``[id, name, start, end, parent, job, info]``; ids are unique
within one job (one process).  A span's self time is its duration minus the
part of that interval its child spans cover.  Metrics named ``*_s`` are
sums of self time unless their definition below says otherwise.
"""

from __future__ import annotations

from collections import defaultdict

ID, NAME, START, END, PARENT, JOB, INFO = range(7)

CACHE_LOOKUPS = ("cache.load_or_build_lattice", "cache.load_or_build_triangle")
CACHE_READS = CACHE_LOOKUPS + ("cache.lattice_from_doc", "cache.triangle_from_doc")
CACHE_WRITES = ("cache.atomic_write_json", "cache.lattice_to_doc", "cache.triangle_to_doc")
SUBSTITUTIONS = ("poly.conjecture_substitution", "poly.alternative_substitution")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span of one job, keyed by span id."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return {
        s[ID]: (s[END] - s[START]) - covered(children[s[ID]], s[START], s[END])
        for s in spans
    }


def child_names(spans) -> dict[int, set[str]]:
    """Names of each span's direct children, keyed by span id."""
    out = defaultdict(set)
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]].add(s[NAME])
    return out


def cache_lookups(spans) -> tuple[int, int]:
    """(hits, misses) of one job: lookups with a cache dir that did or did not read a cache file."""
    children = child_names(spans)
    hits = misses = 0
    for s in spans:
        if s[NAME] in CACHE_LOOKUPS and (s[INFO] or {}).get("cache_dir"):
            if children[s[ID]] & set(CACHE_READS):
                hits += 1
            else:
                misses += 1
    return hits, misses


def job_problems(spans, warm: bool) -> list[str]:
    """What one traced job got wrong: a lattice that disagrees with
    ``invariant_formulas`` and, on a ``warm`` cache, any lookup but one hit."""
    problems = [
        f"lattice {s[INFO]['key']} disagrees with invariant_formulas"
        for s in spans
        if s[NAME] == "weyl.build_nc_lattice" and not s[INFO]["invariants_ok"]
    ]
    if warm:
        hits, misses = cache_lookups(spans)
        if (hits, misses) != (1, 0):
            problems.append(f"warm cache: {hits} hits and {misses} misses, not one hit")
    return problems


def layer_metrics(jobs) -> dict[str, float]:
    """Per-layer metrics summed over ``jobs`` (one span list per process)."""
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    build_seconds = 0.0
    for spans in jobs:
        by_id = {s[ID]: s for s in spans}
        own = self_times(spans)
        children = child_names(spans)
        for s in spans:
            self_s[s[NAME]] += own[s[ID]]
        hits, misses = cache_lookups(spans)
        counts["cache.hits"] += hits
        counts["cache.misses"] += misses

        def ancestors(s):
            while s[PARENT] is not None:
                s = by_id[s[PARENT]]
                yield s[NAME]

        built = set()
        for s in spans:
            name, info = s[NAME], s[INFO] or {}
            if name in CACHE_WRITES and not any(a in CACHE_WRITES for a in ancestors(s)):
                counts["cache.save_s"] += s[END] - s[START]
            if name == "cache.atomic_write_json":
                counts["cache.bytes_written"] += info["bytes"]
            if name == "weyl.build_nc_lattice":
                build_seconds += s[END] - s[START]
                counts["weyl.lattice_builds"] += 1
                counts["weyl.duplicate_builds"] += info["key"] in built
                built.add(info["key"])
                for key in ("elements", "covers", "mobius_entries"):
                    counts[f"weyl.{key}"] += info[key]
            if name == "weyl.nc_lattice":
                counts["weyl.memo_lookups"] += 1
                counts["weyl.memo_hits"] += "weyl.build_nc_lattice" not in children[s[ID]]
                outer = list(ancestors(s))
                if "conjecture.verify_conjecture" in outer and "weyl.nc_lattice" not in outer:
                    counts["conjecture.evidence_lattice_s"] += s[END] - s[START]

    lookups = counts["weyl.memo_lookups"]
    metrics = {
        "cli.emit_s": self_s["cli._emit"],
        "cache.load_s": sum(self_s[n] for n in CACHE_READS),
        "cache.save_s": counts["cache.save_s"],
        "cache.hits": counts["cache.hits"],
        "cache.misses": counts["cache.misses"],
        "cache.bytes_written": counts["cache.bytes_written"],
        "weyl.build_rep_s": self_s["weyl.build_rep"],
        "weyl.build_nc_lattice_s": self_s["weyl.build_nc_lattice"],
        "weyl.elements_per_s": counts["weyl.elements"] / build_seconds if build_seconds else 0.0,
        "weyl.elements": counts["weyl.elements"],
        "weyl.covers": counts["weyl.covers"],
        "weyl.mobius_entries": counts["weyl.mobius_entries"],
        "weyl.lattice_builds": counts["weyl.lattice_builds"],
        "weyl.duplicate_builds": counts["weyl.duplicate_builds"],
        "weyl.memo_lookups": lookups,
        "weyl.memo_hit_ratio": counts["weyl.memo_hits"] / lookups if lookups else 0.0,
        "weyl.m_triangle_s": self_s["weyl.m_triangle"],
        "conjecture.rhs_s": self_s["conjecture.conjecture_rhs"],
        "poly.substitution_s": sum(self_s[n] for n in SUBSTITUTIONS),
        "ftriangle.f_triangle_s": self_s["ftriangle.f_triangle"],
        "conjecture.self_s": sum(
            v for n, v in self_s.items()
            if n.startswith("conjecture.") and n != "conjecture.conjecture_rhs"
        ),
        "conjecture.evidence_lattice_s": counts["conjecture.evidence_lattice_s"],
    }
    return metrics
