"""Correctness gate for the program's outputs.

A job passes only when it exits 0 and every spec it verified reports
``verified: true``, no timeout, no mismatches, all five evidence flags true
and ``lhs == rhs``, and its output matches the reference recorded in
``reference.json``: the stdout of ``fmtri verify <spec>`` byte for byte, and
for a sweep the payload of each spec.  The same reference serves every
workload and seed, so cold, warm and every seed must agree byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

EVIDENCE_FLAGS = (
    "corner_specializations",
    "h_vector_match",
    "m_self_dual",
    "multiplicativity",
    "positive_cluster_count_match",
)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def payload_digest(payload: dict) -> str:
    return sha256(json.dumps(payload, sort_keys=True))


def payload_problems(spec: str, payload) -> list[str]:
    """Everything wrong with one spec's verify payload."""
    if not isinstance(payload, dict):
        return [f"{spec}: payload is not an object"]
    problems = []
    if payload.get("verified") is not True:
        problems.append(f"{spec}: verified is {payload.get('verified')!r}")
    if payload.get("timeout") is not False:
        problems.append(f"{spec}: timeout is {payload.get('timeout')!r}")
    if payload.get("mismatches") != []:
        problems.append(f"{spec}: mismatches {payload.get('mismatches')!r}")
    evidence = payload.get("evidence")
    if not isinstance(evidence, dict) or sorted(evidence) != list(EVIDENCE_FLAGS):
        problems.append(f"{spec}: evidence flags {evidence!r}")
    else:
        problems += [f"{spec}: evidence {k} is {v!r}" for k, v in sorted(evidence.items()) if v is not True]
    if payload.get("lhs") is None or payload.get("lhs") != payload.get("rhs"):
        problems.append(f"{spec}: lhs and rhs differ")
    return problems


def _parse(stdout: bytes):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def verify_problems(spec: str, code: int, stdout: bytes, reference: dict) -> list[str]:
    """Problems with one ``fmtri verify <spec>`` job."""
    problems = [f"{spec}: exit code {code}"] if code != 0 else []
    doc = _parse(stdout)
    if not isinstance(doc, dict) or doc.get("kind") != "verify" or doc.get("spec") != spec:
        return problems + [f"{spec}: stdout is not a verify document for {spec}"]
    problems += payload_problems(spec, doc.get("payload"))
    expected = reference.get(spec, {}).get("stdout_sha256")
    if sha256(stdout) != expected:
        problems.append(f"{spec}: stdout differs from the reference")
    return problems


def sweep_problems(specs, code: int, stdout: bytes, reference: dict) -> dict[str, list[str]]:
    """Problems per spec of one ``fmtri sweep`` job; every spec gets an entry."""
    out: dict[str, list[str]] = {s: [] for s in specs}
    if code != 0:
        for s in specs:
            out[s].append(f"{s}: sweep exit code {code}")
    doc = _parse(stdout)
    results = doc.get("payload", {}).get("results") if isinstance(doc, dict) else None
    if doc is None or doc.get("kind") != "sweep" or not isinstance(results, list) \
            or [r.get("spec") for r in results] != list(specs):
        for s in specs:
            out[s].append(f"{s}: stdout is not a sweep document for the given specs")
        return out
    if doc["payload"].get("all_verified") is not True:
        for s in specs:
            out[s].append(f"{s}: all_verified is not true")
    for r in results:
        s = r["spec"]
        if r.get("verified") is not True or r.get("timeout") is not False:
            out[s].append(f"{s}: sweep entry verified={r.get('verified')!r} timeout={r.get('timeout')!r}")
        out[s] += payload_problems(s, r.get("report"))
        if payload_digest(r.get("report")) != reference.get(s, {}).get("payload_sha256"):
            out[s].append(f"{s}: payload differs from the reference")
    return out
