"""Record the reference outputs that ``check.py`` compares every job against.

Usage, from the root of a source checkout:

    python3 perfbench/make_reference.py

Runs ``fmtri verify <spec>`` once for every spec of every workload, checks
each payload, and writes the sha256 of its stdout and of its payload to
``reference.json``.  Run it only when an output byte is meant to change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import check
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    reference = {}
    for spec in sorted(set(workloads.DESK_SPECS) | set(workloads.PRODUCT_SPECS)):
        done = subprocess.run(
            [sys.executable, "-m", "fmtri.cli", "verify", spec],
            capture_output=True, env=env, cwd=ROOT, check=True,
        )
        payload = json.loads(done.stdout)["payload"]
        problems = check.payload_problems(spec, payload)
        if problems:
            raise SystemExit("\n".join(problems))
        reference[spec] = {
            "stdout_sha256": check.sha256(done.stdout),
            "payload_sha256": check.payload_digest(payload),
        }
        print(spec, reference[spec]["stdout_sha256"][:12], flush=True)
    with open(check.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
