"""Record the certify workload's reference lhs/rhs from the current package.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run it only on a commit whose certification results are trusted; the
benchmark compares every certify job against the file this writes.
"""

import json
from dataclasses import asdict

from stable_extrap import run_suite
from workloads import CERTIFY_REFERENCE

if __name__ == "__main__":
    checks = [asdict(c) for c in run_suite("all")]
    CERTIFY_REFERENCE.write_text(json.dumps(checks, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(checks)} checks to {CERTIFY_REFERENCE}")
