#!/usr/bin/env python3
"""Checks check_metrics_json.py --serving against a real BENCH_serving.json.

Usage: check_metrics_json_test.py <check_metrics_json.py> <BENCH_serving.json>

The checker must accept the payload as bench_serving wrote it, and must
exit 1 once one mode record's compose_probes is bumped by one, which
breaks tier conservation (intra_true + compose_probes == probes). The
payload itself is left untouched; the bumped copy goes to a temporary
directory.
"""

import json
import os
import subprocess
import sys
import tempfile


def run_checker(checker: str, payload: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, checker, "--serving", payload],
                          capture_output=True, text=True)


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    checker, payload = sys.argv[1], sys.argv[2]

    clean = run_checker(checker, payload)
    if clean.returncode != 0:
        print(f"FAIL: checker rejects the untouched payload:\n{clean.stderr}",
              file=sys.stderr)
        return 1

    with open(payload) as f:
        records = json.load(f)
    bumped = None
    for rec in records:
        if rec.get("mode") == "batched_service" and "compose_probes" in rec:
            rec["compose_probes"] += 1
            bumped = rec["mode"]
            break
    if bumped is None:
        print("FAIL: no batched_service record with compose_probes",
              file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "BENCH_serving.json")
        with open(path, "w") as f:
            json.dump(records, f)
        broken = run_checker(checker, path)
    if broken.returncode != 1:
        print(f"FAIL: checker exits {broken.returncode} on a payload whose "
              f"{bumped} compose_probes was bumped (expected 1)",
              file=sys.stderr)
        return 1
    print(f"OK: untouched payload passes; bumped {bumped} compose_probes "
          f"fails with: {broken.stderr.strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
