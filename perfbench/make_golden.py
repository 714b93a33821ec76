"""Regenerate ``golden.json``, the verdicts every benchmark round must give.

Run from the repository root: ``PYTHONPATH=src python3 perfbench/make_golden.py``.
Each distinct configuration of the workloads is run serially once; the
file keeps, per configuration, the test count, the verdict digest and
every verdict that is not ``Pass/none``.  It refuses to write a table
that contradicts the paper's issue list.  Regenerate only when a change
is meant to alter verdicts, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from campaign_round import GOLDEN_PATH, PASS, WORKLOADS, config_key, digest, issue_problem, verdicts


def main() -> int:
    from repro.fault.campaign import Campaign

    golden = {}
    for overrides, _workers in WORKLOADS.values():
        key = config_key(overrides)
        if key in golden:
            continue
        result = Campaign.paper_campaign(**overrides).run()
        problem = issue_problem(result, overrides.get("kernel_version", "3.4.0"))
        if problem:
            print(f"{key}: {problem}", file=sys.stderr)
            return 1
        pairs = verdicts(result)
        golden[key] = {
            "tests": len(pairs),
            "digest": digest(pairs),
            "verdicts": {test_id: v for test_id, v in pairs if v != PASS},
        }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
