"""Record the golden stdout hash and exit code of every menu job.

    python3 perfbench/record_golden.py

Runs each job of each workload's menu once, from the current source
tree, and writes ``perfbench/golden.json``.  The benchmark compares
every timed job against this file, so the file is recorded once, at
the commit that defines the baseline, and re-recorded only by a change
that means to alter outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run
import workloads


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    golden = {}
    for name, workload in workloads.WORKLOADS.items():
        pkg, cli, _ = run.setup(workload, 0, 1)
        entries = {}
        for argv in workloads.menu(workload):
            code, out, err = run.run_job(cli, argv)
            if code is None:
                sys.exit(f"{' '.join(argv)} raised {err}")
            _, wrong = workloads.oracle_checks(argv, out, pkg.closed_form_count)
            if wrong:
                sys.exit(f"{' '.join(argv)}: {wrong} rows disagree with the closed form")
            entries[" ".join(argv)] = {"exit": code,
                                       "sha256": hashlib.sha256(out.encode()).hexdigest()}
            print(f"{name}: exit {code} {' '.join(argv)}", flush=True)
        golden[name] = entries
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
