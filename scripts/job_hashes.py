#!/usr/bin/env python3
"""Hash the output of CLI jobs, each run in a fresh process.

Each job runs as ``python3 -m soficdim.cli <argv>`` with ``PYTHONPATH=src``
from the root of this script's checkout.  One line per job, ``exit
sha256(stdout) sha256(stderr) argv``, so ``diff`` of the output in two
checkouts compares every byte of every job:

    python3 scripts/job_hashes.py --jobs jobs.txt  # argv lines (shlex; # comments)
    python3 scripts/job_hashes.py --menu certify   # a menu of perfbench/workloads.py

Every run first writes the groupoid files ``GPD_FILES`` the jobs may read:
``perfbench/.work/r2.gpd``, as the benchmark's set-up does, and ``r3.gpd`` and
``r4.gpd`` beside it for ``scripts/scaling_jobs.txt``.
"""

import argparse
import hashlib
import importlib.util
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the transitive relation on m points, saved where the job lines name it
GPD_FILES = {m: f"perfbench/.work/r{m}.gpd" for m in (2, 3, 4)}
SAVE = ("from soficdim import transitive_groupoid\n"
        "for m, path in {!r}.items(): transitive_groupoid(m).save(path)")


def menu_jobs(name: str) -> list:
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads.menu(workloads.WORKLOADS[name])


def run(argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, **kwargs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--jobs", help="file of argv lines")
    source.add_argument("--menu", help="perfbench workload name")
    args = parser.parse_args()
    if args.jobs:
        lines = Path(args.jobs).read_text().splitlines()
        jobs = [shlex.split(ln) for ln in lines if ln.strip() and not ln.startswith("#")]
    else:
        jobs = menu_jobs(args.menu)
    (ROOT / GPD_FILES[2]).parent.mkdir(parents=True, exist_ok=True)
    run([sys.executable, "-c", SAVE.format(GPD_FILES)], check=True)
    for argv in jobs:
        done = run([sys.executable, "-m", "soficdim.cli", *argv])
        print(done.returncode, hashlib.sha256(done.stdout).hexdigest(),
              hashlib.sha256(done.stderr).hexdigest(), shlex.join(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
