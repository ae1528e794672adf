"""The jobs of the benchmark's enumerate and certify menus, run as the
benchmark runs them.

``perfbench/run.py`` runs each job through ``cli.main`` from the checkout
root, where the r2 source sits at ``perfbench/.work/r2.gpd``, and compares
the sha256 of its stdout with ``perfbench/golden.json``.  The 2-worker
menu is the one-worker menu with ``--workers 2`` appended, so the first
test checks the stdout of both, and that none of these jobs starts a
process.  The second counts every configuration of the menu by
conjugacy classes and by the plain search over the full pools.  The
last checks the stdout of every job of the certify menu.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import multiprocessing
import sys
from pathlib import Path

import pytest

from soficdim import cli
from soficdim.groupoid import transitive_groupoid
from soficdim.sofic import SAParams, SearchPlan, candidate_pool, count_SA

from references import plain_count

ROOT = Path(__file__).resolve().parent.parent


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def in_work_dir(workloads, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / Path(workloads.R2).parent).mkdir(parents=True)
    transitive_groupoid(2).save(workloads.R2)


def test_enumerate_2w_jobs_match_golden_in_one_process(tmp_path, monkeypatch):
    workloads = load_workloads(monkeypatch)
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())["enumerate-2w"]
    jobs = workloads.menu(workloads.WORKLOADS["enumerate-2w"])
    assert len(jobs) == len(golden) == 24
    in_work_dir(workloads, tmp_path, monkeypatch)
    started = []

    def refuse(proc):
        started.append(proc)
        raise AssertionError(f"a benchmark job started {proc}")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    for argv in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        want = golden[" ".join(argv)]
        assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == (
            want["exit"], want["sha256"]), argv
    assert started == []


# the variants of a slot share their windows and their limit, so the first
# variant stands for its slot
@pytest.mark.parametrize("slot", range(8))
def test_enumerate_configurations_count_by_classes(slot, tmp_path, monkeypatch):
    workloads = load_workloads(monkeypatch)
    slots = workloads.WORKLOADS["enumerate"].slots
    assert len(slots) == 8
    in_work_dir(workloads, tmp_path, monkeypatch)
    args = cli.build_parser().parse_args(list(slots[slot][0]))
    source = cli.make_source(args)
    E = tuple(cli.restriction_positions(source))
    for d in cli.parse_drange(args.d):
        params = SAParams(source, cli.parse_fraction(args.delta), d, args.mode or "")
        plan = SearchPlan(params)
        pools = candidate_pool(d, params.mode, plan.windows)
        count, restrictions = plain_count(plan, pools, E)
        assert count_SA(params, E, args.cap) == (count, len(restrictions))
        assert count_SA(params, (), args.cap) == (count, min(count, 1))


def test_certify_jobs_match_golden(tmp_path, monkeypatch):
    workloads = load_workloads(monkeypatch)
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())["certify"]
    jobs = workloads.menu(workloads.WORKLOADS["certify"])
    assert len(jobs) == len(golden) == 32
    in_work_dir(workloads, tmp_path, monkeypatch)
    for argv in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        want = golden[" ".join(argv)]
        assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == (
            want["exit"], want["sha256"]), argv
