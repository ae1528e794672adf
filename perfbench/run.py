"""Layered job-stream benchmark for soficdim.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Each workload is a closed loop with one client: a seeded stream of
CLI jobs, each run in this process through ``soficdim.cli.main(argv)``
with stdout captured, hashed and compared with the golden outputs in
``golden.json``.  A run executes whole rounds of the stream (see
``workloads.py``); the last line of stdout is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  ``--workload all`` runs every workload in a fresh
process, one at a time, and prints every end-to-end metric with its
unit.  Notes, metric definitions and the baseline are in README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PACKAGE = "soficdim"
SETUP_REPEATS = 5
DEADLINE_S = 150.0  # stop starting jobs so that a run ends well within 180 s
OUT_DIR = HERE / ".out"


def tail(values, beyond: int = 10) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile that has
    at least ``beyond`` samples above it."""
    n = len(values)
    if n <= beyond:
        raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
    rank = n - beyond
    return 100.0 * rank / n, sorted(values)[rank - 1]


def cpu_seconds() -> float:
    """CPU time of this process and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def children_cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mib() -> float:
    """This process's peak RSS plus the largest peak among its children."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def setup(workload, seed: int, rounds: int):
    """Import the package afresh, build the job stream, write the sources."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    cli = importlib.import_module(PACKAGE + ".cli")
    jobs = workloads.stream(workload, seed, rounds)
    Path(workloads.R2).parent.mkdir(parents=True, exist_ok=True)
    pkg.transitive_groupoid(2).save(workloads.R2)
    return pkg, cli, jobs


def run_job(cli, argv) -> tuple[int | None, str, str]:
    """(exit code or None when it raised, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a failed job is counted, the loop goes on
        return None, out.getvalue(), repr(exc)
    return code, out.getvalue(), err.getvalue()


class Loop:
    """One pass over a list of jobs, timed and checked.

    With a sampler, job times and CPU times are scaled to the reference
    machine speed (see speed.py); ``raw_walls`` keeps the wall times.
    """

    def __init__(self, cli, golden: dict, closed_form_count, sampler=None, tracer=None):
        self.cli = cli
        self.golden = golden
        self.closed_form_count = closed_form_count
        self.sampler = sampler
        self.tracer = tracer
        self.times: list[float] = []
        self.raw_walls: list[float] = []
        self.cpu: list[float] = []
        self.child_cpu: list[float] = []
        self.failures: list[str] = []
        self.oracle_rows = 0
        self.members = 0

    def run(self, jobs, t_start: float):
        sampler = self.sampler
        for job_id, argv in enumerate(jobs):
            if time.perf_counter() - t_start > DEADLINE_S:
                break
            if self.tracer is not None:
                self.tracer.job = job_id
            mark0 = sampler.mark() if sampler else (0, 0.0)
            c0, k0 = cpu_seconds(), children_cpu_seconds()
            s = time.perf_counter()
            code, out, err = run_job(self.cli, argv)
            wall = time.perf_counter() - s
            cpu, child = cpu_seconds() - c0, children_cpu_seconds() - k0
            if sampler:
                mark1 = sampler.mark()
                factor = sampler.factor(mark0, mark1)
                spent = mark1[1] - mark0[1]
            else:
                factor, spent = 1.0, 0.0
            self.raw_walls.append(wall)
            self.times.append((wall - spent) * factor)
            self.cpu.append((cpu - spent) * factor)
            self.child_cpu.append(child)
            self.check(argv, code, out, err)

    def check(self, argv, code, out, err):
        key = " ".join(argv)
        want = self.golden.get(key)
        digest = hashlib.sha256(out.encode()).hexdigest()
        problem = None
        if code is None:
            problem = f"raised {err}"
        elif want is None:
            problem = "no golden output"
        elif code != want["exit"]:
            problem = f"exit {code}, golden {want['exit']}: {err.strip()}"
        elif digest != want["sha256"]:
            problem = "stdout differs from golden"
        else:
            checked, wrong = workloads.oracle_checks(argv, out, self.closed_form_count)
            self.oracle_rows += checked
            if wrong:
                problem = f"{wrong} rows disagree with closed_form_count"
            if argv[0] == "count" and "--mc" not in argv:
                self.members += sum(int(line.split(",")[3]) for line in out.splitlines()
                                    if line and line[0].isdigit())
        if problem:
            self.failures.append(f"{key}: {problem}")


def end_to_end(loop: Loop, slots: int, setup_times) -> tuple[dict, float]:
    """End-to-end metrics over the run's job mix.

    Every round runs the same slots in the same order, so job i is an
    instance of slot i % slots.  Each job counts with its slot's median
    time over the rounds: a machine slowdown that hits a minority of the
    rounds does not move the figures.
    """
    n = len(loop.times)

    def per_slot(values):
        return [statistics.median(values[i::slots]) for i in range(min(slots, n))]

    slot_times, slot_cpu = per_slot(loop.times), per_slot(loop.cpu)
    times = [slot_times[i % slots] for i in range(n)]
    # a run cut short by the deadline (and so not correct) may hold too few jobs
    pct, tail_s = tail(times) if n > 10 else (100.0, max(times))
    return {
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "jobs_per_s": len(slot_times) / sum(slot_times),
        "cpu_per_job_s": sum(slot_cpu) / len(slot_cpu),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": peak_rss_mib(),
        "jobs_ok_share": (n - len(loop.failures)) / n,
    }, pct


def per_layer(tracer: spans.Tracer, traced: Loop, plain: Loop, workers: int | None,
              extra: dict) -> dict:
    stats = tracer.stats
    out = {}
    for name, st in stats.items():
        out[f"{name}.calls"] = st.calls
        out[f"{name}.self_s"] = st.self_s
    for layer in spans.LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            st.self_s for name, st in stats.items() if name.startswith(layer + "."))
    nodes = extra["dfs_nodes"]
    out["sofic.dfs_nodes"] = nodes
    out["sofic.dfs_members_per_node"] = traced.members / nodes if nodes else 0.0
    trials = extra["mc_trials"]
    out["sofic.mc_hit_ratio"] = extra["mc_hits"] / trials if trials else 0.0
    # from the untraced pass, so the workers run at full speed
    out["sofic.workers.busy_share"] = (sum(plain.child_cpu)
                                       / ((workers or 1) * sum(plain.raw_walls)))
    out["trace.loop_s"] = sum(traced.raw_walls)
    out["trace.untraced_loop_s"] = sum(plain.raw_walls)
    out["trace.overhead"] = out["trace.loop_s"] / out["trace.untraced_loop_s"]
    return out


def traced_run(pkg, cli, golden, jobs, workers, seed, name, t_start):
    """One round untraced, then the same round traced; wall times as measured."""
    oracle = pkg.closed_form_count  # taken before wrapping: not part of the trace
    plain = Loop(cli, golden, oracle)
    plain.run(jobs, t_start)
    tracer = spans.Tracer()
    trace_calls = tracer.stat("pperm.trace")
    verify_calls = tracer.stat("sofic.verify_membership")
    extra = {"dfs_nodes": 0, "mc_trials": 0, "mc_hits": 0, "members": 0}

    def count_nodes(token, _result):
        # every admissible() test of the DFS starts with one trace call
        extra["dfs_nodes"] += trace_calls.calls - token

    def count_member(_token, report):
        extra["members"] += bool(report.is_member)

    def count_trials(token, _result):
        extra["mc_trials"] += verify_calls.calls - token[0]
        extra["mc_hits"] += extra["members"] - token[1]

    tracer.hooks = {
        "sofic.count_SA": (lambda: trace_calls.calls, count_nodes),
        "sofic.verify_membership": (lambda: None, count_member),
        "sofic.monte_carlo_count": (lambda: (verify_calls.calls, extra["members"]),
                                    count_trials),
    }
    installed = spans.Installation(tracer, PACKAGE)
    try:
        traced = Loop(cli, golden, oracle, tracer=tracer)
        traced.run(jobs, t_start)
    finally:
        installed.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    dump = {
        "workload": name, "seed": seed, "jobs": [" ".join(j) for j in jobs],
        "stats": {k: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                  for k, s in sorted(tracer.stats.items())},
        "span_fields": ["id", "parent", "name", "start", "end", "job"],
        "spans": tracer.spans, "dropped_spans": tracer.dropped_spans,
    }
    (OUT_DIR / f"trace-{name}-seed{seed}.json").write_text(json.dumps(dump))
    return plain, traced, per_layer(tracer, traced, plain, workers, extra)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    golden = json.loads((HERE / "golden.json").read_text())[workload.name]
    spec = load_spec()
    t_start = time.perf_counter()
    rounds = 1 if args.trace else workloads.rounds_for(workload, args.seconds)
    with speed.Sampler() as sampler:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            mark0, s = sampler.mark(), time.perf_counter()
            pkg, cli, stream = setup(workload, args.seed, rounds)
            setup_times.append(sampler.scaled(time.perf_counter() - s, mark0, sampler.mark()))
        jobs = [job for rnd in stream for job in rnd]
        if not args.trace:
            loop = Loop(cli, golden, pkg.closed_form_count, sampler)
            loop.run(jobs, t_start)
    if args.trace:
        plain, loop, values = traced_run(pkg, cli, golden, jobs, workload.workers,
                                         args.seed, workload.name, t_start)
        failures = plain.failures + loop.failures
        attempted = len(plain.times) + len(loop.times)
        complete = attempted == 2 * len(jobs)
        wanted = spec["per_layer"]
        print(f"# traced: {len(loop.times)} jobs, overhead "
              f"{values['trace.overhead']:.2f}x, spans in {OUT_DIR.name}/")
    else:
        failures = loop.failures
        attempted = len(loop.times)
        complete = attempted == len(jobs)
        values, pct = end_to_end(loop, len(workload.slots), setup_times)
        wanted = spec["end_to_end"]
        raw = loop.raw_walls
        print(f"# {workload.name} seed={args.seed} rounds={rounds} jobs={attempted} "
              f"tail=p{pct:.2f} (10 jobs beyond) oracle_rows={loop.oracle_rows}")
        print(f"# as measured: job_p50 {statistics.median(raw):.4f} s, "
              f"jobs/s {len(raw) / sum(raw):.4f}; speed factor "
              f"{sum(loop.times) / sum(raw):.3f} (times below are at reference speed)")
    for problem in failures:
        print(f"# FAILED {problem}")
    if not complete:
        print(f"# INCOMPLETE: {attempted} jobs run before the {DEADLINE_S:.0f} s deadline")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for m in wanted:
        print(f"# {m['name']:40s} {metrics[m['name']]['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": complete and not failures,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, one at a time; one table."""
    spec = load_spec()
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{w['name']}: failed (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        print(f"{w['name']}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}  {lines[0].lstrip('# ')}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:20s} {v['value']:>14.6g} {v['unit']}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        sys.exit(f"perfbench: {ROOT / 'src' / PACKAGE} not found; "
                 "run from a checkout of the repository")
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
