"""Job menus, seeded job streams and the exactness oracle.

A workload is a menu of *slots*.  Each slot is one kind of job and
holds a few *variants* that do the same work but print different
bytes: for ``count`` jobs the tolerance varies within one
``ceil(delta * d)`` class (traces and distances are multiples of 1/d,
so every pruning decision of the search is unchanged); for ``verify``,
``--mc`` and ``curve`` jobs the ``--seed`` varies.  One *round* runs
every slot once, with a seeded choice of variants, so every round does
the same work and a run of whole rounds measures the same mix for
every seed.

Every ``count`` job passes ``--cap 10000000000``.  The default cap
tests ``pool^|ball|`` and refuses ``zmod(2)`` at d=8 (1.6e9
candidates) although the pruned search ends in about 2 s; an explicit
cap keeps a later change of the cap's meaning (a node budget, say)
from silently changing which jobs run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil

# the 2-point relation (transitive groupoid on 2 units), written at set-up;
# the path is echoed into the CSV/JSON headers, so it is part of the golden
# outputs and must stay a fixed path relative to the checkout root
R2 = "perfbench/.work/r2.gpd"
CAP = "10000000000"
VARIANT_SEEDS = ("1", "2", "3", "4")


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple            # tuple of slots; a slot is a tuple of argv tuples
    workers: int | None     # --workers appended to exhaustive count jobs
    stream_key: str         # workloads with one key get one job stream per seed
    nominal_round_s: float  # one round on the reference machine (2 cores)


def _count_slot(source: tuple, d: str, deltas: tuple) -> tuple:
    return tuple(("count", *source, "--d", d, "--delta", delta, "--cap", CAP)
                 for delta in deltas)


_ENUMERATE_SLOTS = (
    _count_slot(("--family", "zmod(2)"), "6", ("1/10", "1/8", "1/7")),
    _count_slot(("--family", "zmod(2)"), "7", ("1/10", "1/8", "1/9")),
    _count_slot(("--family", "zmod(2)"), "8", ("1/10", "1/9", "1/11")),
    _count_slot(("--family", "zmod(3)"), "5", ("1/10", "1/6", "1/7")),
    _count_slot(("--family", "zmod(4)"), "5", ("1/10", "1/6", "1/7")),
    _count_slot(("--family", "z"), "5", ("1/4", "2/7", "3/11")),
    _count_slot(("--family", "freeprod(zmod(2),zmod(2))"), "6",
                ("1/10", "1/7", "1/8")),
    _count_slot(("--source", R2, "--mode", "all"), "4..6", ("1/10", "1/7", "1/8")),
)


def _verify_slot(source: str, d: str, delta: str, partitions: str) -> tuple:
    return tuple(("verify", "--suite", "all", "--source", source, "--d", d,
                  "--delta", delta, "--partitions", partitions, "--seed", seed)
                 for seed in ("0", "1", "2", "3"))


_CERTIFY_SLOTS = tuple(
    _verify_slot(source, d, delta, partitions)
    for source in (R2, "zmod(2)")
    for d, delta, partitions in (("2", "1/10", "12"), ("2", "1/20", "16"),
                                 ("4", "1/10", "12"), ("4", "1/20", "12")))


def _mc_slot(source: tuple, mode: str, d: str, delta: str, trials: str) -> tuple:
    return tuple(("count", *source, "--mode", mode, "--d", d, "--delta", delta,
                  "--mc", trials, "--seed", seed, "--cap", CAP)
                 for seed in VARIANT_SEEDS)


def _curve_slot(m: str, ds: str, delta: str) -> tuple:
    return tuple(("curve", "--m", m, "--d", ds, "--delta", delta, "--seed", seed)
                 for seed in VARIANT_SEEDS)


_SAMPLE_SLOTS = (
    _mc_slot(("--family", "zmod(1)"), "all", "2", "3/5", "3000"),
    _mc_slot(("--family", "zmod(1)"), "perms", "5", "1/10", "3000"),
    _mc_slot(("--family", "zmod(2)"), "perms", "6", "1/10", "3000"),
    _mc_slot(("--family", "zmod(2)"), "all", "4", "3/10", "3000"),
    _mc_slot(("--source", R2), "all", "2", "3/5", "1500"),
    _mc_slot(("--source", R2), "perms", "4", "1/10", "1500"),
    _mc_slot(("--source", R2), "all", "4", "1/10", "1500"),
    _curve_slot("2", "50,100,200,400", "0"),
    _curve_slot("3", "100,200,400,800", "1/100"),
    _curve_slot("4", "50,100,200", "1/100"),
    _curve_slot("6", "50,100,200", "1/100"),
    _curve_slot("6", "50,100,200", "0"),
)

# why each workload exists, and what it should move: README.md
WORKLOADS = {
    w.name: w for w in (
        Workload("enumerate", _ENUMERATE_SLOTS, 1, "enumerate", 4.0),
        Workload("enumerate-2w", _ENUMERATE_SLOTS, 2, "enumerate", 5.7),
        Workload("certify", _CERTIFY_SLOTS, None, "certify", 4.1),
        Workload("sample", _SAMPLE_SLOTS, None, "sample", 5.6),
    )
}

MIN_JOBS = 20  # ten jobs beyond the tail percentile, which is then at least p50


def with_workers(argv: tuple, workers: int | None) -> tuple:
    """Append ``--workers`` to exhaustive count jobs of a workload that sets it."""
    if workers is None or argv[0] != "count" or "--mc" in argv:
        return argv
    return (*argv, "--workers", str(workers))


def menu(workload: Workload) -> list[tuple]:
    """Every job the workload can run, in a fixed order."""
    return [with_workers(v, workload.workers) for slot in workload.slots for v in slot]


def rounds_for(workload: Workload, seconds: float) -> int:
    """Whole rounds in a run: a fixed amount of work that lasts about
    ``seconds`` on the reference machine, with at least MIN_JOBS jobs."""
    by_time = round(seconds / workload.nominal_round_s)
    return max(1, by_time, ceil(MIN_JOBS / len(workload.slots)))


def stream(workload: Workload, seed: int, rounds: int) -> list[list[tuple]]:
    """The job stream of one run: ``rounds`` rounds of argv tuples.

    Each slot walks through its variants in a seeded order; the same
    seed always gives the same stream.  The slots keep their menu order
    in every round: a shuffled order moved the peak RSS of a run by up
    to 25% (the heap's high-water mark depends on which jobs precede
    the large candidate pools).
    """
    rng = random.Random(f"{workload.stream_key}:{seed}")
    orders = [rng.sample(range(len(slot)), len(slot)) for slot in workload.slots]
    return [[with_workers(slot[order[r % len(slot)]], workload.workers)
             for slot, order in zip(workload.slots, orders)]
            for r in range(rounds)]


def _arg(argv: tuple, flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def oracle_checks(argv: tuple, stdout: str, closed_form_count) -> tuple[int, int]:
    """Cross-check exhaustive counts against the cyclic closed form.

    Applies to ``count --family zmod(m)`` with m <= 3 in perms mode,
    where the radius-1 ball is the whole cyclic group.  Rows with
    ``delta * d < 1`` are checked: there every condition is exact
    (no fixed points on non-identity powers, exact multiplicativity),
    which is what ``closed_form_count`` counts.  Returns (rows
    checked, rows that disagree).
    """
    family = _arg(argv, "--family") or ""
    if (argv[0] != "count" or "--mc" in argv or not family.startswith("zmod(")
            or _arg(argv, "--mode") == "all"):
        return 0, 0
    m = int(family[len("zmod("):-1])
    if m > 3:
        return 0, 0
    checked = wrong = 0
    for line in stdout.splitlines():
        if not line or line.startswith("#") or line.startswith("d,"):
            continue
        d, delta, _n, count = line.split(",")[:4]
        d, delta = int(d), Fraction(delta)
        if delta * d < 1:
            checked += 1
            wrong += int(count) != closed_form_count(m, d, delta)
    return checked, wrong
