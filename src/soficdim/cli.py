"""Batch front door: counting sweeps, bound suites, construction demos,
and the expression calculator.

Subcommands:

* ``calc EXPR``          exact value of a groupoid expression
* ``count``              exhaustive or Monte Carlo member counts -> CSV
* ``curve``              closed-form cyclic statistic against d -> CSV
* ``verify``             bound suites (c1/c2/c3/lin146/ha/scaling) -> JSON,
                         exit 0 exactly when every checked instance passes
* ``construct``          dilation/compression/pair demos with certificates

All randomness flows through one seed, echoed into every output header;
identical configuration and seed reproduce outputs byte for byte.
``count --workers`` is still parsed and checked, but every count runs
in one process.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import chain, product
from operator import attrgetter
from pathlib import Path

from . import calculator, crossed, partitions, pperm, scaling, sofic, wordball
from .groupoid import (
    FiniteGroupoid,
    PartialBisection,
    cyclic_groupoid,
    full_identity,
    load_pmp,
    transitive_groupoid,
)
from .pperm import PartialPermutation
from .rng import SplitMix64
from .sofic import InfeasibleError, SAParams, SoficCandidate


class CliError(RuntimeError):
    pass


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad rational {text!r}: {exc}") from exc


def parse_tolerance(text: str) -> Fraction:
    delta = parse_fraction(text)
    if delta <= 0:
        raise CliError("delta must be positive")
    return delta


def parse_drange(text: str) -> list[int]:
    """Degree lists: ``4``, ``2..6``, ``2..10..2``, ``6..2..-2`` or
    ``50,100,200``; a range includes its end whichever way it steps, and
    a range of no degree is refused wherever it stands in the list."""
    out = []
    for chunk in text.split(","):
        try:
            ends = [int(end) for end in chunk.split("..")]
            if len(ends) == 1:
                degrees = ends
            elif len(ends) <= 3:  # range refuses a zero step with ValueError
                step = ends[2] if len(ends) == 3 else 1
                degrees = range(ends[0], ends[1] + (1 if step > 0 else -1), step)
            else:
                raise ValueError
        except ValueError:
            raise CliError(f"bad degree range {text!r}") from None
        if not degrees:
            raise CliError("empty degree range")
        out.extend(degrees)
    return out


def load_source_groupoid(text: str) -> FiniteGroupoid:
    """A finite groupoid from a .gpd path or a finite family descriptor;
    a groupoid file must be measure preserving."""
    if text.endswith(".gpd") or "/" in text and Path(text).exists():
        return load_pmp(text)
    system = wordball.parse_descriptor(text)
    if isinstance(system, wordball.CyclicGroup):
        return cyclic_groupoid(system.order)
    if isinstance(system, wordball.TableGroup):
        return system.groupoid
    raise CliError(f"source {text!r} has no finite groupoid model")


# most full-group generators a source may have
GENERATOR_CAP = 64


def full_group_generators(g: FiniteGroupoid):
    """Non-identity everywhere-defined bisections, the default verify set."""
    gens = []
    choices = [[a for a in range(g.n_arrows) if g.source[a] == e]
               for e in range(g.n_units)]
    for combo in product(*choices):
        rngs = [g.range_[a] for a in combo]
        if len(set(rngs)) != g.n_units:
            continue
        bis = PartialBisection(g, frozenset(combo))
        if bis != full_identity(g):
            gens.append(bis)
        if len(gens) > GENERATOR_CAP:
            raise InfeasibleError("full-group generating set", len(gens),
                                  "bisections", GENERATOR_CAP)
    return gens


def emit(path: str, text: str):
    if path in ("-", ""):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def config_echo(args, keys) -> str:
    cfg = {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}
    return json.dumps({k: str(v) for k, v in sorted(cfg.items())},
                      sort_keys=True, separators=(",", ":"))


def json_doc(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def error_json(message: str) -> str:
    return json.dumps({"error": message}, sort_keys=True) + "\n"


# -- calc -------------------------------------------------------------------------


def cmd_calc(args) -> int:
    value = calculator.evaluate_s(calculator.parse_expr(args.expr))
    print(value.value)
    if args.json:
        emit(args.json, json_doc(value.to_json_dict()))
    return 0


# -- count ------------------------------------------------------------------------


def check_radius(n: int):
    if n < 1:
        raise CliError(f"--n {n}: the ball radius must be >= 1")


def make_source(args):
    """The radius ``--n`` ball of ``--family`` or ``--source``, built once
    for every degree of the command."""
    check_radius(args.n)
    if args.family:
        system = wordball.parse_descriptor(args.family)
        return sofic.BallSource(wordball.ball(system, args.n))
    g = load_source_groupoid(args.source)
    return sofic.GroupoidSource(g, full_group_generators(g), args.n)


def restriction_positions(src) -> list[int]:
    """Positions of the generating set inside the ball (the default E)."""
    if src.is_group:
        ball, system = src.ball, src.ball.system
        return sorted({ball.index[system.reduce_word(((g, 1),))]
                       for g in system.generators}) or [ball.identity_index()]
    return sorted({src.position[f] for f in src.F}) or [0]


def cmd_count(args) -> int:
    if args.workers < 1:
        raise CliError(f"--workers {args.workers}: the worker count must be >= 1")
    if args.mc < 0:
        raise CliError(f"--mc {args.mc}: the trial count must be >= 1 (0 counts exactly)")
    if args.cap is None:  # per job: the parser is built once per process
        args.cap = sofic.DEFAULT_COUNT_CAP
    rows = []
    delta = parse_fraction(args.delta)
    degrees = parse_drange(args.d)
    source = make_source(args)
    E = restriction_positions(source)
    for d in degrees:
        params = SAParams(source, delta, d, mode=args.mode or "")
        if args.mc:
            est, err = sofic.monte_carlo_count(params, args.mc, args.seed)
            rows.append((d, delta, args.n, repr(est), repr(err), ""))
        else:
            count, count_e = sofic.count_SA(params, cap=args.cap, E=E)
            stat = sofic.statistic_from_count(count_e, d)
            rows.append((d, delta, args.n, count, count_e, repr(stat)))
    header = "estimate,stderr" if args.mc else "count,restricted_count"
    lines = ["# soficdim-csv 1",
             f"# seed={args.seed}",
             f"# config={config_echo(args, ('family', 'source', 'n', 'delta', 'd', 'mode', 'mc', 'cap'))}",
             f"d,delta,n,{header},statistic"]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    emit(args.out, "\n".join(lines) + "\n")
    return 0


# -- curve ------------------------------------------------------------------------


def cmd_curve(args) -> int:
    """``closed_form_count`` rows for each degree.  Its windows keep at
    most floor(delta*d) fixed points, while ``count`` keeps
    |k/d - tau| < delta strictly: ``zmod(2)`` at d = 5, delta = 1/5 prints
    15 here and 0 under ``count``."""
    delta = parse_fraction(args.delta)
    if delta < 0:
        raise CliError("delta must be nonnegative")
    lines = ["# soficdim-csv 1",
             f"# seed={args.seed}",
             f"# config={config_echo(args, ('m', 'd', 'delta'))}",
             "m,d,delta,count,statistic"]
    for d in parse_drange(args.d):
        count, stat = sofic.closed_form_statistic(args.m, d, delta)
        lines.append(f"{args.m},{d},{delta},{int_text(count)},{repr(stat)}")
    emit(args.out, "\n".join(lines) + "\n")
    return 0


def int_text(n: int) -> str:
    """Decimal text of an integer of any length.

    Lifts Python's int-to-str digit limit (4300 digits by default) for
    this one conversion and restores it afterwards.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return str(n)
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


# -- verify -----------------------------------------------------------------------


def hypothesis_members(ctx, delta: Fraction, d: int):
    """An iterator over the members at the context's hypothesis radius,
    each searched for when read; refuses a run that has none."""
    members = sofic.iter_SA_members(ctx.hypothesis_params(delta, d))
    first = next(members, None)
    if first is None:
        raise CliError(f"no members at d={d}, delta={delta}")
    return chain((first,), members)


def worst_entry(instances: int, reports) -> dict:
    """The JSON entry of a c1, c2 or c3 suite, decided by the first of
    its reports with the largest slack ratio."""
    worst = max(reports, key=attrgetter("slack_ratio"))
    return {"instances": instances, "passed": worst.passed,
            "worst": worst.to_json_dict()}


def run_suites(g: FiniteGroupoid, suites, d: int, delta: Fraction, seed: int,
               n: int, n_partitions: int, alphabet_size: int,
               instances: int) -> dict:
    """Run the requested suites; refuses a suite that would check nothing.

    Whatever the order of ``suites``, the run goes: the refusals of a
    ``--partitions``, ``--alphabet`` or ``--instances`` count below 1
    that a requested suite needs; c1; the tabled suites c2, c3, ha and
    lin146; scaling.  The members are enumerated once, by c1 or else by
    the tabled suites after lin146 refuses a projection universe with
    no disjoint pair.  So where a run has neither members nor a
    disjoint pair, lin146 without c1 is refused for its pairs and every
    other run for its members.

    The tabled suites check one ``Phi0Table`` per relabeling orbit of
    (member, drawn partition).  A table reads the pair only through the
    member's images on the model ball and the partition's ``block_of``,
    and every report built from it is a count or a sum over the points
    1..d whose witness names a psi, a projection, a pair, a letter or a
    ball index, never a point.  So two pairs that a permutation of the
    points carries onto each other give the same reports, and the pairs
    are visited member by member, draws in seed order, with a table
    built only for the first pair of each orbit
    (``ModelMember.relabeling_key``); repeated draws fall in one orbit.
    The output is what checking every pair gives: a later pair's reports
    equal its orbit's first, the worst c2/c3 report is the first largest,
    the pass flags and the worst gap do not change under a second copy,
    and a ``HypothesisError``, whose text may name a point, is raised at
    the first pair of its orbit, where checking every pair raises it.
    ``instances`` still counts every drawn partition of every member, and
    lin146's ``pairs`` every disjoint pair of each.
    """
    tabled = {"c2", "c3", "ha", "lin146"} & set(suites)
    if n_partitions < 1 and tabled:
        raise CliError(f"--partitions {n_partitions}: c2, c3, lin146 and ha "
                       "need at least one partition")
    if alphabet_size < 1 and tabled:
        raise CliError(f"--alphabet {alphabet_size}: c2, c3, lin146 and ha "
                       "need at least one letter")
    if instances < 1 and "scaling" in suites:
        raise CliError(f"--instances {instances}: the scaling suite needs "
                       "at least one instance")
    if "c1" in suites or tabled:
        ctx = partitions.LemmaContext(g, full_group_generators(g), n)
    out = {}
    members = None
    if "c1" in suites:
        members = list(hypothesis_members(ctx, delta, d))
        out["c1"] = worst_entry(len(members), [
            partitions.verify_lemma_c1(m, ctx, delta) for m in members])
    if tabled:
        model = partitions.CylinderModel(
            ctx, [Fraction(1, alphabet_size)] * alphabet_size)
        basis = partitions.span_basis(model)
        if "lin146" in suites and not model.universe.sum_pairs:
            raise CliError(f"--alphabet {alphabet_size}: the projection universe "
                           "holds no disjoint pair for lin146 to check")
        draws = [partitions.random_partition(d, model.alphabet, seed + i)
                 for i in range(n_partitions)]
        members = members or list(hypothesis_members(ctx, delta, d))
        checked = len(members) * n_partitions
        c2, c3 = [], []
        ha_pass = lin_pass = True
        worst_gap = -1.0
        orbits = set()
        for m in members:
            member = partitions.ModelMember(model, m)
            for part in draws:
                key = member.relabeling_key(part.block_of)
                if key in orbits:
                    continue
                orbits.add(key)
                table = partitions.Phi0Table(basis, member, part)
                if "c2" in suites:
                    c2.append(partitions.verify_lemma_c2(table, delta))
                if "c3" in suites:
                    c3.append(partitions.verify_lemma_c3_sweep(table, delta))
                if "ha" in suites or "lin146" in suites:
                    res = crossed.build_phi(table, delta)
                    if "ha" in suites:  # phi0's report feeds ha alone
                        ha_pass &= (crossed.build_phi0(table, delta).passed
                                    and res.v_ok and res.report.is_member)
                    if "lin146" in suites:
                        check = crossed.approx_sum_check(res.candidate, delta)
                        lin_pass &= check.passed
                        worst_gap = max(worst_gap, float(check.worst_gap))
        if "c2" in suites:
            out["c2"] = worst_entry(checked, c2)
        if "c3" in suites:
            out["c3"] = worst_entry(checked, c3)
        if "ha" in suites:
            out["ha"] = {"instances": checked, "passed": ha_pass}
        if "lin146" in suites:
            out["lin146"] = {"pairs": checked * len(model.universe.sum_pairs),
                             "passed": lin_pass,
                             "worst_gap": worst_gap,
                             "bound": float(check.bound)}
    if "scaling" in suites:
        out["scaling"] = run_scaling_suite(g, d, delta, seed, instances)
    return out


def binding_degree(cd: scaling.CornerData, delta: Fraction, d: int) -> int:
    """The least base degree from d on for a round trip through the datum.

    Expansion needs a degree that N - k divides, and the compression
    step back, which restricts to the base degree, needs it above
    1/delta.
    """
    base = max(d, int(1 / delta) + 1)
    if base % (cd.N - cd.k):
        base += (cd.N - cd.k) - base % (cd.N - cd.k)
    return base


def run_scaling_suite(g: FiniteGroupoid, d: int, delta: Fraction, seed: int,
                      instances: int) -> dict:
    """Round-trip one corner candidate per instance through the datum.

    Instance i keeps the points of {1..base} that its draw from
    ``SplitMix64(seed).spawn(i)`` does not drop, and expands the
    projection onto them with seed ``seed + i``.  An instance whose
    ``keep`` repeats an earlier one's is counted but not run again:

    * ``expand_sigma`` reads the labels of the candidate (its near-fixed
      sets take the smallest indices), so only an equal ``keep`` gives
      an equal input; the key is the exact tuple, not its size.
    * The expand seed only shuffles the targets of each new block A_i
      (i >= 1).  Two seeds give expanded candidates conjugate by a
      permutation pi that fixes A_0 = {1..base} pointwise.
      ``verify_membership`` reads fixed-point counts, disagreement
      counts and orthogonal sums, and its witnesses name source
      elements, not points, so both reports are equal.
    * The image of p lies in A_0, where pi is the identity, so
      restriction picks the same B inside A_0, and reindexing to B
      (which pi fixes, and whose complement pi maps to itself) gives the
      same corner candidate and report.

    So a repeated outcome equals the first, and neither ``passed`` (an
    AND) nor ``worst_round_trip`` (a max) can change.
    """
    cd = scaling.standard_corner(g, [0])
    src = cd.expansion_source(scaling.EXPAND_N)
    all_pass = True
    worst_round = 0.0
    base = binding_degree(cd, delta, d)
    seen = set()
    for i in range(instances):
        rng = SplitMix64(seed).spawn(i)
        # at most base points to drop, whatever delta
        drop = rng.below(max(1, min(int(delta * base), base + 1)))
        keep = tuple(sorted(set(range(1, base + 1)) - set(
            x + 1 for x in rng.choose_sorted(base, drop))))
        if keep in seen:
            continue
        seen.add(keep)
        images = [PartialPermutation.projection(base, keep) if b.arrows
                  else PartialPermutation.empty(base) for b in src.ball_elements]
        sigma = SoficCandidate(base, images)
        res = scaling.expand_sigma(sigma, cd, n=scaling.EXPAND_N, delta=delta,
                                   seed=seed + i)
        rr = scaling.restrict_sigma(res.candidate, cd, delta=delta)
        all_pass &= res.report.is_member and rr.report.is_member
        worst = max(pperm.uniform_distance(sigma.images[src.position[b]],
                                           rr.candidate.images[j])
                    for j, b in enumerate(rr.params.source.ball_elements))
        allowed = 3 * rr.delta_prime
        all_pass &= worst <= allowed
        worst_round = max(worst_round, float(worst))
    return {"instances": instances, "passed": bool(all_pass),
            "worst_round_trip": worst_round,
            "round_trip_bound": float(allowed)}


ALL_SUITES = ("c1", "c2", "c3", "lin146", "ha", "scaling")


def cmd_verify(args) -> int:
    check_radius(args.n)
    g = load_source_groupoid(args.source)
    suites = ALL_SUITES if args.suite == "all" else tuple(args.suite.split(","))
    for s in suites:
        if s not in ALL_SUITES:
            raise CliError(f"unknown suite {s!r}")
    delta = parse_tolerance(args.delta)
    results = run_suites(g, suites, args.d, delta, args.seed, args.n,
                         args.partitions, args.alphabet, args.instances)
    all_pass = all(v.get("passed", False) for v in results.values())
    doc = {
        "tool": "soficdim verify",
        "seed": args.seed,
        "config": json.loads(config_echo(
            args, ("source", "suite", "d", "delta", "n", "partitions",
                   "alphabet", "instances"))),
        "suites": results,
        "all_pass": all_pass,
    }
    emit(args.out, json_doc(doc))
    return 0 if all_pass else 1


# -- construct --------------------------------------------------------------------


def cmd_construct(args) -> int:
    delta = parse_tolerance(args.delta)
    g = transitive_groupoid(2)
    cd = scaling.standard_corner(g, [0])
    if args.d is None:
        args.d = binding_degree(cd, delta, 1) if args.what == "restrict" else 8
    doc = {"tool": "soficdim construct", "what": args.what, "seed": args.seed,
           "config": json.loads(config_echo(args, ("what", "d", "delta")))}
    if args.what in ("expand", "restrict"):
        src = cd.expansion_source(scaling.EXPAND_N)
        images = [PartialPermutation.identity(args.d) if b.arrows
                  else PartialPermutation.empty(args.d) for b in src.ball_elements]
        sigma = SoficCandidate(args.d, images)
        res = scaling.expand_sigma(sigma, cd, n=scaling.EXPAND_N, delta=delta,
                                   seed=args.seed)
        ident = res.params.source.position[full_identity(cd.ambient)]
        # every gap is at most 1 and membership is strict, so a
        # tolerance above 1 admits every candidate
        doc["expand"] = {"d_prime": res.d_prime,
                         "delta_prime": float(res.delta_prime),
                         "vacuous": res.delta_prime > 1,
                         "identity_image": res.candidate.images[ident].to_text(),
                         "certificate": res.report.to_json_dict()}
        if args.what == "restrict":
            rr = scaling.restrict_sigma(res.candidate, cd, delta=delta)
            doc["restrict"] = {"d_prime": rr.d_prime,
                               "delta_prime": float(rr.delta_prime),
                               "vacuous": rr.delta_prime > 1,
                               "certificate": rr.report.to_json_dict()}
    else:  # phi
        swap = [a for a in range(4) if g.source[a] != g.range_[a]]
        F = [PartialBisection(g, frozenset(swap))]
        ctx = partitions.LemmaContext(g, F, 1)
        model = partitions.CylinderModel(ctx, [Fraction(1, 2)] * 2)
        basis = partitions.span_basis(model)
        member = next(hypothesis_members(ctx, delta, args.d))
        part = partitions.random_partition(args.d, model.alphabet, args.seed)
        table = partitions.Phi0Table(
            basis, partitions.ModelMember(model, member), part)
        prep = crossed.build_phi0(table, delta)
        res = crossed.build_phi(table, delta)
        points = [[x for x in range(1, args.d + 1) if m >> x & 1]
                  for m in res.candidate.supports]
        letters = [PartialPermutation.projection(args.d, points[i]).to_text()
                   for i in model.universe.letter_index]
        doc["phi"] = {"phi0_properties": prep.to_json_dict(),
                      "v_fraction": float(res.v_fraction),
                      "letter_images": letters,
                      "certificate": res.report.to_json_dict()}
    emit(args.out, json_doc(doc))
    return 0


# -- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="soficdim",
        description="Exact counting workbench for sofic approximation sets")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calc", help="evaluate a groupoid expression")
    p.add_argument("expr")
    p.add_argument("--json", default="", help="write the JSON document here")
    p.set_defaults(func=cmd_calc)

    p = sub.add_parser("count", help="exhaustive or Monte Carlo member counts")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--family", help="zmod(m) | z | freeprod(...) | table(file)")
    src.add_argument("--source", help="groupoid file (.gpd)")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--delta", required=True)
    p.add_argument("--d", required=True, help="degree list, e.g. 2..6 or 4,8")
    p.add_argument("--mode", choices=("perms", "all"), default=None)
    p.add_argument("--mc", type=int, default=0, help="Monte Carlo trials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted and ignored: every count runs in one process")
    p.add_argument("--cap", type=int, default=None)  # see cmd_count
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("curve", help="closed-form cyclic statistic against d")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--delta", default="0")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("verify", help="run bound-certification suites")
    p.add_argument("--suite", default="all",
                   help="all or a comma list of c1,c2,c3,lin146,ha,scaling")
    p.add_argument("--source", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--partitions", type=int, default=5)
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--instances", type=int, default=5,
                   help="seeded instances for the scaling suite")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", help="construction demos with certificates")
    p.add_argument("--what", choices=("expand", "restrict", "phi"), required=True)
    p.add_argument("--d", type=int, default=None,
                   help="degree; default 8, and for restrict the least that binds")
    p.add_argument("--delta", default="1/10")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_construct)
    return ap


# built by the first ``main`` call, not at import, and reused after it
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, InfeasibleError, partitions.HypothesisError, ValueError,
            OSError) as exc:
        sys.stderr.write(error_json(str(exc)))
        return 2


if __name__ == "__main__":
    sys.exit(main())
