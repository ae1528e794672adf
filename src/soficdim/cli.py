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
identical configuration and seed reproduce outputs byte for byte,
independent of the worker count.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import calculator, crossed, partitions, pperm, scaling, sofic, wordball
from .groupoid import (
    FiniteGroupoid,
    PartialBisection,
    cyclic_groupoid,
    full_identity,
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


def parse_drange(text: str) -> list[int]:
    """Degree lists: ``4``, ``2..6``, ``2..10..2`` or ``50,100,200``."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            parts = chunk.split("..")
            if len(parts) == 2:
                lo, hi, step = int(parts[0]), int(parts[1]), 1
            elif len(parts) == 3:
                lo, hi, step = int(parts[0]), int(parts[1]), int(parts[2])
            else:
                raise CliError(f"bad degree range {text!r}")
            out.extend(range(lo, hi + 1, step))
        else:
            out.append(int(chunk))
    if not out:
        raise CliError("empty degree range")
    return out


def load_source_groupoid(text: str) -> FiniteGroupoid:
    """A finite groupoid from a .gpd path or a finite family descriptor."""
    if text.endswith(".gpd") or "/" in text and Path(text).exists():
        return FiniteGroupoid.load(text)
    system = wordball.parse_descriptor(text)
    if isinstance(system, wordball.CyclicGroup):
        return cyclic_groupoid(system.order)
    if isinstance(system, wordball.TableGroup):
        from .groupoid import group_groupoid
        return group_groupoid(system.table)
    raise CliError(f"source {text!r} has no finite groupoid model")


def full_group_generators(g: FiniteGroupoid, cap: int = 64):
    """Non-identity everywhere-defined bisections, the default verify set."""
    import itertools
    gens = []
    units = range(g.n_units)
    choices = []
    for e in units:
        choices.append([a for a in range(g.n_arrows) if g.source[a] == e])
    for combo in itertools.product(*choices):
        rngs = [g.range_[a] for a in combo]
        if len(set(rngs)) != g.n_units:
            continue
        bis = PartialBisection(g, frozenset(combo))
        if bis != full_identity(g):
            gens.append(bis)
        if len(gens) > cap:
            raise CliError(f"more than {cap} full-group generators; "
                           "pass an explicit generating set file")
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


def make_params(args, d: int) -> SAParams:
    delta = parse_fraction(args.delta)
    if args.family:
        system = wordball.parse_descriptor(args.family)
        ball = wordball.ball(system, None, args.n)
        return sofic.ball_params(ball, delta, d, mode=args.mode or "")
    g = load_source_groupoid(args.source)
    F = full_group_generators(g)
    return sofic.groupoid_params(g, F, args.n, delta, d, mode=args.mode or "")


def restriction_positions(params: SAParams) -> list[int]:
    """Positions of the generating set inside the ball (the default E)."""
    src = params.source
    if src.is_group:
        ball = src.ball
        out = []
        for gname in ball.gens:
            word = ball.system.reduce_word(((gname, 1),))
            out.append(ball.index[word])
        return sorted(set(out)) or [ball.identity_index()]
    positions = []
    index = {b: i for i, b in enumerate(src.ball_elements)}
    for f in src.F:
        positions.append(index[f])
    return sorted(set(positions)) or [0]


def cmd_count(args) -> int:
    rows = []
    delta = parse_fraction(args.delta)
    for d in parse_drange(args.d):
        params = make_params(args, d)
        E = restriction_positions(params)
        if args.mc:
            est, err = sofic.monte_carlo_count(params, args.mc, args.seed)
            rows.append((d, delta, args.n, repr(est), repr(err), ""))
        else:
            count, count_e = sofic.count_SA(params, cap=args.cap,
                                            workers=args.workers, E=E)
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
    delta = parse_fraction(args.delta)
    lines = ["# soficdim-csv 1",
             f"# seed={args.seed}",
             f"# config={config_echo(args, ('m', 'd', 'delta'))}",
             "m,d,delta,count,statistic"]
    for d in parse_drange(args.d):
        count, stat = sofic.closed_form_statistic(args.m, d, delta)
        lines.append(f"{args.m},{d},{delta},{count},{repr(stat)}")
    emit(args.out, "\n".join(lines) + "\n")
    return 0


# -- verify -----------------------------------------------------------------------


def run_suites(g: FiniteGroupoid, suites, d: int, delta: Fraction, seed: int,
               n: int, n_partitions: int, alphabet_size: int,
               instances: int) -> dict:
    F = full_group_generators(g)
    ctx = partitions.LemmaContext(g, F, n)
    out = {}
    members = None

    def get_members():
        nonlocal members
        if members is None:
            members = list(sofic.iter_SA_members(ctx.hypothesis_params(delta, d)))
        return members

    alphabet = [Fraction(1, alphabet_size)] * alphabet_size
    model = basis = None

    def get_model():
        nonlocal model, basis
        if model is None:
            model = partitions.CylinderModel(ctx, alphabet)
            basis = partitions.span_basis(model)
        return model, basis

    if "c1" in suites:
        worst = None
        for m in get_members():
            rep = partitions.verify_lemma_c1(m, F, n, delta, ctx, precheck=False)
            if worst is None or rep.slack_ratio > worst.slack_ratio:
                worst = rep
        out["c1"] = {
            "instances": len(get_members()),
            "passed": worst is None or worst.passed,
            "worst": worst.to_json_dict() if worst else None,
        }
    if "c2" in suites or "c3" in suites:
        mdl, bss = get_model()
        worst2 = worst3 = None
        checked = 0
        for m in get_members():
            for i in range(n_partitions):
                part = partitions.random_partition(d, alphabet, seed + i)
                checked += 1
                if "c2" in suites:
                    rep = partitions.verify_lemma_c2(m, part, F, n, delta, mdl,
                                                     precheck=False)
                    if worst2 is None or rep.slack_ratio > worst2.slack_ratio:
                        worst2 = rep
                if "c3" in suites:
                    rep = partitions.verify_lemma_c3_sweep(m, part, bss, delta,
                                                           precheck=False)
                    if worst3 is None or rep.slack_ratio > worst3.slack_ratio:
                        worst3 = rep
        if "c2" in suites:
            out["c2"] = {"instances": checked,
                         "passed": worst2 is None or worst2.passed,
                         "worst": worst2.to_json_dict() if worst2 else None}
        if "c3" in suites:
            out["c3"] = {"instances": checked,
                         "passed": worst3 is None or worst3.passed,
                         "worst": worst3.to_json_dict() if worst3 else None}
    if "ha" in suites or "lin146" in suites:
        mdl, bss = get_model()
        ha_pass = lin_pass = True
        ha_count = lin_count = 0
        worst_gap = -1.0
        params = crossed.HAParams(mdl, delta, d) if "lin146" in suites else None
        pairs = crossed.disjoint_pairs(params) if params else []
        for m in get_members():
            for i in range(n_partitions):
                part = partitions.random_partition(d, alphabet, seed + i)
                table, prep = crossed.build_phi0(m, part, bss, delta,
                                                 precheck=False)
                res = crossed.build_phi(table, m, bss, delta)
                if "ha" in suites:
                    ha_count += 1
                    ha_pass &= (prep.passed and res.v_ok and res.report.is_member)
                if "lin146" in suites:
                    for p1, p2 in pairs:
                        check = crossed.approx_sum_check(res.candidate, params,
                                                         p1, p2, precheck=False)
                        lin_count += 1
                        lin_pass &= check.passed
                        worst_gap = max(worst_gap, float(check.gap))
        if "ha" in suites:
            out["ha"] = {"instances": ha_count, "passed": ha_pass}
        if "lin146" in suites:
            out["lin146"] = {"pairs": lin_count, "passed": lin_pass,
                             "worst_gap": worst_gap,
                             "bound": float(146 * delta)}
    if "scaling" in suites:
        out["scaling"] = run_scaling_suite(g, d, delta, seed, instances)
    return out


def run_scaling_suite(g: FiniteGroupoid, d: int, delta: Fraction, seed: int,
                      instances: int) -> dict:
    cd = scaling.standard_corner(g, [0])
    F = scaling.corner_generating_set(cd)
    src = sofic.GroupoidSource(cd.corner, F, 4 * 5 + 5)
    all_pass = True
    worst_round = 0.0
    # the compression step needs floor(h d') > 1/delta; the round trip
    # restricts back to the base degree, so grow the base accordingly
    base = max(d, int(1 / delta) + 1)
    if base % (cd.N - cd.k):
        base += (cd.N - cd.k) - base % (cd.N - cd.k)
    for i in range(instances):
        rng = SplitMix64(seed).spawn(i)
        drop = rng.below(max(1, int(delta * base)))
        keep = sorted(set(range(1, base + 1)) - set(
            x + 1 for x in rng.choose_sorted(base, drop)))
        images = [PartialPermutation.projection(base, keep) if b.arrows
                  else PartialPermutation.empty(base) for b in src.ball_elements]
        sigma = SoficCandidate(base, images)
        res = scaling.expand_sigma(sigma, cd, F, n=5, delta=delta,
                                   gamma_choice="seeded", seed=seed + i)
        rr = scaling.restrict_sigma(res.candidate, cd, F, n=1, delta=delta)
        all_pass &= res.report.is_member and rr.report.is_member
        pos0 = {b: j for j, b in enumerate(src.ball_elements)}
        small = sofic.GroupoidSource(cd.corner, F, 1)
        worst = max(pperm.uniform_distance(sigma.images[pos0[b]],
                                           rr.candidate.images[j])
                    for j, b in enumerate(small.ball_elements))
        allowed = 3 * rr.delta_prime
        all_pass &= worst <= allowed
        worst_round = max(worst_round, float(worst))
    return {"instances": instances, "passed": bool(all_pass),
            "worst_round_trip": worst_round,
            "round_trip_bound": float(3 * (20 * delta / cd.h_p))}


ALL_SUITES = ("c1", "c2", "c3", "lin146", "ha", "scaling")


def cmd_verify(args) -> int:
    g = load_source_groupoid(args.source)
    suites = ALL_SUITES if args.suite == "all" else tuple(args.suite.split(","))
    for s in suites:
        if s not in ALL_SUITES:
            raise CliError(f"unknown suite {s!r}")
    delta = parse_fraction(args.delta)
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
    from .groupoid import transitive_groupoid
    delta = parse_fraction(args.delta)
    g = transitive_groupoid(2)
    doc = {"tool": "soficdim construct", "what": args.what, "seed": args.seed,
           "config": json.loads(config_echo(args, ("what", "d", "delta")))}
    if args.what in ("expand", "restrict"):
        cd = scaling.standard_corner(g, [0])
        F = scaling.corner_generating_set(cd)
        src = sofic.GroupoidSource(cd.corner, F, 25)
        images = [PartialPermutation.identity(args.d) if b.arrows
                  else PartialPermutation.empty(args.d) for b in src.ball_elements]
        sigma = SoficCandidate(args.d, images)
        res = scaling.expand_sigma(sigma, cd, F, n=5, delta=delta,
                                   gamma_choice="seeded", seed=args.seed)
        amb_ident = full_identity(cd.ambient)
        pos = {b: i for i, b in enumerate(res.params.source.ball_elements)}
        doc["expand"] = {"d_prime": res.d_prime,
                         "delta_prime": float(res.delta_prime),
                         "identity_image": res.candidate.images[pos[amb_ident]].to_text(),
                         "certificate": res.report.to_json_dict()}
        if args.what == "restrict":
            rr = scaling.restrict_sigma(res.candidate, cd, F, n=1, delta=delta)
            doc["restrict"] = {"d_prime": rr.d_prime,
                               "delta_prime": float(rr.delta_prime),
                               "certificate": rr.report.to_json_dict()}
    else:  # phi
        swap = [a for a in range(4) if g.source[a] != g.range_[a]]
        F = [PartialBisection(g, frozenset(swap))]
        ctx = partitions.LemmaContext(g, F, 1)
        model = partitions.CylinderModel(ctx, [Fraction(1, 2)] * 2)
        basis = partitions.span_basis(model)
        members = list(sofic.iter_SA_members(ctx.hypothesis_params(delta, args.d)))
        if not members:
            raise CliError(f"no members at d={args.d}, delta={delta}")
        part = partitions.random_partition(args.d, model.alphabet, args.seed)
        table, prep = crossed.build_phi0(members[0], part, basis, delta,
                                         precheck=False)
        res = crossed.build_phi(table, members[0], basis, delta)
        letters = [res.candidate.phi[i].to_text()
                   for i in res.params.universe.letter_index]
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
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cap", type=int, default=sofic.DEFAULT_COUNT_CAP)
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
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--delta", default="1/10")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_construct)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, InfeasibleError, calculator.ParseError,
            calculator.EvalError, partitions.HypothesisError,
            ValueError, OSError) as exc:
        sys.stderr.write(error_json(str(exc)))
        return 2


if __name__ == "__main__":
    sys.exit(main())
