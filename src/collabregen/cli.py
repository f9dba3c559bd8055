"""Command-line surface: bound queries, curve sweeps, the exact-code demo,
cost tables, and scenario simulation.

Exit codes: 0 success, 1 usage error, 2 infeasible configuration,
3 repair or detection failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Optional, Sequence

from .capacity import (
    AdversaryKind,
    AdversaryProfile,
    GroupPartition,
    InfeasibleError,
    ParameterError,
    SystemParams,
    _budget,
    _capacity,
    fraction_str,
    mbr_point,
    mincut_single,
    msr_point,
    msr_selfish_bounds,
    polluted_collection_min_storage,
    repair_gamma,
)
from .exactcode import RepairFailureError, collaborative_repair, collect
from .gf import DecodeError
from .scenarios import (
    REFERENCE_COSTS,
    SCENARIO_NAMES,
    ScenarioConfig,
    build_demo_system,
    run_cost_scenario,
    simulate_generations,
    stats_to_csv,
)
from .tradeoff import (
    CSV_HEADER,
    SweepConfig,
    _check_tolerance,
    curve_to_csv,
    default_alpha_grid,
    sweep_curve,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _positive_fraction(text: str) -> Fraction:
    value = _fraction(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    try:
        _check_tolerance(value)
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _partition(text: str) -> GroupPartition:
    try:
        return GroupPartition(tuple(int(x) for x in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}") from exc


def _counts(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _add_system_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, required=True, help="repair fan-in")
    p.add_argument("--k", type=int, required=True, help="reconstruction degree")
    p.add_argument("--t", type=int, required=True, help="simultaneous repairs per batch")
    p.add_argument("--B", type=_positive_fraction, default=None, help="object size (default: k)")
    p.add_argument("--n", type=int, default=None, help="node count (default: d + t)")


# Each kind's (live count, per-group cap, total) flags.
_ADVERSARY_FLAGS = {"selfish": ("L0", "lmax", "Ltotal"), "polluting": ("B0", "bmax", "Btotal")}


def _add_adversary_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--adversary", choices=list(_ADVERSARY_FLAGS), default=None)
    p.add_argument("--L0", type=int, default=None, help="selfish nodes among live, per generation")
    p.add_argument("--lmax", type=int, default=None, help="max selfish newcomers per group")
    p.add_argument("--Ltotal", type=int, default=None, help="total selfish newcomers")
    p.add_argument("--B0", type=int, default=None, help="polluting nodes among live, per generation")
    p.add_argument("--bmax", type=int, default=None, help="max polluting newcomers per group")
    p.add_argument("--Btotal", type=int, default=None, help="total polluting newcomers")
    p.add_argument("--per-group", type=_counts, default=None,
                   help="concrete per-group adversary counts, comma separated")


def _build_params(args) -> SystemParams:
    B = args.B if args.B is not None else Fraction(args.k)
    return SystemParams.for_repair_network(
        k=args.k,
        d=args.d,
        t=args.t,
        B=B,
        n=args.n,
        alpha=getattr(args, "alpha", None) or 0,
        beta=getattr(args, "beta", None) or 0,
        beta_prime=getattr(args, "beta_prime", None) or 0,
    )


def _build_adversary(args) -> Optional[AdversaryProfile]:
    if args.adversary is None:
        for flag in (*sum(_ADVERSARY_FLAGS.values(), ()), "per_group"):
            if getattr(args, flag) is not None:
                raise _UsageError(f"--{flag.replace('_', '-')} requires --adversary")
        return None
    own = _ADVERSARY_FLAGS[args.adversary]
    for kind, flags in _ADVERSARY_FLAGS.items():
        if kind != args.adversary and any(getattr(args, flag) is not None for flag in flags):
            names = "/".join(f"--{flag}" for flag in own)
            raise _UsageError(f"use {names} with --adversary {args.adversary}")
    among, cap, total = (getattr(args, flag) for flag in own)
    return AdversaryProfile(
        AdversaryKind(args.adversary),
        among_live=among or 0,
        per_group=args.per_group,
        per_group_max=cap,
        total=total,
    )


def _params_doc(p: SystemParams) -> dict:
    return {
        "n": p.n,
        "k": p.k,
        "d": p.d,
        "t": p.t,
        "B": fraction_str(p.B),
        "alpha": fraction_str(p.alpha),
        "beta": fraction_str(p.beta),
        "beta_prime": fraction_str(p.beta_prime),
        "unit_B_over_k": fraction_str(p.unit),
    }


def _emit(value: Fraction, unit: Fraction, raw: bool) -> str:
    return fraction_str(value if raw else value / unit)


def _cmd_bounds(args) -> int:
    p = _build_params(args)
    adv = _build_adversary(args)
    # the live count and the partition, checked whichever sections are asked for
    _budget(p.d, p.t, adv)
    cut = None if args.partition is None else _capacity(p, args.partition, adv)
    if args.point == "selfish-msr" and (adv is None or adv.kind is not AdversaryKind.SELFISH):
        raise _UsageError("--point selfish-msr requires --adversary selfish")
    unit = p.unit
    raw = args.raw
    doc: dict = {"params": _params_doc(p), "output_units": "raw" if raw else "B/k"}

    sections = {args.point} if args.point else {"msr", "mbr", "gamma", "mincut", "adversary"}

    for name, point in (("msr", msr_point), ("mbr", mbr_point)):
        if name in sections:
            a, b, bp = point(p)
            doc[name] = {
                "alpha": _emit(a, unit, raw),
                "beta": _emit(b, unit, raw),
                "beta_prime": _emit(bp, unit, raw),
                "gamma": _emit(repair_gamma(p.with_point(a, b, bp)), unit, raw),
            }
    if "gamma" in sections and (p.beta or p.beta_prime):
        doc["gamma"] = _emit(repair_gamma(p), unit, raw)
    if "mincut" in sections and p.alpha:
        doc["mincut_single"] = _emit(mincut_single(p), unit, raw)
        if cut is not None:
            doc["mincut_collab" if adv is None else f"capacity_{adv.kind.value}"] = _emit(
                cut, unit, raw
            )
    if ("adversary" in sections or args.point == "selfish-msr") and adv is not None:
        if adv.kind is AdversaryKind.SELFISH:
            bounds = msr_selfish_bounds(p, adv)
            doc["selfish_msr"] = {
                "beta_exact": (
                    _emit(bounds.beta_exact, unit, raw)
                    if bounds.beta_exact is not None
                    else None
                ),
                "beta_range": [
                    _emit(bounds.beta_min, unit, raw),
                    _emit(bounds.beta_max, unit, raw),
                ],
                "beta_prime_range": [
                    _emit(bounds.beta_prime_min, unit, raw),
                    _emit(bounds.beta_prime_max, unit, raw),
                ],
                "exact_formula_applies": bounds.exact_formula_applies,
            }
        else:
            doc["polluted_collection_min_storage"] = _emit(
                polluted_collection_min_storage(p, adv.among_live), unit, raw
            )
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_tradeoff(args) -> int:
    p = _build_params(args)
    adv = _build_adversary(args)
    grid = default_alpha_grid(
        p, points=args.alpha_points, alpha_min=args.alpha_min, alpha_max=args.alpha_max
    )
    cfg = SweepConfig(
        params=p,
        adversary=adv,
        alpha_grid=grid,
        fixed_g=args.fixed_g,
        tolerance=args.tol,
        characteristic_range=not args.free_range,
    )
    print(f"# params: {_params_doc(p)} adversary={args.adversary} "
          f"fixed_g={args.fixed_g} points={args.alpha_points} tol={args.tol}",
          file=sys.stderr)
    points = sweep_curve(cfg)
    if not points:
        raise InfeasibleError("no feasible storage level in the requested grid")
    _write_text(args.out, curve_to_csv(points))
    return 0


def _write_text(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_exact_demo(args) -> int:
    code, obj, blocks = build_demo_system(seed=args.seed)
    print(f"exact collaborative repair demo: ({code.n},{code.kappa}) code over "
          f"GF(2^{code.field.m}), t={obj.t}, object seed {args.seed}")
    print("generator matrix (rows of point powers, entries as bit values):")
    for row in code.generator_matrix().int_rows():
        print("  " + " ".join(str(v) for v in row))
    print("object rows: " + str([[e.value for e in obj.row(r)] for r in range(obj.t)]))

    subsets = list(combinations(blocks, code.kappa))
    ok = all(collect(list(s)).pieces == obj.pieces for s in subsets)
    print(f"collection: all {len(subsets)} choices of {code.kappa} nodes "
          f"recover the object: {'OK' if ok else 'FAILED'}")
    if not ok:
        return 3

    failed = [b.node_id for b in blocks[-obj.t:]]
    live = blocks[: len(blocks) - obj.t]
    new_blocks, report = collaborative_repair(code, live, failed, seed=args.seed)
    truth = {b.node_id: b.payload for b in blocks}
    identical = all(nb.payload == truth[nb.node_id] for nb in new_blocks)
    downloads = sum(sum(d.values()) for d in report.downloads.values())
    exchanged = sum(report.exchanges.values())
    lost = obj.t * obj.t
    print(f"repair of nodes {failed} from {len(live)} live nodes:")
    print(f"  download phase: {downloads} pieces ({code.kappa} per newcomer, one per contact)")
    print(f"  collaboration phase: {exchanged} pieces (one per newcomer pair)")
    print(f"  total: {downloads + exchanged} units moved to replenish {lost} lost units")
    print(f"  repaired blocks bit-identical: {'OK' if identical else 'FAILED'}")
    print(f"normalized costs: beta={fraction_str(report.beta_av)} "
          f"beta_prime={fraction_str(report.beta_prime)} gamma={fraction_str(report.gamma)}")
    return 0 if identical else 3


def _cmd_simulate(args) -> int:
    cfg = ScenarioConfig.from_json(Path(args.config).read_text())
    print(f"# config: {args.config} seed={cfg.seed} generations={cfg.generations} "
          f"mitigation={cfg.mitigation.value}", file=sys.stderr)
    stats = simulate_generations(cfg)
    _write_text(args.out, stats_to_csv(stats))
    return 0


def _cmd_tables(args) -> int:
    print(f"per-repair costs on the (7,3)/GF(8) system, t=2, alpha=1 unit "
          f"(normalized by B/k), object seed {args.seed}")
    header = f"{'scenario':22} {'beta':>8} {'beta_pr':>8} {'gamma':>8} {'d':>4}   reference (beta, beta', gamma, d)"
    print(header)
    all_match = True
    for name in SCENARIO_NAMES:
        record = run_cost_scenario(name, seed=args.seed)
        want = REFERENCE_COSTS[name]
        match = record == want
        all_match &= match
        beta, bp, gamma, d = record.as_strings()
        wb, wbp, wg, wd = want.as_strings()
        flag = "ok" if match else "MISMATCH"
        print(f"{name:22} {beta:>8} {bp:>8} {gamma:>8} {d:>4}   ({wb}, {wbp}, {wg}, d={wd})  {flag}")
    return 0 if all_match else 3


def build_parser() -> _Parser:
    parser = _Parser(prog="collabregen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="exact capacity bounds and operating points")
    _add_system_flags(p)
    p.add_argument("--alpha", type=_fraction, default=None)
    p.add_argument("--beta", type=_fraction, default=None)
    p.add_argument("--beta-prime", dest="beta_prime", type=_fraction, default=None)
    p.add_argument("--partition", type=_partition, default=None,
                   help="collector group sizes, comma separated")
    p.add_argument("--point", choices=["msr", "mbr", "selfish-msr"], default=None)
    _add_adversary_flags(p)
    p.add_argument("--raw", action="store_true", help="emit raw rationals instead of B/k units")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("tradeoff", help="storage/bandwidth trade-off curve as CSV")
    _add_system_flags(p)
    _add_adversary_flags(p)
    p.add_argument("--fixed-g", dest="fixed_g", type=int, default=None,
                   help="fix the collector partition to g single-node groups")
    p.add_argument("--alpha-points", dest="alpha_points", type=int, default=64)
    p.add_argument("--alpha-min", dest="alpha_min", type=_fraction, default=None)
    p.add_argument("--alpha-max", dest="alpha_max", type=_fraction, default=None)
    p.add_argument("--tol", type=_tolerance, default=1e-4)
    p.add_argument("--free-range", dest="free_range", action="store_true",
                   help="search beta, beta' >= 0 even with --fixed-g")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_tradeoff)

    p = sub.add_parser("exact-demo", help="replay the (7,3)/GF(8) repair walkthrough")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_exact_demo)

    p = sub.add_parser("simulate", help="run a multi-generation scenario from JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("tables", help="measure all six cost scenarios")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_tables)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (RepairFailureError, DecodeError) as exc:
        print(f"repair failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
