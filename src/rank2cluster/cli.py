"""Command-line front end: computation, sweeps, and verification.

Exit codes: 0 success or all checks passed, 1 a verified property failed,
2 usage error, 3 the computation was inconclusive (rigidity sampling,
interpolation holdout, or a budget guard stopped it).

Every subcommand accepts --json; the payload is
{"command": ..., "results": [...], "report": ...} with the report null
for plain computations.  Seeds come from --seed, then the RANK2_SEED
environment variable, then 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .ccmap import (
    BudgetExceeded,
    cc_polynomial,
    fold,
    object_for_index,
    verify_exchange_relation,
    verify_folding,
)
from .laurent import NotDivisible
from .quiver import (
    ModuleSpec,
    NotIntegral,
    NotPolynomial,
    NotRigid,
    euler_characteristic,
    kronecker_quiver,
)
from .rank2 import (
    SWEEP_CHECKS,
    ExchangeType,
    check_positivity_range,
    cluster_variable,
    detect_period,
    expand_in_cluster,
)
from .report import CheckReport

_INCONCLUSIVE = (NotRigid, NotPolynomial, NotIntegral, BudgetExceeded)


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _check_list(text: str) -> tuple[str, ...]:
    checks = tuple(x.strip() for x in text.split(",") if x.strip())
    for name in checks:
        if name not in SWEEP_CHECKS:
            raise argparse.ArgumentTypeError(
                f"unknown check {name!r}; choose from {','.join(SWEEP_CHECKS)}"
            )
    return checks


def _add_bc(p: argparse.ArgumentParser) -> None:
    p.add_argument("--b", type=int, required=True, help="left exchange exponent")
    p.add_argument("--c", type=int, required=True, help="right exchange exponent")


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: $RANK2_SEED or 0)")


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit a JSON payload instead of text")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rank2cluster",
        description="Exact rank-2 cluster variables and their quiver-Grassmannian characters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("var", help="cluster variable x_k in the seed cluster")
    _add_bc(p)
    p.add_argument("--k", type=int, required=True)
    _add_json(p)

    p = sub.add_parser("expand", help="x_k expanded in the cluster (x_m, x_{m+1})")
    _add_bc(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_json(p)

    p = sub.add_parser("sweep", help="positivity/Laurent checks over a (k, m) grid")
    _add_bc(p)
    p.add_argument("--k-min", type=int, default=-6)
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--m-min", type=int, default=-3)
    p.add_argument("--m-max", type=int, default=3)
    p.add_argument(
        "--check",
        type=_check_list,
        default=("laurent", "positivity"),
        help=f"comma-separated subset of {','.join(SWEEP_CHECKS)}",
    )
    p.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="checked between cells: later cells are reported inconclusive, "
        "but a cell started before the deadline runs to its end",
    )
    p.add_argument("--max-terms", type=int, default=None)
    _add_json(p)

    p = sub.add_parser("period", help="smallest period of the variable sequence")
    _add_bc(p)
    p.add_argument("--max", type=int, required=True)
    _add_json(p)

    p = sub.add_parser("ccmap", help="character of the object at index k")
    _add_bc(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--fold", action="store_true", help="also print the folded polynomial")
    _add_seed(p)
    _add_json(p)

    p = sub.add_parser("verify", help="folded characters against the recurrence")
    _add_bc(p)
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    _add_seed(p)
    _add_json(p)

    p = sub.add_parser("exchange", help="one multiplication triangle of an orbit")
    _add_bc(p)
    p.add_argument("--class", dest="orbit_class", choices=["v", "w"], required=True)
    p.add_argument("--s", type=int, required=True)
    _add_seed(p)
    _add_json(p)

    p = sub.add_parser("euler", help="Euler characteristic of one quiver Grassmannian")
    _add_bc(p)
    p.add_argument(
        "--module",
        choices=["Pv", "Pw", "Iv", "Iw", "Sv", "Sw", "generic"],
        required=True,
    )
    p.add_argument("--index", type=int, default=1, help="vertex subscript (ignored for generic)")
    p.add_argument("--dim", type=_int_list, default=None, help="dims d1,... (generic only)")
    p.add_argument("--sub", type=_int_list, required=True, help="submodule dims e1,...")
    _add_seed(p)
    _add_json(p)

    return parser


def _seed_of(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("RANK2_SEED", "0"))


def _emit(args: argparse.Namespace, results: list, report: CheckReport | None, text: str) -> None:
    if args.json:
        payload = {
            "command": args.command,
            "results": results,
            "report": report.to_dict() if report is not None else None,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _cmd_var(args: argparse.Namespace) -> int:
    p = cluster_variable(ExchangeType(args.b, args.c), args.k)
    _emit(args, [p.to_json_dict()], None, str(p))
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    p = expand_in_cluster(ExchangeType(args.b, args.c), args.k, args.m)
    _emit(args, [p.to_json_dict()], None, str(p))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    report = check_positivity_range(
        ExchangeType(args.b, args.c),
        args.k_min,
        args.k_max,
        args.m_min,
        args.m_max,
        checks=tuple(args.check),
        budget_seconds=args.budget_seconds,
        max_predicted_terms=args.max_terms,
    )
    _emit(args, [], report, report.summary())
    return report.exit_code()


def _cmd_period(args: argparse.Namespace) -> int:
    period = detect_period(ExchangeType(args.b, args.c), args.max)
    text = str(period) if period is not None else f"none <= {args.max}"
    _emit(args, [{"max_checked": args.max, "period": period}], None, text)
    return 0


def _cmd_ccmap(args: argparse.Namespace) -> int:
    seed = _seed_of(args)
    obj = object_for_index(args.b, args.c, args.k)
    Q = kronecker_quiver(args.b, args.c)
    X = cc_polynomial(Q, obj, seed=seed)
    results = [X.to_json_dict()]
    lines = [f"object: {obj.describe()}", f"X = {X}"]
    if args.fold:
        folded = fold(X, args.b, args.c)
        results.append(folded.to_json_dict())
        lines.append(f"pi(X) = {folded}")
    _emit(args, results, None, "\n".join(lines))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.k_min > args.k_max:
        raise ValueError("empty verification range")
    seed = _seed_of(args)
    report = CheckReport(
        f"folding vs recurrence at (b,c)=({args.b},{args.c}), "
        f"k in [{args.k_min},{args.k_max}]"
    )
    for k in range(args.k_min, args.k_max + 1):
        report.extend(verify_folding(args.b, args.c, k, seed=seed))
    _emit(args, [], report, report.summary())
    return report.exit_code()


def _cmd_exchange(args: argparse.Namespace) -> int:
    report = verify_exchange_relation(
        args.b, args.c, args.orbit_class, args.s, seed=_seed_of(args)
    )
    _emit(args, [], report, report.summary())
    return report.exit_code()


def _module_spec_for(args: argparse.Namespace) -> ModuleSpec:
    Q = kronecker_quiver(args.b, args.c)
    if args.module == "generic":
        if args.dim is None:
            raise ValueError("--dim is required for a generic module")
        return ModuleSpec(Q, "generic", dims=tuple(args.dim))
    if args.dim is not None:
        raise ValueError("--dim applies only to generic modules")
    kind = {"P": "projective", "I": "injective", "S": "simple"}[args.module[0]]
    vertex = f"{args.module[1]}{args.index}"
    return ModuleSpec(Q, kind, vertex=vertex)


def _cmd_euler(args: argparse.Namespace) -> int:
    spec = _module_spec_for(args)
    chi = euler_characteristic(spec, tuple(args.sub), seed=_seed_of(args))
    result = {
        "chi": chi,
        "dims": list(spec.dimension_vector),
        "e": list(args.sub),
        "module": args.module if args.module == "generic" else f"{args.module}{args.index}",
    }
    _emit(args, [result], None, str(chi))
    return 0


_COMMANDS = {
    "var": _cmd_var,
    "expand": _cmd_expand,
    "sweep": _cmd_sweep,
    "period": _cmd_period,
    "ccmap": _cmd_ccmap,
    "verify": _cmd_verify,
    "exchange": _cmd_exchange,
    "euler": _cmd_euler,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _INCONCLUSIVE as exc:
        print(f"inconclusive: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except NotDivisible as exc:
        print(f"FAIL: inexact division: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
