"""Command-line front end: computation, sweeps, and verification.

Exit codes: 0 success or all checks passed, 1 a verified property failed,
2 usage error, 3 the computation was inconclusive (a rigidity test,
interpolation holdout, a budget or size guard, or an exchange step the
packed kernel could not certify stopped it).

Every subcommand accepts --json; the payload is
{"command": ..., "results": [...], "report": ...} with the report null
for plain computations.  The subcommands ccmap and euler take --seed
(default 0); it reaches only generic modules off the orbits of projectives
and injectives, which are sampled, so it changes no object that ccmap names.

A call pays only for the answer it prints: the argument parser is built
once per process, on the first call, and with --json no text rendering
(polynomial strings, object descriptions, report summaries) is done; the
JSON bytes are those of json.dumps(payload, sort_keys=True).  A plain
computation (var, expand, period, ccmap, euler) that exits 0 is kept as
the text it printed, keyed by its argv, when every polynomial in it has at
most rank2._CACHE_TERM_LIMIT terms, so a repeated argv is one lookup and
one print.  Reports (sweep, verify, exchange) and exits 1, 2 and 3 are
computed again on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, Sequence

from . import rank2
from .ccmap import (
    cc_polynomial,
    fold,
    object_for_index,
    verify_exchange_relation,
    verify_folding,
)
from .laurent import LaurentPolynomial
from .quiver import ModuleSpec, euler_characteristic, kronecker_quiver
from .rank2 import (
    SWEEP_CHECKS,
    ExchangeType,
    check_positivity_range,
    cluster_variable,
    detect_period,
    expand_in_cluster,
)
from .report import CheckReport, Inconclusive


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _check_list(text: str) -> tuple[str, ...]:
    checks = tuple(x.strip() for x in text.split(",") if x.strip())
    if not checks:
        raise argparse.ArgumentTypeError(
            f"no checks selected; choose from {','.join(SWEEP_CHECKS)}"
        )
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
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit a JSON payload instead of text")


@functools.cache
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
        help="checked between cells and before each block of an exchange step's "
        "division: later cells and the cut cell are reported inconclusive; a cell "
        "overruns by at most one power, one reciprocal and one block",
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
    _add_json(p)

    p = sub.add_parser("exchange", help="one multiplication triangle of an orbit")
    _add_bc(p)
    p.add_argument("--class", dest="orbit_class", choices=["v", "w"], required=True)
    p.add_argument("--s", type=int, required=True)
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


def _render(
    args: argparse.Namespace,
    results: list,
    report: CheckReport | None,
    text: Callable[[], str],
) -> str:
    # results are polynomials or JSON-ready dicts; the envelope is written
    # as text, with each polynomial's JSON written directly by to_json
    if not args.json:
        return text()
    items = ", ".join(
        r.to_json() if isinstance(r, LaurentPolynomial) else json.dumps(r, sort_keys=True)
        for r in results
    )
    report_text = json.dumps(report.to_dict() if report is not None else None, sort_keys=True)
    command = json.dumps(args.command)
    return f'{{"command": {command}, "report": {report_text}, "results": [{items}]}}'


def _cmd_var(args: argparse.Namespace) -> tuple:
    p = cluster_variable(ExchangeType(args.b, args.c), args.k)
    return [p], None, p.__str__


def _cmd_expand(args: argparse.Namespace) -> tuple:
    p = expand_in_cluster(ExchangeType(args.b, args.c), args.k, args.m)
    return [p], None, p.__str__


def _cmd_sweep(args: argparse.Namespace) -> tuple:
    report = check_positivity_range(
        ExchangeType(args.b, args.c),
        args.k_min,
        args.k_max,
        args.m_min,
        args.m_max,
        checks=args.check,
        budget_seconds=args.budget_seconds,
        max_predicted_terms=args.max_terms,
    )
    return [], report, report.summary


def _cmd_period(args: argparse.Namespace) -> tuple:
    period = detect_period(ExchangeType(args.b, args.c), args.max)
    return (
        [{"max_checked": args.max, "period": period}],
        None,
        lambda: str(period) if period is not None else f"none <= {args.max}",
    )


def _cmd_ccmap(args: argparse.Namespace) -> tuple:
    obj = object_for_index(args.b, args.c, args.k)
    Q = kronecker_quiver(args.b, args.c)
    X = cc_polynomial(Q, obj, seed=args.seed)
    polys = [X] + ([fold(X, args.b, args.c)] if args.fold else [])

    def text() -> str:
        lines = [f"object: {obj.describe()}", f"X = {X}"]
        lines += [f"pi(X) = {folded}" for folded in polys[1:]]
        return "\n".join(lines)

    return polys, None, text


def _cmd_verify(args: argparse.Namespace) -> tuple:
    if args.k_min > args.k_max:
        raise ValueError("empty verification range")
    report = CheckReport(
        f"folding vs recurrence at (b,c)=({args.b},{args.c}), "
        f"k in [{args.k_min},{args.k_max}]"
    )
    for k in range(args.k_min, args.k_max + 1):
        report.extend(verify_folding(args.b, args.c, k))
    return [], report, report.summary


def _cmd_exchange(args: argparse.Namespace) -> tuple:
    report = verify_exchange_relation(args.b, args.c, args.orbit_class, args.s)
    return [], report, report.summary


def _module_spec_for(args: argparse.Namespace) -> ModuleSpec:
    Q = kronecker_quiver(args.b, args.c)
    if args.module == "generic":
        if args.dim is None:
            raise ValueError("--dim is required for a generic module")
        return ModuleSpec(Q, "generic", dims=args.dim)
    if args.dim is not None:
        raise ValueError("--dim applies only to generic modules")
    kind = {"P": "projective", "I": "injective", "S": "simple"}[args.module[0]]
    vertex = f"{args.module[1]}{args.index}"
    return ModuleSpec(Q, kind, vertex=vertex)


def _cmd_euler(args: argparse.Namespace) -> tuple:
    spec = _module_spec_for(args)
    chi = euler_characteristic(spec, args.sub, seed=args.seed)
    result = {
        "chi": chi,
        "dims": list(spec.dimension_vector),
        "e": list(args.sub),
        "module": args.module if args.module == "generic" else f"{args.module}{args.index}",
    }
    return [result], None, lambda: str(chi)


# each command returns (results, report, text): the --json results, the
# report (None for a plain computation) and the text form, rendered lazily
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


# argv -> the text a plain computation printed; at most 1024 are kept, the
# oldest dropped first (a dict keeps insertion order)
_ANSWERS: dict[tuple[str, ...], str] = {}


def main(argv: Sequence[str] | None = None) -> int:
    key = tuple(sys.argv[1:] if argv is None else argv)
    answer = _ANSWERS.get(key)
    if answer is not None:
        print(answer)
        return 0
    args = _build_parser().parse_args(key)
    try:
        results, report, text = _COMMANDS[args.command](args)
        answer = _render(args, results, report, text)
    except Inconclusive as exc:
        print(f"inconclusive: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its message: print it unquoted
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"usage error: {message}", file=sys.stderr)
        return 2
    print(answer)
    if report is not None:
        return report.exit_code()
    limit = rank2._CACHE_TERM_LIMIT
    if all(len(r) <= limit for r in results if isinstance(r, LaurentPolynomial)):
        if len(_ANSWERS) >= 1024:
            del _ANSWERS[next(iter(_ANSWERS))]
        _ANSWERS[key] = answer
    return 0


if __name__ == "__main__":
    sys.exit(main())
