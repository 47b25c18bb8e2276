"""Command-line interface.

Subcommands:
  analyze  -- hypercenter / intersection profile of one group for one class
  verify   -- run identity checks over a corpus; exit 1 on any asserted failure
  lattice  -- subgroup-lattice statistics for one group
"""

from __future__ import annotations

import argparse
import os
import sys

from . import config
from .checks import CHECKS, DEFAULT_SUITE, parse_partition, run_checks
from .corpus import build_corpus, load_corpus_file
from .errors import FlabError, OrderCapExceeded, SpecParseError
from .formations import format_formation, parse_formation
from .groups import make_group
from .hypercenter import hypercenter
from .intersections import (
    CYCLIC_PRIMARY,
    MAXIMAL,
    SYLOW,
    abnormal_maximal_intersection,
    f_maximal_intersection,
    f_maximal_normalizer_intersection,
    subnormalizer_intersection,
)
from .lattice import lattice_summary
from .report import render_report

_SIGMA = {"sylow": SYLOW, "cyclic": CYCLIC_PRIMARY, "maximal": MAXIMAL}
_CHECK_OPTIONS = ("formation", "partition", "sigma")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="profile one group under one class")
    p_analyze.add_argument("--group", required=True, help="group spec, e.g. 'S4' or 'sd(C5,C4,n0->n0^2)'")
    p_analyze.add_argument("--formation", default="N", help="class expression (default N)")
    p_analyze.add_argument("--sigma", choices=sorted(_SIGMA), default="sylow")

    p_verify = sub.add_parser("verify", help="run identity checks over a corpus")
    p_verify.add_argument("--check", default="all", help="check name or 'all'")
    p_verify.add_argument("--formation", help="class expression for parameterised checks")
    p_verify.add_argument("--partition", help="partition preset or blocks, e.g. '{2,3},{5}'")
    p_verify.add_argument("--sigma", choices=sorted(_SIGMA))
    p_verify.add_argument("--corpus", default="builtin", help="'builtin' or a corpus file path")
    p_verify.add_argument("--max-order", type=int, default=None)
    p_verify.add_argument("--format", choices=("table", "json"), default="table")

    p_lattice = sub.add_parser("lattice", help="subgroup-lattice statistics")
    p_lattice.add_argument("--group", required=True)
    return parser


def _cmd_analyze(args) -> int:
    G = make_group(args.group)
    F = parse_formation(args.formation)
    sigma = _SIGMA[args.sigma]
    rows = [
        ("hypercenter", hypercenter(F, G)),
        ("member-intersection", f_maximal_intersection(F, G)),
        ("normalizer-intersection", f_maximal_normalizer_intersection(F, G)),
        ("abnormal-maximal-intersection", abnormal_maximal_intersection(F, G)),
        (f"subnormalizer-intersection[{args.sigma}]", subnormalizer_intersection(F, sigma, G)),
    ]
    print(f"group {args.group}: order {G.order}, degree {G.degree}")
    print(f"class {format_formation(F)}")
    for label, ref in rows:
        fp = ",".join(map(str, ref.fingerprint[:12]))
        if ref.order > 12:
            fp += f",..({ref.order})"
        print(f"  {label:32s} order {ref.order:5d}  elements [{fp}]")
    return 0


class UsageError(FlabError):
    """Bad command-line input other than an expression: a setting or a path."""


def _default_max_order(args) -> int | None:
    """The corpus order bound from --max-order or FLAB_MAX_ORDER; refused outside 1..ORDER_CAP."""
    bound, source = args.max_order, "--max-order"
    if bound is None:
        env = os.environ.get("FLAB_MAX_ORDER")
        if not env:
            return None
        try:
            bound, source = int(env), "FLAB_MAX_ORDER"
        except ValueError:
            raise UsageError(f"FLAB_MAX_ORDER must be an integer, got {env!r}") from None
    if not 1 <= bound <= config.ORDER_CAP:
        raise UsageError(f"{source} must be between 1 and {config.ORDER_CAP}, got {bound}")
    return bound


def _cmd_verify(args) -> int:
    # parse every option before any group is built
    check = CHECKS.get(args.check)
    if check is None and args.check != "all":
        raise SpecParseError(f"unknown check {args.check!r}; choose from {sorted(CHECKS)} or 'all'")
    # a check takes exactly the options its registry entry reads; 'all' reads none
    reads = [name for name in _CHECK_OPTIONS if check and name in check.defaults]
    given = [f"--{name}" for name in _CHECK_OPTIONS if getattr(args, name) and name not in reads]
    if given:
        if args.check == "all":
            hint = "name a single check to set it"
        else:
            hint = "it reads " + (", ".join(f"--{name}" for name in reads) or "no options")
        raise UsageError(f"--check {args.check} takes no {', '.join(given)}; {hint}")
    params: dict = {}
    if args.formation:
        params["formation"] = parse_formation(args.formation)
    if args.partition:
        params["partition"] = parse_partition(args.partition)
    if args.sigma:
        params["sigma"] = _SIGMA[args.sigma]
    if check:
        check.configure(params)  # refuses values the check cannot run with
    max_order = _default_max_order(args)
    if args.corpus == "builtin":
        corpus = build_corpus(max_order)
    else:
        try:
            corpus = load_corpus_file(args.corpus, max_order)
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or "not a text file"
            raise UsageError(f"cannot read corpus file {args.corpus!r}: {reason}") from None
    failed = False
    configs = DEFAULT_SUITE if args.check == "all" else [(args.check, params)]
    for report in run_checks(configs, corpus):
        print(render_report(report, args.format))
        if args.format == "table":
            print()
        if not report.ok:
            failed = True
    return 1 if failed else 0


def _cmd_lattice(args) -> int:
    G = make_group(args.group)
    summary = lattice_summary(G)
    print(f"group {args.group}: order {summary['order']}")
    print(f"subgroups: {summary['subgroups']} in {summary['conjugacy_classes']} conjugacy classes")
    print("count by order:")
    for order, count in summary["by_order"].items():
        print(f"  {order:6d}: {count}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "lattice":
            return _cmd_lattice(args)
    except (SpecParseError, UsageError, OrderCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
