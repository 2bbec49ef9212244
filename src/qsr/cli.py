"""Command-line front end.

Subcommands:

    qsr analyze      --builtin pc1 | --spec FILE [--format text|json] [--jobs N]
    qsr closure      --builtin pc1 --network FILE [--format text|json]
    qsr consistency  --builtin pc1 --network FILE [--format text|json]
    qsr model-check  --builtin pc1 --model FILE [--network FILE] [--budget N]
    qsr gen          --builtin pc1 --vars N --density D [--seed N] [--labels uniform|singletons]

Exit codes: 0 success/consistent/closed, 1 inconsistent (or no solution),
2 usage or parse error, 3 undecided (closed but completeness unknown).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import axioms, registry
from .closure import a_closure
from .core import CalculusError, CalculusSpec
from .models import (
    BudgetExceededError,
    brute_force_solve,
    check_jepd,
    check_partition_scheme,
    check_seriality,
    classify_operation,
    load_model,
)
from .network import NetworkError, load_network, random_network
from .registry import SpecParseError
from .search import Verdict, decide

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3


class CliError(Exception):
    """Usage-level failure mapped to exit code 2."""


def _load_calculus(args: argparse.Namespace) -> CalculusSpec:
    given = [bool(args.builtin), bool(args.spec), bool(getattr(args, "spec_path", None))]
    if sum(given) != 1:
        raise CliError("exactly one of --builtin NAME, --spec PATH or a spec path is required")
    if args.builtin:
        try:
            return registry.builtin(args.builtin)
        except KeyError as exc:
            raise CliError(str(exc.args[0])) from None
    path = args.spec or args.spec_path
    try:
        return registry.load_spec(path)
    except OSError as exc:
        raise CliError(f"cannot read calculus spec: {exc}") from None
    except SpecParseError as exc:
        raise CliError(f"parse error in {path}: {exc}") from None


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, ensure_ascii=False))
    else:
        print(text)


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise CliError("--jobs must be at least 1")
    calc = _load_calculus(args)
    report = axioms.classify(calc, jobs=args.jobs)
    findings = registry.validate(calc)

    flags = calc.flags
    lines = [f"calculus: {calc.name} ({len(calc.symbols)} base relations)"]
    lines.append(f"classification: {report.classification.value}")
    lines.append(f"engine flags: R7 {_yn(flags.ra7_holds)}, R9 {_yn(flags.ra9_holds)}, "
                 f"universal absorbs {_yn(flags.universal_absorbs)}")
    if report.all_main_hold():
        if all(report.records[a].applicable for a in axioms.MAIN_AXIOMS):
            lines.append("all axioms hold")
        else:
            lines.append("all applicable axioms hold")
    lines.append(f"{'axiom':8} {'holds':8} {'violations':>10} {'universe':>9} {'%':>8}")
    for aid in axioms.MAIN_AXIOMS:
        rec = report.records[aid]
        holds = "n/a" if rec.holds is None else ("yes" if rec.holds else "NO")
        lines.append(
            f"{aid:8} {holds:8} {rec.violations:>10} {rec.universe:>9} {rec.percentage:>8.2f}"
        )
        if rec.holds is False and rec.examples:
            ex = rec.examples[0]
            lines.append(
                f"         e.g. ({', '.join(ex.operands)}): "
                f"({' '.join(ex.lhs)}) vs ({' '.join(ex.rhs)})"
            )
    sides = sorted(report.violated_sides())
    if sides:
        lines.append("one-sided weakenings violated: " + ", ".join(sides))
    for f in findings:
        lines.append(f"finding [{f.kind}]: {f.message}")

    payload = report.to_json_dict()
    payload["flags"] = {"ra7_holds": flags.ra7_holds, "ra9_holds": flags.ra9_holds,
                        "universal_absorbs": flags.universal_absorbs}
    payload["findings"] = [{"kind": f.kind, "message": f.message} for f in findings]
    payload["violated_sides"] = sides
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_closure(args: argparse.Namespace) -> int:
    calc = _load_calculus(args)
    net = load_network(args.network, calc)
    out = a_closure(net)
    stats = f"revisions: {out.revisions}, queue pops: {out.queue_pops}"
    counts = {"revisions": out.revisions, "queue_pops": out.queue_pops}
    if not out.closed:
        pair = out.empty_pair or ("?", "?")
        payload = {"status": "inconsistent", "empty_pair": list(pair), **counts}
        _emit(args, payload, f"inconsistent: empty relation between {pair[0]} and {pair[1]}\n{stats}")
        return EXIT_INCONSISTENT
    payload = {"status": "closed", **counts, "network": out.network.to_json_dict()}
    _emit(args, payload, out.network.to_text().rstrip() + "\n" + stats)
    return EXIT_OK


def cmd_consistency(args: argparse.Namespace) -> int:
    calc = _load_calculus(args)
    net = load_network(args.network, calc)
    decision = decide(net)
    payload = {"verdict": decision.verdict.value, "nodes_explored": decision.nodes_explored}
    text = f"verdict: {decision.verdict.value} (nodes explored: {decision.nodes_explored})"
    if decision.witness is not None:
        payload["witness"] = decision.witness.to_json_dict()
        text += "\nwitness:\n" + decision.witness.to_text().rstrip()
    _emit(args, payload, text)
    if decision.verdict is Verdict.CONSISTENT:
        return EXIT_OK
    if decision.verdict is Verdict.INCONSISTENT:
        return EXIT_INCONSISTENT
    return EXIT_UNDECIDED


def cmd_model_check(args: argparse.Namespace) -> int:
    calc = _load_calculus(args)
    model = load_model(args.model, calc)
    jepd = check_jepd(model)
    lines = [f"model: {model.name or args.model} over {len(model.universe)} elements"]
    payload: dict = {
        "model": model.name,
        "jointly_exhaustive": jepd.jointly_exhaustive,
        "pairwise_disjoint": jepd.pairwise_disjoint,
    }
    lines.append(f"jointly exhaustive: {_yn(jepd.jointly_exhaustive)}"
                 + (f" (uncovered: {jepd.uncovered[:5]})" if jepd.uncovered else ""))
    lines.append(f"pairwise disjoint: {_yn(jepd.pairwise_disjoint)}"
                 + (f" (multiply covered: {jepd.multiply_covered[:5]})" if jepd.multiply_covered else ""))

    if jepd.certified:
        scheme = check_partition_scheme(model)
        payload["has_identity"] = scheme.has_identity
        payload["converse_closed"] = scheme.converse_closed
        lines.append(f"has identity: {_yn(scheme.has_identity)}"
                     + (" (as a base relation)" if scheme.has_identity_base else
                        f" (as composite {list(scheme.identity_composite or ())})"
                        if scheme.has_identity else ""))
        lines.append(f"converse closed: {_yn(scheme.converse_closed)}")
        serial = check_seriality(model)
        payload["serial"] = serial
        lines.append("serial base relations: "
                     + (" ".join(s for s, ok in serial.items() if ok) or "(none)"))
        for which in ("converse", "composition"):
            grading = classify_operation(model, calc, which)
            summary, detail = _strength_summary(grading)
            payload[which] = {
                "summary": summary,
                "cells": {" ".join(k): v.value for k, v in grading.cells.items()},
            }
            lines.append(f"{which}: {summary}" + (f" at {detail}" if detail else ""))
            if not grading.is_calculus_under_model:
                lines.append(f"  NOT a calculus under this model: unsound at "
                             f"{[' '.join(c) for c in grading.unsound_cells]}")
    else:
        lines.append("partition-scheme and strength checks skipped (model is not JEPD)")

    code = EXIT_OK
    if args.network:
        net = load_network(args.network, calc)
        try:
            brute = brute_force_solve(net, model, budget=args.budget)
        except BudgetExceededError as exc:
            raise CliError(str(exc)) from None
        if brute is None:
            lines.append("no solution")
            payload["solution"] = None
            code = EXIT_INCONSISTENT
        else:
            solution = {v: brute[v] for v in net.var_names}
            lines.append("solution: " + " ".join(f"{v}={e}" for v, e in solution.items()))
            payload["solution"] = solution

    _emit(args, payload, "\n".join(lines))
    return code


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _strength_summary(grading) -> tuple[str, str]:
    from .models import CellStrength

    if not grading.is_calculus_under_model:
        return "UNSOUND", ", ".join(" ".join(c) for c in grading.unsound_cells[:3])
    if grading.strong:
        return "strong", ""
    if grading.weak:
        cells = [c for c, v in grading.cells.items() if v is CellStrength.WEAK]
        return "weak, not strong", ", ".join("(" + " ".join(c) + ")" for c in cells[:3])
    cells = [c for c, v in grading.cells.items() if v is CellStrength.ABSTRACT_ONLY]
    return "abstract, not weak", ", ".join("(" + " ".join(c) + ")" for c in cells[:3])


def cmd_gen(args: argparse.Namespace) -> int:
    calc = _load_calculus(args)
    net = random_network(calc, args.vars, args.density, label_size=args.labels, seed=args.seed)
    sys.stdout.write(net.to_text())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsr", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_calc_opts(p: argparse.ArgumentParser, positional_spec: bool = False) -> None:
        p.add_argument("--builtin", help="name of a builtin calculus")
        p.add_argument("--spec", help="path to a calculus spec file")
        if positional_spec:
            p.add_argument("spec_path", nargs="?", help="calculus spec file (same as --spec)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("analyze", help="axiom audit and algebra classification")
    add_calc_opts(p, positional_spec=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the audit (at most one per axiom); slower "
                        "than 1 at every size measured, kept only while the benchmark times it")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("closure", help="algebraic closure of a network")
    add_calc_opts(p)
    p.add_argument("--network", required=True)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("consistency", help="decide consistency by refinement search")
    add_calc_opts(p)
    p.add_argument("--network", required=True)
    p.set_defaults(func=cmd_consistency)

    p = sub.add_parser("model-check", help="ground a calculus in a finite model")
    add_calc_opts(p)
    p.add_argument("--model", required=True)
    p.add_argument("--network", help="optionally brute-force this network over the model")
    p.add_argument("--budget", type=int, default=2_000_000,
                   help="max |universe|^variables for brute force")
    p.set_defaults(func=cmd_model_check)

    p = sub.add_parser("gen", help="generate a random network on stdout")
    add_calc_opts(p)
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--labels", choices=("uniform", "singletons"), default="uniform")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already uses exit code 2 for usage errors, 0 for --help
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.func(args)
    except (CliError, NetworkError, SpecParseError, CalculusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
