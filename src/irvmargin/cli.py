"""Command-line front end.

Subcommands: tabulate, margin, movc (margin with required alternates), and
parliament.  Reports render as a table (default), JSON, or CSV, and are
byte-identical across reruns on identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

from .ballots import Profile, ProfileError, parse_profile
from .distance import build_model, model_lp_text
from .parliament import (
    CoalitionLacksMajority,
    MissingMovc,
    analyze_seat,
    load_seat_records,
    relabel_complement,
    seats_to_lose_majority,
    seats_to_win,
    threshold,
)
from .search import (
    AlternateIsWinner,
    EmptyAlternates,
    MarginResult,
    compute_mov,
    compute_movc,
)
from .synth import synthetic_seat
from .tabulate import TieRule, UnresolvedTie, last_round_margin, run_election


class CliError(Exception):
    """User-facing failure; the message goes to stderr and the exit code is 1."""


def _load_profile(args: argparse.Namespace) -> Profile:
    if args.ballots is not None:
        try:
            with open(args.ballots, encoding="utf-8") as fh:
                return parse_profile(fh.read())
        except OSError as exc:
            raise CliError(f"cannot read {args.ballots}: {exc.strerror}") from exc
    if args.seed is not None:
        return synthetic_seat(args.seed)
    raise CliError("provide a ballot file or --seed")


def _resolve_alternates(profile: Profile, raw: str) -> set[str]:
    """Comma-separated candidate ids or party codes (parties expand)."""
    ids = set(profile.candidate_ids)
    chosen: set[str] = set()
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if token in ids:
            chosen.add(token)
            continue
        by_party = {c.id for c in profile.candidates if c.party.upper() == token.upper()}
        if not by_party:
            raise CliError(f"unknown candidate or party: {token!r}")
        chosen |= by_party
    return chosen


def _emit(args: argparse.Namespace, report: dict, table: str, rows: list[list]) -> int:
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    elif args.format == "csv":
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        sys.stdout.write(out.getvalue())
    else:
        print(table)
    return 0


def cmd_tabulate(args: argparse.Namespace) -> int:
    profile = _load_profile(args)
    result = run_election(profile, tie_rule=TieRule(args.tie_rule))
    lrm = last_round_margin(result)
    rounds = []
    for i, rnd in enumerate(result.rounds, start=1):
        rounds.append(
            {
                "round": i,
                "standing": sorted(rnd.standing),
                "tallies": {c: rnd.tallies[c] for c in sorted(rnd.standing)},
                "exhausted": rnd.tallies.exhausted,
                "eliminated": rnd.eliminated,
            }
        )
    report = {
        "command": "tabulate",
        "winner": result.winner,
        "last_round_margin": lrm,
        "rounds": rounds,
    }

    lines = []
    for rnd in rounds:
        lines.append(f"round {rnd['round']}:")
        for cid in sorted(rnd["standing"]):
            lines.append(f"  {cid:<16} {rnd['tallies'][cid]}")
        lines.append(f"  {'(exhausted)':<16} {rnd['exhausted']}")
        if rnd["eliminated"] is not None:
            lines.append(f"  eliminated: {rnd['eliminated']}")
    lines.append(f"winner: {result.winner}")
    lines.append(f"last-round margin: {lrm}")

    rows: list[list] = [["kind", "round", "key", "value"]]
    for rnd in rounds:
        for cid in sorted(rnd["standing"]):
            rows.append(["tally", rnd["round"], cid, rnd["tallies"][cid]])
        rows.append(["exhausted", rnd["round"], "", rnd["exhausted"]])
        if rnd["eliminated"] is not None:
            rows.append(["eliminated", rnd["round"], rnd["eliminated"], ""])
    rows.append(["winner", "", result.winner, ""])
    rows.append(["lrm", "", "", lrm])
    return _emit(args, report, "\n".join(lines), rows)


def _margin_result(args: argparse.Namespace, profile: Profile) -> MarginResult:
    tie_rule = TieRule(args.tie_rule)
    raw = getattr(args, "alternates", None)
    if raw is None:
        return compute_mov(profile, tie_rule=tie_rule)
    alternates = _resolve_alternates(profile, raw)
    return compute_movc(profile, alternates, tie_rule=tie_rule)


def cmd_margin(args: argparse.Namespace) -> int:
    profile = _load_profile(args)
    result = _margin_result(args, profile)
    witness = result.witness_manipulation
    order = result.witness_order.order
    changes = {
        "removals": {">".join(chain): n for chain, n in witness.removals},
        "additions": {">".join(chain): n for chain, n in witness.additions},
    }
    report = {
        "command": "margin",
        "value": result.value,
        "winner": result.winner,
        "alternates": sorted(result.alternates),
        "witness_order": list(order),
        "witness_changes": changes,
    }
    stats = asdict(result.stats)
    if args.stats:
        report["stats"] = stats

    lines = [
        f"margin: {result.value}",
        f"winner: {result.winner}",
        f"alternates: {', '.join(sorted(result.alternates))}",
        f"witness order: {' -> '.join(order)}",
    ]
    for label, bag in ("remove", witness.removals), ("add", witness.additions):
        for chain, n in bag:
            lines.append(f"  {label} {n} x {'>'.join(chain)}")
    if args.stats:
        for key in sorted(stats):
            lines.append(f"stat {key}: {stats[key]}")

    rows: list[list] = [["field", "value"]]
    rows.append(["value", result.value])
    rows.append(["winner", result.winner])
    rows.append(["alternates", ";".join(sorted(result.alternates))])
    rows.append(["witness_order", ">".join(order)])
    for label, bag in ("removal", witness.removals), ("addition", witness.additions):
        for chain, n in bag:
            rows.append([label, f"{n} x {'>'.join(chain)}"])
    if args.stats:
        for key in sorted(stats):
            rows.append([f"stat:{key}", stats[key]])

    if args.dump_lp:
        sys.stderr.write(model_lp_text(build_model(profile, result.witness_order)))
    return _emit(args, report, "\n".join(lines), rows)


def _analyze_seat(task: tuple) -> tuple:
    """Pool task: parse one manifest seat in the worker and analyze it.

    Module level so process pools can pickle it.  Errors name the seat.
    """
    name, text, parties, mode, coalition, tie_rule = task
    try:
        return analyze_seat(
            parse_profile(text), coalition, mode, parties, tie_rule, seat=name
        )
    except (UnresolvedTie, ValueError) as exc:
        raise CliError(f"seat {name!r}: {exc}") from exc


def _records_from_manifest(
    args: argparse.Namespace, manifest: dict, coalition: frozenset[str]
) -> tuple[list, dict]:
    seats = manifest.get("seats")
    if not isinstance(seats, list) or not seats:
        raise CliError("manifest needs a nonempty seats list")
    if not all(isinstance(s, dict) for s in seats):
        raise CliError("each manifest seat must be an object")
    options = manifest.get("options", {})
    if not isinstance(options, dict):
        raise CliError("manifest options must be an object")
    tie_rule = TieRule(args.tie_rule or options.get("tie_rule", "fail"))
    workers = options.get("workers", 1)
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise CliError(f"options.workers must be an integer, not {json.dumps(workers)}")
    if workers < 1:
        raise CliError(f"options.workers must be at least 1, not {workers}")
    workers = args.workers or workers
    names = [s.get("name") for s in seats]
    if len(set(names)) != len(names):
        raise CliError("manifest seat names must be unique")

    base = os.path.dirname(os.path.abspath(args.records))
    tasks = []
    for seat in seats:
        path = seat.get("path")
        if not isinstance(seat.get("name"), str) or not isinstance(path, str):
            raise CliError("each manifest seat needs a name and a path")
        if not os.path.isabs(path):
            path = os.path.join(base, path)
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc.strerror}") from exc
        parties = seat.get("parties") or {}
        if not isinstance(parties, dict):
            raise CliError(f"seat {seat['name']!r}: parties must be an object")
        for cid, code in parties.items():
            if not isinstance(code, str):
                raise CliError(
                    f"seat {seat['name']!r}: party of {cid!r} must be a string, "
                    f"not {json.dumps(code)}"
                )
        tasks.append((seat["name"], text, parties, args.mode, coalition, tie_rule))

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            analyzed = list(pool.map(_analyze_seat, tasks))
    else:
        analyzed = [_analyze_seat(t) for t in tasks]
    records = [record for record, _ in analyzed]
    stats = {record.seat: asdict(s) for record, s in analyzed}
    if args.mode == "lose":
        records = relabel_complement(records, coalition)
    return records, stats


def cmd_parliament(args: argparse.Namespace) -> int:
    coalition = frozenset(p.upper() for p in args.coalition.split("+") if p.strip())
    if not coalition:
        raise CliError("empty --coalition")
    for flag, value in ("--threshold", args.threshold), ("--workers", args.workers):
        if value is not None and value < 1:
            raise CliError(f"{flag} must be at least 1, not {value}")
    try:
        with open(args.records, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {args.records}: {exc.strerror}") from exc

    stats: dict = {}
    if text.lstrip().startswith("{"):
        records, stats = _records_from_manifest(args, json.loads(text), coalition)
    else:
        records = load_seat_records(text)

    limit = args.threshold if args.threshold is not None else threshold(len(records))
    if args.mode == "lose":
        scenario = seats_to_lose_majority(records, coalition, limit)
    else:
        scenario = seats_to_win(records, coalition, limit)

    report = {
        "command": "parliament",
        "mode": scenario.mode,
        "coalition": list(scenario.coalition),
        "threshold": scenario.threshold,
        "seats_needed": scenario.seats_needed,
        "seats": [{"seat": s, "changes": v} for s, v in scenario.chosen_seats],
        "total_changes": scenario.total_changes,
    }
    if args.stats and stats:
        report["stats"] = stats

    width = max((len(s) for s, _ in scenario.chosen_seats), default=4)
    lines = [
        f"mode: {scenario.mode}",
        f"coalition: {'+'.join(scenario.coalition)}",
        f"threshold: {scenario.threshold}",
        f"seats needed: {scenario.seats_needed}",
    ]
    for seat, value in scenario.chosen_seats:
        lines.append(f"  {seat:<{width}}  {value}")
    lines.append(f"total changes: {scenario.total_changes}")

    rows: list[list] = [["seat", "changes"]]
    rows.extend([s, v] for s, v in scenario.chosen_seats)
    rows.append(["TOTAL", scenario.total_changes])
    if args.stats:
        for seat, counts in stats.items():
            for key in sorted(counts):
                lines.append(f"stat {seat} {key}: {counts[key]}")
                rows.append([f"stat:{seat}:{key}", counts[key]])
    return _emit(args, report, "\n".join(lines), rows)


def _add_common(sub: argparse.ArgumentParser, *, dump_lp: bool = False) -> None:
    sub.add_argument("--format", choices=("table", "json", "csv"), default="table")
    sub.add_argument("--tie-rule", choices=("fail", "lex"), default="fail")
    sub.add_argument("--seed", type=int, default=None,
                     help="generate a synthetic instance instead of reading a file")
    sub.add_argument("--stats", action="store_true",
                     help="include search statistics in the report")
    if dump_lp:
        sub.add_argument("--dump-lp", action="store_true",
                         help="write the witness order's distance model to stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irvmargin",
        description="Exact margins of victory for instant-runoff elections.",
    )
    sub = parser.add_subparsers(
        dest="command", metavar="{tabulate,margin,movc,parliament}"
    )

    p_tab = sub.add_parser("tabulate", help="run the count and report each round")
    p_tab.add_argument("ballots", nargs="?", help="ballot file")
    _add_common(p_tab)
    p_tab.set_defaults(func=cmd_tabulate)

    p_margin = sub.add_parser("margin", help="margin of victory (all alternates)")
    p_margin.add_argument("ballots", nargs="?", help="ballot file")
    p_margin.add_argument("--alternates", default=None,
                          help="comma-separated candidate ids or party codes")
    _add_common(p_margin, dump_lp=True)
    p_margin.set_defaults(func=cmd_margin)

    p_movc = sub.add_parser("movc", help="margin toward a chosen alternate set")
    p_movc.add_argument("ballots", nargs="?", help="ballot file")
    p_movc.add_argument("--alternates", required=True,
                        help="comma-separated candidate ids or party codes")
    _add_common(p_movc, dump_lp=True)
    p_movc.set_defaults(func=cmd_margin)

    p_parl = sub.add_parser(
        "parliament", help="chamber-level scenario from seat records or a manifest"
    )
    p_parl.add_argument("records", help="seat-record CSV or manifest JSON")
    p_parl.add_argument("--mode", choices=("lose", "win"), required=True)
    p_parl.add_argument("--coalition", required=True,
                        help="party codes joined with +")
    p_parl.add_argument("--threshold", type=int, default=None,
                        help="majority threshold (default: majority of records)")
    p_parl.add_argument("--workers", type=int, default=None,
                        help="seats analyzed concurrently (manifest input)")
    p_parl.add_argument("--format", choices=("table", "json", "csv"),
                        default="table")
    p_parl.add_argument("--tie-rule", choices=("fail", "lex"), default=None)
    p_parl.add_argument("--stats", action="store_true")
    p_parl.set_defaults(func=cmd_parliament)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (
        CliError,
        ProfileError,
        UnresolvedTie,
        AlternateIsWinner,
        EmptyAlternates,
        MissingMovc,
        CoalitionLacksMajority,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
