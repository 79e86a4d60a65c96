"""Command-line front end.

Subcommands: tabulate, margin, movc (margin with required alternates), and
parliament.  Each command builds its report once, as a _Report that holds
the JSON object, the table lines and the CSV rows side by side, and prints
it as a table (default), JSON, or CSV.  Reports are byte-identical across
reruns on identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict

from .ballots import DECIMAL, Profile, parse_profile
from .distance import build_model, model_lp_text
from .parliament import (
    analyze_seat,
    coalition_key,
    load_seat_records,
    relabel_complement,
    seats_to_lose_majority,
    seats_to_win,
    threshold,
)
from .search import MarginResult, compute_mov, compute_movc
from .simplex import SolverError
from .synth import synthetic_seat
from .tabulate import TieRule, UnresolvedTie, last_round_margin, run_election


class CliError(Exception):
    """User-facing failure; the message goes to stderr and the exit code is 1."""


class _Report:
    """One report in all three formats: the JSON object, the table lines and
    the CSV rows (the first row is the header)."""

    def __init__(self, data: dict, header: list[str]) -> None:
        self.data = data
        self.lines: list[str] = []
        self.rows: list[list] = [header]

    def add(self, line: str, row: list | None = None) -> None:
        """One fact's table line and its CSV row, if CSV reports it."""
        self.lines.append(line)
        if row is not None:
            self.rows.append(row)

    def stats(self, label: str | None, counts: dict) -> None:
        """Counters in key order: `stat <label> <key>: <n>` in the table and
        `stat:<label>:<key>,<n>` in CSV, without the label when it is None."""
        for key in sorted(counts):
            path = (key,) if label is None else (label, key)
            self.add(f"stat {' '.join(path)}: {counts[key]}",
                     [f"stat:{':'.join(path)}", counts[key]])


def _decimal(text: str) -> int:
    """The integer flags' type: an ASCII decimal, as in the input files (int
    alone would also take "1_0" or non-ASCII digits)."""
    text = text.strip()
    if not DECIMAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _emit(args: argparse.Namespace, report: _Report) -> int:
    if args.format == "json":
        print(json.dumps(report.data, indent=2, sort_keys=True))
    elif args.format == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(report.rows)
    else:
        print("\n".join(report.lines))
    sys.stdout.flush()
    return 0


def _read_text(path: str) -> str:
    """An input file's text, without a UTF-8 byte-order mark."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from exc


def _load_profile(args: argparse.Namespace) -> Profile:
    if args.ballots is not None and args.seed is not None:
        raise CliError("give a ballot file or --seed, not both")
    if args.ballots is not None:
        return parse_profile(_read_text(args.ballots))
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


def cmd_tabulate(args: argparse.Namespace) -> int:
    profile = _load_profile(args)
    result = run_election(profile, tie_rule=TieRule(args.tie_rule))
    lrm = last_round_margin(result)
    rounds: list[dict] = []
    report = _Report(
        {"command": "tabulate", "winner": result.winner, "last_round_margin": lrm,
         "rounds": rounds},
        ["kind", "round", "key", "value"],
    )
    for i, rnd in enumerate(result.rounds, start=1):
        standing = sorted(rnd.standing)
        votes, exhausted = rnd.votes, rnd.exhausted
        rounds.append({"round": i, "standing": standing,
                       "tallies": {c: votes[c] for c in standing},
                       "exhausted": exhausted, "eliminated": rnd.eliminated})
        report.add(f"round {i}:")
        for cid in standing:
            report.add(f"  {cid:<16} {votes[cid]}", ["tally", i, cid, votes[cid]])
        report.add(f"  {'(exhausted)':<16} {exhausted}", ["exhausted", i, "", exhausted])
        report.add(f"  eliminated: {rnd.eliminated}", ["eliminated", i, rnd.eliminated, ""])
    report.add(f"winner: {result.winner}", ["winner", "", result.winner, ""])
    report.add(f"last-round margin: {lrm}", ["lrm", "", "", lrm])
    return _emit(args, report)


def _margin_result(args: argparse.Namespace, profile: Profile) -> MarginResult:
    tie_rule = TieRule(args.tie_rule)
    if args.alternates is None:
        return compute_mov(profile, tie_rule=tie_rule)
    alternates = _resolve_alternates(profile, args.alternates)
    return compute_movc(profile, alternates, tie_rule=tie_rule)


def cmd_margin(args: argparse.Namespace) -> int:
    profile = _load_profile(args)
    result = _margin_result(args, profile)
    order = result.witness_order.order
    alternates = sorted(result.alternates)
    changes: dict[str, dict[str, int]] = {"removals": {}, "additions": {}}
    report = _Report(
        {"command": "margin", "value": result.value, "winner": result.winner,
         "alternates": alternates, "witness_order": list(order),
         "witness_changes": changes},
        ["field", "value"],
    )
    report.add(f"margin: {result.value}", ["value", result.value])
    report.add(f"winner: {result.winner}", ["winner", result.winner])
    report.add(f"alternates: {', '.join(alternates)}", ["alternates", ";".join(alternates)])
    report.add(f"witness order: {' -> '.join(order)}", ["witness_order", ">".join(order)])
    witness = result.witness_manipulation
    for key, verb, kind, bag in (
        ("removals", "remove", "removal", witness.removals),
        ("additions", "add", "addition", witness.additions),
    ):
        for chain, n in bag:
            path = ">".join(chain)
            changes[key][path] = n
            report.add(f"  {verb} {n} x {path}", [kind, f"{n} x {path}"])
    if args.stats:
        report.data["stats"] = asdict(result.stats)
        report.stats(None, report.data["stats"])
    if args.dump_lp:
        sys.stderr.write(model_lp_text(build_model(profile, order)))
    return _emit(args, report)


def _analyze_seat(task: tuple) -> tuple:
    """Parse one manifest seat and analyze it, in whichever process claimed
    it.  Errors name the seat."""
    name, text, parties, mode, coalition, tie_rule = task
    try:
        return analyze_seat(
            parse_profile(text), coalition, mode, parties, tie_rule, seat=name
        )
    except (UnresolvedTie, ValueError, SolverError) as exc:
        raise CliError(f"seat {name!r}: {exc}") from exc


def _fan_out(tasks: list[tuple], workers: int) -> list[tuple]:
    """`_analyze_seat` on every task in `workers` processes, this one and
    workers - 1 forks: the results in seat order, or the first error in seat
    order, as one process alone would give.

    Before the first fork each seat index goes into one pipe as a 4-byte
    ticket, and every process claims the next ticket until none is left, so
    a slow seat holds up only the process that claimed it.  Tickets leave in
    seat order, so every seat before a failed one has been claimed, and the
    process that fails drains the pipe to stop the others.  A fork pickles
    its (index, ok, value) outcomes to a pipe of its own and leaves through
    os._exit, running none of its parent's code.
    """
    import pickle

    def claim() -> list[tuple]:
        outcomes = []
        while ticket := os.read(tickets, 4):
            i = int.from_bytes(ticket, "little")
            try:
                outcomes.append((i, True, _analyze_seat(tasks[i])))
            except Exception as exc:  # raised below, in seat order
                outcomes.append((i, False, exc))
                os.read(tickets, 4 * len(tasks))
        return outcomes

    queue = b"".join(i.to_bytes(4, "little") for i in range(len(tasks)))
    tickets, w = os.pipe()
    os.set_blocking(w, False)  # a queue the pipe cannot hold is cut short
    try:
        sent = os.write(w, queue)
    finally:
        os.close(w)
    children: dict[int, int] = {}  # pid -> read end of its outcome pipe
    try:
        if sent < len(queue):
            raise CliError(f"a manifest may list at most {sent // 4} seats, not {len(tasks)}")
        for _ in range(workers - 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    with open(w, "wb") as out:
                        pickle.dump(claim(), out)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children[pid] = r
        outcomes = claim()
        sent_back = []
        for r in children.values():
            with open(r, "rb", closefd=False) as fh:
                sent_back.append(fh.read())
    finally:
        os.close(tickets)
        for r in children.values():
            os.close(r)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children]
    for code in codes:
        if code:
            raise CliError(f"a worker process failed with exit status {code}")
    for data in sent_back:
        outcomes += pickle.loads(data)
    outcomes.sort(key=lambda outcome: outcome[0])
    for _, ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, _, value in outcomes]


def _records_from_manifest(
    args: argparse.Namespace, manifest: dict, coalition: str
) -> tuple[list, dict]:
    where = f"manifest {args.records}"
    seats = manifest.get("seats")
    if not isinstance(seats, list) or not seats:
        raise CliError(f"{where} needs a nonempty seats list")
    if not all(isinstance(s, dict) for s in seats):
        raise CliError(f"{where}: each seat must be an object")
    if "options" in manifest:
        raise CliError(f"{where}: options are not read: use --workers and --tie-rule")
    if args.workers > 1 and not hasattr(os, "fork"):
        raise CliError("--workers above 1 needs os.fork, which this platform lacks")
    for s in seats:
        if not isinstance(s.get("name"), str) or not isinstance(s.get("path"), str):
            raise CliError(f"{where}: each seat needs a name and a path")
    names = [s["name"] for s in seats]
    if len(set(names)) != len(names):
        raise CliError(f"{where}: seat names must be unique")

    base = os.path.dirname(os.path.abspath(args.records))
    tie_rule = TieRule(args.tie_rule)
    tasks = []
    for seat in seats:
        path = seat["path"]
        if not os.path.isabs(path):
            path = os.path.join(base, path)
        text = _read_text(path)
        parties = seat.get("parties", {})
        if not isinstance(parties, dict):
            raise CliError(f"seat {seat['name']!r}: parties must be an object")
        for cid, code in parties.items():
            if not isinstance(code, str):
                raise CliError(
                    f"seat {seat['name']!r}: party of {cid!r} must be a string, "
                    f"not {json.dumps(code)}"
                )
        tasks.append((seat["name"], text, parties, args.mode, coalition, tie_rule))

    # A process beyond one per seat would find no ticket left.
    analyzed = _fan_out(tasks, min(args.workers, len(tasks)))
    records = [record for record, _ in analyzed]
    stats = {record.seat: asdict(s) for record, s in analyzed}
    if args.mode == "lose":
        records = relabel_complement(records, coalition)
    return records, stats


def cmd_parliament(args: argparse.Namespace) -> int:
    try:
        coalition = coalition_key(args.coalition)
    except ValueError:
        raise CliError("empty --coalition") from None
    for flag, value in ("--threshold", args.threshold), ("--workers", args.workers):
        if value is not None and value < 1:
            raise CliError(f"{flag} must be at least 1, not {value}")
    text = _read_text(args.records)

    stats: dict = {}
    if text.lstrip().startswith("{"):
        try:
            manifest = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CliError(f"manifest {args.records} is not valid JSON: {exc}") from exc
        records, stats = _records_from_manifest(args, manifest, coalition)
    else:
        records = load_seat_records(text)

    limit = args.threshold if args.threshold is not None else threshold(len(records))
    if args.mode == "lose":
        scenario = seats_to_lose_majority(records, coalition, limit)
    else:
        scenario = seats_to_win(records, coalition, limit)

    seats: list[dict] = []
    report = _Report(
        {"command": "parliament", "mode": scenario.mode,
         "coalition": list(scenario.coalition), "threshold": scenario.threshold,
         "seats_needed": scenario.seats_needed, "seats": seats,
         "total_changes": scenario.total_changes},
        ["seat", "changes"],
    )
    report.add(f"mode: {scenario.mode}")
    report.add(f"coalition: {'+'.join(scenario.coalition)}")
    report.add(f"threshold: {scenario.threshold}")
    report.add(f"seats needed: {scenario.seats_needed}")
    width = max((len(s) for s, _ in scenario.chosen_seats), default=4)
    for seat, value in scenario.chosen_seats:
        seats.append({"seat": seat, "changes": value})
        report.add(f"  {seat:<{width}}  {value}", [seat, value])
    report.add(f"total changes: {scenario.total_changes}", ["TOTAL", scenario.total_changes])
    if args.stats and stats:
        report.data["stats"] = stats
        for seat, counts in stats.items():
            report.stats(seat, counts)
    return _emit(args, report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irvmargin",
        description="Exact margins of victory for instant-runoff elections.",
    )
    sub = parser.add_subparsers(
        dest="command", metavar="{tabulate,margin,movc,parliament}"
    )
    # Flags shared by several subcommands, each declared once.
    seat = argparse.ArgumentParser(add_help=False)
    seat.add_argument("ballots", nargs="?", help="ballot file")
    seat.add_argument("--seed", type=_decimal, default=None,
                      help="generate a synthetic instance instead of reading a file")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json", "csv"), default="table")
    common.add_argument("--tie-rule", choices=("fail", "lex"), default="fail")
    stats = argparse.ArgumentParser(add_help=False)
    stats.add_argument("--stats", action="store_true",
                       help="include search statistics in the report")

    p_tab = sub.add_parser("tabulate", parents=[seat, common],
                           help="run the count and report each round")
    p_tab.set_defaults(func=cmd_tabulate)

    for name, help_text, required in (
        ("margin", "margin of victory (all alternates)", False),
        ("movc", "margin toward a chosen alternate set", True),
    ):
        p_margin = sub.add_parser(name, parents=[seat, common, stats], help=help_text)
        p_margin.add_argument("--alternates", required=required,
                              help="comma-separated candidate ids or party codes")
        p_margin.add_argument("--dump-lp", action="store_true",
                              help="write the witness order's distance model to stderr")
        p_margin.set_defaults(func=cmd_margin)

    p_parl = sub.add_parser(
        "parliament", parents=[common, stats],
        help="chamber-level scenario from seat records or a manifest",
    )
    p_parl.add_argument("records", help="seat-record CSV or manifest JSON")
    p_parl.add_argument("--mode", choices=("lose", "win"), required=True)
    p_parl.add_argument("--coalition", required=True,
                        help="party codes joined with +")
    p_parl.add_argument("--threshold", type=_decimal, default=None,
                        help="majority threshold (default: majority of records)")
    p_parl.add_argument("--workers", type=_decimal, default=1,
                        help="processes that share the manifest's seats: this one and N - 1 forks")
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
    except BrokenPipeError:
        # stdout's reader has gone (found by _emit's flush): silence the flush at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CliError, UnresolvedTie, ValueError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
