"""Chamber-level aggregation: fewest ballot changes to flip or build a majority.

Seat records carry per-seat margins (last-round margin, margin of victory
where known, and targeted margins keyed by coalition).  Scenario arithmetic
then reduces to sorting: changing control needs the cheapest W - T + 1
coalition seats to fall, reaching control needs the cheapest T - W' seats to
be captured, where T is the majority threshold and W (W') the seats
currently held.
analyze_seat computes a seat's record from its ballots, with only the
targeted margin its scenario reads.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

from .ballots import DECIMAL, Profile, check_party
from .search import SearchStats, _count_once, compute_movc
from .tabulate import TieRule, last_round_margin


class CoalitionLacksMajority(ValueError):
    """Lose-majority analysis of a coalition that does not hold a majority."""


class MissingMovc(ValueError):
    """A seat needed by the scenario has no margin toward the target coalition."""


def coalition_key(parties: str | Iterable[str]) -> str:
    """Canonical name for a coalition: sorted, upper-cased, '+'-joined.  One
    string is read in this form; so is every coalition argument here."""
    return "+".join(sorted(_coalition_set(parties)))


@dataclass(frozen=True)
class SeatRecord:
    """Published margins for one single-member seat.

    movc_by_target maps coalition keys (see coalition_key) to the number of
    ballot changes needed to elect some candidate of that coalition; zero for
    seats the coalition already holds, None where it fields no candidate (the
    seat cannot be won for it).  A key that is absent was not computed, and
    so is a mov of None.
    """

    seat: str
    num_candidates: int
    lrm: int
    mov: int | None
    winner: str
    winner_party: str
    movc_by_target: Mapping[str, int | None]


@dataclass(frozen=True)
class ParliamentScenario:
    mode: str
    coalition: tuple[str, ...]
    threshold: int
    seats_needed: int
    chosen_seats: tuple[tuple[str, int], ...]
    total_changes: int


def threshold(num_seats: int) -> int:
    """Seats required for a strict majority of a chamber of num_seats."""
    if num_seats < 1:
        raise ValueError("a chamber needs at least one seat")
    return (num_seats + 2) // 2


def _coalition_set(coalition: str | Iterable[str]) -> frozenset[str]:
    codes = coalition.split("+") if isinstance(coalition, str) else coalition
    parties = frozenset(p.strip().upper() for p in codes if p.strip())
    if not parties:
        raise ValueError("empty coalition")
    return parties


def _complement_key(
    records: Sequence[SeatRecord], parties: frozenset[str]
) -> str | None:
    """The key of every party in the records' roster outside parties, or None
    when there is none."""
    roster = {r.winner_party.upper() for r in records}
    for r in records:
        for key in r.movc_by_target:
            roster.update(key.upper().split("+"))
    outside = roster - parties
    return coalition_key(outside) if outside else None


def analyze_seat(
    profile: Profile,
    coalition: Iterable[str],
    mode: str,
    parties: Mapping[str, str] | None = None,
    tie_rule: TieRule = TieRule.FAIL,
    *,
    seat: str,
) -> tuple[SeatRecord, SearchStats]:
    """The seat's record for a "win" or "lose" scenario of the coalition,
    with the counters of the one search it runs.

    parties maps candidate ids to party codes and overrides the profile's
    roster; an id that does not stand here raises ValueError, and so does a
    code containing "+", which joins coalition parties.  In lose mode
    a held seat gets its margin toward the candidates outside the
    coalition, keyed by their parties (see relabel_complement); in win mode
    a seat the coalition does not hold gets its margin toward the
    coalition's candidates, keyed by the coalition, or None under that key
    when the coalition fields no candidate there.  A seat the scenario
    does not contest runs no search and gets zero counters.  No scenario
    reads the MOV, so the record carries mov=None.
    """
    if mode not in ("win", "lose"):
        raise ValueError(f"unknown scenario mode {mode!r}")
    members = _coalition_set(coalition)
    parties = parties or {}
    unknown = set(parties) - set(profile.candidate_ids)
    if unknown:
        raise ValueError(f"unknown candidates in parties: {sorted(unknown)}")
    party = {c.id: c.party.upper() for c in profile.candidates}
    party.update((cid, check_party(p).upper()) for cid, p in parties.items())
    count = _count_once(profile, tie_rule)
    movc: dict[str, int | None] = {}
    stats = SearchStats()
    held = party[count.winner] in members
    if held == (mode == "lose"):
        # Lose mode targets a held seat's candidates outside the coalition,
        # win mode an unheld seat's coalition candidates: never the winner.
        targets = {c for c in profile.candidate_ids if (party[c] in members) != held}
        if targets:
            key = coalition_key(
                {party[c] for c in targets} if held else members
            )
            result = compute_movc(profile, targets, tie_rule=tie_rule)
            movc[key], stats = result.value, result.stats
        elif not held:
            movc[coalition_key(members)] = None
    record = SeatRecord(
        seat=seat,
        num_candidates=len(profile.candidates),
        lrm=last_round_margin(count),
        mov=None,
        winner=count.winner,
        winner_party=party[count.winner],
        movc_by_target=movc,
    )
    return record, stats


def relabel_complement(
    records: Sequence[SeatRecord], coalition: Iterable[str]
) -> list[SeatRecord]:
    """File lose-mode margins from analyze_seat under one chamber-wide key.

    Seat rosters differ, so each held seat's margin is keyed by the outside
    parties standing there.  A seat's margin toward its own outside
    candidates is its margin toward every party outside the coalition,
    restricted to whoever stands there, so all of them go under the key of
    the roster's complement, the key seats_to_lose_majority looks up; a held
    seat with no outside candidate gets None there, since it cannot be
    flipped.  Raises ValueError when no party in the roster is outside the
    coalition, since then no seat can be flipped at all.
    """
    parties = _coalition_set(coalition)
    key = _complement_key(records, parties)
    if key is None:
        raise ValueError(
            "no seat can be flipped to a candidate outside the coalition "
            f"{coalition_key(parties)}: every candidate belongs to it"
        )
    return [
        replace(r, movc_by_target={key: next(iter(r.movc_by_target.values()), None)})
        if r.winner_party.upper() in parties
        else r
        for r in records
    ]


def _cheapest(
    mode: str, parties: frozenset[str], threshold_seats: int, needed: int,
    costs: Iterable[tuple[int | None, str]], error: Callable[[int], str],
) -> ParliamentScenario:
    """The scenario choosing the needed cheapest (value, seat) costs, by
    value then seat; a None value is never chosen.  When too few are
    priced, raises ValueError(error(number priced))."""
    priced = sorted((v, seat) for v, seat in costs if v is not None)
    if needed > len(priced):
        raise ValueError(error(len(priced)))
    chosen = tuple((seat, v) for v, seat in priced[:needed])
    return ParliamentScenario(
        mode=mode,
        coalition=tuple(sorted(parties)),
        threshold=threshold_seats,
        seats_needed=needed,
        chosen_seats=chosen,
        total_changes=sum(v for _, v in chosen),
    )


def seats_to_lose_majority(
    records: Sequence[SeatRecord],
    coalition: Iterable[str],
    threshold_seats: int,
) -> ParliamentScenario:
    """Fewest ballot changes flipping enough coalition seats to break a majority.

    Each flipped seat must go to a candidate outside the coalition.  A seat
    is priced by its margin under the key for every non-coalition party in
    the records' roster (the key relabel_complement files) when every held
    seat carries that key; otherwise by its MOV, which equals the margin
    toward non-coalition candidates whenever no seat fields two coalition
    candidates, and a held seat without a MOV raises MissingMovc.  A seat
    whose margin is None has no candidate outside the coalition: it counts
    as held but is never chosen.
    """
    parties = _coalition_set(coalition)
    held = [r for r in records if r.winner_party.upper() in parties]
    surplus = len(held) - threshold_seats + 1
    if surplus < 1:
        raise CoalitionLacksMajority(
            f"coalition {coalition_key(parties)} holds {len(held)} of the "
            f"{threshold_seats} seats needed for a majority"
        )
    key = _complement_key(records, parties)
    if key is not None and all(key in r.movc_by_target for r in held):
        costs = [(r.movc_by_target[key], r.seat) for r in held]
    else:
        missing = sorted(r.seat for r in held if r.mov is None)
        if missing:
            raise MissingMovc(f"seats lacking mov: {', '.join(missing)}")
        costs = [(r.mov, r.seat) for r in held]
    return _cheapest(
        "lose-majority", parties, threshold_seats, surplus, costs,
        lambda priced: f"coalition {coalition_key(parties)} cannot fall below "
        f"{threshold_seats} seats: only {priced} of its "
        f"{len(held)} seats have a candidate outside it",
    )


def seats_to_win(
    records: Sequence[SeatRecord],
    coalition: Iterable[str],
    threshold_seats: int,
) -> ParliamentScenario:
    """Fewest ballot changes giving the coalition a majority of seats.

    Uses each non-coalition seat's margin toward the coalition
    (movc_by_target under the coalition's key) and picks the cheapest
    threshold - held seats; a seat whose margin is None fields no coalition
    candidate and is never chosen.  A coalition already at the threshold needs
    nothing: the scenario comes back empty with zero total.
    """
    parties = _coalition_set(coalition)
    key = coalition_key(parties)
    targets = [r for r in records if r.winner_party.upper() not in parties]
    needed = max(threshold_seats - (len(records) - len(targets)), 0)
    missing = [r.seat for r in targets if key not in r.movc_by_target]
    if needed and missing:
        raise MissingMovc(f"seats lacking movc:{key}: {', '.join(sorted(missing))}")
    return _cheapest(
        "win-majority", parties, threshold_seats, needed,
        [(r.movc_by_target.get(key), r.seat) for r in targets],
        lambda priced: f"coalition {key} cannot reach {threshold_seats} seats: "
        f"only {priced} seats are winnable",
    )


# Seat-record CSV cell for a coalition that fields no candidate in the seat.
NO_CANDIDATE = "-"
_BASE_COLUMNS = ["seat", "num_candidates", "lrm", "mov", "winner", "winner_party"]


def _count(cell: str) -> int:
    if not DECIMAL.fullmatch(cell.strip()):
        raise ValueError(f"bad count {cell!r}")
    value = int(cell)
    if value < 0:
        raise ValueError(f"negative count {value}")
    return value


def load_seat_records(text: str) -> list[SeatRecord]:
    """Parse the seat-record CSV; movc:<KEY> columns become movc_by_target.

    A blank movc cell was not computed and stays out of the map; "-" means
    the coalition fields no candidate in the seat and becomes None.  A blank
    mov cell was not computed either and becomes None.  No column may repeat
    and no two movc columns may name the same coalition.  Every row has as
    many cells as the header, counts must not be negative, and seat names
    must be non-blank and unique, and each winner_party must be a code a
    coalition can name (ballots.check_party).  An error in a row names its
    line.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    missing = [c for c in _BASE_COLUMNS if c not in header]
    if missing:
        raise ValueError(f"seat CSV missing columns: {', '.join(missing)}")
    movc_columns: dict[str, str] = {}  # coalition key -> its column
    for col in header:
        if header.count(col) > 1:
            raise ValueError(f"line 1: seat CSV repeats column {col!r}")
        if col.startswith("movc:"):
            try:
                key = coalition_key(col[len("movc:"):])
            except ValueError:
                raise ValueError(f"seat CSV column {col!r} names no coalition") from None
            if key in movc_columns:
                raise ValueError(
                    f"seat CSV columns {movc_columns[key]!r} and {col!r} "
                    f"both hold coalition {key}"
                )
            movc_columns[key] = col
    records = []
    first_line: dict[str, int] = {}
    for cells in filter(None, reader):  # skipping blank lines
        try:
            if len(cells) != len(header):
                raise ValueError(f"{len(cells)} cells where the header has {len(header)}")
            row = dict(zip(header, (cell.strip() for cell in cells)))
            movc = {key: None if row[col] == NO_CANDIDATE else _count(row[col])
                    for key, col in movc_columns.items() if row[col]}
            seat = row["seat"]
            if not seat:
                raise ValueError("blank seat name")
            if seat in first_line:
                raise ValueError(f"seat {seat!r} is already on line {first_line[seat]}")
            first_line[seat] = reader.line_num
            records.append(
                SeatRecord(
                    seat=seat,
                    num_candidates=_count(row["num_candidates"]),
                    lrm=_count(row["lrm"]),
                    mov=_count(row["mov"]) if row["mov"] else None,
                    winner=row["winner"],
                    winner_party=check_party(row["winner_party"]),
                    movc_by_target=movc,
                )
            )
        except ValueError as exc:
            raise ValueError(f"line {reader.line_num}: bad seat record ({exc})") from exc
    if not records:
        raise ValueError("seat CSV contains no records")
    return records


def dump_seat_records(records: Sequence[SeatRecord]) -> str:
    """Canonical CSV for seat records (inverse of load_seat_records)."""
    keys = sorted({k for r in records for k in r.movc_by_target})
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_BASE_COLUMNS + [f"movc:{k}" for k in keys])
    for r in records:
        # csv writes None, a mov that was not computed, as a blank cell.
        row = [r.seat, r.num_candidates, r.lrm, r.mov, r.winner, r.winner_party]
        for k in keys:
            v = r.movc_by_target.get(k, "")
            row.append(NO_CANDIDATE if v is None else v)
        writer.writerow(row)
    return out.getvalue()
