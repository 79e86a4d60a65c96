"""Ranked-ballot data model: candidates, ballots, profiles, and the file format.

A profile is an immutable multiset of strict partial rankings over a declared
candidate roster.  Identical rankings are merged at construction, ballots are
kept in a canonical sorted order, and the serialization below round-trips
bit-exactly through parse_profile.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Container, Iterable, Mapping

# Separators used by the ballot file format; ":" also delimits id:party in the
# header line, and whitespace would make diagnostics ambiguous.
_FORBIDDEN_IN_ID = re.compile(r"[,>:\s]")

HEADER_PREFIX = "# candidates:"

# A count in a ballot or seat file: an optional "-" and ASCII digits.  int()
# alone also takes "1_0", "+3" and non-ASCII digits.
DECIMAL = re.compile(r"-?[0-9]+")


class ProfileError(ValueError):
    """A profile violates a structural invariant."""


def check_party(code: str) -> str:
    """code, unless a coalition could never match it: a coalition names
    trimmed, non-blank codes joined by "+"."""
    if not code.strip():
        raise ProfileError(f"party code {code!r} is blank")
    if code != code.strip():
        raise ProfileError(f"party code {code!r} has surrounding whitespace")
    if "+" in code:
        raise ProfileError(
            f"party code {code!r} contains '+', which joins coalition parties"
        )
    return code


class ParseError(ProfileError):
    """A ballot file could not be parsed.  Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Candidate:
    """A candidate: stable id and party code ("none" if unaffiliated)."""

    id: str
    party: str = "none"

    def __post_init__(self):
        if not self.id or _FORBIDDEN_IN_ID.search(self.id):
            raise ProfileError(f"invalid candidate id {self.id!r}")
        check_party(self.party)


@dataclass(frozen=True)
class Ballot:
    """A count of identical ballots sharing one strict ranking.

    The ranking is a non-empty sequence of distinct candidate ids, most
    preferred first.  Voters need not rank every candidate.
    """

    ranking: tuple[str, ...]
    count: int

    def __post_init__(self):
        object.__setattr__(self, "ranking", tuple(self.ranking))
        if not self.ranking:
            raise ProfileError("ballot ranks no candidates")
        if len(set(self.ranking)) != len(self.ranking):
            raise ProfileError(f"duplicate candidate in ranking {self.ranking!r}")
        try:
            count = operator.index(self.count)
        except TypeError:
            raise ProfileError(
                f"ballot count {self.count!r} is not an integer"
            ) from None
        object.__setattr__(self, "count", count)
        if count < 1:
            raise ProfileError(f"nonpositive ballot count {count}")


@dataclass(frozen=True)
class Profile:
    """An election: candidate roster plus a normalized ballot multiset.

    Construction merges ballots with identical rankings, sorts them
    lexicographically, and validates every ranking against the roster.
    """

    candidates: tuple[Candidate, ...]
    ballots: tuple[Ballot, ...]

    def __post_init__(self):
        roster = tuple(sorted(self.candidates, key=lambda c: c.id))
        if len(roster) < 2:
            raise ProfileError("a profile needs at least two candidates")
        ids = [c.id for c in roster]
        if len(set(ids)) != len(ids):
            raise ProfileError("duplicate candidate id in roster")
        known = set(ids)
        groups: dict[tuple[str, ...], list[Ballot]] = {}
        for ballot in self.ballots:
            for cid in ballot.ranking:
                if cid not in known:
                    raise ProfileError(f"ballot ranks unknown candidate {cid!r}")
            groups.setdefault(ballot.ranking, []).append(ballot)
        # A ranking given once keeps its ballot; only a true merge builds one.
        normal = tuple(
            group[0] if len(group) == 1
            else Ballot(ranking, sum(b.count for b in group))
            for ranking, group in sorted(groups.items())
        )
        object.__setattr__(self, "candidates", roster)
        object.__setattr__(self, "ballots", normal)

    @cached_property
    def candidate_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.candidates)

    @cached_property
    def total(self) -> int:
        return sum(b.count for b in self.ballots)

    @cached_property
    def _memo(self) -> dict:
        """What tabulate.tally and searches derive from this object.  Not a
        field, so equality, hash and repr never see it; it dies with the
        object and is left out of pickles and copies (__getstate__)."""
        return {}

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_memo"}

    @staticmethod
    def from_rankings(
        counts: Mapping[str, int],
        parties: Mapping[str, str] | None = None,
        extra_candidates: Iterable[str] = (),
    ) -> "Profile":
        """Convenience constructor from {"a>b>c": count} style mappings."""
        parties = dict(parties or {})
        ballots = []
        seen: set[str] = set(extra_candidates)
        for text, count in counts.items():
            ranking = tuple(tok.strip() for tok in text.split(">"))
            ballots.append(Ballot(ranking, count))
            seen.update(ranking)
        roster = tuple(
            Candidate(cid, party=parties.get(cid, "none")) for cid in sorted(seen)
        )
        return Profile(roster, tuple(ballots))


def first_preference(ballot: Ballot, standing: Container[str]) -> str | None:
    """The ballot's most-preferred standing candidate, or None if exhausted."""
    for c in ballot.ranking:
        if c in standing:
            return c
    return None


def parse_profile(text: str) -> Profile:
    """Parse the ballot file format.

    The roster comes from a single header line::

        # candidates: a:none,b:IND,c:ALP

    Every other ``#`` line is a comment.  Records are ``count,c1>c2>...``
    with positive integer counts.  Duplicate rankings are merged; errors
    carry the offending line number.
    """
    candidates: list[Candidate] | None = None
    ballots: list[Ballot] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.lower().startswith(HEADER_PREFIX):
                if candidates is not None:
                    raise ParseError("duplicate candidate roster line", lineno)
                candidates = _parse_roster(line[len(HEADER_PREFIX):], lineno)
                roster_line = lineno
                known = {c.id for c in candidates}
            continue
        if candidates is None:
            raise ParseError("ballot record before candidate roster", lineno)
        ballots.append(_parse_record(line, known, lineno))
    if candidates is None:
        raise ParseError("no candidate roster line found")
    # Every record was checked, so only the roster can fail here.
    try:
        return Profile(tuple(candidates), tuple(ballots))
    except ProfileError as exc:
        raise ParseError(str(exc), roster_line) from exc


def _parse_roster(body: str, lineno: int) -> list[Candidate]:
    entries = [e.strip() for e in body.split(",")]
    if entries == [""]:
        raise ParseError("empty candidate roster", lineno)
    roster = []
    for entry in entries:
        if ":" not in entry:
            raise ParseError(f"roster entry {entry!r} is not id:party", lineno)
        cid, _, party = entry.partition(":")
        cid, party = cid.strip(), party.strip()
        if not cid or not party:
            raise ParseError(f"roster entry {entry!r} is not id:party", lineno)
        try:
            roster.append(Candidate(cid, party=party))
        except ProfileError as exc:
            raise ParseError(str(exc), lineno) from exc
    return roster


def _parse_record(line: str, known: set[str], lineno: int) -> Ballot:
    head, sep, tail = line.partition(",")
    if not sep:
        raise ParseError("record is not count,ranking", lineno)
    count = head.strip()
    if not DECIMAL.fullmatch(count):
        raise ParseError(f"bad ballot count {count!r}", lineno)
    tokens = [t.strip() for t in tail.split(">")]
    if any(not t for t in tokens):
        raise ParseError("empty candidate id in ranking", lineno)
    for tok in tokens:
        if tok not in known:
            raise ParseError(f"unknown candidate {tok!r} in ranking", lineno)
    try:
        return Ballot(tuple(tokens), int(count))
    except ProfileError as exc:
        raise ParseError(str(exc), lineno) from exc


def serialize_profile(profile: Profile) -> str:
    """Emit the canonical ballot file: sorted roster, sorted rankings."""
    lines = [
        HEADER_PREFIX + " "
        + ",".join(f"{c.id}:{c.party}" for c in profile.candidates)
    ]
    for ballot in profile.ballots:
        lines.append(f"{ballot.count},{'>'.join(ballot.ranking)}")
    return "\n".join(lines) + "\n"
