"""Instant-runoff tabulation: round tallies, elimination, winner, last-round margin.

Also the adversarial checks on a count, where ties resolve either way: every
candidate who can win, and whether a complete elimination order is attainable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .ballots import Profile, first_preference


class UnresolvedTie(RuntimeError):
    """Two or more candidates tie for elimination under the fail-on-tie rule."""


class TieRule(enum.Enum):
    FAIL = "fail"
    LEXICOGRAPHIC = "lex"


@dataclass(frozen=True)
class CountRound:
    """One round: votes per standing candidate, and the exhausted ballots.
    votes is tally's shared dict, which callers must not change."""

    standing: tuple[str, ...]
    votes: dict[str, int]
    exhausted: int
    eliminated: str


@dataclass(frozen=True)
class CountResult:
    """A completed count: one CountRound per elimination, ending at two candidates."""

    rounds: tuple[CountRound, ...]
    winner: str

    @cached_property
    def elimination_order(self) -> tuple[str, ...]:
        return tuple(r.eliminated for r in self.rounds) + (self.winner,)


def tally(profile: Profile, standing: Iterable[str]) -> dict[str, int]:
    """First-preference votes per standing candidate; an exhausted ballot
    counts for no one.  Walked once per profile object and standing set
    (kept in its memo): the dict is shared, so callers must not change it."""
    memo = profile._memo
    key = frozenset(standing)
    votes = memo.get(key)
    if votes is None:
        votes = memo[key] = {c: 0 for c in sorted(key)}
        for ballot in profile.ballots:
            top = first_preference(ballot, votes)
            if top is not None:
                votes[top] += ballot.count
    return votes


def run_election(profile: Profile, tie_rule: TieRule = TieRule.FAIL) -> CountResult:
    """Run the instant-runoff count to a winner.

    Each round eliminates the standing candidate with the lowest tally.  Ties
    for the minimum either abort the count (TieRule.FAIL, the default) or
    eliminate the smallest id (TieRule.LEXICOGRAPHIC).
    """
    standing = set(profile.candidate_ids)
    rounds: list[CountRound] = []
    while len(standing) > 1:
        votes = tally(profile, standing)
        low = min(votes.values())
        tied = sorted(c for c in standing if votes[c] == low)
        if len(tied) > 1 and tie_rule is TieRule.FAIL:
            raise UnresolvedTie(
                f"candidates {', '.join(tied)} tie on {low} votes; "
                "rerun with the lexicographic rule to force a result"
            )
        out = tied[0]
        exhausted = profile.total - sum(votes.values())
        rounds.append(CountRound(tuple(sorted(standing)), votes, exhausted, out))
        standing.remove(out)
    return CountResult(tuple(rounds), standing.pop())


def last_round_margin(result: CountResult) -> int:
    """Ceil of half the final-round tally gap; an upper bound on the margin of victory."""
    final = result.rounds[-1]
    a, b = (final.votes[c] for c in final.standing)
    return (abs(a - b) + 1) // 2


def adversarial_winners(profile: Profile) -> set[str]:
    """Candidates who can win under some resolution of elimination ties."""
    memo: dict[frozenset[str], frozenset[str]] = {}

    def winners(standing: frozenset[str]) -> frozenset[str]:
        if len(standing) == 1:
            return standing
        if standing in memo:
            return memo[standing]
        votes = tally(profile, standing)
        low = min(votes.values())
        out: frozenset[str] = frozenset()
        for c in sorted(standing):
            if votes[c] == low:
                out |= winners(standing - {c})
        memo[standing] = out
        return out

    return set(winners(frozenset(profile.candidate_ids)))


def order_attainable(profile: Profile, order: Iterable[str]) -> bool:
    """Is the complete order a valid adversarial elimination order?"""
    order = tuple(order)
    if sorted(order) != sorted(profile.candidate_ids):
        return False
    for i in range(len(order) - 1):
        standing = order[i:]
        votes = tally(profile, standing)
        if votes[order[i]] != min(votes.values()):
            return False
    return True
