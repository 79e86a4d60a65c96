"""Branch-and-bound search for margins of victory.

compute_movc finds the minimum number of ballots whose rankings must change
for some member of an alternate set to win; compute_mov is the special case
where every non-winner is an alternate.  The frontier holds elimination-order
suffixes, ordered by the LP lower bound of the distance model (ties: longer
suffix first, then lexicographic).  Expanding a suffix prepends each absent
candidate; a suffix covering all candidates is scored exactly, cut off at
the incumbent upper bound, and improvements become the new incumbent.  Nodes
whose bound reaches the upper bound are pruned, and the incumbent value is
the margin once the frontier empties.

The search makes every prune decision.  It builds each child's distance
model once and first checks its tally bound (distance.tally_bound), which
needs no solver, against the upper bound: a child it reaches is dropped
before its LP or IP is assembled, exactly as the LP or IP would have
dropped it, so the frontier, values and witnesses do not depend on the
check.  compute_movc alone writes SearchStats: nodes_expanded counts
expanded suffixes, tally_prunes the children the tally bound dropped, and
lps_solved and ips_solved the LPs and IPs actually solved.

When the realized runner-up is an alternate, the upper bound and the
incumbent start at the realized order with its last two entries swapped,
which costs exactly the last-round margin (swap_final_witness); only a
strictly cheaper order replaces it.  For alternate sets that exclude the
runner-up that witness elects no alternate, so the bound starts open and the
first scored complete order sets it.

Single-threaded by design: the frontier is safe to share because profiles and
nodes are immutable and the only mutable state is the incumbent, but identical
values and witnesses must come back regardless of worker count, so callers
parallelize across independent searches (e.g. seats) instead.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

from .ballots import Profile
from .distance import (
    EliminationSequence,
    Manipulation,
    build_model,
    exact_distance,
    lower_bound,
    swap_final_witness,
    tally_bound,
)
from .tabulate import TieRule, run_election


class EmptyAlternates(ValueError):
    """The alternate set is empty."""


class AlternateIsWinner(ValueError):
    """The alternate set contains the realized winner."""


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    lps_solved: int = 0
    ips_solved: int = 0
    tally_prunes: int = 0


@dataclass(frozen=True)
class MarginResult:
    """The margin plus the cheapest witness found first.

    value is the exact distance of witness_order, and applying
    witness_manipulation makes witness_order adversarially valid, electing
    its final entry.  Only the value is unique; distinct optimal witnesses
    may exist.
    """

    value: int
    winner: str
    alternates: tuple[str, ...]
    witness_manipulation: Manipulation
    stats: SearchStats

    @property
    def witness_order(self) -> EliminationSequence:
        return self.witness_manipulation.sequence


def compute_movc(
    profile: Profile,
    alternates: Iterable[str],
    tie_rule: TieRule = TieRule.FAIL,
) -> MarginResult:
    """Margin of victory restricted to the given alternate winners."""
    alts = frozenset(alternates)
    if not alts:
        raise EmptyAlternates("no alternate winners requested")
    unknown = alts - set(profile.candidate_ids)
    if unknown:
        raise ValueError(f"unknown alternate candidates: {sorted(unknown)}")
    count = run_election(profile, tie_rule)
    if count.winner in alts:
        raise AlternateIsWinner(f"{count.winner} already wins this profile")
    upper: int | None = None
    witness: Manipulation | None = None
    if count.rounds[-1].eliminated in alts:
        upper, witness = swap_final_witness(profile, count)

    stats = SearchStats()
    ids = set(profile.candidate_ids)
    frontier: list[tuple[int, int, tuple[str, ...]]] = []
    for a in sorted(alts):
        heapq.heappush(frontier, (0, -1, (a,)))

    while frontier:
        bound, _, order = heapq.heappop(frontier)
        if upper is not None and bound >= upper:
            continue
        stats.nodes_expanded += 1
        for c in sorted(ids.difference(order)):
            child = (c,) + order
            model = build_model(profile, child)
            if upper is not None and tally_bound(model) >= upper:
                stats.tally_prunes += 1
            elif model.complete:
                stats.ips_solved += 1
                outcome = exact_distance(model, cutoff=upper)
                if outcome is not None:
                    upper, witness = outcome
            else:
                stats.lps_solved += 1
                child_bound = lower_bound(model)
                if upper is None or child_bound < upper:
                    heapq.heappush(frontier, (child_bound, -len(child), child))

    return MarginResult(
        value=upper,
        winner=count.winner,
        alternates=tuple(sorted(alts)),
        witness_manipulation=witness,
        stats=stats,
    )


def compute_mov(profile: Profile, tie_rule: TieRule = TieRule.FAIL) -> MarginResult:
    """Margin of victory: cheapest change electing any other candidate."""
    count = run_election(profile, tie_rule)
    others = [c for c in profile.candidate_ids if c != count.winner]
    return compute_movc(profile, others, tie_rule)
