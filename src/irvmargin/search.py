"""Branch-and-bound search for margins of victory.

compute_movc finds the minimum number of ballots whose rankings must change
for some member of an alternate set to win; compute_mov is the special case
where every non-winner is an alternate.  The frontier holds elimination-order
suffixes, popped best first by a key that no completion of the suffix costs
less than (ties: longer suffix first, then lexicographic).  Expanding a
suffix prepends each absent candidate; a suffix covering all candidates is
scored exactly when it is generated, cut off at the incumbent upper bound,
and improvements become the new incumbent.  Nodes whose key reaches the
upper bound are pruned, and the incumbent value is the margin once the
frontier empties.

The search makes every prune decision, and it makes the cheap ones from
first-preference tallies before any distance model is built.

Every search on one Profile object shares that object's memo (_recall): the
count under each tie rule, each standing set's tally, the swap witness, each
suffix's LP ceiling, and each complete order's exact_distance outcome under
each cutoff.  Each entry is a pure function of the profile and its key, so a
recalled entry equals the one a fresh profile would compute, and every value,
witness and counter is the same whatever ran on the profile before.  An IP
outcome is recalled only under the very cutoff it was solved with: solve_ip's
hint may offer a point outside a node's box, so the witness found under one
cutoff need not be the one found under another.  The memo lives exactly as
long as its profile; a copy or an unpickled profile starts with none.

The tally gap of a suffix is the largest lead, over its rounds r, of
order[r]'s round-r tally over a later entry's, and 0 when order[r] never
leads.  One rewritten ballot leaves one type and joins another, so it moves
each such lead by at most 2: every completion costs at least half the gap,
rounded up, and no LP optimum lies below it.  A child (c,) + S has the
rounds of S plus a new round 0 with set(S) | {c} standing, where _lead is
c's lead over the weakest member of S.  The child's rounds from S never
settle it: S is expanded only once its key, which is at least its LP bound
and so at least half S's gap rounded up, is below the upper bound (a
one-candidate root has no rounds), and the upper bound moves only when a
complete child is scored, which is the only child of its parent.  So a
child is a tally prune exactly when half its new lead, rounded up, reaches
the upper bound.

The outside look-ahead (_lookahead) bounds what the LP cannot see, since it
treats the candidates outside S as gone.  Every x outside S is eliminated
in some round whose standing set R contains S | {x}.  Tallies only grow as
the standing set shrinks, so in R x holds at least its tally with everyone
standing, and each s in S at most its tally over S | {x}.  x needs the
minimal tally, and one rewritten ballot moves each side by at most 1, so
every completion of S costs at least the largest such lead over the outside
candidates, halved and rounded up, and at least 0.

A child that either bound puts at or above the upper bound is dropped
before its model, LP or IP exists, and so is a one-candidate root whose
look-ahead reaches a known upper bound (a root has no round to lead in).

The keys.  A one-candidate root is pushed keyed by its look-ahead and is
never given an LP.  A child is pushed keyed by the largest of its parent's
key, its look-ahead and half its new lead rounded up, with no model built.
When it is first popped with that key still below the upper bound, its
model is built and its LP solved, and it is pushed again keyed by the
larger of its key and the LP ceiling; it is expanded only when it pops
again.  A child (c, a) of two candidates that is not complete is pushed
already evaluated, with no model and no LP: its model has one round, in
which c's and a's tallies are tally({c, a}), and each rewritten ballot
moves c's lead by at most 2, while moving half the lead from chains that
credit c to a's singleton chain closes it.  So its LP optimum is the half
lead, its ceiling is already in the key, and the re-push would land on the
same heap position.  Every key is admissible: the look-ahead, the lead and
the LP ceiling each bound every completion of the suffix, and a child's
completions are some of its parent's, so the parent's key bounds them too.
No completion of a pruned node is cheaper than the incumbent, so the margin
is exact.  Keys never fall from parent to child or from one push of a
suffix to the next, so pops never decrease.  Among equally cheap orders the
pop order picks the witness, so a change to the keys may change the witness
but never the value.
compute_movc alone writes SearchStats: nodes_expanded counts expanded
suffixes, tally_prunes the children a new-round lead dropped,
lookahead_prunes the roots and children the look-ahead then dropped, and
lps_solved and ips_solved the LPs and IPs used by the search, solved or
recalled.  An LP is used only for a suffix of three or more candidates
popped with its key below the upper bound, so a child whose key the
incumbent overtakes while it waits costs none.

When the realized runner-up is an alternate, the upper bound and the
incumbent start at the realized order with its last two entries swapped,
which costs exactly the last-round margin (swap_final_witness); only a
strictly cheaper order replaces it.  For alternate sets that exclude the
runner-up that witness elects no alternate, so the bound starts open and the
first scored complete order sets it.

Single-threaded by design: the frontier is safe to share because nodes are
immutable, a profile changes only by memo entries that are pure, and the only
other mutable state is the incumbent, but identical values and witnesses must
come back regardless of worker count, so callers parallelize across
independent searches (e.g. seats) instead.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .ballots import Profile
from .distance import (
    EliminationSequence,
    Manipulation,
    build_model,
    exact_distance,
    lower_bound,
    swap_final_witness,
)
from .tabulate import CountResult, TieRule, run_election, tally

# First-preference votes of each candidate in a standing set.
Votes = Callable[[frozenset[str]], dict[str, int]]


def _recall(profile: Profile, key: tuple, derive: Callable[[], Any]) -> Any:
    """The profile's memo entry under key, derived on first use.  A key is
    a tuple that starts with the kind of entry."""
    memo = profile._memo
    if key not in memo:
        memo[key] = derive()
    return memo[key]


def _count_once(profile: Profile, tie_rule: TieRule) -> CountResult:
    """The profile's count under tie_rule, run once per profile object.  The
    result is shared, so callers must not change its rounds' votes."""
    return _recall(profile, ("count", tie_rule), lambda: run_election(profile, tie_rule))


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
    lookahead_prunes: int = 0


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


def _lead(votes: Votes, child: tuple[str, ...]) -> int:
    """The lead of c over the weakest member of S in the new first round of
    child = (c,) + S."""
    v = votes(frozenset(child))
    return v[child[0]] - min(v[s] for s in child[1:])


def _lookahead(votes: Votes, ids: frozenset[str], suffix: tuple[str, ...]) -> int:
    """The outside look-ahead bound of the suffix, never below 0."""
    everyone = votes(ids)
    standing = frozenset(suffix)
    leads = (everyone[x] - min(votes(standing | {x})[s] for s in suffix)
             for x in ids - standing)
    return max(0, (max(leads, default=0) + 1) // 2)


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
    count = _count_once(profile, tie_rule)
    if count.winner in alts:
        raise AlternateIsWinner(f"{count.winner} already wins this profile")
    upper: int | None = None
    witness: Manipulation | None = None
    if count.rounds[-1].eliminated in alts:
        upper, witness = _recall(profile, ("swap", tie_rule),
                                 lambda: swap_final_witness(profile, count))

    stats = SearchStats()
    ids = frozenset(profile.candidate_ids)
    tallies = _recall(profile, ("tally",), dict)  # standing set -> its tally

    def votes(standing: frozenset[str]) -> dict[str, int]:
        if standing not in tallies:
            tallies[standing] = tally(profile, standing)
        return tallies[standing]

    # (key, -len(suffix), suffix, evaluated): a suffix of three or more
    # candidates is pushed unevaluated and re-pushed once its LP has raised
    # its key.
    frontier: list[tuple[int, int, tuple[str, ...], bool]] = []
    for a in sorted(alts):
        ahead = _lookahead(votes, ids, (a,))
        if upper is not None and ahead >= upper:
            stats.lookahead_prunes += 1
            continue
        heapq.heappush(frontier, (ahead, -1, (a,), True))

    while frontier:
        key, _, order, evaluated = heapq.heappop(frontier)
        if upper is not None and key >= upper:
            continue
        if not evaluated:
            stats.lps_solved += 1
            key = max(key, _recall(profile, ("lp", order),
                                   lambda: lower_bound(build_model(profile, order))))
            heapq.heappush(frontier, (key, -len(order), order, True))
            continue
        stats.nodes_expanded += 1
        for c in sorted(ids.difference(order)):
            child = (c,) + order
            lead = (_lead(votes, child) + 1) // 2
            if upper is not None and lead >= upper:
                stats.tally_prunes += 1
                continue
            ahead = _lookahead(votes, ids, child)
            if upper is not None and ahead >= upper:
                stats.lookahead_prunes += 1
                continue
            if len(child) < len(ids):
                # A two-candidate child's LP ceiling is its half lead.
                heapq.heappush(frontier, (max(key, lead, ahead), -len(child), child,
                                          len(child) == 2))
                continue
            stats.ips_solved += 1
            outcome = _recall(
                profile, ("ip", child, upper),
                lambda: exact_distance(build_model(profile, child), cutoff=upper),
            )
            if outcome is not None:
                upper, witness = outcome

    return MarginResult(
        value=upper,
        winner=count.winner,
        alternates=tuple(sorted(alts)),
        witness_manipulation=witness,
        stats=stats,
    )


def compute_mov(profile: Profile, tie_rule: TieRule = TieRule.FAIL) -> MarginResult:
    """Margin of victory: cheapest change electing any other candidate."""
    count = _count_once(profile, tie_rule)
    others = [c for c in profile.candidate_ids if c != count.winner]
    return compute_movc(profile, others, tie_rule)
