"""Elimination-order distance: how many ballots must change to realize an order.

An elimination sequence pi is a suffix of a full elimination order; the last
entry is the prospective winner.  Ballots are reduced to types: the chain of
a ballot is its ranking restricted to set(pi) and filtered so positions in pi
strictly increase.  Two ballots with the same chain contribute identically to
every tally a count over set(pi) can produce, and any chain is itself a valid
ranking, so the adversary optimizes over type counts rather than individual
ballots.  Type t is encoded as the bitmask of pi-positions it contains
(EliminationSequence.mask; .chain decodes it), which makes the full type
space (all strictly increasing chains, empty included) exactly the 2^|pi|
masks.

The model asks for new type counts y_t minimizing the ballots removed from
their original type, subject to adding at most the ballots removed (the
final candidate's singleton type takes any shortfall, so a witness conserves
the total) and, for each round of the suffix, the eliminated candidate
holding a minimal tally (non-strict: ties resolve in the adversary's favor).
For a partial suffix the candidates outside pi are treated as already
eliminated, so the optimum is a lower bound on the distance of every
completion.  The solver works on an equivalent substitution y_t = u_t + e_t
with u_t <= n_t the ballots kept and e_t the additions; integral (u, e) and
integral y are cost-preserving images of each other, so values and witnesses
match the y/d formulation exactly.

Every function here is a pure function of a DistanceModel; the search
decides which of them to run.

Lower bounds are ceilings of LP optima, and exact distances come from
branch and bound on the same model; simplex.settle settles the bound and
every node, from the float run's checked bounds where it can and by an
exact solve elsewhere.  Every value returned is exact.  A witness's rewrite
is one optimal integer point, and which one follows the points branch and
bound settles or branches on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from . import simplex
from .ballots import Ballot, Profile
from .simplex import SolverError
from .tabulate import CountResult, last_round_margin


class DistanceError(ValueError):
    """The elimination sequence is unusable for the requested operation."""


@dataclass(frozen=True)
class EliminationSequence:
    """A suffix of an elimination order, earliest elimination first: distinct
    candidate ids, at least one."""

    order: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        if not self.order:
            raise DistanceError("empty elimination sequence")
        if len(set(self.order)) != len(self.order):
            raise DistanceError(f"repeated candidate in sequence {self.order!r}")

    @cached_property
    def _bits(self) -> dict[str, int]:
        return {c: 1 << i for i, c in enumerate(self.order)}

    def mask(self, ranking: Iterable[str]) -> int:
        """The type of a ranking: the bits of the positions it reaches in
        strictly increasing order.  A candidate's bit exceeds the mask so far
        just when its position is above every kept one."""
        bits = self._bits
        mask = 0
        for c in ranking:
            bit = bits.get(c, 0)
            if bit > mask:
                mask |= bit
        return mask

    def chain(self, mask: int) -> tuple[str, ...]:
        """The candidates of type mask, in order: a ranking of that type."""
        return tuple(c for i, c in enumerate(self.order) if mask >> i & 1)


@dataclass(frozen=True)
class DistanceModel:
    """Type counts for one elimination sequence.

    counts[mask] is the number of profile ballots whose chain is the type
    encoded by mask.  In round r, with order[r:] standing, a type counts
    toward its earliest position at or after r (_credit), or toward no one
    once every position in it is eliminated.  complete: the sequence names
    every candidate of the profile, so its final entry wins.
    """

    sequence: EliminationSequence
    counts: tuple[int, ...]
    total: int
    complete: bool


def build_model(profile: Profile, order: Iterable[str]) -> DistanceModel:
    """The type counts of the elimination sequence order over the profile's
    ballots.  DistanceError unless order names distinct candidates of the
    profile, at least one."""
    sequence = EliminationSequence(order)
    unknown = set(sequence.order).difference(profile.candidate_ids)
    if unknown:
        raise DistanceError(f"sequence names unknown candidates {sorted(unknown)}")
    mask = sequence.mask
    counts = [0] * (1 << len(sequence.order))
    for ballot in profile.ballots:
        counts[mask(ballot.ranking)] += ballot.count
    complete = len(sequence.order) == len(profile.candidate_ids)
    return DistanceModel(sequence, tuple(counts), profile.total, complete)


def _credit(mask: int, r: int) -> int:
    """The position type mask counts toward in round r: its lowest set bit
    at or above r, or -1 when it has none (the type is exhausted)."""
    rest = mask >> r
    return r + (rest & -rest).bit_length() - 1 if rest else -1


def _assemble(model: DistanceModel):
    """Rows/bounds for the solver in the u/e substitution described above.

    Variable layout: one u per type with ballots on it, then one e per type
    whose chain contains the final (position k-1) candidate.  Additions on
    other chains are dominated: appending the final candidate to a chain only
    adds credits to a position that is never eliminated in the modeled
    rounds, so it weakens no constraint, and the final candidate's singleton
    chain covers what the empty chain would.  Objective sum(-u) so that
    distance = total + optimum.

    Every row is "<=", the one form the solvers take.  Row 0, sum(u + e)
    <= total, adds at most the ballots removed; as an equality it would have
    the same optima, since the final candidate's singleton e column, which
    costs 0 and counts -1 in rows (r, k-1) only, can take up any shortfall.
    Row (r, j), for each round r and later position j, is tally(order[r]) -
    tally(order[j]) <= 0 in round r: a column counts +1 where its type
    credits r (_credit), -1 where it credits j.
    """
    counts = model.counts
    k = len(model.sequence.order)
    top = 1 << (k - 1)
    u_masks = [m for m in range(len(counts)) if counts[m]]
    e_masks = [m for m in range(len(counts)) if m & top]
    masks = u_masks + e_masks

    objective = [-1] * len(u_masks) + [0] * len(e_masks)
    bounds = [(0, counts[m]) for m in u_masks] + [(0, None)] * len(e_masks)
    rows = [[1] * len(masks)]
    for r in range(k - 1):
        credit = [_credit(m, r) for m in masks]
        rows.extend([(c == r) - (c == j) for c in credit] for j in range(r + 1, k))
    rhs = [model.total] + [0] * (len(rows) - 1)
    return objective, rows, rhs, bounds, u_masks, e_masks


def lower_bound(model: DistanceModel) -> int:
    """Ceiling of the LP relaxation; admissible for every completion of the
    suffix.  simplex.settle gives it, from the float run's certified bounds
    where their ceilings agree and from an exact solve elsewhere."""
    settled = simplex.settle(*_assemble(model)[:4])
    if settled is None:
        raise SolverError("distance relaxation reported infeasible")
    return model.total + settled[0]


@dataclass(frozen=True)
class Manipulation:
    """A per-type witness: remove `removals` ballots by chain, add `additions`.

    Addition chains are themselves rankings, so applying the manipulation is a
    plain ballot rewrite of sum-of-removals ballots.
    """

    sequence: EliminationSequence
    removals: tuple[tuple[tuple[str, ...], int], ...]
    additions: tuple[tuple[tuple[str, ...], int], ...]

    @property
    def size(self) -> int:
        return sum(n for _, n in self.removals)


def _manipulation(sequence: EliminationSequence, removals, additions) -> Manipulation:
    """The Manipulation of (mask, ballots) removals and additions, each sorted
    by chain."""

    def chains(pairs):
        return tuple(sorted((sequence.chain(m), n) for m, n in pairs))

    return Manipulation(sequence, chains(removals), chains(additions))


def exact_distance(
    model: DistanceModel, cutoff: int | None = None
) -> tuple[int, Manipulation] | None:
    """Minimum ballots to rewrite so the complete order is adversarially valid.

    With a cutoff, returns None once branch and bound proves the distance
    reaches it; else the exact value and a witness.
    """
    sequence = model.sequence
    if not model.complete:
        raise DistanceError("exact distance requires a complete elimination order")
    objective, rows, rhs, bounds, u_masks, e_masks = _assemble(model)
    winner_col = len(u_masks) + e_masks.index(1 << (len(sequence.order) - 1))

    def round_down(x):
        # Floors satisfy the bounds and can only loosen tallies on the
        # removal side; the winner's singleton chain absorbs row 0's
        # shortfall.  Feasibility is still checked by the solver.
        guess = [math.floor(v) for v in x]
        guess[winner_col] += model.total - sum(guess)
        return guess

    res = simplex.solve_ip(
        objective,
        rows,
        rhs,
        bounds,
        cutoff=None if cutoff is None else cutoff - model.total,
        hint=round_down,
    )
    if res.status == simplex.CUTOFF:
        return None
    if res.status != simplex.OPTIMAL:
        raise SolverError(f"distance program reported {res.status}")
    value = model.total + res.value
    assert value.denominator == 1
    x = [int(v) for v in res.x]
    # The winner's singleton chain takes row 0's shortfall at no cost, so
    # the witness conserves the total.
    x[winner_col] += model.total - sum(x)
    counts = model.counts
    removals = [(m, counts[m] - k) for m, k in zip(u_masks, x) if k < counts[m]]
    additions = [(m, a) for m, a in zip(e_masks, x[len(u_masks):]) if a]
    return int(value), _manipulation(sequence, removals, additions)


def apply_manipulation(profile: Profile, manipulation: Manipulation) -> Profile:
    """Rewrite ballots per the witness and return the manipulated profile."""
    sequence = manipulation.sequence
    remaining = dict(manipulation.removals)
    new_counts: dict[tuple[str, ...], int] = {}
    for ballot in profile.ballots:
        chain = sequence.chain(sequence.mask(ballot.ranking))
        count = ballot.count
        need = remaining.get(chain, 0)
        if need:
            taken = min(need, count)
            remaining[chain] = need - taken
            count -= taken
        if count:
            new_counts[ballot.ranking] = new_counts.get(ballot.ranking, 0) + count
    leftover = {c: n for c, n in remaining.items() if n}
    if leftover:
        raise DistanceError(f"witness removes more ballots than exist: {leftover}")
    for chain, n in manipulation.additions:
        new_counts[chain] = new_counts.get(chain, 0) + n
    ballots = tuple(Ballot(r, n) for r, n in new_counts.items())
    return Profile(profile.candidates, ballots)


def swap_final_witness(
    profile: Profile, count: CountResult
) -> tuple[int, Manipulation]:
    """Witness realizing the realized order with its last two entries swapped.

    Rewrites last-round-margin many ballots from the winner's final-round
    pile, preferring ballots that reach the winner latest, replacing the
    winner with the runner-up in each chain.  Earlier rounds stay valid: a
    rewritten ballot moves tallies from winner to runner-up only in rounds
    where it credited the winner, the runner-up's original tallies never
    exceed its final one, and tallies only grow between rounds, which caps
    the winner's pile loss in any earlier round below its slack there.  The
    result always costs exactly the last-round margin, so the construction is
    verified on its type counts rather than solved for.
    """
    realized = count.elimination_order
    if len(realized) < 2:
        raise DistanceError("need at least two candidates to swap")
    order = realized[:-2] + (realized[-1], realized[-2])
    k = len(order)
    winner_bit = 1 << (k - 2)
    model = build_model(profile, order)
    need = last_round_margin(count)

    piles = [m for m in range(len(model.counts)) if m & winner_bit and model.counts[m]]
    piles.sort(key=lambda m: (m & (winner_bit - 1)).bit_length(), reverse=True)
    removals = []
    additions: dict[int, int] = {}
    left = need
    for mask in piles:
        if not left:
            break
        take = min(left, model.counts[mask])
        removals.append((mask, take))
        new_mask = (mask & ~winner_bit) | (1 << (k - 1))
        additions[new_mask] = additions.get(new_mask, 0) + take
        left -= take
    if left:
        raise SolverError("final-round pile smaller than the last-round margin")

    counts = {m: n for m, n in enumerate(model.counts) if n}
    for mask, n in removals:
        counts[mask] -= n
    for mask, n in additions.items():
        counts[mask] = counts.get(mask, 0) + n
    r = _failing_round(k, counts)
    if r is not None:
        raise SolverError(f"swap witness fails round {r + 1} of {order}")
    return need, _manipulation(model.sequence, removals, additions.items())


def _failing_round(k: int, counts: dict[int, int]) -> int | None:
    """The first round r (from 0) of a complete order of length k whose
    eliminee, position r, lacks a minimal tally, or None when every round
    holds.  counts maps a type mask to its ballots; in round r a type counts
    toward its _credit."""
    for r in range(k - 1):
        votes = [0] * k
        for mask, n in counts.items():
            c = _credit(mask, r)
            if c >= 0:
                votes[c] += n
        if votes[r] != min(votes[r:]):
            return r
    return None


def _linear(coefs, names) -> str:
    terms = [
        ("- " if c < 0 else "+ ") + ("" if abs(c) == 1 else f"{abs(c)} ") + name
        for c, name in zip(coefs, names)
        if c
    ]
    if not terms:
        return "0"
    text = " ".join(terms)
    return text[2:] if terms[0][0] == "+" else "-" + text[2:]


def model_lp_text(model: DistanceModel) -> str:
    """Human-readable dump of the u/e program that lower_bound and
    exact_distance solve: _assemble's objective, one line per row, and one
    bound line per column."""
    objective, rows, rhs, bounds, u_masks, e_masks = _assemble(model)

    def chain(mask: int) -> str:
        return ">".join(model.sequence.chain(mask)) or "-"

    names = [f"u[{chain(m)}]" for m in u_masks] + [f"e[{chain(m)}]" for m in e_masks]
    order = model.sequence.order
    labels = ["conserve"] + [
        f"round {r + 1} ({order[r]} vs {order[j]})"
        for r in range(len(order) - 1)
        for j in range(r + 1, len(order))
    ]
    lines = [
        "# elimination distance model: u = ballots kept, e = ballots added",
        "# order: " + " > ".join(order)
        + (" (complete)" if model.complete else " (suffix)"),
        f"# distance = {model.total} + minimum",
        "minimize: " + _linear(objective, names),
        "subject to:",
    ]
    for label, row, b in zip(labels, rows, rhs):
        lines.append(f"  {label}: {_linear(row, names)} <= {b}")
    lines.append("bounds:")
    for name, (lo, hi) in zip(names, bounds):
        lines.append(f"  {lo} <= {name}" + ("" if hi is None else f" <= {hi}"))
    return "\n".join(lines) + "\n"
