"""Brute-force ground truth for margins on small instances.

Everything here is definition-shaped and shares no machinery with the LP or
the frontier search: margins are found by enumerating manipulations outright
(winners, by branching on every tied elimination, come from
tabulate.adversarial_winners).  Capped hard because the enumeration is
exponential; the caps are the contract, exceeding them raises.
random_profile draws the small instances the tests check against it, and
paper_seat the seats of the paper's scale, which only the solvers reach.

oracle_movc works per candidate elimination order.  A manipulation that makes
some alternate win must realize a complete order ending in an alternate, and
for a fixed order only two things matter: which original ballots were removed
(their per-round first preferences are fixed) and how the rewritten ballots
credit tallies round by round.  A rewritten ballot behaves as a token that
sits on one standing candidate and, when that candidate is eliminated, either
jumps to a candidate eliminated later or exhausts; that is exactly the space
of rankings whose positions in the order strictly increase, and any such path
is a concrete ranking.  So: enumerate removal vectors over the distinct
rankings, then ask a round-by-round token feasibility question for the k
rewritten ballots.  First k that works is the margin.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator

from irvmargin import Profile
from irvmargin.ballots import first_preference


class OracleCapExceeded(ValueError):
    """The instance is too large for exhaustive checking."""


class _AboveCap:
    def __repr__(self) -> str:
        return "ABOVE_CAP"

    def __bool__(self) -> bool:
        return False


ABOVE_CAP = _AboveCap()


@dataclass(frozen=True)
class OracleConfig:
    max_changes: int = 10
    max_candidates: int = 4
    max_distinct_types: int = 10


def oracle_movc(
    profile: Profile,
    alternates: Iterable[str],
    config: OracleConfig | None = None,
):
    """Smallest number of rewritten ballots electing an alternate, or ABOVE_CAP.

    Exhaustive within OracleConfig caps; raises OracleCapExceeded when the
    instance itself is out of range.
    """
    cfg = config or OracleConfig()
    alts = sorted(set(alternates))
    ids = sorted(profile.candidate_ids)
    if not alts or not set(alts) <= set(ids):
        raise ValueError("alternates must be a nonempty subset of the candidates")
    if len(ids) > cfg.max_candidates:
        raise OracleCapExceeded(
            f"{len(ids)} candidates exceeds the cap of {cfg.max_candidates}"
        )
    if len(profile.ballots) > cfg.max_distinct_types:
        raise OracleCapExceeded(
            f"{len(profile.ballots)} distinct rankings exceeds the cap of "
            f"{cfg.max_distinct_types}"
        )

    orders = [
        rest + (a,)
        for a in alts
        for rest in permutations([c for c in ids if c != a])
    ]
    plans = [_OrderPlan(profile, order) for order in orders]
    for k in range(cfg.max_changes + 1):
        for plan in plans:
            if plan.reachable(k):
                return k
    return ABOVE_CAP


class _OrderPlan:
    """Feasibility of one complete order at a given rewrite budget."""

    def __init__(self, profile: Profile, order: tuple[str, ...]):
        self.order = order
        n = len(order)
        # credit[line][r] = position the line's ballots count toward in round r,
        # from first preferences over the standing suffix; None once exhausted.
        position = {c: i for i, c in enumerate(order)}
        self.counts = [b.count for b in profile.ballots]
        self.credit = []
        for ballot in profile.ballots:
            row = []
            for r in range(n - 1):
                top = first_preference(ballot, order[r:])
                row.append(None if top is None else position[top])
            self.credit.append(row)
        self._bases_seen: dict[tuple, bool] = {}

    def reachable(self, k: int) -> bool:
        n = len(self.order)
        for removal in _bounded_vectors(k, self.counts):
            base = self._base_tallies(removal)
            ok = self._bases_seen.get((k, base))
            if ok is None:
                ok = _tokens_feasible(base, k, n)
                self._bases_seen[(k, base)] = ok
            if ok:
                return True
        return False

    def _base_tallies(self, removal: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        n = len(self.order)
        rows = []
        for r in range(n - 1):
            row = [0] * n
            for line, kept in enumerate(self.counts):
                pos = self.credit[line][r]
                if pos is not None:
                    row[pos] += kept - removal[line]
            rows.append(tuple(row[r:]))
        return tuple(rows)


def _tokens_feasible(
    base: tuple[tuple[int, ...], ...], k: int, n: int
) -> bool:
    """Can k added ballots be routed so every round's eliminee is minimal?

    base[r] holds kept-ballot tallies for order[r:]; tokens[j] rides
    candidate r+j at round r and may redistribute to strictly later
    candidates (or exhaust) when its candidate is eliminated.
    """
    rounds = n - 1
    memo: dict[tuple[int, tuple[int, ...]], bool] = {}

    def feasible(r: int, tokens: tuple[int, ...]) -> bool:
        key = (r, tokens)
        cached = memo.get(key)
        if cached is not None:
            return cached
        row = base[r]
        lowest = row[0] + tokens[0]
        ok = all(lowest <= row[j] + tokens[j] for j in range(1, len(row)))
        if ok and r < rounds - 1:
            ok = False
            for split in _compositions(tokens[0], len(tokens)):
                nxt = tuple(
                    tokens[j + 1] + split[j] for j in range(len(tokens) - 1)
                )
                if feasible(r + 1, nxt):
                    ok = True
                    break
        memo[key] = ok
        return ok

    return any(feasible(0, start) for start in _compositions(k, n))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All nonnegative integer tuples of the given length summing to total.

    With parts = m the last bucket absorbs the remainder, so for token
    transitions the final slot doubles as the exhaust bin.
    """
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _bounded_vectors(total: int, caps: list[int]) -> Iterator[tuple[int, ...]]:
    """Nonnegative vectors summing to total with per-slot caps."""
    if not caps:
        if total == 0:
            yield ()
        return
    head_cap = min(caps[0], total)
    for head in range(head_cap + 1):
        for rest in _bounded_vectors(total - head, caps[1:]):
            yield (head,) + rest


def random_profile(
    seed: int,
    min_candidates: int = 3,
    max_candidates: int = 4,
    max_lines: int = 8,
    max_count: int = 10,
) -> Profile:
    """Small random profile suitable for exhaustive oracle checking.

    Candidate ids are single letters.  Ballot lines are distinct rankings
    with small counts; totals stay low so brute-force manipulation search
    over every elimination order remains cheap.
    """
    rng = random.Random(seed)
    n = rng.randint(min_candidates, max_candidates)
    ids = [chr(ord("a") + i) for i in range(n)]
    counts: dict[str, int] = {}
    for _ in range(rng.randint(2, max_lines)):
        length = rng.randint(1, n)
        ranking = ">".join(rng.sample(ids, length))
        counts[ranking] = counts.get(ranking, 0) + rng.randint(1, max_count)
    # Every candidate needs at least one first preference somewhere or ties
    # at zero dominate; a singleton ballot per missing candidate fixes that.
    seen = {line.split(">")[0] for line in counts}
    for cid in ids:
        if cid not in seen:
            counts[cid] = counts.get(cid, 0) + 1
    return Profile.from_rankings(counts, extra_candidates=ids)


# Party positions on the issue plane, (economic, social), of paper_seat's
# candidates: perfbench/gen.py's six parties, then three more.
PAPER_PARTIES = (
    ("GRN", -0.9, 0.6),
    ("ALP", -0.4, 0.1),
    ("IND", 0.0, 0.7),
    ("LIB", 0.4, 0.1),
    ("NAT", 0.7, -0.4),
    ("SFF", 0.3, -0.8),
    ("CDP", 0.5, 0.8),
    ("AJP", -0.6, -0.5),
    ("ONP", 0.9, -0.9),
)
# Share of voters who stop after 1, 2 and 3 preferences; the rest rank
# every candidate.
TRUNCATION = (0.30, 0.15, 0.15)


def paper_seat(k: int, i: int) -> Profile:
    """Seat k/i, of the size of the paper's NSW seats: 20,000 voters rank k
    candidates, up to 9, by noisy distance on the issue plane and truncate
    their ballots as under optional preferential voting, as perfbench/gen.py's
    spatial_seat does.  The candidates are the first k of PAPER_PARTIES, each
    moved by N(0, 0.1) on both axes, and the voters' centre is
    (U(-0.2, 0.2), N(0, 0.2)).  All of it is drawn from
    random.Random(f"big/{k}/{i}"): positions, then the centre, then voters."""
    rng = random.Random(f"big/{k}/{i}")
    spots = {
        party.lower(): (x + rng.gauss(0, 0.1), y + rng.gauss(0, 0.1))
        for party, x, y in PAPER_PARTIES[:k]
    }
    cx, cy = rng.uniform(-0.2, 0.2), rng.gauss(0, 0.2)
    ids = sorted(spots)
    counts: dict[str, int] = {}
    for _ in range(20_000):
        vx = cx + rng.gauss(0, 0.6)
        vy = cy + rng.gauss(0, 0.6)
        score = {
            c: -math.hypot(vx - x, vy - y) + rng.gauss(0, 0.35)
            for c, (x, y) in spots.items()
        }
        ranking = sorted(ids, key=score.__getitem__, reverse=True)
        draw = rng.random()
        length = len(ranking)
        for stop, share in enumerate(TRUNCATION, start=1):
            if draw < share:
                length = stop
                break
            draw -= share
        key = ">".join(ranking[:length])
        counts[key] = counts.get(key, 0) + 1
    return Profile.from_rankings(counts, extra_candidates=ids)
