"""Deterministic synthetic seats for the CLI's --seed option and the tests."""

from __future__ import annotations

import random

from .ballots import Profile


def synthetic_seat(
    seed: int,
    num_candidates: int = 8,
    num_ballots: int = 50_000,
) -> Profile:
    """Large two-front-runner seat tuned for fast exact margin search.

    Two majors absorb most first preferences and meet in the final round
    separated by a small gap, so the last-round margin is tight.  Every
    minor ranks itself then one major, and the minors' first-preference
    blocks are strictly increasing with pairwise differences above the
    final-round gap.  Swapping any two minors, or moving a major ahead of
    a minor, therefore costs more than the last-round margin, and the
    search prunes those branches at first sight.
    """
    if num_candidates < 2:
        raise ValueError("synthetic seat needs at least two candidates")
    rng = random.Random(seed)
    ids = [f"c{i}" for i in range(num_candidates)]
    major_a, major_b = ids[0], ids[1]
    minors = ids[2:]
    counts: dict[str, int] = {}

    def add(ranking: tuple[str, ...], count: int) -> None:
        if count <= 0:
            return
        line = ">".join(ranking)
        counts[line] = counts.get(line, 0) + count

    unit = max(1, num_ballots // 1000)
    margin = 2 * (unit + rng.randrange(unit + 1)) + 1
    piles: list[int] = []
    level = margin + 2 + rng.randrange(margin)
    for _ in minors:
        piles.append(level)
        level += margin + 2 + rng.randrange(margin)
    leans = [rng.randint(0, pile) for pile in piles]
    minor_total = sum(piles)
    to_a = sum(leans)
    to_b = minor_total - to_a
    rest = num_ballots - minor_total
    # Final tallies are pile + transfers; integer split lands the gap at
    # margin or margin - 1, both strictly under every minor pile gap.
    pile_a = (rest + margin - to_a + to_b) // 2
    pile_b = rest - pile_a
    if min(pile_a, pile_b) <= (piles[-1] if piles else 0):
        raise ValueError("num_ballots too small for the candidate count")
    for cid, pile, lean in zip(minors, piles, leans):
        add((cid, major_a), lean)
        add((cid, major_b), pile - lean)
    add((major_a, major_b), pile_a)
    add((major_b, major_a), pile_b)
    return Profile.from_rankings(counts, extra_candidates=ids)
