"""Seeded input generators for the benchmark.

The program under test only ever sees what these functions return: ballot
file text in the format `irvmargin` parses, and a manifest for
`irvmargin parliament`.  Nothing here imports `irvmargin`, so a change to the
program cannot change the inputs.

Three seat families:

- `synthetic_seat`: the two-front-runner seat of `irvmargin.synth`, copied
  here so the benchmark's inputs do not move when the program's own
  generator does.  50,000 ballots, two rankings per minor candidate; the
  search is almost entirely suffix LPs.
- `diverse_seat`: 30 uniform-random strict partial rankings over 4
  candidates with counts up to 100.  No structure for the search to exploit,
  so the exact integer programs carry most of the work.
- `spatial_seat`: one election in a seat whose electorate model is fixed:
  party candidates at set places on a 2-D issue plane and voters around the
  seat's centre.  Each voter ranks the candidates by noisy distance and
  truncates the ballot as under optional preferential voting.  20,000
  ballots; up to 64 distinct rankings with 4 candidates and about 200 with
  5.  The seed draws the voters, not the model, so a seat's difficulty
  stays put from seed to seed.
"""

from __future__ import annotations

import math
import random

# Party positions on the issue plane: (economic, social).
PARTIES = {
    "GRN": (-0.9, 0.6),
    "ALP": (-0.4, 0.1),
    "IND": (0.0, 0.7),
    "LIB": (0.4, 0.1),
    "NAT": (0.7, -0.4),
    "SFF": (0.3, -0.8),
}
LEFT = ("ALP", "GRN")
RIGHT = ("LIB", "NAT", "SFF")
# Every seat fields both majors, so each seat has a candidate of either bloc.
MAJORS = ("ALP", "LIB")
# The minors each seat of a generated chamber fields, seat by seat from the
# left of the economic axis: eight 4-candidate and three 5-candidate seats.
# An odd number of seats, so that one bloc, with independents if need be,
# always holds a majority.
LINEUPS = (
    ("GRN", "NAT"),
    ("IND", "SFF"),
    ("GRN", "IND", "NAT"),
    ("GRN", "SFF"),
    ("IND", "NAT"),
    ("GRN", "NAT", "SFF"),
    ("GRN", "IND"),
    ("NAT", "SFF"),
    ("IND", "NAT", "SFF"),
    ("GRN", "NAT"),
    ("IND", "SFF"),
)
# Optional preferential voting: share of voters who stop after 1, 2, ...
# preferences; the remainder rank every candidate.
TRUNCATION = (0.30, 0.15, 0.15)


def ballot_text(counts: dict[tuple[str, ...], int], roster: dict[str, str]) -> str:
    """Ballot file text: roster header, then one `count,ranking` line each."""
    header = "# candidates: " + ",".join(
        f"{cid}:{party}" for cid, party in sorted(roster.items())
    )
    lines = [header]
    for ranking, count in sorted(counts.items()):
        lines.append(f"{count},{'>'.join(ranking)}")
    return "\n".join(lines) + "\n"


def synthetic_seat(seed: int, num_candidates: int) -> dict[tuple[str, ...], int]:
    """Ballot counts equal to those of
    `irvmargin.synth.synthetic_seat(seed, num_candidates)`: 50,000 ballots."""
    num_ballots = 50_000
    rng = random.Random(seed)
    ids = [f"c{i}" for i in range(num_candidates)]
    major_a, major_b = ids[0], ids[1]
    counts: dict[tuple[str, ...], int] = {}

    def add(ranking: tuple[str, ...], count: int) -> None:
        if count > 0:
            counts[ranking] = counts.get(ranking, 0) + count

    unit = max(1, num_ballots // 1000)
    margin = 2 * (unit + rng.randrange(unit + 1)) + 1
    piles = []
    level = margin + 2 + rng.randrange(margin)
    for _ in ids[2:]:
        piles.append(level)
        level += margin + 2 + rng.randrange(margin)
    leans = [rng.randint(0, pile) for pile in piles]
    to_a = sum(leans)
    to_b = sum(piles) - to_a
    rest = num_ballots - sum(piles)
    pile_a = (rest + margin - to_a + to_b) // 2
    for cid, pile, lean in zip(ids[2:], piles, leans):
        add((cid, major_a), lean)
        add((cid, major_b), pile - lean)
    add((major_a, major_b), pile_a)
    add((major_b, major_a), rest - pile_a)
    return counts


def diverse_seat(rng: random.Random) -> dict[tuple[str, ...], int]:
    """30 distinct uniform-random partial rankings of candidates a-d, with
    counts in 1..100.

    Every candidate heads at least one ranking, so no tally starts at zero.
    """
    ids = list("abcd")
    counts: dict[tuple[str, ...], int] = {}
    for cid in ids:
        rest = [c for c in ids if c != cid]
        tail = rng.sample(rest, rng.randrange(len(ids)))
        counts[(cid, *tail)] = rng.randint(1, 100)
    while len(counts) < 30:
        ranking = tuple(rng.sample(ids, rng.randint(1, len(ids))))
        if ranking not in counts:
            counts[ranking] = rng.randint(1, 100)
    return counts


def spatial_model(index: int):
    """Electorate model of chamber seat `index`: candidate positions by
    party (both majors plus the seat's minors) and the centre of its voters.
    Centres are stratified along the economic axis, so the chamber runs from
    left-leaning through marginal to right-leaning seats.  The model does
    not depend on the benchmark seed."""
    rng = random.Random(f"spatial-model/{index}")
    parties = MAJORS + LINEUPS[index]
    spots = {
        p.lower(): (PARTIES[p][0] + rng.gauss(0, 0.1), PARTIES[p][1] + rng.gauss(0, 0.1))
        for p in parties
    }
    centre = (-0.2 + 0.4 * (index + rng.random()) / len(LINEUPS), rng.gauss(0.0, 0.2))
    return spots, centre, {p.lower(): p for p in parties}


def spatial_seat(rng: random.Random, model) -> dict[tuple[str, ...], int]:
    """One election of 20,000 voters in a modelled seat: each voter ranks
    the candidates by noisy distance and truncates the ballot as under
    optional preferential voting.  Returns the ballot counts."""
    spots, centre, _ = model
    counts: dict[tuple[str, ...], int] = {}
    cands = sorted(spots)
    for _ in range(20_000):
        vx = centre[0] + rng.gauss(0, 0.6)
        vy = centre[1] + rng.gauss(0, 0.6)
        score = {
            c: -math.hypot(vx - x, vy - y) + rng.gauss(0, 0.35)
            for c, (x, y) in spots.items()
        }
        ranking = sorted(cands, key=score.__getitem__, reverse=True)
        draw = rng.random()
        length = len(ranking)
        for i, share in enumerate(TRUNCATION, start=1):
            if draw < share:
                length = i
                break
            draw -= share
        key = tuple(ranking[:length])
        counts[key] = counts.get(key, 0) + 1
    return counts


def irv_order(counts: dict[tuple[str, ...], int], candidates) -> list[str]:
    """Plain IRV elimination order, winner last, lexicographic tie-break.

    The benchmark's own count, used to choose queries and coalitions."""
    standing = set(candidates)
    order = []
    while len(standing) > 1:
        votes = {c: 0 for c in standing}
        for ranking, n in counts.items():
            for c in ranking:
                if c in standing:
                    votes[c] += n
                    break
        low = min(votes.values())
        out = min(c for c in standing if votes[c] == low)
        standing.remove(out)
        order.append(out)
    return order + [standing.pop()]


def chamber(rng: random.Random) -> tuple[dict[str, str], str, str]:
    """One election in every seat of the chamber: ballot text by seat name,
    plus the lose-mode and win-mode coalitions.

    The lose coalition is the bloc that holds more seats, joined by
    independents when it alone is short of a majority.  The win coalition is
    the other bloc, which is then short of a majority.
    """
    texts = {}
    won: dict[str, int] = {}
    for i in range(len(LINEUPS)):
        model = spatial_model(i)
        roster = model[2]
        counts = spatial_seat(rng, model)
        party = roster[irv_order(counts, roster)[-1]]
        won[party] = won.get(party, 0) + 1
        texts[f"Seat{i:02d}"] = ballot_text(counts, roster)
    left = sum(won.get(p, 0) for p in LEFT)
    right = sum(won.get(p, 0) for p in RIGHT)
    lose, win = (RIGHT, LEFT) if right >= left else (LEFT, RIGHT)
    if max(left, right) <= len(LINEUPS) // 2:
        lose = lose + ("IND",)
    return texts, "+".join(lose), "+".join(win)
