"""Acceptance gate: one test per release criterion, one verdict line each.

Run with ``pytest -v tests/test_acceptance.py``; every criterion below maps
to exactly one test whose PASSED/FAILED line is the acceptance verdict.
Timing tolerances are pinned in the asserts.
"""

from __future__ import annotations

import itertools
import random
import time
from functools import lru_cache
from pathlib import Path

from oracle import ABOVE_CAP, oracle_movc, random_profile

from irvmargin import (
    Profile,
    TieRule,
    apply_manipulation,
    build_model,
    compute_mov,
    compute_movc,
    exact_distance,
    last_round_margin,
    load_seat_records,
    lower_bound,
    order_attainable,
    parse_profile,
    run_election,
    seats_to_lose_majority,
    seats_to_win,
    threshold,
)
from irvmargin.parliament import SeatRecord
from irvmargin.synth import synthetic_seat

EXAMPLE1 = """\
# candidates: a:none, b:none, c:none
55,a
41,b>c
15,c
25,c>a
"""

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "nsw2015.csv"

LOSE_LIB_NAT = (
    ("East Hills", 189),
    ("Lismore", 209),
    ("Upper Hunter", 866),
    ("Monaro", 1122),
    ("Coogee", 1243),
    ("Tweed", 1291),
    ("Penrith", 2576),
    ("Holsworthy", 2902),
)

WIN_ALP_CLP = LOSE_LIB_NAT[:4] + (
    ("Balina", 1130),
    ("Coogee", 1243),
    ("Tweed", 1291),
    ("Balmain", 1731),
    ("Penrith", 2576),
    ("Holsworthy", 2902),
    ("Goulburn", 2945),
    ("Oatley", 3006),
    ("Newtown", 3536),
)

WIN_ALP_CLP_GRE = LOSE_LIB_NAT + (("Goulburn", 2945), ("Oatley", 3006))


@lru_cache(maxsize=1)
def _random_corpus() -> tuple[Profile, ...]:
    """100 seeded profiles, 3-4 candidates, <= 30 ballots, counts <= 10."""
    corpus: list[Profile] = []
    seed = 0
    while len(corpus) < 100:
        profile = random_profile(seed, max_lines=4, max_count=7)
        seed += 1
        if profile.total <= 30 and max(b.count for b in profile.ballots) <= 10:
            corpus.append(profile)
    return tuple(corpus)


def test_criterion_1_worked_example_goldens() -> None:
    start = time.perf_counter()
    profile = parse_profile(EXAMPLE1)
    count = run_election(profile)
    assert count.winner == "a"
    assert last_round_margin(count) == 20
    assert compute_mov(profile).value == 1
    assert compute_movc(profile, {"b"}).value == 10

    def order(text: str) -> tuple[str, ...]:
        return tuple(text.split(">"))

    assert exact_distance(build_model(profile, order("b>a>c")))[0] == 1
    assert exact_distance(build_model(profile, order("a>c>b")))[0] == 10
    assert exact_distance(build_model(profile, order("c>b>a")))[0] == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1: PASS (worked-example goldens, {elapsed:.3f}s)")


def test_criterion_2_parliament_totals() -> None:
    start = time.perf_counter()
    records = load_seat_records(FIXTURE.read_text(encoding="utf-8"))
    assert len(records) == 93
    assert threshold(93) == 47

    lose = seats_to_lose_majority(records, ["LIB", "NAT"], 47)
    assert lose.chosen_seats == LOSE_LIB_NAT
    assert lose.total_changes == 10398

    win = seats_to_win(records, ["ALP", "CLP"], 47)
    assert win.chosen_seats == WIN_ALP_CLP
    assert win.total_changes == 22746

    win_gre = seats_to_win(records, ["ALP", "CLP", "GRE"], 47)
    assert win_gre.chosen_seats == WIN_ALP_CLP_GRE
    assert win_gre.total_changes == 16349

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        "criterion 2: PASS (lose 10398 over 8, win 22746 over 13, "
        f"win 16349 over 10, {elapsed:.3f}s)"
    )


def test_criterion_3_sydney_targeted_margin() -> None:
    records = load_seat_records(FIXTURE.read_text(encoding="utf-8"))
    by_seat = {r.seat: r for r in records}
    sydney = by_seat["Sydney"]
    assert sydney.mov == 2864
    assert sydney.movc_by_target["ALP+CLP"] == 5583

    base = seats_to_win(records, ["ALP", "CLP"], 47)
    base_seats = dict(base.chosen_seats)
    assert "Sydney" not in base_seats  # 5583 prices Sydney out of the basket

    swapped = [
        r
        if r.seat != "Sydney"
        else SeatRecord(
            seat=r.seat,
            num_candidates=r.num_candidates,
            lrm=r.lrm,
            mov=r.mov,
            winner=r.winner,
            winner_party=r.winner_party,
            movc_by_target={**r.movc_by_target, "ALP+CLP": r.mov},
        )
        for r in records
    ]
    blurred = seats_to_win(swapped, ["ALP", "CLP"], 47)
    blurred_seats = dict(blurred.chosen_seats)
    assert blurred_seats["Sydney"] == 2864
    assert "Newtown" not in blurred_seats
    assert blurred.total_changes == 22074 != base.total_changes
    print(
        "criterion 3: PASS (win basket uses Sydney movc 5583; "
        "substituting mov 2864 would change the basket)"
    )


def test_criterion_4_oracle_equivalence() -> None:
    start = time.perf_counter()
    rng = random.Random(20150328)
    agreements = 0
    above_cap = 0
    for profile in _random_corpus():
        count = run_election(profile, tie_rule=TieRule.LEXICOGRAPHIC)
        alternates = sorted(set(profile.candidate_ids) - {count.winner})
        subset = sorted(rng.sample(alternates, rng.randint(1, len(alternates))))
        for chosen in (alternates, subset):
            result = compute_movc(
                profile, chosen, tie_rule=TieRule.LEXICOGRAPHIC
            )
            truth = oracle_movc(profile, chosen)
            if truth is ABOVE_CAP:
                assert result.value > 10
                above_cap += 1
            else:
                assert result.value == truth
                agreements += 1
            manipulated = apply_manipulation(profile, result.witness_manipulation)
            assert result.witness_order.order[-1] in chosen
            assert order_attainable(manipulated, result.witness_order.order)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    assert agreements + above_cap == 200
    print(
        f"criterion 4: PASS ({agreements} oracle agreements, "
        f"{above_cap} above-cap confirmations, {elapsed:.1f}s)"
    )


def test_criterion_5_bound_soundness() -> None:
    start = time.perf_counter()
    suffixes_checked = 0
    for profile in _random_corpus():
        count = run_election(profile, tie_rule=TieRule.LEXICOGRAPHIC)
        assert compute_mov(
            profile, tie_rule=TieRule.LEXICOGRAPHIC
        ).value <= last_round_margin(count)
        for perm in itertools.permutations(profile.candidate_ids):
            value, _ = exact_distance(build_model(profile, perm))
            for cut in range(1, len(perm)):
                assert lower_bound(build_model(profile, perm[cut:])) <= value
                suffixes_checked += 1
    elapsed = time.perf_counter() - start
    print(
        f"criterion 5: PASS ({suffixes_checked} suffix bounds verified "
        f"against exact completions, {elapsed:.1f}s)"
    )


def test_criterion_6_detects_margin_below_last_round() -> None:
    profile = parse_profile(EXAMPLE1)
    count = run_election(profile)
    result = compute_mov(profile)
    assert last_round_margin(count) == 20
    assert result.value == 1
    assert result.value < last_round_margin(count)
    print(
        "criterion 6: PASS (search returns the true margin 1, "
        "not the last-round margin 20)"
    )


def test_criterion_7_performance_smoke() -> None:
    profile = synthetic_seat(0)
    assert len(profile.candidate_ids) == 8
    assert profile.total == 50_000
    start = time.perf_counter()
    result = compute_mov(profile)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    count = run_election(profile)
    assert result.value <= last_round_margin(count)
    stats = result.stats
    print(
        f"criterion 7: PASS (mov {result.value} on 8 candidates / "
        f"50000 ballots in {elapsed:.1f}s; nodes {stats.nodes_expanded}, "
        f"LPs {stats.lps_solved}, IPs {stats.ips_solved})"
    )


def test_criterion_8_ten_candidate_smoke() -> None:
    profile = synthetic_seat(1, num_candidates=10)
    start = time.perf_counter()
    result = compute_mov(profile)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    # Tallies settle this seat at its last-round margin: the outside
    # look-ahead drops every one-candidate suffix but the runner-up's, the
    # one node expanded; its new-round lead or the look-ahead drops each of
    # its children, and no LP or IP is solved.
    assert result.value == 58
    assert result.stats.nodes_expanded == 1
    assert result.stats.lps_solved == 0
    stats = result.stats
    print(
        f"criterion 8: PASS (mov {result.value} on 10 candidates in "
        f"{elapsed:.1f}s; nodes {stats.nodes_expanded}, LPs {stats.lps_solved}, "
        f"IPs {stats.ips_solved}, tally prunes {stats.tally_prunes}, "
        f"look-ahead prunes {stats.lookahead_prunes})"
    )
