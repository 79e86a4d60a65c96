from __future__ import annotations

import copy
import gc
import heapq
import itertools
import pickle
import random
import weakref
from fractions import Fraction
from functools import cache
from types import SimpleNamespace

import pytest

from irvmargin import (
    AlternateIsWinner,
    EmptyAlternates,
    Profile,
    TieRule,
    UnresolvedTie,
    adversarial_winners,
    apply_manipulation,
    build_model,
    compute_mov,
    compute_movc,
    exact_distance,
    last_round_margin,
    lower_bound,
    order_attainable,
    run_election,
)
from irvmargin.distance import swap_final_witness
from irvmargin import search, simplex
from irvmargin.search import _lookahead
from irvmargin.synth import synthetic_seat
from irvmargin.tabulate import tally
from oracle import (
    ABOVE_CAP,
    OracleCapExceeded,
    _OrderPlan,
    oracle_movc,
    paper_seat,
    random_profile,
)
from test_acceptance import _random_corpus


def test_mov_golden(example1: Profile) -> None:
    result = compute_mov(example1)
    assert result.value == 1
    assert result.winner == "a"
    assert result.alternates == ("b", "c")
    assert result.witness_order.order == ("b", "a", "c")
    assert result.witness_manipulation.removals == ((("b", "c"), 1),)
    assert result.witness_manipulation.additions == ((("c",), 1),)


def test_mov_search_stats_are_reproducible(example1: Profile) -> None:
    result = compute_mov(example1)
    assert result.stats.nodes_expanded == 2
    assert result.stats.lps_solved == 0
    assert result.stats.ips_solved == 1
    assert result.stats.tally_prunes == 0
    assert result.stats.lookahead_prunes == 0


def test_movc_goldens(example1: Profile) -> None:
    assert compute_movc(example1, {"b"}).value == 10
    assert compute_movc(example1, {"c"}).value == 1
    assert compute_movc(example1, {"b", "c"}).value == 1


def test_movc_single_alternate_witness(example1: Profile) -> None:
    result = compute_movc(example1, {"b"})
    assert result.witness_order.order == ("a", "c", "b")
    assert result.witness_order.order[-1] == "b"
    assert exact_distance(build_model(example1, result.witness_order.order))[0] == result.value


def test_two_candidate_margin() -> None:
    profile = Profile.from_rankings({"a": 3, "b": 2})
    result = compute_mov(profile)
    assert result.value == 1
    assert result.witness_order.order == ("a", "b")


def test_alternate_validation(example1: Profile) -> None:
    with pytest.raises(EmptyAlternates):
        compute_movc(example1, set())
    with pytest.raises(AlternateIsWinner):
        compute_movc(example1, {"a", "b"})
    with pytest.raises(ValueError):
        compute_movc(example1, {"z"})


def test_tie_rule_propagates(example1: Profile) -> None:
    tied = Profile.from_rankings({"a>c": 5, "b>c": 5, "c": 4})
    with pytest.raises(UnresolvedTie):
        compute_mov(tied)
    result = compute_mov(tied, tie_rule=TieRule.LEXICOGRAPHIC)
    assert result.winner == "b"
    assert result.value == 0
    assert compute_movc(tied, {"a"}, tie_rule=TieRule.LEXICOGRAPHIC).value == 0


def test_zero_margin_witness_is_attainable() -> None:
    tied = Profile.from_rankings({"a>c": 5, "b>c": 5, "c": 4})
    result = compute_mov(tied, tie_rule=TieRule.LEXICOGRAPHIC)
    manipulated = apply_manipulation(tied, result.witness_manipulation)
    assert order_attainable(manipulated, result.witness_order.order)
    assert result.witness_order.order[-1] in result.alternates


def test_mov_never_exceeds_last_round_margin() -> None:
    for seed in range(30):
        profile = random_profile(seed)
        try:
            count = run_election(profile)
        except UnresolvedTie:
            continue
        result = compute_mov(profile)
        assert result.value <= last_round_margin(count)


def test_movc_is_antitone_in_the_alternate_set() -> None:
    rng = random.Random(5)
    checked = 0
    for seed in range(40):
        profile = random_profile(seed)
        try:
            winner = run_election(profile).winner
        except UnresolvedTie:
            continue
        others = sorted(set(profile.candidate_ids) - {winner})
        if len(others) < 2:
            continue
        small = set(rng.sample(others, rng.randint(1, len(others) - 1)))
        large = small | set(
            rng.sample(others, rng.randint(1, len(others)))
        )
        inner = compute_movc(profile, small)
        outer = compute_movc(profile, large)
        assert inner.value >= outer.value
        assert outer.value >= compute_mov(profile).value
        checked += 1
    assert checked >= 15


def test_search_matches_oracle_on_random_profiles() -> None:
    agreed = 0
    for seed in range(30):
        profile = random_profile(seed)
        try:
            winner = run_election(profile).winner
        except UnresolvedTie:
            continue
        alternates = set(profile.candidate_ids) - {winner}
        result = compute_mov(profile)
        try:
            truth = oracle_movc(profile, alternates)
        except OracleCapExceeded:
            continue
        if truth is ABOVE_CAP:
            assert result.value > 10
            continue
        assert result.value == truth
        agreed += 1
    assert agreed >= 20


def test_witness_elects_an_alternate() -> None:
    for seed in range(20):
        profile = random_profile(seed)
        try:
            run_election(profile)
        except UnresolvedTie:
            continue
        result = compute_mov(profile)
        manipulated = apply_manipulation(profile, result.witness_manipulation)
        assert order_attainable(manipulated, result.witness_order.order)
        assert result.witness_order.order[-1] in result.alternates
        assert result.witness_order.order[-1] in adversarial_winners(manipulated)


def test_margin_at_the_last_round_margin_keeps_the_swap_witness() -> None:
    # Only a strictly cheaper order displaces the swapped realized order.
    kept = 0
    for seed in range(60):
        profile = random_profile(seed)
        try:
            count = run_election(profile)
        except UnresolvedTie:
            continue
        runner_up = count.rounds[-1].eliminated
        for result in compute_mov(profile), compute_movc(profile, {runner_up}):
            if result.value == last_round_margin(count):
                _, swapped = swap_final_witness(profile, count)
                assert result.witness_manipulation == swapped
                assert result.witness_order == swapped.sequence
                kept += 1
    assert kept >= 40


def test_search_is_deterministic(example1: Profile) -> None:
    first = compute_mov(example1)
    second = compute_mov(example1)
    assert first == second
    assert compute_movc(example1, {"b"}) == compute_movc(example1, {"b"})


def _corpus_queries(profile: Profile) -> list:
    """MOV (None) and MOVC toward each loser and each pair of losers."""
    winner = run_election(profile, TieRule.LEXICOGRAPHIC).winner
    losers = sorted(set(profile.candidate_ids) - {winner})
    return [None] + [
        alternates
        for n in (1, 2)
        for alternates in itertools.combinations(losers, n)
    ]


def _query(profile: Profile, alternates):
    if alternates is None:
        return compute_mov(profile, TieRule.LEXICOGRAPHIC)
    return compute_movc(profile, alternates, TieRule.LEXICOGRAPHIC)


def test_results_do_not_depend_on_what_ran_before() -> None:
    # Searches on one profile object share its memo.  Forward and reversed
    # on one object, and each query on a fresh copy, must give the same
    # value, witness and counters.
    queries = 0
    for profile in _random_corpus():
        batch = _corpus_queries(profile)
        fresh = [_query(copy.copy(profile), q) for q in batch]
        forward = copy.copy(profile)
        assert [_query(forward, q) for q in batch] == fresh
        backward = copy.copy(profile)
        assert [_query(backward, q) for q in reversed(batch)] == fresh[::-1]
        queries += len(batch)
    assert queries > 500


def test_the_memo_lives_and_dies_with_its_profile(example1: Profile) -> None:
    # The memo is no part of the profile's identity, copies and pickles
    # start without it, and it keeps nothing alive.
    searched = Profile(example1.candidates, example1.ballots)
    fresh = Profile(example1.candidates, example1.ballots)
    compute_mov(searched)
    compute_movc(searched, {"b"})
    assert vars(searched)["_memo"]
    assert searched == fresh
    assert hash(searched) == hash(fresh)
    assert repr(searched) == repr(fresh)
    for twin in pickle.loads(pickle.dumps(searched)), copy.copy(searched):
        assert twin == fresh
        assert "_memo" not in vars(twin)

    ref = weakref.ref(searched)
    del searched
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("num_candidates, lookahead_prunes", [(7, 10), (12, 20)])
def test_synthetic_mov_is_settled_by_tallies(
    num_candidates: int, lookahead_prunes: int
) -> None:
    # As criterion 8 at 10 candidates: the look-ahead drops every root but
    # the runner-up's, whose one expansion the tallies settle: one child is
    # a tally prune and the look-ahead drops the rest.
    result = compute_mov(synthetic_seat(1, num_candidates=num_candidates))
    assert result.value == 58
    stats = result.stats
    assert (stats.nodes_expanded, stats.lps_solved, stats.ips_solved) == (1, 0, 0)
    assert (stats.tally_prunes, stats.lookahead_prunes) == (1, lookahead_prunes)


def test_float_run_starts_optimal_on_every_suffix_lp(monkeypatch: pytest.MonkeyPatch) -> None:
    # Started on the slack basis with each column at the bound its cost
    # prefers, the float run keeps every ballot from the start, and on these
    # suffixes that start is already optimal: no pivot at all, and no exact
    # solve.  A fixed set of suffixes, solved directly: each increasing run
    # of minor candidates, alone or followed by the runner-up c1.
    pivots = {float: 0, Fraction: 0}
    pivot = simplex._pivot

    def counting(state, d, row, col):
        pivots[type(state.tab[row][col])] += 1
        pivot(state, d, row, col)

    monkeypatch.setattr(simplex, "_pivot", counting)
    profile = synthetic_seat(1, num_candidates=7)
    minors = ("c2", "c3", "c4", "c5", "c6")
    orders = [
        run + tail
        for n in range(1, len(minors) + 1)
        for run in itertools.combinations(minors, n)
        for tail in (("c1",), ())
        if len(run + tail) > 1
    ]
    assert len(orders) == 57
    for order in orders:
        lower_bound(build_model(profile, order))
    assert pivots == {float: 0, Fraction: 0}


def _ip_heavy_seats() -> list[Profile]:
    """Sixteen uniform-random seats on which integer programs carry the
    search: one of 6 or 7 candidates, fifteen of 5 or 6."""
    return [random_profile(105, min_candidates=6, max_candidates=7, max_lines=40,
                           max_count=200)] + [
        random_profile(seed, min_candidates=5, max_candidates=6, max_lines=40,
                       max_count=200)
        for seed in range(200, 215)
    ]


def test_ip_heavy_margins_do_not_depend_on_the_float_run(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # Branch-and-bound nodes settled by the float run give the margins that
    # exact solves at every node give.  Fresh profiles each time, so that
    # nothing is recalled.
    def margins() -> list[int]:
        return [compute_mov(p, TieRule.LEXICOGRAPHIC).value for p in _ip_heavy_seats()]

    guided = margins()
    # Every float run fails, so every node is solved exactly.
    monkeypatch.setattr(simplex, "_GUIDE_PIVOTS", 0)
    assert margins() == guided
    assert sum(guided) == 1292


def test_paper_scale_seats_keep_their_margins(monkeypatch: pytest.MonkeyPatch) -> None:
    # Two of oracle.paper_seat's seats, of the size of the paper's NSW seats:
    # 7 and 8 candidates and 20,000 ballots.  The pivots of seat 8/3's MOV
    # are pinned too: a float run that stalls until its pivot cap and falls
    # back to an exact solve shows here, where it costs seconds.
    pivots = {float: 0, Fraction: 0}
    pivot = simplex._pivot

    def counting(state, d, row, col):
        pivots[type(state.tab[row][col])] += 1
        pivot(state, d, row, col)

    monkeypatch.setattr(simplex, "_pivot", counting)
    for (k, i), rankings, margin in (((7, 3), 2447, 1756), ((8, 3), 5267, 855)):
        profile = paper_seat(k, i)
        pivots.update({float: 0, Fraction: 0})
        result = compute_mov(profile, TieRule.LEXICOGRAPHIC)
        assert (len(profile.ballots), result.value) == (rankings, margin)
    assert pivots == {float: 1686, Fraction: 0}


def test_lookahead_never_exceeds_the_oracle_distance_of_a_completion() -> None:
    # The look-ahead of a suffix claims that no completion of it is
    # attainable with fewer rewrites; the oracle's per-order enumeration
    # checks that claim on every complete order of the acceptance corpus.
    checked = 0
    for profile in _random_corpus():
        ids = frozenset(profile.candidate_ids)
        for perm in itertools.permutations(sorted(ids)):
            bound = max(
                _lookahead(lambda s: tally(profile, s), ids, perm[cut:])
                for cut in range(len(perm))
            )
            plan = _OrderPlan(profile, perm)
            assert not any(plan.reachable(k) for k in range(bound))
            checked += bound > 0
    assert checked > 1000


def test_frontier_keys_are_admissible_and_pop_in_order(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # A key claims that no completion of its suffix is attainable with fewer
    # rewrites; the oracle's per-order enumeration checks that claim on every
    # push of the MOV search and of the MOVC search toward each loser, whose
    # values it also checks.  Best-first pops never go down.
    pushed: list[tuple] = []
    popped: list[int] = []

    def push(heap: list, item: tuple) -> None:
        pushed.append(item)
        heapq.heappush(heap, item)

    def pop(heap: list) -> tuple:
        item = heapq.heappop(heap)
        popped.append(item[0])
        return item

    monkeypatch.setattr(search, "heapq", SimpleNamespace(heappush=push, heappop=pop))
    checked = 0
    for profile in _random_corpus():
        reachable = cache(lambda order, k: _OrderPlan(profile, order).reachable(k))
        ids = profile.candidate_ids
        winner = run_election(profile, TieRule.LEXICOGRAPHIC).winner
        losers = sorted(set(ids) - {winner})
        for alternates in [losers] + [[loser] for loser in losers]:
            pushed.clear()
            popped.clear()
            if alternates == losers:
                result = compute_mov(profile, TieRule.LEXICOGRAPHIC)
            else:
                result = compute_movc(profile, alternates, TieRule.LEXICOGRAPHIC)
            truth = oracle_movc(profile, alternates)
            assert result.value > 10 if truth is ABOVE_CAP else result.value == truth
            assert popped == sorted(popped)
            for key, _, suffix, _ in pushed:
                rest = [c for c in ids if c not in suffix]
                for head in itertools.permutations(rest):
                    assert not any(reachable(head + suffix, k) for k in range(key))
                checked += key > 0
    assert checked > 1000


@pytest.mark.parametrize(
    "seed, tie_rule, value, order, removals, additions",
    [
        (10, TieRule.LEXICOGRAPHIC, 4, ("c", "b", "a"),
         ((("c",), 4),), ((("a",), 2), (("b", "a"), 2))),
        (19, TieRule.FAIL, 6, ("c", "a", "b"),
         ((("c",), 4), (("c", "a"), 2)), ((("a", "b"), 4), (("b",), 2))),
    ],
)
def test_exact_start_keeps_the_witness(
    seed: int, tie_rule: TieRule, value: int, order: tuple,
    removals: tuple, additions: tuple,
) -> None:
    # The point a node is settled or branched on picks the rewrite solve_ip
    # finds: the float run's checked vertex where its certificate holds,
    # else the exact run's, which starts every column at its lower bound.
    result = compute_mov(random_profile(seed), tie_rule)
    witness = result.witness_manipulation
    assert result.value == value
    assert witness.sequence.order == order
    assert witness.removals == removals
    assert witness.additions == additions
