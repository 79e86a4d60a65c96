from __future__ import annotations

import random

import pytest
from oracle import random_profile

from irvmargin import (
    Profile,
    TieRule,
    UnresolvedTie,
    last_round_margin,
    run_election,
    tally,
)


def test_tally_initial_round(example1: Profile) -> None:
    assert tally(example1, {"a", "b", "c"}) == {"a": 55, "b": 41, "c": 40}
    assert run_election(example1).rounds[0].exhausted == 0


def test_tally_after_c_eliminated(example1: Profile) -> None:
    assert tally(example1, {"a", "b"}) == {"a": 80, "b": 41}
    assert run_election(example1).rounds[1].exhausted == 15


def test_tally_after_b_eliminated(example1: Profile) -> None:
    votes = tally(example1, {"a", "c"})
    assert votes == {"a": 55, "c": 81}
    assert sum(votes.values()) == example1.total


def test_run_election_realized_order(example1: Profile) -> None:
    result = run_election(example1)
    assert result.winner == "a"
    assert result.elimination_order == ("c", "b", "a")
    assert [r.eliminated for r in result.rounds] == ["c", "b"]
    assert result.rounds[0].standing == ("a", "b", "c")
    assert result.rounds[1].standing == ("a", "b")
    assert result.rounds[-1].votes == {"a": 80, "b": 41}


def test_run_election_two_candidates() -> None:
    profile = Profile.from_rankings({"a": 3, "b": 2})
    result = run_election(profile)
    assert result.winner == "a"
    assert result.elimination_order == ("b", "a")


def test_run_election_tie_fails_by_default() -> None:
    profile = Profile.from_rankings({"a": 5, "b": 5})
    with pytest.raises(UnresolvedTie):
        run_election(profile)


def test_run_election_lexicographic_tie_rule() -> None:
    profile = Profile.from_rankings({"a": 5, "b": 5})
    result = run_election(profile, tie_rule=TieRule.LEXICOGRAPHIC)
    assert result.elimination_order == ("a", "b")
    assert result.winner == "b"


def test_last_round_margin_examples(example1: Profile) -> None:
    assert last_round_margin(run_election(example1)) == 20
    assert last_round_margin(run_election(Profile.from_rankings({"a": 10, "b": 4}))) == 3
    tied = Profile.from_rankings({"a": 7, "b": 7})
    result = run_election(tied, tie_rule=TieRule.LEXICOGRAPHIC)
    assert last_round_margin(result) == 0


def test_round_conservation_and_monotone_tallies() -> None:
    for seed in range(40):
        profile = random_profile(seed)
        try:
            result = run_election(profile)
        except UnresolvedTie:
            result = run_election(profile, tie_rule=TieRule.LEXICOGRAPHIC)
        previous: dict[str, int] = {}
        for rnd in result.rounds:
            assert sum(rnd.votes.values()) + rnd.exhausted == profile.total
            assert rnd.exhausted == sum(
                b.count for b in profile.ballots if not set(b.ranking) & set(rnd.standing)
            )
            for cid, votes in rnd.votes.items():
                assert votes >= previous.get(cid, 0)
            previous = rnd.votes


def test_scaling_counts_preserves_order_and_scales_tallies() -> None:
    rng = random.Random(11)
    for seed in range(20):
        profile = random_profile(seed)
        k = rng.randint(2, 5)
        scaled = Profile.from_rankings(
            {">".join(b.ranking): b.count * k for b in profile.ballots},
            extra_candidates=profile.candidate_ids,
        )
        try:
            base = run_election(profile)
        except UnresolvedTie:
            continue
        result = run_election(scaled)
        assert result.elimination_order == base.elimination_order
        for ours, theirs in zip(result.rounds, base.rounds):
            assert ours.exhausted == theirs.exhausted * k
            assert ours.votes == {c: v * k for c, v in theirs.votes.items()}
