from __future__ import annotations

import pytest
from oracle import (
    ABOVE_CAP,
    OracleCapExceeded,
    OracleConfig,
    oracle_movc,
    random_profile,
)

from irvmargin import (
    Profile,
    adversarial_winners,
    apply_manipulation,
    compute_movc,
    order_attainable,
)


def test_adversarial_winners_unique_without_ties(example1: Profile) -> None:
    assert adversarial_winners(example1) == {"a"}


def test_adversarial_winners_branch_on_ties() -> None:
    assert adversarial_winners(Profile.from_rankings({"a": 1, "b": 1})) == {"a", "b"}
    profile = Profile.from_rankings({"a>c": 5, "b>c": 5, "c": 4})
    # a and b tie first; whoever survives beats c 9 to 5.
    assert adversarial_winners(profile) == {"a", "b"}


def test_movc_witness_makes_alternate_electable(example1: Profile) -> None:
    result = compute_movc(example1, {"b"})
    manipulated = apply_manipulation(example1, result.witness_manipulation)
    assert "b" in adversarial_winners(manipulated)


def test_order_attainable(example1: Profile) -> None:
    assert order_attainable(example1, ("c", "b", "a"))
    assert not order_attainable(example1, ("b", "c", "a"))
    assert not order_attainable(example1, ("c", "b"))
    assert not order_attainable(example1, ("c", "b", "z"))


def test_oracle_movc_goldens(example1: Profile) -> None:
    assert oracle_movc(example1, {"b"}) == 10
    assert oracle_movc(example1, {"c"}) == 1
    assert oracle_movc(example1, {"b", "c"}) == 1


def test_oracle_movc_two_candidate_profile() -> None:
    profile = Profile.from_rankings({"a": 3, "b": 2})
    assert oracle_movc(profile, {"b"}) == 1


def test_oracle_movc_zero_when_alternate_can_already_win() -> None:
    profile = Profile.from_rankings({"a>c": 5, "b>c": 5, "c": 4})
    assert oracle_movc(profile, {"b"}) == 0


def test_oracle_returns_above_cap_when_changes_exceed_budget(
    example1: Profile,
) -> None:
    capped = oracle_movc(example1, {"b"}, OracleConfig(max_changes=5))
    assert capped is ABOVE_CAP
    assert not capped


def test_oracle_rejects_oversized_instances() -> None:
    wide = Profile.from_rankings({c: 1 for c in "abcde"})
    with pytest.raises(OracleCapExceeded):
        oracle_movc(wide, {"b"})
    busy = Profile.from_rankings(
        {
            "a>b>c": 1, "a>c>b": 1, "b>a>c": 1, "b>c>a": 1,
            "c>a>b": 1, "c>b>a": 1, "a>b": 1, "b>c": 1,
            "c>a": 1, "a": 1, "b": 1,
        }
    )
    with pytest.raises(OracleCapExceeded):
        oracle_movc(busy, {"b"})


def test_oracle_rejects_bad_alternates(example1: Profile) -> None:
    with pytest.raises(ValueError):
        oracle_movc(example1, set())
    with pytest.raises(ValueError):
        oracle_movc(example1, {"z"})


def test_oracle_minimality_is_witnessed_by_definition() -> None:
    # The oracle value k means: no (k-1)-rewrite elects an alternate, and
    # some k-rewrite does.  Spot-check against a hand margin: moving 1
    # ballot from a to b flips a 3/2 race.
    profile = Profile.from_rankings({"a": 3, "b": 2})
    assert oracle_movc(profile, {"b"}) == 1
    flipped = Profile.from_rankings({"a": 2, "b": 3})
    assert adversarial_winners(flipped) == {"b"}


def test_oracle_handles_random_profiles_within_caps() -> None:
    seen_positive = False
    for seed in range(12):
        profile = random_profile(seed)
        alternates = set(profile.candidate_ids) - adversarial_winners(profile)
        if not alternates:
            continue
        value = oracle_movc(profile, alternates)
        if value is ABOVE_CAP:
            continue
        assert value > 0
        seen_positive = True
    assert seen_positive
