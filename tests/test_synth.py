from __future__ import annotations

import pytest

from oracle import random_profile

from irvmargin import last_round_margin, run_election, serialize_profile
from irvmargin.synth import synthetic_seat


def test_random_profile_is_deterministic() -> None:
    assert serialize_profile(random_profile(7)) == serialize_profile(random_profile(7))
    assert serialize_profile(random_profile(7)) != serialize_profile(random_profile(8))


def test_random_profile_respects_caps() -> None:
    for seed in range(30):
        profile = random_profile(seed)
        assert 3 <= len(profile.candidate_ids) <= 4
        first_prefs = {b.ranking[0] for b in profile.ballots}
        assert first_prefs == set(profile.candidate_ids)


def test_synthetic_seat_shape() -> None:
    profile = synthetic_seat(0)
    assert len(profile.candidate_ids) == 8
    assert profile.total == 50_000
    assert serialize_profile(profile) == serialize_profile(synthetic_seat(0))


def test_synthetic_seat_counts_cleanly_and_stays_close() -> None:
    for seed in range(6):
        profile = synthetic_seat(seed)
        count = run_election(profile)  # must not hit a tie under fail-on-tie
        assert count.rounds[-1].standing == ("c0", "c1")
        final = count.rounds[-1].votes
        gap = abs(final["c0"] - final["c1"])
        # The two majors finish within a whisker of each other while the
        # minor pile gaps sit strictly above the whole final-round gap.
        assert 0 < gap <= 2 * (50_000 // 1000) * 2 + 1
        assert last_round_margin(count) <= 50_000 // 1000 * 2 + 1


def test_synthetic_seat_scales_down() -> None:
    profile = synthetic_seat(3, num_candidates=4, num_ballots=2_000)
    assert len(profile.candidate_ids) == 4
    assert profile.total == 2_000
    run_election(profile)


def test_synthetic_seat_rejects_tiny_instances() -> None:
    with pytest.raises(ValueError):
        synthetic_seat(0, num_candidates=12, num_ballots=300)
    with pytest.raises(ValueError):
        synthetic_seat(0, num_candidates=1)
