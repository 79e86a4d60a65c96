from __future__ import annotations

import pytest

from irvmargin import (
    Ballot,
    Candidate,
    ParseError,
    Profile,
    ProfileError,
    parse_profile,
    serialize_profile,
)
from irvmargin.ballots import first_preference


def test_parse_example_profile(example1: Profile) -> None:
    assert example1.total == 136
    assert example1.candidate_ids == ("a", "b", "c")
    assert {b.ranking: b.count for b in example1.ballots} == {
        ("a",): 55,
        ("b", "c"): 41,
        ("c",): 15,
        ("c", "a"): 25,
    }


def test_parse_merges_duplicate_rankings() -> None:
    profile = parse_profile("# candidates: a:none,b:none\n3,a>b\n2,a>b\n")
    assert profile.ballots == (Ballot(("a", "b"), 5),)


def test_parse_builds_one_ballot_per_record_and_one_per_merge(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # The profile keeps each parsed ballot whose ranking is not repeated.
    built = []
    post_init = Ballot.__post_init__

    def counting(ballot: Ballot) -> None:
        built.append(ballot)
        post_init(ballot)

    monkeypatch.setattr(Ballot, "__post_init__", counting)
    text = "# candidates: a:none,b:none,c:none\n3,c>a\n2,a>b\n4,b\n1,a\n"
    profile = parse_profile(text)
    assert len(built) == 4
    assert set(map(id, profile.ballots)) == set(map(id, built))
    assert serialize_profile(profile) == (
        "# candidates: a:none,b:none,c:none\n1,a\n2,a>b\n4,b\n3,c>a\n"
    )
    built.clear()
    parse_profile(text + "5,a>b\n")
    assert len(built) == 6


def test_parse_accepts_comments_and_blank_lines() -> None:
    text = "# preamble\n\n# candidates: a:none,b:none\n# midstream note\n1,a\n\n2,b\n"
    profile = parse_profile(text)
    assert profile.total == 3


def test_parse_roster_carries_parties() -> None:
    profile = parse_profile("# candidates: x:ALP, y:LIB\n1,x\n1,y\n")
    assert [(c.id, c.party) for c in profile.candidates] == [("x", "ALP"), ("y", "LIB")]


@pytest.mark.parametrize(
    ("text", "line", "needle"),
    [
        ("# candidates: a:none,b:none\n4,a>b>a\n", 2, "duplicate"),
        ("# candidates: a:none,b:none\n1,a>z\n", 2, "unknown candidate"),
        ("# candidates: a:none,b:none\n0,a\n", 2, "nonpositive"),
        ("# candidates: a:none,b:none\n-2,a\n", 2, "nonpositive"),
        ("# candidates: a:none,b:none\nx,a\n", 2, "bad ballot count"),
        ("# candidates: a:none,b:none\n1_0,a\n", 2, "bad ballot count '1_0'"),
        ("# candidates: a:none,b:none\n\u0663,b\n", 2, "bad ballot count '\u0663'"),
        ("# candidates: a:none,b:none\n+3,a\n", 2, "bad ballot count '+3'"),
        ("# candidates: a:none,b:none\n5\n", 2, "not count,ranking"),
        ("# candidates: a:none,b:none\n1,a>\n", 2, "empty candidate id"),
        ("1,a\n# candidates: a:none,b:none\n", 1, "before candidate roster"),
        ("# candidates: a:none\n# candidates: b:none\n", 2, "duplicate candidate roster"),
        ("# candidates: a\n", 1, "is not id:party"),
        ("# candidates:\n", 1, "empty candidate roster"),
        ("# candidates: a:X,a:Y\n1,a\n", 1, "duplicate candidate id in roster"),
        ("# x\n# candidates: a:X\n1,a\n", 2, "at least two candidates"),
        # "+" joins the parties of a coalition, which could never match this one.
        ("# candidates: a:LIB+NAT,b:ALP\n1,a\n", 1, "party code 'LIB+NAT' contains '+'"),
        ("# candidates: a:ALP,b: \n1,a\n", 1, "roster entry 'b:' is not id:party"),
    ],
)
def test_parse_errors_carry_line_numbers(text: str, line: int, needle: str) -> None:
    with pytest.raises(ParseError) as info:
        parse_profile(text)
    assert info.value.line == line
    assert needle in str(info.value)
    assert f"line {line}:" in str(info.value)


def test_parse_requires_a_roster() -> None:
    with pytest.raises(ParseError, match="no candidate roster"):
        parse_profile("# just a comment\n")


def test_candidate_id_rejects_separator_characters() -> None:
    for bad in ("a,b", "a>b", "a:b", "a b", ""):
        with pytest.raises(ProfileError):
            Candidate(bad)


def test_candidate_party_rejects_codes_no_coalition_matches() -> None:
    for bad, needle in (("", "is blank"), (" ", "is blank"),
                        (" ALP", "surrounding whitespace"), ("ALP\t", "surrounding whitespace")):
        with pytest.raises(ProfileError, match=needle):
            Candidate("a", party=bad)


def test_ballot_invariants() -> None:
    with pytest.raises(ProfileError):
        Ballot((), 1)
    with pytest.raises(ProfileError):
        Ballot(("a", "a"), 1)
    with pytest.raises(ProfileError):
        Ballot(("a",), 0)


def test_ballot_count_must_be_an_integer() -> None:
    # A float or string count used to build a profile that the solver or
    # the file format then rejected with a bare or misleading error.
    for bad in (2.0, 2.5, "3"):
        with pytest.raises(ProfileError, match="is not an integer"):
            Profile.from_rankings({"a": 5, "b>a": bad, "c>b": 3})
    ballot = Ballot(("a",), True)
    assert ballot.count == 1 and type(ballot.count) is int


def test_profile_requires_two_candidates() -> None:
    with pytest.raises(ProfileError):
        Profile((Candidate("a"),), (Ballot(("a",), 1),))


def test_profile_rejects_unknown_ballot_candidate() -> None:
    roster = (Candidate("a"), Candidate("b"))
    with pytest.raises(ProfileError, match="unknown candidate"):
        Profile(roster, (Ballot(("z",), 1),))


def test_profile_rejects_duplicate_roster_ids() -> None:
    with pytest.raises(ProfileError, match="duplicate candidate id"):
        Profile((Candidate("a"), Candidate("a")), ())


def test_first_preference_examples() -> None:
    assert first_preference(Ballot(("b", "c"), 1), {"a", "b", "c"}) == "b"
    assert first_preference(Ballot(("b", "c"), 1), {"a", "c"}) == "c"
    assert first_preference(Ballot(("a",), 1), {"b", "c"}) is None


def test_serialize_round_trips_bit_exactly(example1: Profile) -> None:
    text = serialize_profile(example1)
    again = parse_profile(text)
    assert again == example1
    assert serialize_profile(again) == text


def test_serialize_orders_roster_and_rankings() -> None:
    profile = Profile.from_rankings({"b>a": 2, "a": 1}, parties={"a": "ALP"})
    assert serialize_profile(profile) == (
        "# candidates: a:ALP,b:none\n1,a\n2,b>a\n"
    )


def test_from_rankings_extra_candidates_extend_roster() -> None:
    profile = Profile.from_rankings({"a": 1}, extra_candidates=["b", "c"])
    assert profile.candidate_ids == ("a", "b", "c")
