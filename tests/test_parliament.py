from __future__ import annotations

import random
from dataclasses import replace

import pytest

from irvmargin import (
    CoalitionLacksMajority,
    MissingMovc,
    SearchStats,
    SeatRecord,
    TieRule,
    analyze_seat,
    coalition_key,
    compute_movc,
    dump_seat_records,
    load_seat_records,
    parse_profile,
    relabel_complement,
    run_election,
    seats_to_lose_majority,
    seats_to_win,
    threshold,
)
from irvmargin import search

LOSE_COALITION_SEATS = [
    ("East Hills", 189),
    ("Lismore", 209),
    ("Upper Hunter", 866),
    ("Monaro", 1122),
    ("Coogee", 1243),
    ("Tweed", 1291),
    ("Penrith", 2576),
    ("Holsworthy", 2902),
]

WIN_ALP_CLP_SEATS = [
    ("East Hills", 189),
    ("Lismore", 209),
    ("Upper Hunter", 866),
    ("Monaro", 1122),
    ("Balina", 1130),
    ("Coogee", 1243),
    ("Tweed", 1291),
    ("Balmain", 1731),
    ("Penrith", 2576),
    ("Holsworthy", 2902),
    ("Goulburn", 2945),
    ("Oatley", 3006),
    ("Newtown", 3536),
]

WIN_ALP_CLP_GRE_SEATS = [
    ("East Hills", 189),
    ("Lismore", 209),
    ("Upper Hunter", 866),
    ("Monaro", 1122),
    ("Coogee", 1243),
    ("Tweed", 1291),
    ("Penrith", 2576),
    ("Holsworthy", 2902),
    ("Goulburn", 2945),
    ("Oatley", 3006),
]


def _record(
    seat: str,
    winner_party: str,
    mov: int,
    movc: dict[str, int] | None = None,
) -> SeatRecord:
    return SeatRecord(
        seat=seat,
        num_candidates=5,
        lrm=mov,
        mov=mov,
        winner=winner_party.lower(),
        winner_party=winner_party,
        movc_by_target=dict(movc or {}),
    )


def test_threshold_examples() -> None:
    assert threshold(93) == 47
    assert threshold(4) == 3
    assert threshold(5) == 3
    assert threshold(6) == 4
    assert threshold(100) == 51
    assert threshold(1) == 1


def test_coalition_key_normalizes() -> None:
    assert coalition_key(["nat", "LIB"]) == "LIB+NAT"
    assert coalition_key(["ALP"]) == "ALP"
    assert coalition_key(["gre", "clp", "alp"]) == "ALP+CLP+GRE"


def test_fixture_round_trips(nsw_records_text: str) -> None:
    records = load_seat_records(nsw_records_text)
    assert len(records) == 93
    assert dump_seat_records(records) == nsw_records_text
    sydney = next(r for r in records if r.seat == "Sydney")
    assert sydney.mov == 2864
    assert sydney.movc_by_target["ALP+CLP"] == 5583
    assert sydney.movc_by_target["ALP+CLP+GRE"] == 5583
    assert "LIB+NAT" not in sydney.movc_by_target
    held = next(r for r in records if r.seat == "Gosford")
    assert held.movc_by_target["ALP+CLP"] == 0


def test_fixture_margin_invariants(nsw_records_text: str) -> None:
    # Coalition margins can never beat the unrestricted margin; the zero
    # entries mark seats the coalition already holds.
    for record in load_seat_records(nsw_records_text):
        assert 0 < record.mov <= record.lrm, record.seat
        for key, value in record.movc_by_target.items():
            if record.winner_party in key.split("+"):
                assert value == 0, (record.seat, key)
            else:
                assert value >= record.mov, (record.seat, key)


def test_lose_majority_totals(nsw_records_text: str) -> None:
    records = load_seat_records(nsw_records_text)
    scenario = seats_to_lose_majority(records, ["LIB", "NAT"], threshold(93))
    assert scenario.mode == "lose-majority"
    assert scenario.seats_needed == 8
    assert scenario.chosen_seats == tuple(LOSE_COALITION_SEATS)
    assert scenario.total_changes == 10398


def test_win_majority_totals(nsw_records_text: str) -> None:
    records = load_seat_records(nsw_records_text)
    scenario = seats_to_win(records, ["ALP", "CLP"], threshold(93))
    assert scenario.seats_needed == 13
    assert scenario.chosen_seats == tuple(WIN_ALP_CLP_SEATS)
    assert scenario.total_changes == 22746


def test_win_majority_with_greens(nsw_records_text: str) -> None:
    records = load_seat_records(nsw_records_text)
    scenario = seats_to_win(records, ["ALP", "CLP", "GRE"], threshold(93))
    assert scenario.seats_needed == 10
    assert scenario.chosen_seats == tuple(WIN_ALP_CLP_GRE_SEATS)
    assert scenario.total_changes == 16349


def test_sydney_uses_movc_not_mov(nsw_records_text: str) -> None:
    # Sydney's margin of victory (2864) undercuts Newtown's targeted value
    # (3536), but electing just anyone in Sydney does not help the
    # coalition; the targeted value (5583) keeps Sydney out of the basket.
    records = load_seat_records(nsw_records_text)
    npos = {r.seat: i for i, r in enumerate(records)}
    substituted = list(records)
    sydney = records[npos["Sydney"]]
    substituted[npos["Sydney"]] = SeatRecord(
        seat=sydney.seat,
        num_candidates=sydney.num_candidates,
        lrm=sydney.lrm,
        mov=sydney.mov,
        winner=sydney.winner,
        winner_party=sydney.winner_party,
        movc_by_target={**sydney.movc_by_target, "ALP+CLP": sydney.mov},
    )
    scenario = seats_to_win(substituted, ["ALP", "CLP"], threshold(93))
    chosen = dict(scenario.chosen_seats)
    assert chosen["Sydney"] == 2864
    assert "Newtown" not in chosen
    assert scenario.total_changes == 22746 - 3536 + 2864 == 22074


def test_scenarios_ignore_record_order(nsw_records_text: str) -> None:
    records = load_seat_records(nsw_records_text)
    shuffled = list(records)
    random.Random(3).shuffle(shuffled)
    base = seats_to_lose_majority(records, ["LIB", "NAT"], threshold(93))
    moved = seats_to_lose_majority(shuffled, ["LIB", "NAT"], threshold(93))
    assert base == moved
    assert seats_to_win(records, ["ALP", "CLP"], threshold(93)) == seats_to_win(
        shuffled, ["ALP", "CLP"], threshold(93)
    )


def test_lose_requires_majority() -> None:
    records = [_record(f"s{i}", "ALP", 100 + i) for i in range(5)]
    with pytest.raises(CoalitionLacksMajority):
        seats_to_lose_majority(records, ["LIB"], threshold(5))


def test_lose_prefers_the_complement_key_over_mov() -> None:
    records = [
        _record("s1", "LIB", 50, {"ALP+GRE": 300}),
        _record("s2", "LIB", 60, {"ALP+GRE": 100}),
        _record("s3", "ALP", 10),
        _record("s4", "GRE", 10),
    ]
    scenario = seats_to_lose_majority(records, ["LIB"], 2)
    assert scenario.seats_needed == 1
    assert scenario.chosen_seats == (("s2", 100),)
    # A key for only some of the outside parties is not the complement key.
    narrow = [_record(r.seat, r.winner_party, r.mov, {"ALP": 300}) for r in records]
    assert seats_to_lose_majority(narrow, ["LIB"], 2).chosen_seats == (("s1", 50),)


def test_lose_falls_back_to_roster_complement_then_mov() -> None:
    keyed = [
        _record("s1", "LIB", 50, {"ALP": 300}),
        _record("s2", "LIB", 60, {"ALP": 100}),
        _record("s3", "ALP", 10),
    ]
    # Both held seats carry the roster-complement key, so it is used.
    scenario = seats_to_lose_majority(keyed, ["LIB"], threshold(3))
    assert scenario.chosen_seats == (("s2", 100),)
    bare = [
        _record("s1", "LIB", 50),
        _record("s2", "LIB", 60),
        _record("s3", "ALP", 10),
    ]
    # No keyed values anywhere: fall back to each seat's margin of victory.
    scenario = seats_to_lose_majority(bare, ["LIB"], threshold(3))
    assert scenario.chosen_seats == (("s1", 50),)


def test_win_when_already_holding_majority() -> None:
    records = [_record(f"s{i}", "ALP", 100) for i in range(3)]
    # The unheld seat lacks the coalition's key, which is not needed.
    records.append(_record("s3", "LIB", 5))
    scenario = seats_to_win(records, ["ALP"], threshold(4))
    assert scenario.seats_needed == 0
    assert scenario.chosen_seats == ()
    assert scenario.total_changes == 0


def test_win_requires_target_values() -> None:
    records = [
        _record("s1", "LIB", 50),
        _record("s2", "LIB", 60, {"ALP": 80}),
        _record("s3", "ALP", 10),
    ]
    with pytest.raises(MissingMovc):
        seats_to_win(records, ["ALP"], threshold(3))


def test_win_ranks_by_target_value_then_seat() -> None:
    records = [
        _record("s1", "LIB", 50, {"ALP": 70}),
        _record("s2", "LIB", 60, {"ALP": 70}),
        _record("s3", "LIB", 10, {"ALP": 90}),
        _record("s4", "ALP", 10),
    ]
    scenario = seats_to_win(records, ["ALP"], threshold(4))
    assert scenario.seats_needed == 2
    assert scenario.chosen_seats == (("s1", 70), ("s2", 70))
    assert scenario.total_changes == 140


def test_lose_fallback_never_skips_a_seat_without_mov() -> None:
    records = [
        _record("s1", "LIB", 50),
        replace(_record("s2", "LIB", 60), mov=None),
        _record("s3", "ALP", 10),
    ]
    # Skipping s2 would still price s1, but the cheapest seat may be s2.
    with pytest.raises(MissingMovc, match="seats lacking mov: s2"):
        seats_to_lose_majority(records, ["LIB"], threshold(3))


def test_blank_mov_cell_round_trips_as_none() -> None:
    records = [replace(_record("s1", "LIB", 50, {"ALP": 70}), mov=None)]
    text = dump_seat_records(records)
    assert text.splitlines()[1] == "s1,5,50,,lib,LIB,70"
    assert load_seat_records(text) == records


def test_malformed_records_carry_line_numbers() -> None:
    header = (
        "seat,num_candidates,lrm,mov,winner,winner_party,movc:ALP\n"
    )
    with pytest.raises(ValueError, match="line 2"):
        load_seat_records(header + "X,notanint,5,5,w,LIB,9\n")
    with pytest.raises(ValueError, match="line 3"):
        load_seat_records(header + "X,4,5,5,w,LIB,9\nY,4,5,5,w\n")
    # Blank lines count toward the line number.
    with pytest.raises(ValueError, match="line 4"):
        load_seat_records(header + "X,4,5,5,w,LIB,9\n\nY,x,5,5,w,LIB,9\n")
    # Only mov may be blank; a mov that is there must be a number, and every
    # count is written in ASCII decimal digits.
    for row in (
        "X,,5,5,w,LIB,9", "X,4,,5,w,LIB,9", "X,4,5,five,w,LIB,9",
        "X,1_0,5,5,w,LIB,9", "X,4,\u0663,5,w,LIB,9", "X,4,5,+5,w,LIB,9", "X,4,5,5,w,LIB,1_0",
    ):
        with pytest.raises(ValueError, match="line 2: bad seat record"):
            load_seat_records(header + row + "\n")
    # No count may be negative.
    negative = "X,-4,5,5,w,LIB,9", "X,4,-5,5,w,LIB,9", "X,4,5,-5,w,LIB,9", "X,4,5,5,w,LIB,-7"
    for row in negative:
        with pytest.raises(ValueError, match=r"line 2: bad seat record \(negative count"):
            load_seat_records(header + row + "\n")
    # "+" joins the parties of a coalition, so no coalition could hold this seat.
    with pytest.raises(
        ValueError, match=r"line 2: bad seat record \(party code 'LIB\+NAT' contains '\+'"
    ):
        load_seat_records(header + "X,4,5,5,w,LIB+NAT,9\n")
    # Nor one whose party is blank.  Cells are trimmed, so a padded one is read
    # as the party it pads.
    with pytest.raises(
        ValueError, match=r"line 3: bad seat record \(party code '' is blank\)"
    ):
        load_seat_records(header + "S1,4,5,5,w, LIB ,9\nX,4,5,5,w, ,9\n")
    assert load_seat_records(header + "S1,4,5,5,w, LIB ,9\n")[0].winner_party == "LIB"
    # A seat named twice would be counted, and could be chosen, twice.
    with pytest.raises(
        ValueError, match=r"line 4: bad seat record \(seat 'S1' is already on line 2\)"
    ):
        load_seat_records(header + "S1,4,5,5,w,LIB,9\nS2,4,5,5,w,LIB,9\nS1,4,5,5,w,LIB,3\n")
    # Two columns for one coalition would let the later one silently win.
    with pytest.raises(
        ValueError, match=r"seat CSV columns 'movc:ALP' and 'movc:alp' both hold coalition ALP"
    ):
        load_seat_records(header.replace("\n", ",movc:alp\n") + "S2,4,5,5,w,LIB,7,1\n")
    with pytest.raises(ValueError, match=r"seat CSV column 'movc:\+' names no coalition"):
        load_seat_records(header.replace("\n", ",movc:+\n") + "S2,4,5,5,w,LIB,7,\n")
    # A repeated column would let the later one silently win.
    with pytest.raises(ValueError, match=r"line 1: seat CSV repeats column 'lrm'"):
        load_seat_records(header.replace("movc:ALP", "lrm") + "S1,4,5,5,w,LIB,900\n")
    # A row must have the header's cells: one short would drop its movc cell
    # as not computed, one over would be ignored.
    for row, cells in ("X,4,5,5,w,LIB", 6), ("X,4,5,5,w,LIB,9,1", 8), ("X,4,5", 3):
        with pytest.raises(
            ValueError,
            match=rf"line 3: bad seat record \({cells} cells where the header has 7\)",
        ):
            load_seat_records(header + "Y,4,5,5,w,LIB,9\n" + row + "\n")
    with pytest.raises(ValueError, match=r"line 2: bad seat record \(blank seat name\)"):
        load_seat_records(header + " ,4,5,5,w,LIB,9\n")


PARTY_SEAT = """\
# candidates: a:ALP, b:LIB, c:GRE
55,a
41,b>c
15,c
25,c>a
"""


def test_analyze_seat_targets_and_sums_stats() -> None:
    profile = parse_profile(PARTY_SEAT)
    record, stats = analyze_seat(profile, ["lib"], "win", seat="S")
    movc = compute_movc(profile, {"b"})
    assert record == SeatRecord("S", 3, 20, None, "a", "ALP", {"LIB": movc.value})
    # The targeted search is the only one the seat runs.
    assert stats == movc.stats == SearchStats(2, 0, 1, 1)

    record, stats = analyze_seat(profile, ["ALP"], "lose", seat="S")
    both = compute_movc(profile, {"b", "c"})
    assert record.movc_by_target == {"GRE+LIB": both.value}
    assert record.mov is None
    assert stats == both.stats == SearchStats(2, 0, 1, 0)
    # Manifest parties override the roster: with c in the coalition only b is a target.
    record, _ = analyze_seat(profile, ["ALP"], "lose", {"c": "alp"}, TieRule.FAIL, seat="S")
    assert record.movc_by_target == {"LIB": 10}
    with pytest.raises(ValueError, match=r"unknown candidates in parties: \['zz'\]"):
        analyze_seat(profile, ["ALP"], "lose", {"zz": "LIB"}, seat="S")
    # Seats the scenario does not contest run no search.
    for coalition, mode in (["ALP"], "win"), (["LIB"], "lose"):
        record, stats = analyze_seat(profile, coalition, mode, seat="S")
        assert record.movc_by_target == {}
        assert record.mov is None
        assert stats == SearchStats()
    # A coalition with no candidate here cannot win the seat.
    record, stats = analyze_seat(profile, ["NAT"], "win", seat="S")
    assert record.movc_by_target == {"NAT": None}
    assert record.mov is None
    assert stats == SearchStats()
    with pytest.raises(ValueError):
        analyze_seat(profile, ["ALP"], "flip", seat="S")


@pytest.mark.parametrize(
    "coalition, mode", [("LIB", "win"), ("ALP", "lose"), ("ALP", "win"), ("NAT", "win")]
)
def test_analyze_seat_counts_the_seat_once(
    monkeypatch: pytest.MonkeyPatch, coalition: str, mode: str
) -> None:
    # The search reads the count analyze_seat made, contested seat or not.
    calls = []

    def counting(profile, tie_rule=TieRule.FAIL):
        calls.append(tie_rule)
        return run_election(profile, tie_rule)

    monkeypatch.setattr(search, "run_election", counting)
    for tie_rule in TieRule:
        analyze_seat(parse_profile(PARTY_SEAT), [coalition], mode, tie_rule=tie_rule, seat="S")
    assert calls == list(TieRule)


def test_relabel_complement_uses_the_roster_complement() -> None:
    records = [
        _record("A", "ALP", 4, {"GRE+LIB": 4}),
        _record("B", "ALP", 7, {"LIB": 7}),
        _record("C", "NAT", 2),
        _record("D", "ALP", 3),
    ]
    relabelled = relabel_complement(records, ["alp"])
    key = "GRE+LIB+NAT"
    assert [r.movc_by_target for r in relabelled] == [{key: 4}, {key: 7}, {}, {key: None}]
    # seats_to_lose_majority derives the same key from the relabelled records.
    assert seats_to_lose_majority(relabelled, ["ALP"], 2).chosen_seats == (("A", 4), ("B", 7))
    with pytest.raises(ValueError, match="no seat can be flipped"):
        relabel_complement(records[:1], ["ALP", "GRE", "LIB"])


def test_seats_without_a_target_candidate_are_held_but_never_chosen() -> None:
    lose = [
        _record("s1", "ALP", 1, {"LIB": 1}),
        _record("s2", "ALP", 5, {"LIB": None}),
        _record("s3", "ALP", 20, {"LIB": 20}),
    ]
    # LIB is the roster's complement, so its margins price the seats.
    scenario = seats_to_lose_majority(lose, ["ALP"], 2)
    assert scenario.chosen_seats == (("s1", 1), ("s3", 20))
    with pytest.raises(ValueError, match="only 2 of its 3 seats"):
        seats_to_lose_majority(lose, ["ALP"], 1)

    win = [
        _record("s1", "ALP", 1, {"LIB": 10}),
        _record("s2", "ALP", 5, {"LIB": None}),
        _record("s3", "ALP", 20, {"LIB": 20}),
    ]
    scenario = seats_to_win(win, ["LIB"], 2)
    assert scenario.chosen_seats == (("s1", 10), ("s3", 20))
    assert scenario.total_changes == 30
    with pytest.raises(ValueError, match="only 2 seats are winnable"):
        seats_to_win(win, ["LIB"], 3)

    text = dump_seat_records(win)
    assert text.splitlines()[2].endswith(",-")
    assert load_seat_records(text) == win
    # A blank cell was never computed, which is not the same thing.
    with pytest.raises(MissingMovc):
        seats_to_win(load_seat_records(text.replace(",-", ",")), ["LIB"], 2)
