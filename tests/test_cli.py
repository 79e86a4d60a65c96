from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from irvmargin import (
    TieRule,
    analyze_seat,
    build_model,
    dump_seat_records,
    load_seat_records,
    parse_profile,
    relabel_complement,
)
from irvmargin import cli, simplex
from irvmargin.cli import main
from irvmargin.distance import _assemble

EXAMPLE_WITH_PARTIES = """\
# candidates: a:ALP, b:LIB, c:GRE
55,a
41,b>c
15,c
25,c>a
"""

SMALL_SEAT = """\
# candidates: x:ALP, y:LIB
6,x
9,y
"""

CHEAP_SEAT = """\
# candidates: z:ALP, w:LIB
4,z
3,w
"""

# The branch-and-bound node that gives this seat's witness is settled by the
# float run's checked vertex, not by an exact solve: its rewrite removes
# 3 x c, where exact solves at every node remove 3 x c>a.  The pinned report
# checks that the float-chosen rewrite is the same on every Python.
FLOAT_SETTLED_SEAT = """\
# candidates: a:none, b:none, c:none
8,a
7,b>c>a
8,c
4,c>a
"""

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def seat_file(tmp_path: Path) -> Path:
    path = tmp_path / "seat.ballots"
    path.write_text(EXAMPLE_WITH_PARTIES, encoding="utf-8")
    return path


@pytest.fixture
def manifest(tmp_path: Path) -> Path:
    (tmp_path / "seat1.ballots").write_text(EXAMPLE_WITH_PARTIES, encoding="utf-8")
    (tmp_path / "seat2.ballots").write_text(SMALL_SEAT, encoding="utf-8")
    (tmp_path / "seat3.ballots").write_text(CHEAP_SEAT, encoding="utf-8")
    path = tmp_path / "manifest.json"
    path.write_text(
        json.dumps(
            {
                "seats": [
                    {"name": "First", "path": "seat1.ballots", "parties": {}},
                    {"name": "Second", "path": "seat2.ballots", "parties": {}},
                    {"name": "Third", "path": "seat3.ballots", "parties": {}},
                ],
            }
        ),
        encoding="utf-8",
    )
    return path


def test_tabulate_table_format(seat_file: Path, capsys: pytest.CaptureFixture) -> None:
    assert main(["tabulate", str(seat_file), "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "eliminated: c" in out
    assert "eliminated: b" in out
    assert "winner: a" in out
    assert "last-round margin: 20" in out


def test_tabulate_csv_format(seat_file: Path, capsys: pytest.CaptureFixture) -> None:
    assert main(["tabulate", str(seat_file), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "kind,round,key,value"
    assert "tally,1,a,55" in lines
    assert "tally,2,a,80" in lines
    assert "winner,,a," in lines
    assert "lrm,,,20" in lines


def test_tabulate_json_is_byte_identical_across_runs(
    seat_file: Path, capsys: pytest.CaptureFixture
) -> None:
    assert main(["tabulate", str(seat_file), "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["tabulate", str(seat_file), "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["winner"] == "a"
    assert report["last_round_margin"] == 20
    assert first == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_margin_json_report(seat_file: Path, capsys: pytest.CaptureFixture) -> None:
    assert main(["margin", str(seat_file), "--format", "json", "--stats"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["value"] == 1
    assert report["winner"] == "a"
    assert report["witness_order"] == ["b", "a", "c"]
    assert report["witness_changes"] == {
        "removals": {"b>c": 1},
        "additions": {"c": 1},
    }
    assert report["stats"] == {
        "nodes_expanded": 2,
        "lps_solved": 0,
        "ips_solved": 1,
        "tally_prunes": 0,
        "lookahead_prunes": 0,
    }


def test_movc_alias_with_candidate_ids(
    seat_file: Path, capsys: pytest.CaptureFixture
) -> None:
    assert main(["movc", str(seat_file), "--alternates", "b", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["value"] == 10
    assert report["witness_order"] == ["a", "c", "b"]


def test_alternates_accept_party_codes(
    seat_file: Path, capsys: pytest.CaptureFixture
) -> None:
    assert main(["margin", str(seat_file), "--alternates", "GRE", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["alternates"] == ["c"]
    assert report["value"] == 1


def test_unknown_alternate_fails(seat_file: Path, capsys: pytest.CaptureFixture) -> None:
    assert main(["margin", str(seat_file), "--alternates", "zz"]) == 1
    assert "zz" in capsys.readouterr().err


def test_winner_as_alternate_fails(seat_file: Path, capsys: pytest.CaptureFixture) -> None:
    assert main(["margin", str(seat_file), "--alternates", "a"]) == 1
    assert "already wins" in capsys.readouterr().err


def test_tabulate_two_candidate_race(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    pair = tmp_path / "pair.ballots"
    pair.write_text("# candidates: a:none,b:none\n3,a\n2,b\n", encoding="utf-8")
    assert main(["tabulate", str(pair), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["winner"] == "a"
    assert report["last_round_margin"] == 1


def test_parse_errors_report_line_numbers(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    bad = tmp_path / "bad.ballots"
    bad.write_text("# candidates: a:none,b:none\n1,a\nnope\n", encoding="utf-8")
    assert main(["tabulate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err


def test_missing_roster_fails(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    bad = tmp_path / "bad.ballots"
    bad.write_text("1,a\n", encoding="utf-8")
    assert main(["tabulate", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_tie_failure_exits_nonzero(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    tied = tmp_path / "tied.ballots"
    tied.write_text("# candidates: a:none,b:none\n5,a\n5,b\n", encoding="utf-8")
    assert main(["tabulate", str(tied)]) == 1
    assert "tie" in capsys.readouterr().err
    assert main(["tabulate", str(tied), "--tie-rule", "lex"]) == 0


@pytest.mark.parametrize(
    "text, message",
    [
        ("# candidates: a:none,b:none\n1,a\nnope\n",
         "line 3: record is not count,ranking"),
        ("# no roster here\n", "no candidate roster line found"),
    ],
    ids=["bad-record", "no-roster"],
)
def test_parse_errors_print_one_prefix(
    tmp_path: Path, capsys: pytest.CaptureFixture, text: str, message: str
) -> None:
    bad = tmp_path / "bad.ballots"
    bad.write_text(text, encoding="utf-8")
    assert main(["tabulate", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_seeded_tabulate_needs_no_file(capsys: pytest.CaptureFixture) -> None:
    assert main(["tabulate", "--seed", "1", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["rounds"]) == 7
    opening = report["rounds"][0]
    assert sum(opening["tallies"].values()) + opening["exhausted"] == 50_000


@pytest.mark.parametrize(
    "command", [["tabulate"], ["margin"], ["movc", "--alternates", "c"]]
)
def test_ballot_file_and_seed_are_exclusive(
    seat_file: Path, capsys: pytest.CaptureFixture, command: list[str]
) -> None:
    assert main([*command, str(seat_file), "--seed", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: give a ballot file or --seed, not both\n"


def test_dump_lp_writes_model_to_stderr(
    seat_file: Path, capsys: pytest.CaptureFixture
) -> None:
    assert main(["margin", str(seat_file), "--dump-lp", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert "minimize:" in captured.err
    assert "conserve:" in captured.err
    json.loads(captured.out)


def test_dump_lp_lists_the_solved_program(
    seat_file: Path, capsys: pytest.CaptureFixture
) -> None:
    assert main(["margin", str(seat_file), "--dump-lp", "--format", "json"]) == 0
    captured = capsys.readouterr()
    order = json.loads(captured.out)["witness_order"]
    profile = parse_profile(EXAMPLE_WITH_PARTIES)
    model = build_model(profile, order)
    _, rows, _, _, _, u_masks, e_masks = _assemble(model)
    columns = [f"u[{'>'.join(model.sequence.chain(m)) or '-'}]" for m in u_masks]
    columns += [f"e[{'>'.join(model.sequence.chain(m))}]" for m in e_masks]

    lines = captured.err.splitlines()
    start = lines.index("subject to:") + 1
    end = lines.index("bounds:")
    constraints = lines[start:end]
    assert len(constraints) == len(rows)
    assert all(line.rstrip().endswith((" <= 0", f" = {model.total}")) for line in constraints)
    bound_lines = lines[end + 1:]
    assert [line.split()[2] for line in bound_lines] == columns
    named = {tok.strip("-") for line in lines[start - 2:end] for tok in line.split()
             if tok.strip("-").startswith(("u[", "e["))}
    assert named <= set(columns)


def test_parliament_fixture_totals(capsys: pytest.CaptureFixture) -> None:
    records = str(FIXTURES / "nsw2015.csv")
    assert main(
        ["parliament", records, "--coalition", "LIB+NAT", "--mode", "lose", "--format", "json"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total_changes"] == 10398
    assert report["threshold"] == 47
    assert len(report["seats"]) == 8
    assert report["seats"][0] == {"seat": "East Hills", "changes": 189}

    assert main(
        ["parliament", records, "--coalition", "ALP+CLP", "--mode", "win", "--format", "json"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total_changes"] == 22746
    assert len(report["seats"]) == 13

    assert main(
        ["parliament", records, "--coalition", "ALP+CLP+GRE", "--mode", "win", "--format", "json"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total_changes"] == 16349
    assert len(report["seats"]) == 10


def test_parliament_manifest_win(manifest: Path, capsys: pytest.CaptureFixture) -> None:
    assert main(
        ["parliament", str(manifest), "--coalition", "LIB", "--mode", "win", "--format", "json"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "win-majority"
    assert report["threshold"] == 2
    assert report["seats"] == [{"seat": "Third", "changes": 1}]
    assert report["total_changes"] == 1


def test_parliament_manifest_lose(manifest: Path, capsys: pytest.CaptureFixture) -> None:
    assert main(
        ["parliament", str(manifest), "--coalition", "ALP", "--mode", "lose", "--format", "json"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "lose-majority"
    assert report["seats_needed"] == 1
    # Both held seats flip for 1; the tie breaks on the seat name.
    assert report["seats"] == [{"seat": "First", "changes": 1}]


def test_parliament_workers_do_not_change_output(
    manifest: Path, capsys: pytest.CaptureFixture
) -> None:
    args = ["parliament", str(manifest), "--coalition", "LIB", "--mode", "win", "--format", "json"]
    assert main(args + ["--workers", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--workers", "2"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_chamber_fixture_loses_its_majority(capsys: pytest.CaptureFixture) -> None:
    # The README's manifest example: West's x is ALP only by the manifest.
    args = ["parliament", str(FIXTURES / "chamber" / "manifest.json"),
            "--coalition", "ALP", "--mode", "lose", "--format", "json"]
    assert main(args + ["--workers", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--workers", "2"]) == 0
    assert capsys.readouterr().out == serial
    report = json.loads(serial)
    assert report["seats"] == [{"seat": "North", "changes": 1}, {"seat": "West", "changes": 13}]
    assert report["total_changes"] == 14


def _counted_forks(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """Wraps os.fork, which still forks; the list grows by one per fork."""
    forks: list[int] = []
    fork = os.fork

    def counted() -> int:
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def test_forks_never_outnumber_the_seats(
    manifest: Path, tmp_path: Path, capsys: pytest.CaptureFixture,
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    forks = _counted_forks(monkeypatch)
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    for seats, forked in ((2, 1), (1, 0)):
        path = _write_manifest(tmp_path, {"seats": doc["seats"][:seats]})
        argv = ["parliament", str(path), "--coalition", "LIB", "--mode", "win"]
        forks.clear()
        assert main(argv + ["--workers", "8"]) == 0
        fanned = capsys.readouterr().out
        assert len(forks) == forked
        assert main(argv + ["--workers", "1"]) == 0
        assert capsys.readouterr().out == fanned
        assert len(forks) == forked


def test_a_dead_worker_is_an_error(
    manifest: Path, capsys: pytest.CaptureFixture, monkeypatch: pytest.MonkeyPatch
) -> None:
    # The fork dies on the first seat it claims.  This process holds its
    # first seat until the fork has exited, so the fork claims one.
    parent, analyze = os.getpid(), cli._analyze_seat
    exited, held = os.pipe()
    holding = [held]

    def dying(task: tuple) -> tuple:
        if os.getpid() != parent:
            os._exit(3)
        if holding:
            os.close(holding.pop())
            os.read(exited, 1)  # end of file once the fork's copy is closed too
        return analyze(task)

    monkeypatch.setattr(cli, "_analyze_seat", dying)
    argv = ["parliament", str(manifest), "--coalition", "LIB", "--mode", "win"]
    try:
        assert main(argv + ["--workers", "2"]) == 1
    finally:
        for fd in [exited, *holding]:
            os.close(fd)
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: a worker process failed with exit status 3\n"


def test_parliament_without_fork_runs_one_process(
    manifest: Path, capsys: pytest.CaptureFixture, monkeypatch: pytest.MonkeyPatch
) -> None:
    argv = ["parliament", str(manifest), "--coalition", "LIB", "--mode", "win"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    monkeypatch.delattr(os, "fork")
    assert main(argv + ["--workers", "1"]) == 0
    assert capsys.readouterr().out == expected
    assert main(argv + ["--workers", "2"]) == 1
    assert capsys.readouterr() == (
        "", "error: --workers above 1 needs os.fork, which this platform lacks\n"
    )


def test_a_manifest_beyond_the_seat_queue_fails_before_forking(
    manifest: Path, capsys: pytest.CaptureFixture, monkeypatch: pytest.MonkeyPatch
) -> None:
    r, w = os.pipe()
    os.set_blocking(w, False)
    try:
        capacity = os.write(w, bytes(1 << 20)) // 4  # seats one pipe queues
    finally:
        os.close(r)
        os.close(w)
    seats = [{"name": f"S{i}", "path": "seat2.ballots"} for i in range(capacity + 1)]
    path = _write_manifest(manifest.parent, {"seats": seats})
    forks = _counted_forks(monkeypatch)
    argv = ["parliament", str(path), "--coalition", "LIB", "--mode", "win"]
    for workers in "1", "2":
        assert main(argv + ["--workers", workers]) == 1
        assert capsys.readouterr() == (
            "", f"error: a manifest may list at most {capacity} seats, not {capacity + 1}\n"
        )
    assert forks == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_fan_out_leaves_no_descriptor_open(
    manifest: Path, capsys: pytest.CaptureFixture
) -> None:
    argv = ["parliament", str(manifest), "--coalition", "ALP", "--mode", "lose"]
    before = len(os.listdir("/proc/self/fd"))
    for run in range(30):
        assert main(argv + ["--workers", str(1 + run % 3)]) == 0
    capsys.readouterr()
    assert len(os.listdir("/proc/self/fd")) == before


def test_tabulate_rejects_stats(seat_file: Path, capsys: pytest.CaptureFixture) -> None:
    with pytest.raises(SystemExit) as exit_info:
        main(["tabulate", str(seat_file), "--stats"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: irvmargin")
    assert "unrecognized arguments: --stats" in captured.err


@pytest.mark.parametrize(
    "value", ["1_0", "\N{ARABIC-INDIC DIGIT THREE}", "\N{FULLWIDTH DIGIT TWO}"]
)
@pytest.mark.parametrize(
    "command",
    [
        ["tabulate", "--seed"],
        ["parliament", str(FIXTURES / "nsw2015.csv"), "--coalition", "LIB+NAT",
         "--mode", "lose", "--threshold"],
        ["parliament", str(FIXTURES / "nsw2015.csv"), "--coalition", "LIB+NAT",
         "--mode", "lose", "--workers"],
    ],
    ids=["seed", "threshold", "workers"],
)
def test_integer_flags_take_ascii_decimals_only(
    command: list[str], value: str, capsys: pytest.CaptureFixture
) -> None:
    # int() would read these as 10, 3 and 2, which no input file accepts.
    with pytest.raises(SystemExit) as exit_info:
        main(command + [value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid int value: {value!r}" in captured.err


def test_integer_flags_still_take_decimals(capsys: pytest.CaptureFixture) -> None:
    assert main(["tabulate", "--seed", "10", "--format", "json"]) == 0
    report = capsys.readouterr().out
    assert main(["tabulate", "--seed", " 10 ", "--format", "json"]) == 0
    assert capsys.readouterr().out == report
    assert json.loads(report)["winner"]


def test_solver_errors_are_reported_without_a_traceback(
    capsys: pytest.CaptureFixture, monkeypatch: pytest.MonkeyPatch
) -> None:
    monkeypatch.setattr(simplex, "_NODE_LIMIT", 0)
    assert main(["margin", str(FIXTURES / "example1.ballots")]) == 1
    err = capsys.readouterr().err
    assert err == "error: branch and bound exceeded 0 nodes\n"
    assert "Traceback" not in err


def test_manifest_solver_errors_name_the_seat(
    manifest: Path, capsys: pytest.CaptureFixture, monkeypatch: pytest.MonkeyPatch
) -> None:
    seats = [{"name": "First", "path": "seat1.ballots"}]
    path = _write_manifest(manifest.parent, {"seats": seats})
    monkeypatch.setattr(simplex, "_NODE_LIMIT", 0)
    argv = ["parliament", str(path), "--coalition", "GRE", "--mode", "win", "--workers", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: seat 'First': branch and bound exceeded 0 nodes\n"
    assert "Traceback" not in err


BOM = "\N{BYTE ORDER MARK}"


def test_input_files_may_start_with_a_byte_order_mark(
    seat_file: Path, manifest: Path, tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    bom_dir = tmp_path / "bom"
    bom_dir.mkdir()
    for path in [seat_file, manifest, *manifest.parent.glob("seat*.ballots")]:
        (bom_dir / path.name).write_text(BOM + path.read_text(encoding="utf-8"),
                                         encoding="utf-8")
    nsw = FIXTURES / "nsw2015.csv"
    (bom_dir / nsw.name).write_text(BOM + nsw.read_text(encoding="utf-8"), encoding="utf-8")
    for argv, path in (
        (["margin", "{}"], seat_file),
        (["parliament", "{}", "--coalition", "LIB+NAT", "--mode", "lose"], nsw),
        (["parliament", "{}", "--coalition", "LIB", "--mode", "win", "--stats"], manifest),
    ):
        reports = []
        for source in (path, bom_dir / path.name):
            assert main([str(source) if a == "{}" else a for a in argv]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            reports.append(captured.out)
        assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "mode, coalition", [("win", "LIB"), ("lose", "ALP")]
)
def test_analyzed_seat_records_round_trip_to_the_manifest_report(
    manifest: Path, tmp_path: Path, capsys: pytest.CaptureFixture,
    mode: str, coalition: str,
) -> None:
    args = ["--coalition", coalition, "--mode", mode, "--format", "json"]
    assert main(["parliament", str(manifest)] + args) == 0
    from_manifest = capsys.readouterr().out
    report = _report_from_seat_records(manifest, tmp_path, capsys, mode, coalition, args)
    assert report == from_manifest


def _report_from_seat_records(
    manifest: Path, tmp_path: Path, capsys: pytest.CaptureFixture,
    mode: str, coalition: str, args: list[str],
) -> str:
    """The parliament report on seat records analyzed from the manifest's seats."""
    records = []
    for seat in json.loads(manifest.read_text(encoding="utf-8"))["seats"]:
        profile = parse_profile((manifest.parent / seat["path"]).read_text(encoding="utf-8"))
        record, _ = analyze_seat(
            profile, [coalition], mode, seat["parties"], TieRule.FAIL, seat=seat["name"]
        )
        records.append(record)
    if mode == "lose":
        records = relabel_complement(records, [coalition])
    text = dump_seat_records(records)
    assert load_seat_records(text) == records
    csv_path = tmp_path / "records.csv"
    csv_path.write_text(text, encoding="utf-8")
    assert main(["parliament", str(csv_path)] + args) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "coalition, mode, seats",
    [("ALP", "lose", [("S1", 1), ("S3", 20)]), ("LIB", "win", [("S1", 10), ("S3", 20)])],
    ids=["lose-ALP", "win-LIB"],
)
def test_seats_without_a_target_candidate_do_not_abort_the_scenario(
    tmp_path: Path, capsys: pytest.CaptureFixture,
    coalition: str, mode: str, seats: list[tuple[str, int]],
) -> None:
    # S2 fields two ALP candidates: held by ALP, never flippable, never winnable.
    texts = {
        "S1": EXAMPLE_WITH_PARTIES.replace("c:GRE", "c:GRN"),
        "S2": "# candidates: a:ALP, b:ALP\n60,a\n40,b\n",
        "S3": "# candidates: a:ALP, b:LIB\n70,a\n30,b\n",
    }
    for name, text in texts.items():
        (tmp_path / f"{name}.ballots").write_text(text, encoding="utf-8")
    path = tmp_path / "manifest.json"
    seats_doc = [{"name": n, "path": f"{n}.ballots", "parties": {}} for n in texts]
    path.write_text(json.dumps({"seats": seats_doc}), encoding="utf-8")
    args = ["--coalition", coalition, "--mode", mode, "--threshold", "2",
            "--format", "json"]
    assert main(["parliament", str(path)] + args) == 0
    report = capsys.readouterr().out
    parsed = json.loads(report)
    assert [(s["seat"], s["changes"]) for s in parsed["seats"]] == seats
    assert parsed["total_changes"] == sum(v for _, v in seats)
    assert _report_from_seat_records(path, tmp_path, capsys, mode, coalition, args) == report


def test_lose_mode_without_an_outside_candidate_is_an_error(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    (tmp_path / "S2.ballots").write_text(
        "# candidates: a:ALP, b:ALP\n60,a\n40,b\n", encoding="utf-8"
    )
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"seats": [{"name": "S2", "path": "S2.ballots"}]}),
                    encoding="utf-8")
    argv = ["parliament", str(path), "--coalition", "ALP", "--mode", "lose",
            "--threshold", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: no seat can be flipped to a candidate outside the coalition ALP: "
        "every candidate belongs to it\n"
    )


@pytest.mark.parametrize(
    "coalition, mode, stats",
    [
        # LIB holds Second, so it runs no search; First and Third search
        # toward their LIB candidate.  Third's look-ahead drops its one root.
        ("LIB", "win",
         {"First": [2, 0, 1, 1, 0], "Second": [0, 0, 0, 0, 0], "Third": [0, 0, 0, 0, 1]}),
        # LIB's Second is not ALP's to lose; First searches toward b and c.
        ("ALP", "lose",
         {"First": [2, 0, 1, 0, 0], "Second": [0, 0, 0, 0, 0], "Third": [0, 0, 0, 0, 1]}),
    ],
    ids=["win-LIB", "lose-ALP"],
)
def test_parliament_stats_count_one_search_per_contested_seat(
    manifest: Path, capsys: pytest.CaptureFixture,
    coalition: str, mode: str, stats: dict[str, list[int]],
) -> None:
    argv = ["parliament", str(manifest), "--coalition", coalition, "--mode", mode]
    assert main(argv + ["--format", "json", "--stats"]) == 0
    report = json.loads(capsys.readouterr().out)
    keys = ("nodes_expanded", "lps_solved", "ips_solved", "tally_prunes", "lookahead_prunes")
    expected = {seat: dict(zip(keys, counts)) for seat, counts in stats.items()}
    assert report["stats"] == expected
    # Table and CSV append the counters, in seat order and then key order.
    for fmt, line in ("table", "stat {} {}: {}\n"), ("csv", "stat:{}:{},{}\n"):
        assert main(argv + ["--format", fmt]) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--format", fmt, "--stats"]) == 0
        assert capsys.readouterr().out == plain + "".join(
            line.format(seat, key, counts[key])
            for seat, counts in expected.items()
            for key in sorted(counts)
        )


PINNED = {
    ("tabulate", "table"): """\
round 1:
  a                55
  b                41
  c                40
  (exhausted)      0
  eliminated: c
round 2:
  a                80
  b                41
  (exhausted)      15
  eliminated: b
winner: a
last-round margin: 20
""",
    ("tabulate", "csv"): """\
kind,round,key,value
tally,1,a,55
tally,1,b,41
tally,1,c,40
exhausted,1,,0
eliminated,1,c,
tally,2,a,80
tally,2,b,41
exhausted,2,,15
eliminated,2,b,
winner,,a,
lrm,,,20
""",
    ("margin", "table"): """\
margin: 1
winner: a
alternates: b, c
witness order: b -> a -> c
  remove 1 x b>c
  add 1 x c
stat ips_solved: 1
stat lookahead_prunes: 0
stat lps_solved: 0
stat nodes_expanded: 2
stat tally_prunes: 0
""",
    ("margin", "csv"): """\
field,value
value,1
winner,a
alternates,b;c
witness_order,b>a>c
removal,1 x b>c
addition,1 x c
stat:ips_solved,1
stat:lookahead_prunes,0
stat:lps_solved,0
stat:nodes_expanded,2
stat:tally_prunes,0
""",
    ("settled", "table"): """\
margin: 3
winner: c
alternates: a, b
witness order: c -> b -> a
  remove 3 x c
  add 1 x a
  add 2 x b>a
stat ips_solved: 1
stat lookahead_prunes: 0
stat lps_solved: 0
stat nodes_expanded: 2
stat tally_prunes: 1
""",
    ("settled", "csv"): """\
field,value
value,3
winner,c
alternates,a;b
witness_order,c>b>a
removal,3 x c
addition,1 x a
addition,2 x b>a
stat:ips_solved,1
stat:lookahead_prunes,0
stat:lps_solved,0
stat:nodes_expanded,2
stat:tally_prunes,1
""",
    ("movc", "table"): """\
margin: 10
winner: a
alternates: b
witness order: a -> c -> b
  remove 10 x a
  add 5 x b
  add 5 x c>b
""",
    ("movc", "csv"): """\
field,value
value,10
winner,a
alternates,b
witness_order,a>c>b
removal,10 x a
addition,5 x b
addition,5 x c>b
""",
    ("nsw", "table"): """\
mode: lose-majority
coalition: LIB+NAT
threshold: 47
seats needed: 8
  East Hills    189
  Lismore       209
  Upper Hunter  866
  Monaro        1122
  Coogee        1243
  Tweed         1291
  Penrith       2576
  Holsworthy    2902
total changes: 10398
""",
    ("nsw", "csv"): """\
seat,changes
East Hills,189
Lismore,209
Upper Hunter,866
Monaro,1122
Coogee,1243
Tweed,1291
Penrith,2576
Holsworthy,2902
TOTAL,10398
""",
    ("manifest", "table"): """\
mode: win-majority
coalition: LIB
threshold: 2
seats needed: 1
  Third  1
total changes: 1
stat First ips_solved: 1
stat First lookahead_prunes: 0
stat First lps_solved: 0
stat First nodes_expanded: 2
stat First tally_prunes: 1
stat Second ips_solved: 0
stat Second lookahead_prunes: 0
stat Second lps_solved: 0
stat Second nodes_expanded: 0
stat Second tally_prunes: 0
stat Third ips_solved: 0
stat Third lookahead_prunes: 1
stat Third lps_solved: 0
stat Third nodes_expanded: 0
stat Third tally_prunes: 0
""",
    ("manifest", "csv"): """\
seat,changes
Third,1
TOTAL,1
stat:First:ips_solved,1
stat:First:lookahead_prunes,0
stat:First:lps_solved,0
stat:First:nodes_expanded,2
stat:First:tally_prunes,1
stat:Second:ips_solved,0
stat:Second:lookahead_prunes,0
stat:Second:lps_solved,0
stat:Second:nodes_expanded,0
stat:Second:tally_prunes,0
stat:Third:ips_solved,0
stat:Third:lookahead_prunes,1
stat:Third:lps_solved,0
stat:Third:nodes_expanded,0
stat:Third:tally_prunes,0
""",
}


@pytest.mark.parametrize("fmt", ["table", "csv"])
@pytest.mark.parametrize(
    "case", ["tabulate", "margin", "settled", "movc", "nsw", "manifest"]
)
def test_table_and_csv_reports_are_pinned_byte_for_byte(
    seat_file: Path, manifest: Path, capsys: pytest.CaptureFixture, case: str, fmt: str
) -> None:
    settled = seat_file.with_name("settled.ballots")
    settled.write_text(FLOAT_SETTLED_SEAT, encoding="utf-8")
    argv = {
        "tabulate": ["tabulate", str(seat_file)],
        "margin": ["margin", str(seat_file), "--stats"],
        "settled": ["margin", str(settled), "--stats"],
        "movc": ["movc", str(seat_file), "--alternates", "b"],
        "nsw": ["parliament", str(FIXTURES / "nsw2015.csv"),
                "--coalition", "LIB+NAT", "--mode", "lose"],
        "manifest": ["parliament", str(manifest), "--coalition", "LIB", "--mode", "win",
                     "--stats"],
    }[case]
    assert main(argv + ["--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.out == PINNED[case, fmt]
    assert captured.err == ""


def _write_manifest(tmp_path: Path, manifest: dict) -> Path:
    path = tmp_path / "bad_manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "manifest_doc, extra, message",
    [
        ({"seats": [{"name": "S", "path": "seat1.ballots"}], "options": {"workers": 2}},
         [], "manifest {manifest}: options are not read: use --workers and --tie-rule"),
        ({"seats": []}, [], "manifest {manifest} needs a nonempty seats list"),
        ({"seats": {"name": "S", "path": "seat1.ballots"}}, [],
         "manifest {manifest} needs a nonempty seats list"),
        ({"seats": ["seat1.ballots"]}, [], "manifest {manifest}: each seat must be an object"),
        ({"seats": [{"name": "S", "path": "seat1.ballots"},
                    {"name": "S", "path": "seat2.ballots"}]},
         [], "manifest {manifest}: seat names must be unique"),
        ({"seats": [{"name": "S", "path": "seat1.ballots", "parties": ["a", "ALP"]}]},
         [], "seat 'S': parties must be an object"),
        ({"seats": [{"name": "S", "path": "seat1.ballots", "parties": {"a": None}}]},
         [], "seat 'S': party of 'a' must be a string, not null"),
        ({"seats": [{"name": "S", "path": "seat1.ballots"}]}, ["--workers", "0"],
         "--workers must be at least 1, not 0"),
        ({"seats": [{"name": "S", "path": "seat1.ballots"}]}, ["--threshold", "0"],
         "--threshold must be at least 1, not 0"),
        ({"seats": [{"name": ["x"], "path": "seat1.ballots"}]}, [],
         "manifest {manifest}: each seat needs a name and a path"),
        ({"seats": [{"name": "S", "path": "seat1.ballots", "parties": {"zz": "LIB"}}]},
         [], "seat 'S': unknown candidates in parties: ['zz']"),
        ({"seats": [{"name": "S", "path": "seat1.ballots", "parties": {"a": "LIB+NAT"}}]},
         [], "seat 'S': party code 'LIB+NAT' contains '+', which joins coalition parties"),
        # A coalition names trimmed codes, so neither could ever be held.
        ({"seats": [{"name": "S", "path": "seat1.ballots", "parties": {"a": " ALP"}}]},
         [], "seat 'S': party code ' ALP' has surrounding whitespace"),
        ({"seats": [{"name": "S", "path": "seat1.ballots", "parties": {"a": " "}}]},
         [], "seat 'S': party code ' ' is blank"),
        # A falsy parties value is not an absent one.
        *[({"seats": [{"name": "S", "path": "seat1.ballots", "parties": falsy}]},
           [], "seat 'S': parties must be an object")
          for falsy in ([], 0, "", False, None)],
    ],
    ids=["options", "seats-empty", "seats-not-list", "seat-not-object",
         "seat-names-repeat", "parties-not-object", "party-null",
         "workers-flag", "threshold-flag",
         "name-not-string", "party-of-absent-candidate", "party-with-plus",
         "party-with-space", "party-blank",
         "parties-empty-list",
         "parties-zero", "parties-empty-string", "parties-false", "parties-null"],
)
def test_bad_manifest_input_is_an_error(
    manifest: Path, capsys: pytest.CaptureFixture,
    manifest_doc: dict, extra: list[str], message: str,
) -> None:
    path = _write_manifest(manifest.parent, manifest_doc)
    argv = ["parliament", str(path), "--coalition", "LIB", "--mode", "win"] + extra
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message.format(manifest=path)}\n"


@pytest.mark.parametrize("case", ["ballots", "records", "manifest-seat"])
def test_an_input_file_that_cannot_be_read_is_an_error(
    tmp_path: Path, capsys: pytest.CaptureFixture, case: str
) -> None:
    missing = tmp_path / "missing.ballots"
    if case == "ballots":
        argv = ["margin", str(missing)]
    else:
        records = missing if case == "records" else _write_manifest(
            tmp_path, {"seats": [{"name": "S", "path": missing.name}]})
        argv = ["parliament", str(records), "--coalition", "LIB", "--mode", "win"]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", f"error: cannot read {missing}: No such file or directory\n")


def test_a_manifest_that_is_not_json_is_named_in_its_error(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    path = tmp_path / "manifest.json"
    path.write_text('{"seats": [,]}\n', encoding="utf-8")
    argv = ["parliament", str(path), "--coalition", "LIB", "--mode", "win"]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", f"error: manifest {path} is not valid JSON: "
        "Expecting value: line 1 column 12 (char 11)\n"
    )


@pytest.mark.parametrize("workers", ["1", "2", "3"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("# candidates: a:ALP,b:LIB\n5,a\n5,b\n", "tie"),
        ("# candidates: a:ALP,b:LIB\n5,a\nnope\n", "line 3: record is not count,ranking"),
    ],
    ids=["tie", "parse-error"],
)
def test_manifest_errors_name_the_seat(
    manifest: Path, capsys: pytest.CaptureFixture, workers: str, text: str, message: str
) -> None:
    # Two broken seats: the error names the first in manifest order, however
    # many processes share the seats.
    (manifest.parent / "broken.ballots").write_text(text, encoding="utf-8")
    (manifest.parent / "worse.ballots").write_text("# candidates: a:ALP\n", encoding="utf-8")
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    doc["seats"] += [{"name": "Broken", "path": "broken.ballots"},
                     {"name": "Worse", "path": "worse.ballots"}]
    path = _write_manifest(manifest.parent, doc)
    argv = ["parliament", str(path), "--coalition", "LIB", "--mode", "win",
            "--workers", workers]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seat 'Broken': ")
    assert message in err
    assert err.count("\n") == 1


def test_parliament_lose_without_majority_fails(
    manifest: Path, capsys: pytest.CaptureFixture
) -> None:
    assert main(
        ["parliament", str(manifest), "--coalition", "GRE", "--mode", "lose"]
    ) == 1
    assert "majority" in capsys.readouterr().err


def _package_env() -> dict[str, str]:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point_runs() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "irvmargin", "--help"],
        capture_output=True,
        text=True,
        check=False,
        env=_package_env(),
    )
    assert proc.returncode == 0
    assert "tabulate" in proc.stdout
    assert "oracle" not in proc.stdout.split("positional")[0]


def test_import_leaves_the_process_pool_unloaded() -> None:
    # The manifest fan-out forks and imports pickle only when it runs, and
    # no process pool is left to import.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, irvmargin.cli; print([m for m in sys.modules if m == 'pickle'"
         " or m.startswith(('concurrent', 'multiprocessing'))])"],
        capture_output=True,
        text=True,
        check=True,
        env=_package_env(),
    )
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_without_a_traceback(unbuffered: str) -> None:
    # Buffered, the write fails at the flush; unbuffered, at the print.
    proc = subprocess.Popen(
        [sys.executable, "-m", "irvmargin", "margin", str(FIXTURES / "example1.ballots")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**_package_env(), "PYTHONUNBUFFERED": unbuffered},
    )
    proc.stdout.close()  # before the program starts writing
    _, err = proc.communicate(timeout=120)
    assert err == ""
    assert proc.returncode == 1
