"""Benchmark for irvmargin: end-to-end timings and a traced per-layer run.

One workload:

    python3 perfbench/run.py --workload synth7_mov --seed 1 --seconds 30 --trace 0

Every workload, untraced and traced, with all metrics and their units:

    python3 perfbench/run.py --seed 1

Run it from the root of a checkout: the program is imported from ./src, and
the CLI is run as `python -m irvmargin` with ./src on PYTHONPATH.  The inputs
come from perfbench/gen.py and the seed alone: a fixed number of elections
per workload, the same whatever the program's speed.  A run is a sequence of
passes.  A pass is a fresh import of the program, then one election (one
seat, or for `chamber` one whole chamber) and every query the workload asks
of it.  Passes cycle through the elections until every one has run and
the next pass would overrun --seconds.  Times are taken at a reference host
speed, measured by a probe while the work runs (see Clock), and an
election's time is the mean of its passes.  Every answer is verified.  A
failed check, an exception or a passed deadline counts as a failed
operation; none aborts the run.  The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  perfbench/README.md defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import gen  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ("synth7_mov", "diverse4_movc", "chamber")
# Elections per seed: as many as a 30 s run at the seed commit gets through
# once, so that their median moves little from seed to seed.
INPUTS = {"synth7_mov": 12, "diverse4_movc": 100, "chamber": 4}
# Elections the traced run takes, from the first.
TRACED = {"synth7_mov": 6, "diverse4_movc": 40, "chamber": 1}
SETUPS_PER_CYCLE = 8  # timed set-ups per cycle, spread over its passes
# Far above the slowest operation seen on any workload (7 s for a library
# query, 5 s for a CLI run), so pass or fail does not flip between runs of
# the same inputs.
LIB_DEADLINE_S = 60
CLI_DEADLINE_S = 120
WORKERS = 2


class Deadline(Exception):
    """An operation ran past its deadline."""


def _alarm(signum, frame):
    raise Deadline()


# --------------------------------------------------------------------------
# Host speed: a probe sampled while work is timed


# A shared host's CPU can run the same work at speeds up to 1.7 times apart
# and switch between them within a second (as the 2-CPU host the baseline
# was measured on does).  While work is timed, a timer
# signal runs the probe's fixed work every PROBE_EVERY_S, in this process,
# and records how long it took.  The timed work's time, less the time spent
# in the probe, is then scaled by REFERENCE_S over the mean of those samples
# (and of one taken just before and one just after the work): the time the
# work would take on a host that runs the probe's work in REFERENCE_S.
PROBE_EVERY_S = 0.01
# The probe's time on the host the baseline was measured on (Python 3.11.7,
# 2 CPUs), at its faster speed.
REFERENCE_S = 0.00036


def probe_work() -> float:
    """Seconds that a fixed bit of Fraction arithmetic, the kind the
    program's simplex does, takes now.  It never calls the program, so a
    change to the program cannot change it.  A garbage collection the
    program's allocations are due is left for the program to pay for."""
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(1, 60):
        x = x * Fraction(i + 1, i) - Fraction(1, i + 2)
    elapsed = time.perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed


class Timing:
    """What `Clock.timed` measured: `seconds` at the reference speed (or the
    wall time, when the clock does not scale), and the host's `slowness`
    against the reference."""

    seconds = 0.0
    slowness = 1.0


class Clock:
    """Times blocks of work; with `scale`, at the reference speed.

    A block that runs the program in this process is probed by CPU time
    (SIGPROF); one that waits on a child process by wall time (SIGALRM),
    so the probe then samples whichever CPU it is given.
    """

    def __init__(self, scale: bool):
        self.scale = scale
        self.samples: list[float] = []
        self.slowness: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(probe_work())

    @contextlib.contextmanager
    def timed(self, waiting: bool = False):
        timing = Timing()
        if not self.scale:
            start = time.perf_counter()
            try:
                yield timing
            finally:
                timing.seconds = time.perf_counter() - start
            return
        timer, sig = ((signal.ITIMER_REAL, signal.SIGALRM) if waiting
                      else (signal.ITIMER_PROF, signal.SIGPROF))
        self.samples = [probe_work()]
        saved = signal.signal(sig, self._tick)
        signal.setitimer(timer, PROBE_EVERY_S, PROBE_EVERY_S)
        start = time.perf_counter()
        try:
            yield timing
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(timer, 0)
            signal.signal(sig, saved)
            wall -= sum(self.samples[1:])
            self.samples.append(probe_work())
            # A sample that an interrupt or a context switch lands in says
            # nothing about the CPU's speed; cap it.
            cap = 3 * statistics.median(self.samples)
            timing.slowness = statistics.fmean(min(x, cap) for x in self.samples) / REFERENCE_S
            timing.seconds = wall / timing.slowness
            self.slowness.append(timing.slowness)


# --------------------------------------------------------------------------
# Inputs


def make_election(workload: str, seed: int, index: int, work: str) -> dict:
    """Write the ballot files (and manifest) of election `index` under `work`.

    Returns {"files": [...], "ops": [...]}, plus "manifest" for the CLI
    workload.  A library op names its query; only the files reach the
    program.
    """
    rng = random.Random(f"{workload}/{seed}/{index}")
    folder = os.path.join(work, f"election{index:03d}")
    os.makedirs(folder)
    inputs: dict = {"ops": []}
    if workload == "synth7_mov":
        counts = gen.synthetic_seat(rng.randrange(1 << 30), num_candidates=7)
        texts = {"seat": gen.ballot_text(counts, {f"c{i}": "none" for i in range(7)})}
        inputs["ops"].append({"kind": "mov"})
    elif workload == "diverse4_movc":
        roster = {c: "none" for c in "abcd"}
        counts = gen.diverse_seat(rng)
        order = gen.irv_order(counts, roster)
        texts = {"seat": gen.ballot_text(counts, roster)}
        # The runner-up as sole alternate starts the search's bound at the
        # last-round margin; the other losers leave it open.
        inputs["ops"] += [
            {"kind": "mov"},
            {"kind": "movc", "alternates": [order[-2]]},
            {"kind": "movc", "alternates": sorted(order[:-2])},
        ]
    elif workload == "chamber":
        texts, lose, win = gen.chamber(rng)
        manifest = {"seats": [{"name": n, "path": f"{n}.ballots"} for n in texts]}
        inputs["manifest"] = os.path.join(folder, "manifest.json")
        with open(inputs["manifest"], "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1)
        for mode, coalition in (("win", win), ("lose", lose)):
            inputs["ops"].append({"kind": "parliament", "mode": mode, "coalition": coalition})
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    inputs["files"] = []
    for name, text in texts.items():
        path = os.path.join(folder, f"{name}.ballots")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        inputs["files"].append(path)
    return inputs


def read_profiles(im, files: list[str]) -> list:
    profiles = []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            profiles.append(im.parse_profile(fh.read()))
    return profiles


# --------------------------------------------------------------------------
# Set-up: import the program and parse a pass's ballot files


def set_up(files: list[str], cli: bool, clock: Clock):
    """Fresh import of irvmargin (and its CLI) from ./src, then a parse of
    every ballot file.  Returns (seconds, module, profiles)."""
    for name in [m for m in sys.modules if m.split(".")[0] == "irvmargin"]:
        del sys.modules[name]
    gc.collect()
    with clock.timed() as timing:
        im = importlib.import_module("irvmargin")
        if cli:
            importlib.import_module("irvmargin.cli")
        profiles = read_profiles(im, files)
    elapsed = timing.seconds
    if os.path.dirname(os.path.dirname(os.path.abspath(im.__file__))) != SRC:
        raise SystemExit(f"irvmargin imported from {im.__file__}, not {SRC}")
    return elapsed, im, profiles


# --------------------------------------------------------------------------
# Operations and their verification


def run_library_op(im, profile, op):
    tie = im.TieRule.LEXICOGRAPHIC
    if op["kind"] == "mov":
        return im.compute_mov(profile, tie)
    return im.compute_movc(profile, op["alternates"], tie)


def check_library_answer(im, profile, op, result) -> str | None:
    """Why the answer is wrong, or None."""
    count = im.run_election(profile, im.TieRule.LEXICOGRAPHIC)
    alternates = set(op.get("alternates") or set(profile.candidate_ids) - {count.winner})
    order = result.witness_order.order
    manip = result.witness_manipulation
    if manip.size != result.value:
        return f"witness size {manip.size} != value {result.value}"
    if order[-1] not in alternates:
        return f"witness elects {order[-1]}, not an alternate"
    if not im.order_attainable(im.apply_manipulation(profile, manip), order):
        return "witness order not attainable after the manipulation"
    lrm = im.last_round_margin(count)
    if count.rounds[-1].eliminated in alternates and result.value > lrm:
        return f"value {result.value} exceeds the last-round margin {lrm}"
    return None


def cli_argv(manifest: str, op: dict, workers: int) -> list[str]:
    return [
        "parliament", manifest, "--coalition", op["coalition"], "--mode", op["mode"],
        "--workers", str(workers), "--format", "json", "--tie-rule", "lex",
    ]


def run_cli(argv: list[str]) -> str:
    """`python -m irvmargin argv` in its own process group, killed at the deadline."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "irvmargin", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CLI_DEADLINE_S)
    except subprocess.TimeoutExpired:
        raise Deadline() from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"irvmargin exited {proc.returncode}: {err.strip()}")
    return out


def run_cli_in_process(im, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = im.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"irvmargin exited {code}")
    return buf.getvalue()


def check_report(text: str, seats: int) -> str | None:
    report = json.loads(text)
    chosen = report["seats"]
    if report["threshold"] != (seats + 2) // 2:
        return f"threshold {report['threshold']} for {seats} seats"
    if len(chosen) != report["seats_needed"]:
        return "chosen seat count differs from seats_needed"
    if sum(s["changes"] for s in chosen) != report["total_changes"]:
        return "total_changes is not the sum of the chosen seats"
    return None


@contextlib.contextmanager
def deadline(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Runner:
    """Runs and verifies operations; counts attempts and failures.

    answers[k] holds the answers to election k from its first run; a rerun
    must repeat them, and on a seed recorded in expected.json they must
    equal the answers the seed commit gave.
    """

    def __init__(self, im, expected):
        self.im = im
        self.expected = expected or []
        self.tracer: Tracer | None = None
        self.clock = Clock(scale=False)
        self.attempted = 0
        self.failed = 0
        self.answers: dict[int, list] = {}
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def op(self, inputs, profiles, op, *, in_process: bool, workers: int):
        """Run one operation; returns (seconds, answer or None)."""
        self.attempted += 1
        answer = problem = None
        timing = Timing()
        try:
            if op["kind"] == "parliament":
                argv = cli_argv(inputs["manifest"], op, workers)
                if in_process:
                    with self.clock.timed() as timing, deadline(CLI_DEADLINE_S):
                        answer = run_cli_in_process(self.im, argv)
                else:
                    with self.clock.timed(waiting=True) as timing:
                        answer = run_cli(argv)
                problem = check_report(answer, len(inputs["files"]))
            else:
                with self.clock.timed() as timing, deadline(LIB_DEADLINE_S):
                    result = run_library_op(self.im, profiles[0], op)
                answer = result.value
                with self.untraced():
                    problem = check_library_answer(self.im, profiles[0], op, result)
        except Deadline:
            problem = "deadline passed"
        except Exception as exc:  # a failed operation is counted, not fatal
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            self.fail(f"{op}: {problem}")
        return timing.seconds, answer

    @contextlib.contextmanager
    def untraced(self):
        """Keep the benchmark's own checks out of the trace."""
        if self.tracer:
            self.tracer.active = False
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.active = True

    def run_pass(self, index, inputs, profiles, *, in_process: bool, workers: int):
        """Every operation on election `index` once.

        Returns (seconds, op seconds), where seconds is the sum of the
        operations' times: the pass's time without the checks.
        """
        times, answers = [], []
        for i, op in enumerate(inputs["ops"]):
            if self.tracer:
                self.tracer.op = (index, i)
            t, a = self.op(inputs, profiles, op, in_process=in_process, workers=workers)
            times.append(t)
            answers.append(a)
        if index not in self.answers:
            self.answers[index] = answers
            if index < len(self.expected) and answers != self.expected[index]:
                self.fail(f"election {index}: answers differ from the seed commit's")
        elif answers != self.answers[index]:
            self.fail(f"election {index}: answers differ between reruns")
        return sum(times), times


# --------------------------------------------------------------------------
# Tracing: spans around the program's public functions


# span name -> the functions it times, each named where it is defined.  The
# tracer wraps every name in the package that is bound to one of them, so a
# call is caught whichever module the caller looks the function up in; a
# function that has moved is also looked up on the package itself.
TRACE_POINTS = {
    "ballots.parse": ["ballots.parse_profile"],
    "tabulate.run_election": ["tabulate.run_election"],
    "distance.build_model": ["distance.build_model"],
    "distance.lower_bound": ["distance.lower_bound"],
    "distance.exact_distance": ["distance.exact_distance"],
    "simplex.lp": ["simplex.solve_lp"],
    "simplex.ip": ["simplex.solve_ip"],
    "search": ["search.compute_mov", "search.compute_movc"],
    "parliament.select": ["parliament.seats_to_win", "parliament.seats_to_lose_majority"],
    "cli.seat": ["cli._analyze_seat"],
}


def _span_info(name, args, result):
    if name == "ballots.parse":
        return len(result.ballots)
    if name == "simplex.lp":
        return (len(args[0]), len(args[1]))
    if name == "distance.exact_distance":
        return result is not None
    if name == "search":
        s = result.stats
        return (s.nodes_expanded, s.lps_solved, s.ips_solved)
    return None


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, op id, info].

    The op id is (election, operation), or None for the set-up parse.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.active = True
        self.warned: set[str] = set()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            span[5] = _span_info(name, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, im):
        """Wrap every trace point; warn of any that is not found, since its
        metrics would read 0."""
        importlib.import_module("irvmargin.cli")
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "irvmargin"]
        saved, missing = [], []
        for name, paths in TRACE_POINTS.items():
            for path in paths:
                module, _, attr = path.rpartition(".")
                owner = sys.modules.get(f"irvmargin.{module}")
                fn = getattr(owner, attr, None) or getattr(im, attr, None)
                if fn is None:
                    missing.append(path)
                    continue
                wrapped = self.wrap(name, fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            saved.append((m, key, fn))
                            setattr(m, key, wrapped)
        for path in missing:
            if path not in self.warned:
                print(f"WARNING: trace point {path} not found; its metrics read 0")
                self.warned.add(path)
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "op", "info"), s))) + "\n")


def layer_metrics(spans, passes, traced_s, untraced_s, fanout_s):
    """Per-layer metrics of `passes` traced passes, each with its set-up parse.

    Counts and seconds are per pass; means, medians and maxima are over the
    spans themselves.  fanout_s is the CLI's wall time for the same passes at
    WORKERS workers, or None for a library workload; the cli metrics read 0
    on a library workload, which does not go through the CLI.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_t = [d - c for d, c in zip(dur, child)]

    def ancestor(i, name):
        p = spans[i][3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        return p

    by: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by.setdefault(s[0], []).append(i)

    def calls(name):
        return len(by.get(name, [])) / passes

    def seconds(name, times):
        return sum(times[i] for i in by.get(name, [])) / passes

    def mean(xs):
        return statistics.fmean(xs) if xs else 0.0

    parses = by.get("ballots.parse", [])
    lps = [i for i in by.get("simplex.lp", []) if ancestor(i, "simplex.ip") < 0]
    nodes: dict[int, int] = {}
    for i in by.get("simplex.lp", []):
        ip = ancestor(i, "simplex.ip")
        if ip >= 0:
            nodes[ip] = nodes.get(ip, 0) + 1
    exact = by.get("distance.exact_distance", [])
    top_search = [i for i in by.get("search", []) if ancestor(i, "search") < 0]
    stats = [sum(spans[i][5][k] for i in top_search) / passes for k in range(3)]
    # Library time reached straight from an operation or from the CLI's
    # per-seat function; the rest of the operations' time is front-end
    # overhead: argument parsing, manifest reading, report rendering.
    top_library = [
        i for i, s in enumerate(spans)
        if s[0] != "cli.seat" and s[4] is not None
        and (s[3] < 0 or spans[s[3]][0] == "cli.seat")
    ]
    cli = {"cli.seat_s_max": 0.0, "cli.fanout_efficiency": 0.0, "cli.overhead_s": 0.0}
    if fanout_s is not None:
        cli = {
            "cli.seat_s_max": max(dur[i] for i in by["cli.seat"]),
            "cli.fanout_efficiency": untraced_s / (WORKERS * fanout_s),
            "cli.overhead_s": (traced_s - sum(dur[i] for i in top_library)) / passes,
        }
    return {
        "ballots.parse.calls": (calls("ballots.parse"), "count"),
        "ballots.parse.s": (seconds("ballots.parse", dur), "s"),
        "ballots.types_mean": (mean([spans[i][5] for i in parses]), "count"),
        "tabulate.run_election.calls": (calls("tabulate.run_election"), "count"),
        "tabulate.run_election.s": (seconds("tabulate.run_election", dur), "s"),
        "distance.build_model.calls": (calls("distance.build_model"), "count"),
        "distance.build_model.s": (seconds("distance.build_model", dur), "s"),
        "distance.lower_bound.self_s": (seconds("distance.lower_bound", self_t), "s"),
        "distance.exact_distance.calls": (calls("distance.exact_distance"), "count"),
        "distance.exact_distance.self_s": (seconds("distance.exact_distance", self_t), "s"),
        "distance.exact_distance.improved_ratio": (
            mean([1.0 if spans[i][5] else 0.0 for i in exact]), "ratio"),
        "simplex.lp.calls": (len(lps) / passes, "count"),
        "simplex.lp.s": (sum(dur[i] for i in lps) / passes, "s"),
        "simplex.lp.ms_p50": (
            1000 * statistics.median([dur[i] for i in lps]) if lps else 0.0, "ms"),
        "simplex.lp.cols_mean": (mean([spans[i][5][0] for i in lps]), "count"),
        "simplex.lp.rows_mean": (mean([spans[i][5][1] for i in lps]), "count"),
        "simplex.ip.calls": (calls("simplex.ip"), "count"),
        "simplex.ip.s": (seconds("simplex.ip", dur), "s"),
        "simplex.ip.self_s": (seconds("simplex.ip", self_t), "s"),
        "simplex.ip.nodes": (sum(nodes.values()) / passes, "count"),
        "simplex.ip.nodes_max": (max(nodes.values(), default=0), "count"),
        "search.calls": (len(top_search) / passes, "count"),
        "search.self_s": (seconds("search", self_t), "s"),
        "search.nodes_expanded": (stats[0], "count"),
        "search.lps_solved": (stats[1], "count"),
        "search.ips_solved": (stats[2], "count"),
        "search.lps_per_node": (stats[1] / stats[0] if stats[0] else 0.0, "count"),
        "parliament.select.calls": (calls("parliament.select"), "count"),
        "cli.seat_s_max": (cli["cli.seat_s_max"], "s"),
        "cli.fanout_efficiency": (cli["cli.fanout_efficiency"], "ratio"),
        "cli.overhead_s": (cli["cli.overhead_s"], "s"),
        "trace.overhead_s": ((traced_s - untraced_s) / passes, "s"),
    }


# --------------------------------------------------------------------------
# Runs


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def load_expected(workload: str, seed: int):
    if not os.path.exists(EXPECTED):
        return None
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "irvmargin", "__init__.py")):
        raise SystemExit(f"no program to measure: {SRC}/irvmargin is missing")
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        count = (TRACED if trace else INPUTS)[workload]
        inputs = [make_election(workload, seed, k, work) for k in range(count)]
        cli = workload == "chamber"
        # Writes the bytecode caches; not timed.
        _, im, _ = set_up(inputs[0]["files"], cli, Clock(scale=False))
        runner = Runner(im, load_expected(workload, seed))
        if trace:
            spans = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl")
            metrics = traced_run(runner, inputs, cli, spans)
        else:
            metrics = timed_run(runner, inputs, seconds, cli)
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
        answers = [runner.answers[k] for k in sorted(runner.answers)]
        name = f"answers-{workload}-{seed}-trace{int(trace)}.json"
        with open(os.path.join(OUT, name), "w") as fh:
            json.dump(answers, fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in runner.errors:
        print("FAILED", line)
    print(f"# {workload} seed={seed} trace={int(trace)} python={platform.python_version()}"
          f" nproc={os.cpu_count()} elections={len(answers)} ops={runner.attempted}"
          f" failed={runner.failed} fail_ratio={runner.failed / runner.attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6f} {unit}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def timed_run(runner: Runner, inputs: list[dict], seconds: float, cli: bool) -> dict:
    """Passes cycle through the elections until each has run once and the
    next pass would overrun `seconds`.

    Each pass starts with timed set-ups, the last of which gives the module
    the pass runs on, so nothing the program keeps in memory carries over
    from one pass to the next.  The CLI workload runs `irvmargin` as a user
    would, at WORKERS workers.

    Every time is taken at the reference speed (see Clock).  An operation's
    time (and a set-up's) is the mean of its runs, and an election's time is
    the sum of its operations' times.  The metrics are medians over
    elections or operations of those times, so every election weighs the
    same however many passes fit.
    """
    runner.clock = Clock(scale=True)
    setups_per_pass = -(-SETUPS_PER_CYCLE // len(inputs))
    setups, op_times = ([[] for _ in inputs] for _ in range(2))
    start = time.perf_counter()
    done = 0
    while True:
        k = done % len(inputs)
        for _ in range(setups_per_pass):
            elapsed, runner.im, profiles = set_up(inputs[k]["files"], cli, runner.clock)
            setups[k].append(elapsed)
        _, times = runner.run_pass(
            k, inputs[k], profiles, in_process=not cli, workers=WORKERS)
        op_times[k].append(times)
        done += 1
        spent = time.perf_counter() - start
        if done >= len(inputs) and spent + spent / done > seconds:
            break
    means = [[statistics.fmean(t) for t in zip(*runs)] for runs in op_times]
    ops = [t for election in means for t in election]
    slow = runner.clock.slowness
    print(f"# timed: {done} passes over {len(inputs)} elections, {len(ops)} operations,"
          f" {sum(map(len, setups))} set-ups; host slowness against the reference:"
          f" median {statistics.median(slow):.3f}, range {min(slow):.3f}-{max(slow):.3f}")
    return {
        "total_s": (statistics.median(map(sum, means)), "s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "setup_s": (statistics.median(map(statistics.fmean, setups)), "s"),
    }


def traced_run(runner: Runner, inputs: list[dict], cli: bool, spans: str) -> dict:
    """Each pass untraced, then straight after traced, in this process at one
    worker, so that host speed drifts alike for both.

    It takes the first TRACED elections of the seed.  For the CLI workload
    that is one chamber, which first runs at WORKERS workers in a child
    process to time the fan-out; its report must match the in-process one
    byte for byte.  Spans go to the file `spans`.
    """
    fanout_s = None
    if cli:
        fanout_s, _ = runner.run_pass(0, inputs[0], [], in_process=False, workers=WORKERS)
        reports = runner.answers.pop(0)
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    for k, x in enumerate(inputs):
        profiles = [] if cli else read_profiles(runner.im, x["files"])
        untraced_s += runner.run_pass(k, x, profiles, in_process=True, workers=1)[0]
        runner.tracer = tracer
        with tracer.installed(runner.im):
            read_profiles(runner.im, x["files"])
            traced_s += runner.run_pass(k, x, profiles, in_process=True, workers=1)[0]
        runner.tracer = None
    if cli and reports != runner.answers[0]:
        runner.fail(f"report differs between --workers {WORKERS} and --workers 1")
    tracer.write(spans)
    print(f"# traced: {len(inputs)} passes")
    return layer_metrics(tracer.spans, len(inputs), traced_s, untraced_s, fanout_s)


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each in a fresh process."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            results[f"{workload}/trace{trace}"] = json.loads(proc.stdout.splitlines()[-1])
    summary = {
        "seed": seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "results": results,
    }
    path = os.path.join(OUT, f"summary-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(f"# wrote {os.path.relpath(path, ROOT)}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
