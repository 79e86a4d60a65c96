from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from irvmargin import simplex
from irvmargin.simplex import (
    CUTOFF,
    INFEASIBLE,
    OPTIMAL,
    LPResult,
    SolverError,
    _satisfies,
    certify,
    lagrangian_bound,
    settle,
    solve_ip,
    solve_lp,
)

# A program in the solvers' one row form: objective, rows, rhs and bounds,
# for rows x <= rhs.  A Problem also gives each row a sense, "<=", ">=" or
# "=": the random generators draw them, and the references (scipy and
# lattice enumeration) solve that form, while the solvers get _le's.
Program = tuple[list, list, list, list]
Problem = tuple[list, list, list, list, list]


def _split(senses: list) -> list[tuple[int, int]]:
    """(i, sign) for each row of _le's program, which is row i of the
    problem times sign: (i, 1) for a "<=" row, (i, -1) for a ">=" row, and
    both for an "=" row."""
    return [(i, sign) for i, sense in enumerate(senses) for sign in (1, -1)
            if sense != (">=" if sign == 1 else "<=")]


def _le(problem: Problem) -> Program:
    """The problem in the one row form: a ">=" row is negated, and an "="
    row becomes the pair row x <= b, -row x <= -b."""
    objective, rows, senses, rhs, bounds = problem
    split = _split(senses)
    return (objective, [[sign * v for v in rows[i]] for i, sign in split],
            [sign * rhs[i] for i, sign in split], bounds)


def _problem_duals(senses: list, duals: list) -> list:
    """The multipliers of the problem's rows from those of _le's: negated on
    a ">=" row, and the first of the pair less the second on an "=" row."""
    lam = [0] * len(senses)
    for (i, sign), dual in zip(_split(senses), duals, strict=True):
        lam[i] += sign * dual
    return lam


def _le_duals(senses: list, lam: list) -> list:
    """The multipliers of _le's rows that weigh the rows as lam weighs the
    problem's: each row of _le's takes its problem row's times its sign."""
    return [sign * lam[i] for i, sign in _split(senses)]


def test_lp_simple_minimum() -> None:
    # min x + y  s.t.  x + y >= 3, as -x - y <= -3, and x <= 2
    res = solve_lp(
        [1, 1],
        [[-1, -1], [1, 0]],
        [-3, 2],
        [(0, None), (0, None)],
    )
    assert res.status == OPTIMAL
    assert res.value == 3
    assert sum(res.x) == 3


def test_lp_fractional_vertex() -> None:
    # min -x  s.t.  2x <= 3: optimum sits at x = 3/2
    res = solve_lp([-1], [[2]], [3], [(0, 5)])
    assert res.status == OPTIMAL
    assert res.value == Fraction(-3, 2)
    assert res.x == [Fraction(3, 2)]


def test_lp_equality_and_negative_costs() -> None:
    # min -2x - 3y  s.t.  x + y = 4, as x + y <= 4 and -x - y <= -4, and
    # x - y <= 2, with bounds that do not bind
    res = solve_lp(
        [-2, -3],
        [[1, 1], [-1, -1], [1, -1]],
        [4, -4, 2],
        [(0, 5), (0, 5)],
    )
    assert res.status == OPTIMAL
    assert res.value == -12
    assert res.x == [Fraction(0), Fraction(4)]


def test_lp_respects_upper_bounds() -> None:
    res = solve_lp([-1, -1], [[1, 1]], [10], [(0, 3), (0, 4)])
    assert res.status == OPTIMAL
    assert res.value == -7


def test_lp_infeasible() -> None:
    # x >= 5, as -x <= -5, and x <= 2
    res = solve_lp([1], [[-1], [1]], [-5, 2], [(0, None)])
    assert res.status == INFEASIBLE


def _in_domain(problem: Problem | Program) -> bool:
    """Whether every column with a negative cost has an upper bound, as the
    solvers require."""
    objective, bounds = problem[0], problem[-1]
    return all(cj >= 0 or hi is not None for cj, (_, hi) in zip(objective, bounds))


def _assert_rejected(problem: Program, *solvers) -> None:
    for solve in solvers:
        with pytest.raises(ValueError, match="negative cost needs an upper bound"):
            solve(*problem)


def test_solvers_reject_a_negative_cost_with_no_upper_bound() -> None:
    # Such a column has no bound its cost prefers to start at, so no start
    # is dual feasible.  The solvers refuse it when no row touches it and
    # when another column's box is empty.
    problems: list[Program] = [
        ([1, -1], [], [], [(0, 2), (0, None)]),
        ([-1, 0], [[1, 1], [-1, -1]], [5, -5], [(0, None), (2, 1)]),
    ]
    for problem in problems:
        assert not _in_domain(problem)
        _assert_rejected(problem, solve_lp, certify, solve_ip)


def test_lp_unbounded() -> None:
    # min -x  s.t.  0x <= 1, x >= 0 has no finite minimum; its column's
    # negative cost has no upper bound, so every solver refuses it.
    problem: Program = ([-1], [[0]], [1], [(0, None)])
    assert not _in_domain(problem)
    _assert_rejected(problem, solve_lp, certify, solve_ip)


def test_float_run_leaves_a_start_that_is_not_dual_feasible_to_the_exact_run() -> None:
    # min -x  s.t.  x + y = 5, 2x - y <= 4 would be -3, but x's negative cost
    # has no upper bound to start at, so no start is dual feasible.  Neither
    # run takes it: the float run and every solver refuse it.
    problem: Program = (
        [-1, 0], [[1, 1], [-1, -1], [2, -1]], [5, -5, 4], [(0, None), (0, None)]
    )
    assert not _in_domain(problem)
    _assert_rejected(problem, simplex._guide, solve_lp, certify, solve_ip)


def _boxed_minimum(objective: list, bounds: list) -> LPResult:
    """The closed form of a program with no rows: each column rests at the
    bound its cost prefers."""
    if any(hi is not None and hi < lo for lo, hi in bounds):
        return LPResult(INFEASIBLE)
    x = []
    for cj, (lo, hi) in zip(objective, bounds):
        x.append(lo if cj >= 0 else hi)
    return LPResult(OPTIMAL, sum(cj * xj for cj, xj in zip(objective, x)), x, [])


def test_lp_without_rows_rests_at_the_bounds() -> None:
    assert solve_lp([2, -3, 0], [], [], [(1, 4), (-2, 5), (0, None)]) == LPResult(
        OPTIMAL, -13, [1, 5, 0], []
    )
    assert solve_lp([1, 1], [], [], [(0, 2), (3, 1)]).status == INFEASIBLE
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 5)
        objective = [rng.randint(-3, 3) for _ in range(n)]
        bounds = []
        for _ in range(n):
            lo = rng.randint(-3, 3)
            bounds.append((lo, rng.choice([None, lo + rng.randint(-1, 4)])))
        problem = (objective, [], [], bounds)
        if not _in_domain(problem):
            _assert_rejected(problem, solve_lp)
            continue
        assert solve_lp(*problem) == _boxed_minimum(objective, bounds)


@pytest.mark.parametrize(
    "rows, rhs, bounds, message",
    [
        ([[1, 1], [1, -1]], [3], [(0, 5), (0, 5)], "one entry per row"),
        ([[1, 1], [1, -1]], [3, 1], [(0, 5)], "one entry per column"),
        ([[1, 1], [1, -1]], [3, 1], [(0, 5)] * 3, "one entry per column"),
        ([[1, 1], [1]], [3, 1], [(0, 5), (0, 5)], "row length does not match objective"),
    ],
    ids=["short rhs", "short bounds", "long bounds", "short row"],
)
def test_lp_rejects_mismatched_lengths(rows, rhs, bounds, message) -> None:
    # A short rhs, bounds or row must not end in a bare IndexError, nor a
    # row be solved as if its missing entries were 0.
    with pytest.raises(ValueError, match=message):
        solve_lp([1, 1], rows, rhs, bounds)


def _random_problem(rng: random.Random) -> Problem:
    n = rng.randint(1, 4)
    m = rng.randint(1, 3)
    objective = [rng.randint(-4, 4) for _ in range(n)]
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    senses = [rng.choice(["<=", ">=", "="]) for _ in range(m)]
    rhs = [rng.randint(-4, 8) for _ in range(m)]
    bounds = [(0, rng.randint(1, 6)) for _ in range(n)]
    return objective, rows, senses, rhs, bounds


def _linprog(problem: Problem):
    """scipy's HiGHS result for the problem, in floats."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    objective, rows, senses, rhs, bounds = problem
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, sense, b in zip(rows, senses, rhs):
        row = [float(v) for v in row]
        if sense == "<=":
            a_ub.append(row)
            b_ub.append(float(b))
        elif sense == ">=":
            a_ub.append([-v for v in row])
            b_ub.append(-float(b))
        else:
            a_eq.append(row)
            b_eq.append(float(b))
    return scipy_opt.linprog(
        [float(v) for v in objective],
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=[(float(lo), None if hi is None else float(hi)) for lo, hi in bounds],
        method="highs",
    )


def _float_run_agrees(program: Program, value: Fraction) -> bool:
    """Whether the float run, which starts each column at the bound its cost
    prefers, reached the exact optimum value; certify's bounds must bracket
    it either way."""
    guess = simplex._guide(*program)
    assert guess is None or abs(guess.value - value) < 1e-7
    lower, upper, _ = certify(*program)
    assert lower is None or lower <= value
    assert upper is None or upper >= value
    return guess is not None


def test_lp_agrees_with_scipy_on_random_instances() -> None:
    rng = random.Random(2024)
    checked = guided = 0
    for _ in range(120):
        problem = _random_problem(rng)
        program = _le(problem)
        ours = solve_lp(*program)
        theirs = _linprog(problem)
        if theirs.status == 2:
            assert ours.status == INFEASIBLE
        else:
            assert theirs.status == 0
            assert ours.status == OPTIMAL
            assert abs(float(ours.value) - theirs.fun) < 1e-7
            guided += _float_run_agrees(program, ours.value)
        checked += 1
    assert checked == 120
    assert guided > 50


def _random_wide_problem(rng: random.Random) -> Problem:
    """A program with wider data than _random_problem: negative lower bounds,
    some columns unbounded above and, at times, an equality row repeated at
    a scale of +-1 to 3."""
    n = rng.randint(1, 4)
    m = rng.randint(1, 3)
    objective = [rng.randint(-8, 8) for _ in range(n)]
    rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
    senses = [rng.choice(["<=", ">=", "<=", "="]) for _ in range(m)]
    rhs = [rng.randint(-4, 16) for _ in range(m)]
    bounds = []
    for _ in range(n):
        lo = rng.randint(-4, 4)
        bounds.append((lo, None if rng.random() < 0.3 else lo + rng.randint(0, 24)))
    if rng.random() < 0.5:
        i = rng.randrange(m)
        scale = rng.choice([-3, -2, -1, 1, 2, 3])
        senses[i] = "="
        rows.append([scale * v for v in rows[i]])
        senses.append("=")
        rhs.append(scale * rhs[i])
    return objective, rows, senses, rhs, bounds


def test_lp_is_exact_on_random_fractional_programs() -> None:
    rng = random.Random(31)
    seen = {OPTIMAL: 0, INFEASIBLE: 0}
    guided = 0
    for _ in range(300):
        problem = _random_wide_problem(rng)
        program = _le(problem)
        if not _in_domain(program):
            _assert_rejected(program, solve_lp, certify)
            continue
        res = solve_lp(*program)
        seen[res.status] += 1
        theirs = _linprog(problem)
        assert theirs.status == {OPTIMAL: 0, INFEASIBLE: 2}[res.status]
        if res.status != OPTIMAL:
            continue
        assert all(isinstance(v, Fraction) for v in res.x + res.duals)
        assert _satisfies(res.x, *program[1:])
        assert lagrangian_bound(*program, res.duals) == res.value
        assert abs(float(res.value) - theirs.fun) < 1e-7 * (1 + abs(theirs.fun))
        guided += _float_run_agrees(program, res.value)
    assert min(seen.values()) > 10
    assert guided > 50


def test_lp_duals_prove_the_optimum_exactly() -> None:
    # The instances of test_lp_agrees_with_scipy_on_random_instances.
    rng = random.Random(2024)
    optimal_seen = 0
    for _ in range(120):
        problem = _random_problem(rng)
        program = _le(problem)
        res = solve_lp(*program)
        if res.status != OPTIMAL:
            assert res.duals is None
            continue
        # Every row is "<=", so every dual is >= 0; mapped back to the
        # problem's rows, a ">=" row's is <= 0.
        assert len(res.duals) == len(program[1])
        assert all(dual >= 0 for dual in res.duals)
        senses = problem[2]
        duals = _problem_duals(senses, res.duals)
        assert len(duals) == len(senses)
        for dual, sense in zip(duals, senses):
            assert isinstance(dual, Fraction)
            if sense == "<=":
                assert dual >= 0
            elif sense == ">=":
                assert dual <= 0
        assert lagrangian_bound(*program, res.duals) == res.value
        optimal_seen += 1
    assert optimal_seen > 50


def test_redundant_equality_row_keeps_its_basic_slack_at_zero() -> None:
    # min x + 2y  s.t.  x + y = 2, 2x + 2y = 4, x - y <= 0, each equality as
    # a pair of opposite rows: the second pair repeats the first, so once
    # pivots satisfy one pair, the other's slacks are at zero, and basic
    # ones must stay there, since each is bounded below by 0 and its
    # opposite's equals minus it.
    problem = ([1, 2], [[1, 1], [-1, -1], [2, 2], [-2, -2], [1, -1]], [2, -2, 4, -4, 0],
               [(0, None), (0, None)])
    res = solve_lp(*problem)
    assert (res.status, res.value, res.x) == (OPTIMAL, 3, [1, 1])
    assert lagrangian_bound(*problem, res.duals) == 3
    assert certify(*problem) == (3, 3, [1, 1])


def test_certify_rounds_over_a_determinant_above_1000() -> None:
    # min -2x - y  s.t.  30x + 37y <= 41, 37x - 30y <= 7 on [0, 1]^2: both
    # rows are tight at the optimum (1489, 1307) / 2269, whose basis has
    # |det| 2269, so no rational of denominator 1000 or less is the vertex.
    problem = ([-2, -1], [[30, 37], [37, -30]], [41, 7], [(0, 1), (0, 1)])
    res = solve_lp(*problem)
    assert res.x == [Fraction(1489, 2269), Fraction(1307, 2269)]
    assert round(simplex._guide(*problem).det) == 2269
    assert certify(*problem) == (res.value, res.value, res.x)


@pytest.fixture
def exact_solves(monkeypatch: pytest.MonkeyPatch) -> list:
    """The programs settle hands to solve_lp."""
    calls = []

    def counting(*program):
        calls.append(program)
        return solve_lp(*program)

    monkeypatch.setattr(simplex, "solve_lp", counting)
    return calls


def test_settle_prunes_on_a_checked_farkas_ray(exact_solves: list) -> None:
    # x >= 5, as -x <= -5, on [0, 3]: the float run ends infeasible and its
    # ray checks.
    problem = ([1], [[-1]], [-5], [(0, 3)])
    assert certify(*problem)[0] == math.inf
    assert settle(*problem) is None
    assert settle(*problem, cutoff=10) is None
    assert exact_solves == []


def test_settle_prunes_on_a_certified_ceiling_at_the_cutoff(exact_solves: list) -> None:
    # min x  s.t.  2x >= 3, as -2x <= -3: the minimum 3/2 has ceiling 2.
    problem = ([1], [[-2]], [-3], [(0, 5)])
    assert settle(*problem) == (2, [Fraction(3, 2)])
    assert settle(*problem, cutoff=3) == (2, [Fraction(3, 2)])
    assert settle(*problem, cutoff=2) is None
    assert exact_solves == []


def test_settle_solves_exactly_where_the_certified_ceilings_disagree(
    monkeypatch: pytest.MonkeyPatch, exact_solves: list
) -> None:
    # A lower bound 1 below the certified one still holds, but its ceiling
    # no longer matches the upper bound's, so only solve_lp can settle.
    problem = ([-2, -1], [[30, 37], [37, -30]], [41, 7], [(0, 1), (0, 1)])
    exact = solve_lp(*problem)

    def loosened(*program):
        lower, upper, x = certify(*program)
        return lower - 1, upper, x

    monkeypatch.setattr(simplex, "certify", loosened)
    assert settle(*problem) == (math.ceil(exact.value), exact.x)
    assert len(exact_solves) == 1
    # The exact ceiling, -1, reaches a cutoff of -1 though the loosened
    # certified one, -2, does not.
    assert settle(*problem, cutoff=-1) is None
    assert len(exact_solves) == 2


def _with_conservation_row(problem: Problem, rng: random.Random) -> Problem:
    """The problem behind an equality row with positive coefficients, with
    every other column unbounded above: a bound that would push one of those
    up proves nothing."""
    objective, rows, senses, rhs, bounds = problem
    n = len(objective)
    bounds = [b if j % 2 == 0 else (rng.randint(0, 2), None) for j, b in enumerate(bounds)]
    return (
        objective,
        [[rng.randint(1, 3) for _ in range(n)]] + rows,
        ["="] + senses,
        [rng.randint(0, 12)] + rhs,
        bounds,
    )


def test_lagrangian_bound_leaves_unbounded_columns_to_the_exact_solve() -> None:
    # min -y  s.t.  x + y = 5, as x + y <= 5 and -x - y <= -5, x >= 0,
    # 2 <= y <= 8: x costs 0 and has no upper bound, like a distance model's
    # e column.  A multiplier lam of x + y = 5 is (lam, -lam) on the pair.
    problem = ([0, -1], [[1, 1], [-1, -1]], [5, -5], [(0, None), (2, 8)])
    assert solve_lp(*problem).value == -5
    # At lam = -1 the bound would push x, which has no upper bound, up.
    assert lagrangian_bound(*problem, [-1, 1]) is None
    # At lam = 0 it pushes only y up, to 8, and proves a weaker bound.
    assert lagrangian_bound(*problem, [0, 0]) == -8
    # At lam = 1 no column is pushed up and the bound is the optimum.
    assert lagrangian_bound(*problem, [1, -1]) == -5
    # An empty box proves nothing.
    assert lagrangian_bound([1], [[1]], [5], [(2, 1)], [0]) is None


# The float run's determinants on the acceptance corpus stay in the tens, so
# "rounding noise" moves no value times D by half a unit: rounding over D
# undoes it.
PERTURBATIONS = {
    "noise": lambda rng, y: [v + rng.gauss(0, 2) for v in y],
    "rounding noise": lambda rng, y: [v + rng.uniform(-1e-4, 1e-4) for v in y],
    "wrong signs": lambda rng, y: [-v if v else rng.choice((-1.0, 1.0)) for v in y],
    "nan": lambda rng, y: [math.nan] + y[1:],
    "inf": lambda rng, y: y[:-1] + [math.inf],
    "-inf": lambda rng, y: [-math.inf] + y[1:],
    "1e300": lambda rng, y: [1e300 * rng.choice((-1, 1)) for _ in y],
}


@pytest.mark.parametrize("kind", sorted(PERTURBATIONS))
def test_perturbed_duals_never_overstate_the_optimum(kind: str) -> None:
    rng = random.Random(7)
    perturb = PERTURBATIONS[kind]
    proven = 0
    for _ in range(150):
        problem = _random_problem(rng)
        if rng.random() < 0.5:
            problem = _with_conservation_row(problem, rng)
        program = _le(problem)
        if not _in_domain(program):
            _assert_rejected(program, solve_lp, certify)
            continue
        res = solve_lp(*program)
        if res.status != OPTIMAL:
            continue
        # Perturbed as multipliers of the problem's rows, then weighed on
        # _le's rows.
        senses = problem[2]
        duals = perturb(rng, [float(v) for v in _problem_duals(senses, res.duals)])
        bound = lagrangian_bound(*program, _le_duals(senses, duals))
        if bound is not None:
            assert bound <= res.value
            proven += 1
    if kind in ("noise", "rounding noise", "wrong signs", "1e300"):
        assert proven > 20


def _enumerate_ip(problem: Problem) -> Fraction | None:
    objective, rows, senses, rhs, bounds = problem
    best = None
    ranges = [range(lo, hi + 1) for lo, hi in bounds]
    for point in itertools.product(*ranges):
        ok = True
        for row, sense, b in zip(rows, senses, rhs):
            v = sum(r * p for r, p in zip(row, point))
            if sense == "<=" and v > b:
                ok = False
            elif sense == ">=" and v < b:
                ok = False
            elif sense == "=" and v != b:
                ok = False
            if not ok:
                break
        if not ok:
            continue
        value = sum(c * p for c, p in zip(objective, point))
        if best is None or value < best:
            best = value
    return None if best is None else Fraction(best)


def test_ip_matches_lattice_enumeration() -> None:
    rng = random.Random(99)
    optimal_seen = 0
    for _ in range(150):
        problem = _random_problem(rng)
        expected = _enumerate_ip(problem)
        res = solve_ip(*_le(problem))
        if expected is None:
            assert res.status == INFEASIBLE
        else:
            assert res.status == OPTIMAL
            assert res.value == expected
            assert all(v.denominator == 1 for v in res.x)
            optimal_seen += 1
    assert optimal_seen > 50


def test_ip_does_not_assume_lp_integrality() -> None:
    # LP optimum -3/2 at x = 3/2; integer optimum -1 at x = 1.
    res = solve_ip([-1], [[2]], [3], [(0, 5)])
    assert res.status == OPTIMAL
    assert res.value == -1
    assert res.x == [Fraction(1)]


def test_ip_cutoff_is_exclusive() -> None:
    # min x + y  s.t.  x + y >= 3, as -x - y <= -3
    problem: Program = ([1, 1], [[-1, -1]], [-3], [(0, 5), (0, 5)])
    objective, rows, rhs, bounds = problem
    hit = solve_ip(objective, rows, rhs, bounds, cutoff=4)
    assert hit.status == OPTIMAL
    assert hit.value == 3
    cut = solve_ip(objective, rows, rhs, bounds, cutoff=3)
    assert cut.status == CUTOFF
    assert cut.value is None


def test_ip_cutoff_with_integral_objective_rounds_bounds() -> None:
    # LP relaxation value 3/2 rounds up to 2, which already meets the cutoff.
    res = solve_ip([1], [[-2]], [-3], [(0, 5)], cutoff=2)
    assert res.status == CUTOFF


@pytest.mark.parametrize("value", [Fraction(1, 2), 0.5])
def test_solvers_reject_non_integer_data(value) -> None:
    # Every distance model and every branch is an integer program, and the
    # exact run relies on it: a Fraction or a float anywhere in the data is
    # an error, not a program to solve.
    box = [(0, 5), (0, 5)]
    problems = [
        ([value, 1], [[-1, -1]], [-3], box),
        ([1, 1], [[-value, -1]], [-3], box),
        ([1, 1], [[-1, -1]], [-value], box),
        ([1, 1], [[-1, -1]], [-3], [(value, 5), (0, 5)]),
        ([1, 1], [[-1, -1]], [-3], [(0, value), (0, 5)]),
        # An empty box does not let the rest of the data through.
        ([1, 1], [[-value, -1]], [-3], [(2, 1), (0, 5)]),
        # A float bound is refused even when it holds an integer.
        ([1, 1], [[-1, -1]], [-3], [(0, 5.0), (0, 5)]),
        ([1, 1], [[-value, -1]], [-3], [(0, 5.0), (0, 5)]),
    ]
    # With a cutoff, solve_ip tries the certified bound, whose float run
    # would take the data, before any exact solve.
    solvers = (solve_lp, solve_ip, functools.partial(solve_ip, cutoff=2))
    for problem in problems:
        for solve in solvers:
            with pytest.raises(TypeError):
                solve(*problem)
    # Rounding the certified bound up would prune this root, whose integer
    # optimum 3/2 lies below the cutoff, if the objective were let through.
    with pytest.raises(TypeError):
        solve_ip([Fraction(3, 4)], [[-2]], [-3], [(0, 5)], cutoff=2)


def test_ip_accepts_valid_hint_at_fractional_vertices() -> None:
    calls: list[list[Fraction]] = []

    def hint(x: list[Fraction]) -> list[Fraction]:
        calls.append(list(x))
        return [Fraction(2), Fraction(0)]

    # Root relaxation lands on x = 3/2, so the hint gets a chance to
    # round it; (2, 0) is feasible and optimal among integer points.
    res = solve_ip(
        [1, 1],
        [[-2, -2]],
        [-3],
        [(0, 5), (0, 5)],
        hint=hint,
    )
    assert res.status == OPTIMAL
    assert res.value == 2
    assert calls


def test_ip_ignores_infeasible_hint() -> None:
    def hint(_: list[Fraction]) -> list[Fraction]:
        return [Fraction(0), Fraction(0)]

    res = solve_ip([1, 1], [[-2, -2]], [-3], [(0, 5), (0, 5)], hint=hint)
    assert res.status == OPTIMAL
    assert res.value == 2


def test_lp_result_carries_solution_vector() -> None:
    res = solve_lp([0, 1], [[-1, -1]], [-2], [(0, 4), (0, 4)])
    assert isinstance(res, LPResult)
    assert len(res.x) == 2
    assert res.value == 0


def _outcome(solve, problem: Program) -> tuple:
    res = solve(*problem)
    return res.status, res.value


def test_blands_rule_from_the_first_pivot_reaches_the_same_optima(monkeypatch) -> None:
    # Bland's rule only takes over after a long degenerate streak, which the
    # small programs never reach; from the first pivot on it must still end
    # at the same status and optimal value as the largest violation with
    # bound flips, and the float run must certify the same bounds.
    rng = random.Random(2024)
    lps = [_le(_random_problem(rng)) for _ in range(120)]
    rng = random.Random(31)
    lps += [_le(_random_wide_problem(rng)) for _ in range(300)]
    rng = random.Random(99)
    ips = [_le(_random_problem(rng)) for _ in range(150)]
    for problem in lps + ips:
        if not _in_domain(problem):
            _assert_rejected(problem, solve_lp, certify, solve_ip)
    lps = [problem for problem in lps if _in_domain(problem)]
    ips = [problem for problem in ips if _in_domain(problem)]

    def outcomes() -> tuple:
        return (
            [_outcome(solve_lp, p) for p in lps],
            [_outcome(solve_ip, p) for p in ips],
            [certify(*p)[:2] for p in lps + ips],
        )

    largest = outcomes()
    monkeypatch.setattr(simplex, "_BLAND_AFTER", 0)
    assert outcomes() == largest
    assert sum(status == OPTIMAL for status, _ in largest[0]) > 150
    assert sum(lower is not None for lower, _ in largest[2]) > 200


def test_float_run_flips_boxed_columns_in_its_ratio_test(monkeypatch) -> None:
    # min -3x - 2y - z  s.t.  x + y + z <= 1 on [0, 1]^3 starts at (1, 1, 1),
    # 2 over the row.  z has the smallest ratio, and the row is still 1 over
    # once z is flipped to 0, so z flips; y comes next and enters.  One pivot
    # reaches the optimum (1, 0, 0).
    problem = ([-3, -2, -1], [[1, 1, 1]], [1], [(0, 1)] * 3)
    entered = []
    pivot = simplex._pivot

    def recording(state, d, row, col):
        entered.append(col)
        pivot(state, d, row, col)

    monkeypatch.setattr(simplex, "_pivot", recording)
    guess = simplex._guide(*problem)
    assert (guess.value, guess.x, entered) == (-3, [1, 0, 0], [1])
    lower, upper, _ = certify(*problem)
    assert lower <= solve_lp(*problem).value <= upper


def test_float_run_claims_an_infeasible_node_infeasible(monkeypatch) -> None:
    # min y  s.t.  x + y >= 1, 2x <= 1 on [0, 1]^2: the relaxation sits at
    # (1/2, 1/2), and its branch x >= 1 is infeasible.  There the row 2x <= 1
    # is over with nothing to move it (x is fixed and y is not in it), so the
    # float run claims the node infeasible with that row of B^-1, (0, 1), as
    # its ray.  Weighed by it, the rows sum to 2x - 1, which is 1 > 0 on the
    # whole box, so the node has no point: solve_ip prunes it with no exact
    # solve.
    problem: Problem = ([0, 1], [[1, 1], [2, 0]], [">=", "<="], [1, 1], [(0, 1), (0, 1)])
    root = _le(problem)
    node = root[:3] + ([(1, 1), (0, 1)],)
    guess = simplex._guide(*node)
    assert (guess.status, guess.duals, guess.det) == (INFEASIBLE, [0, 1], 1)
    assert certify(*node) == (math.inf, None, None)
    statuses = []

    def recording(*program):
        res = solve_lp(*program)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(simplex, "solve_lp", recording)
    expected = (OPTIMAL, _enumerate_ip(problem), [0, 1])
    res = solve_ip(*root)
    assert (res.status, res.value, res.x) == expected
    assert statuses == []
    # A ray that does not check proves nothing, and the node falls back to
    # the exact solve: turned around, or moved to the other row and turned
    # around, where its one entry is negative and so counts as 0.
    real = simplex._guide
    for ray in ([0.0, -1.0], [-1.0, 0.0]):
        monkeypatch.setattr(
            simplex, "_guide",
            lambda *program: dataclasses.replace(real(*program), duals=ray)
            if list(program[3]) == node[3] else real(*program),
        )
        assert certify(*node) == (None, None, None)
        statuses.clear()
        res = solve_ip(*root)
        assert (res.status, res.value, res.x) == expected
        assert statuses == [INFEASIBLE]


def test_ip_node_limit_raises(monkeypatch) -> None:
    # The root relaxation sits at x = 3/2, so the search has to branch.
    problem: Program = ([-1], [[2]], [3], [(0, 5)])
    monkeypatch.setattr(simplex, "_NODE_LIMIT", 2)
    with pytest.raises(SolverError, match="exceeded 2 nodes"):
        solve_ip(*problem)
    monkeypatch.setattr(simplex, "_NODE_LIMIT", 5)
    assert _outcome(solve_ip, problem) == (OPTIMAL, -1)


def _canonical(res: LPResult, senses: list) -> str:
    """status, value, vertex and duals, those of the problem's rows, as text,
    the same on every Python."""
    duals = None if res.duals is None else _problem_duals(senses, res.duals)
    parts = [res.status, str(res.value)]
    for vector in (res.x, duals):
        parts.append("-" if vector is None else ",".join(map(str, vector)))
    return " ".join(parts)


def test_exact_answers_are_pinned() -> None:
    # A faster exact simplex must reach the very same optima, vertices and
    # duals on the random sets above, and reject the same programs.  solve_ip runs on the boxed ones only:
    # its statuses and values are pinned on their own, since they cannot
    # move, and its points apart from them, since they follow the points
    # it branches on, which the float run may give.
    lines: dict[str, list[str]] = {"lp": [], "ip value": [], "ip point": []}
    for seed, count, make, ip in (
        (2024, 120, _random_problem, True),
        (99, 150, _random_problem, True),
        (31, 300, _random_wide_problem, False),
    ):
        rng = random.Random(seed)
        for _ in range(count):
            problem = make(rng)
            program, senses = _le(problem), problem[2]
            try:
                lines["lp"].append(_canonical(solve_lp(*program), senses))
            except ValueError:
                lines["lp"].append("rejected")
            if ip:
                res = solve_ip(*program)
                lines["ip value"].append(f"{res.status} {res.value}")
                lines["ip point"].append(_canonical(res, senses))
    digests = {
        part: hashlib.sha256("\n".join(text).encode()).hexdigest()
        for part, text in lines.items()
    }
    assert digests == {
        "lp": "bcdb9f70054144a2b76e30a7fa996f1f063e90e9538179f6d34af2f4994330ce",
        "ip value": "c0804e73162948b07f3b203ad5ad6a545c58220391c12ab880b12886e9280183",
        "ip point": "2d715972ac4497113581851433b801512c341db45833ff3a06a5734faa72bb5f",
    }
