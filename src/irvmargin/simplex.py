"""Linear and integer programming with exact rational results.

One bounded dual simplex, run in two arithmetics (an exact run and a float
run), plus a small branch-and-bound layer for integer programs.  The exact
run takes the integer programs that every distance model and every branch
produce, and rejects any other data.  It is exact: optima, reduced costs,
duals and branching bounds carry no rounding, so callers can take ceilings
of LP values without tolerance guards.  The float run proves bounds, never a
value by itself.  It starts on the basis +-I, so its pivots' magnitudes
multiply to |det B| of its final basis, and every basic value, dual and row
of B^-1 there is an integer over D = round(|det B|) (Applegate, Cook, Dash &
Espinoza, "Exact solutions to linear programming problems", 2007).  certify
rounds the float duals and vertex times D and checks them in integers over
D: the Lagrangian bound at the duals (lagrangian_bound) is a lower bound on
the LP minimum whatever the floats were, and the vertex, if it satisfies
every row and bound, a point and an upper bound.  A float run that ends
infeasible on a row gives that row of B^-1 as a Farkas ray, which proves the
program infeasible if the Lagrangian sum without the objective exceeds 0.
settle is the one place these results are used (the hybrid rule): a
checked ray proves the program infeasible, and when the two bounds share a
ceiling, that is the LP's ceiling and the checked point is returned without
an exact solve.  Tolerances exist only inside the float run, no float value
reaches a result without such a check, and any failure (a pivot cap, a
non-finite value, a determinant below 1, a check that does not hold) makes
settle solve exactly.  The method is Neumaier & Shcherbina, "Safe bounds
in linear and mixed-integer programming" (2004), and Applegate et al.;
bounding, branching and pruning on checked float results, with an exact
solve only where a check fails, is the hybrid scheme of Cook, Koch, Steffy &
Wolter, "A hybrid branch-and-bound approach for exact rational
mixed-integer programming" (2013).

The solvers take the programs in which every column with a negative cost
has an upper bound, and raise ValueError on any other.  Every distance
model is one: its u columns cost -1 and are bounded by their ballot counts,
its e columns cost 0, and a branch only tightens bounds.  On such a program
the all-slack basis with each column at the bound its cost prefers (Bixby,
"Implementing the simplex method: the initial basis", 1992) is dual
feasible, so both runs start there with no phase one, and the program has
an optimum unless it is infeasible.

Both runs keep a full tableau with variable bounds handled implicitly
(nonbasic variables rest at either bound and may flip without a basis
change) and iterate by the same bounded dual simplex (Koberstein, "The dual
simplex method, techniques for a fast and stable implementation", 2005).
Its leaving row is the one with the largest bound violation.  Its ratio test
takes the candidates in ratio order and flips a boxed one to its other bound
instead of entering it while the row stays infeasible after the flip (Maros,
"A generalized dual phase-2 simplex algorithm", 2003).  After a long
degenerate streak it switches to Bland's rule, which guarantees termination
in exact arithmetic.  The runs are the same code on different numbers: the
exact run on Fractions, the float run on floats.  The float run compares
with a tolerance and gives up after a cap on iterations; certify checks
whichever optimal vertex it reaches.  The exact run compares with no
tolerance and has no cap.

Every row has the one form rows[i] . x <= rhs[i]; a ">=" row is its
negation, and an "=" row the pair of a row and its negation.  The columns
of a program with n columns and m rows are its own at [0, n), then row i's
slack at n + i, with coefficient +1 and bounds [0, inf).  A slack starts
basic, below 0 while its row's residual is, until the dual simplex drives
it out.  Left of its last column the tableau is always B^-1 [A | I], so its
slack block is B^-1, its last column holds the basic values, and row i's
dual, >= 0, is read off its slack's reduced cost.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
CUTOFF = "cutoff"

_BASIC, _LOWER, _UPPER = 0, 1, 2
_BLAND_AFTER = 40
# Branch-and-bound nodes solve_ip explores before giving up.
_NODE_LIMIT = 200_000
# The float run's zero tolerance, and the iterations it may take per row and
# column of the program before it gives up.  An iteration is one pivot with
# the bound flips of its ratio test, or the last check, which finds every
# basic value within its bounds.
_GUIDE_TOL = 1e-9
_GUIDE_PIVOTS = 4


class SolverError(RuntimeError):
    """The solver could not complete; callers must treat this as fatal."""


@dataclass
class LPResult:
    """status, plus the optimum's value and vertex when OPTIMAL.

    duals, set by solve_lp at an optimum, holds row i's multiplier in the
    Lagrangian objective.x + duals.(rows x - rhs), >= 0 on every row.
    solve_ip leaves it None.  The float run also sets det, |det B| of its
    final basis, and when INFEASIBLE its Farkas ray, also >= 0.
    """

    status: str
    value: Fraction | None = None
    x: list[Fraction] | None = None
    duals: list[Fraction] | None = None
    det: float | None = None


Bound = tuple[int, "int | None"]


def solve_lp(
    objective: Sequence[int],
    rows: Sequence[Sequence[int]],
    rhs: Sequence[int],
    bounds: Sequence[Bound],
) -> LPResult:
    """Minimize objective . x subject to rows x <= rhs and lo <= x <= hi.

    Every row takes this one form: negate a ">=" row, and give an "=" row
    as itself and its negation.  Upper bounds of None mean unbounded above;
    lower bounds must be finite.  A column with a negative cost needs an
    upper bound (ValueError otherwise), so the program is never unbounded.
    Every other entry of the data must be an integer (TypeError otherwise).
    Exact: the result is in Fractions.
    """
    return _simplex(objective, rows, rhs, bounds, Fraction, math.inf)


def _simplex(objective, rows, rhs, bounds, num, limit) -> LPResult:
    """solve_lp in the number type num, Fraction or float, by the dual
    simplex in at most limit iterations; Fraction takes integer data only."""
    n = len(objective)
    m = len(rows)
    if len(rhs) != m:
        raise ValueError("rhs needs one entry per row")
    if len(bounds) != n:
        raise ValueError("bounds need one entry per column")
    exact = num is Fraction
    if exact:
        num = lambda v: Fraction(operator.index(v))
    zero, one = num(0), num(1)
    c = [num(v) for v in objective]
    lo = [num(b[0]) for b in bounds]
    hi: list = [None if b[1] is None else num(b[1]) for b in bounds]
    tab = [[num(v) for v in row] for row in rows]
    for row in tab:
        if len(row) != n:
            raise ValueError("row length does not match objective")
    b = [num(v) for v in rhs]
    if any(cj < 0 and u is None for cj, u in zip(c, hi)):
        raise ValueError("a column with a negative cost needs an upper bound")
    if any(u is not None and u < l for l, u in zip(lo, hi)):
        return LPResult(INFEASIBLE)

    # Each column starts at the bound its cost prefers, which makes the
    # all-slack basis dual feasible.  The vertex a run reaches picks
    # solve_ip's branch, and so the witness: the float run's where certify
    # settles a node, the exact run's elsewhere.
    at_upper = [cj < 0 for cj in c]
    start = [u if up else l for l, u, up in zip(lo, hi, at_upper)]
    residual = [bi - sum(map(operator.mul, row, start)) for bi, row in zip(b, tab)]
    for i, row in enumerate(tab):
        row += [zero] * m + [residual[i]]
        row[n + i] = one
    lo += [zero] * m
    hi += [None] * m
    status = [_UPPER if up else _LOWER for up in at_upper] + [_BASIC] * m
    state = _State(tab, list(range(n, n + m)), status, lo, hi, one)
    # On the all-slack basis the reduced costs are the costs.
    d = c + [zero] * m
    r = _dual_iterate(state, d, limit, exact)
    if r >= 0:
        if exact:
            return LPResult(INFEASIBLE)
        # No point of the box brings row r's basic value within its bounds:
        # row r of B^-1, turned toward the bound it misses, proves it.
        toward = 1 if tab[r][-1] < lo[state.basis[r]] else -1
        ray = [toward * tab[r][n + i] for i in range(m)]
        return LPResult(INFEASIBLE, duals=ray, det=state.det)
    x = [lo[j] if status[j] != _UPPER else hi[j] for j in range(n)]
    for i, j in enumerate(state.basis):
        if j < n:
            x[j] = tab[i][-1]
    value = sum(cj * xj for cj, xj in zip(c, x))
    duals = d[n:]
    return LPResult(OPTIMAL, value, x, duals, None if exact else state.det)


class _State:
    # The tableau, whose last column holds x on the basis, and |det B|, the
    # product of the pivots' magnitudes from det = 1 on the starting basis;
    # all in the run's numbers.  A plain slotted class: a dataclass costs
    # more to define at import.
    __slots__ = ("tab", "basis", "status", "lo", "hi", "det")

    def __init__(self, tab: list, basis: list, status: list, lo: list, hi: list, det):
        self.tab, self.basis, self.status, self.lo, self.hi = tab, basis, status, lo, hi
        self.det = det


def _dual_iterate(state: _State, d: list, limit: float, exact: bool) -> int:
    """The bounded dual simplex from a dual feasible basis: -1 at an optimum,
    else the row whose violation has no entering column, which proves the
    program infeasible.  SolverError once it has taken limit iterations.  The
    exact run compares with no tolerance, the float run with _GUIDE_TOL."""
    tab, basis = state.tab, state.basis
    status, lo, hi = state.status, state.lo, state.hi
    tol = 0 if exact else _GUIDE_TOL
    ncols = len(lo)
    degenerate_streak = 0
    while True:
        if limit <= 0:
            raise SolverError("simplex exceeded its iteration limit")
        limit -= 1
        use_bland = degenerate_streak >= _BLAND_AFTER
        # The leaving row: the basic value furthest outside its bounds, or
        # under Bland's rule the smallest basic column outside them.  Its
        # violation, slope, is how fast the dual objective gains along the
        # step, and each bound flip below spends part of it.
        leave_row, slope = -1, 0
        for i, col in enumerate(basis):
            v = tab[i][-1]
            gap = lo[col] - v
            if hi[col] is not None and v - hi[col] > gap:
                gap = v - hi[col]
            if gap > tol and (
                leave_row == -1 or (col < basis[leave_row] if use_bland else gap > slope)
            ):
                leave_row, slope = i, gap
        if leave_row == -1:
            return -1
        row = tab[leave_row]
        leaving = basis[leave_row]
        rise = row[-1] < lo[leaving]
        # Moving a nonbasic x_j by t moves the leaving value by -row[j] t.  A
        # column that moves it toward its bound may enter at the ratio
        # |d_j / row[j]|, and the smallest ratio keeps every reduced cost's
        # sign.  Passing a boxed column's ratio instead flips it to its other
        # bound, which is worth it while the row stays infeasible after the
        # flip (Maros, "A generalized dual phase-2 simplex algorithm", 2003).
        ratios = []
        for j in range(ncols):
            a = row[j]
            if status[j] == _BASIC or abs(a) <= tol or hi[j] == lo[j]:
                continue
            if ((a < 0) == (status[j] == _LOWER)) == rise:
                ratios.append((abs(d[j] / a), j))
        ratios.sort()
        flips = []
        for _, j in ratios:
            width = None if hi[j] is None else hi[j] - lo[j]
            if use_bland or width is None or abs(row[j]) * width >= slope - tol:
                break
            flips.append(j)
            slope -= abs(row[j]) * width
        else:
            return leave_row
        for k in flips:
            step = hi[k] - lo[k] if status[k] == _LOWER else lo[k] - hi[k]
            status[k] = _UPPER if status[k] == _LOWER else _LOWER
            for r in tab:
                if r[k]:
                    r[-1] -= r[k] * step
        degenerate_streak = degenerate_streak + 1 if abs(d[j]) <= tol else 0
        # Eliminate with the leaving value already at its bound and x_j still
        # at its own: the leave row is left with x_j's step from that bound.
        start = lo[j] if status[j] == _LOWER else hi[j]
        row[-1] -= lo[leaving] if rise else hi[leaving]
        status[leaving] = _LOWER if rise else _UPPER
        _pivot(state, d, leave_row, j)
        tab[leave_row][-1] += start


def _pivot(state: _State, d: list, row: int, col: int) -> None:
    tab = state.tab
    piv = tab[row][col]
    state.det *= abs(piv)
    if piv != 1:
        tab[row] = [v / piv for v in tab[row]]
    prow = tab[row]
    for i in range(len(tab)):
        if i != row and tab[i][col]:
            f = tab[i][col]
            tab[i] = [vi - f * vp for vi, vp in zip(tab[i], prow)]
    if d[col]:
        f = d[col]
        for j in range(len(d)):
            if prow[j]:
                d[j] -= f * prow[j]
    state.basis[row] = col
    state.status[col] = _BASIC


def _holds(x, rows, rhs, bounds, den) -> bool:
    """Whether x / den, for integers x, satisfies every bound and row."""
    for (l, u), xj in zip(bounds, x):
        if xj < l * den or (u is not None and xj > u * den):
            return False
    for row, b in zip(rows, rhs):
        if sum(map(operator.mul, row, x)) > b * den:
            return False
    return True


def _satisfies(x, rows, rhs, bounds) -> bool:
    """Whether x, in Fractions or ints, satisfies every bound and row."""
    den = math.lcm(*(xj.denominator for xj in x))
    return _holds([xj.numerator * (den // xj.denominator) for xj in x],
                  rows, rhs, bounds, den)


def _lagrangian(objective, rows, rhs, bounds, p, den) -> int | None:
    """den times lagrangian_bound at the multipliers p / den, for integers p.
    With den = 0 the objective weighs nothing, and a result above 0 proves
    that no point of the box satisfies the rows (Farkas)."""
    coefs = [cj * den for cj in objective]
    total = 0
    # A negative multiplier counts as 0.
    for row, pi, b in zip(rows, p, rhs):
        if pi > 0:
            coefs = [cj + a * pi for cj, a in zip(coefs, row, strict=True)]
            total -= pi * b
    for cj, (lo, hi) in zip(coefs, bounds):
        if hi is not None and hi < lo:
            return None
        if cj > 0:
            total += cj * lo
        elif cj < 0:
            if hi is None:
                return None
            total += cj * hi
    return total


def lagrangian_bound(
    objective: Sequence[int],
    rows: Sequence[Sequence[int]],
    rhs: Sequence[int],
    bounds: Sequence[Bound],
    duals: Sequence[Fraction | int | float],
) -> Fraction | None:
    """A proven lower bound on the LP minimum from any row multipliers.

    Evaluates exactly -lam.rhs + the sum over j of the minimum over
    [lo_j, hi_j] of (objective + rows^T lam)_j x_j, with lam the given
    multipliers clamped to >= 0, the sign every row's multiplier takes.
    Every feasible x lies in the box and costs at least this much, so the
    bound holds whatever the multipliers are; at an exact LPResult.duals it
    equals the optimum.  None when a multiplier is not finite, a box is
    empty, or a column the bound would push up has no upper bound: the
    bound proves nothing then, and the caller solves exactly.
    """
    try:
        lam = [Fraction(v) for v in duals]
    except (ArithmeticError, ValueError):
        return None
    den = math.lcm(*(v.denominator for v in lam))
    p = [v.numerator * (den // v.denominator) for v in lam]
    total = _lagrangian(objective, rows, rhs, bounds, p, den)
    return None if total is None else Fraction(total, den)


def _guide(objective, rows, rhs, bounds) -> LPResult | None:
    """The float run of the simplex, or None when it reaches its iteration cap
    or fails.  A program outside the solvers' domain raises ValueError."""
    limit = _GUIDE_PIVOTS * (len(rows) + len(objective))
    try:
        return _simplex(objective, rows, rhs, bounds, float, limit)
    except (ArithmeticError, SolverError):
        return None


def certify(
    objective: Sequence[int],
    rows: Sequence[Sequence[int]],
    rhs: Sequence[int],
    bounds: Sequence[Bound],
) -> tuple[Fraction | float | None, Fraction | None, list | None]:
    """Proven bounds (lower, upper) on the LP minimum from the float run, and
    the point x that proves upper.

    lower is lagrangian_bound at the float duals, and x the float vertex,
    kept if it satisfies every row and bound; both are rounded over
    D = round(|det B|) of the float run's basis and checked in integers
    over D, and x holds a Fraction only where it is not whole.  lower is
    math.inf if the float run claims the program infeasible and its Farkas
    ray checks.  Each is None where the float run proves nothing; only
    solve_lp can then tell.  settle applies the results.  A program outside
    solve_lp's domain raises ValueError.  Unlike solve_lp and solve_ip,
    certify does not check that the data are integers.
    """
    guess = _guide(objective, rows, rhs, bounds)
    # D >= 1; an empty box's float run gives no det, and NaN fails too.
    if guess is None or not (guess.det or 0) > 0.5:
        return None, None, None
    farkas = guess.status == INFEASIBLE
    try:
        den = round(guess.det)
        p = [round(v * den) for v in guess.duals]
        x = [round(v * den) for v in guess.x or ()]
    except (ArithmeticError, ValueError):
        return None, None, None
    total = _lagrangian(objective, rows, rhs, bounds, p, 0 if farkas else den)
    if farkas or total is None:
        return (math.inf if farkas and (total or 0) > 0 else None), None, None
    lower = Fraction(total, den)
    if not _holds(x, rows, rhs, bounds, den):
        return lower, None, None
    upper = Fraction(sum(map(operator.mul, objective, x)), den)
    return lower, upper, [v // den if v % den == 0 else Fraction(v, den) for v in x]


def settle(objective: Sequence[int], rows: Sequence[Sequence[int]], rhs: Sequence[int],
           bounds: Sequence[Bound], cutoff: Fraction | int | None = None,
           ) -> tuple[int, list] | None:
    """(ceiling, x): the LP minimum's ceiling and a feasible x whose cost has
    it too, or None when the program is infeasible or the ceiling reaches
    cutoff.  The hybrid rule: certify's checked ray or lower bound, or its
    bounds when their ceilings agree, settle it; else solve_lp does.  Only
    solve_lp checks that the data are integers."""
    lower, upper, x = certify(objective, rows, rhs, bounds)
    if lower == math.inf:
        return None
    ceiling = None if lower is None else math.ceil(lower)
    if ceiling is not None and cutoff is not None and ceiling >= cutoff:
        return None
    if upper is None or math.ceil(upper) != ceiling:
        res = solve_lp(objective, rows, rhs, bounds)
        if res.status != OPTIMAL:
            return None
        x, ceiling = res.x, math.ceil(res.value)
        if cutoff is not None and ceiling >= cutoff:
            return None
    return ceiling, x


def solve_ip(
    objective: Sequence[int],
    rows: Sequence[Sequence[int]],
    rhs: Sequence[int],
    bounds: Sequence[Bound],
    cutoff: Fraction | int | None = None,
    hint=None,
) -> LPResult:
    """Minimize over integer points by branch and bound on the LP relaxation.

    The data must be integers, and in solve_lp's domain.  The objective is
    an integer at every integer point, so a node's bound is its relaxation's
    ceiling, and a node whose bound reaches the incumbent or the cutoff is
    pruned.  settle settles each node with that cutoff: a node it returns
    None for is pruned, and otherwise its ceiling is the node's bound and
    its point the node's point.  An integral point is optimal in its node,
    since it costs the bound, and becomes the incumbent.  Else the node
    branches on the point's first fractional variable with floor and
    ceiling bound splits, which partition the node's integer points whatever
    the point was; the relaxation is never assumed integral.  So the bounds,
    prunes and value are those of exact solves at every node, but the
    branches taken, and so which optimal point is returned, follow the
    points the float run gives.

    cutoff is an exclusive upper bound: subtrees that cannot beat it are
    pruned, and status CUTOFF means no integer point below it exists (which
    subsumes infeasibility).  hint, if given, maps a node's fractional point
    to a candidate integral point (or None); candidates are verified against
    the original constraints before they can become incumbents.
    """
    best: LPResult | None = None
    best_value: Fraction | None = None if cutoff is None else Fraction(cutoff)

    def offer(x: list, value: Fraction | int) -> None:
        nonlocal best, best_value
        if best_value is None or value < best_value:
            best = LPResult(OPTIMAL, Fraction(value), [Fraction(v) for v in x])
            best_value = best.value

    # Converted here: settle's float run would take non-integer data.
    index = operator.index
    c = [index(v) for v in objective]
    rows = [[index(v) for v in row] for row in rows]
    rhs = [index(v) for v in rhs]
    bounds = [(index(lo), None if hi is None else index(hi)) for lo, hi in bounds]
    stack: list[tuple[Bound, ...]] = [tuple(bounds)]
    nodes = 0
    while stack:
        node_bounds = stack.pop()
        nodes += 1
        if nodes > _NODE_LIMIT:
            raise SolverError(f"branch and bound exceeded {_NODE_LIMIT} nodes")
        settled = settle(c, rows, rhs, node_bounds, best_value)
        if settled is None:
            continue
        bound, x = settled
        frac_j = -1
        for j, xj in enumerate(x):
            if xj.denominator != 1:
                frac_j = j
                break
        if frac_j == -1:
            # An integral point costs an integer, its node's bound.
            offer(x, bound)
            continue
        guess = None if hint is None else hint(x)
        if guess is not None and not any(v % 1 for v in guess):
            guess = [int(v) for v in guess]
            if _holds(guess, rows, rhs, bounds, 1):
                offer(guess, sum(map(operator.mul, c, guess)))
                if bound >= best_value:
                    continue
        xj = x[frac_j]
        fl = math.floor(xj)
        blo, bhi = node_bounds[frac_j]
        down = list(node_bounds)
        down[frac_j] = (blo, fl)
        up = list(node_bounds)
        up[frac_j] = (fl + 1, bhi)
        if xj - fl >= Fraction(1, 2):
            stack.append(tuple(down))
            stack.append(tuple(up))
        else:
            stack.append(tuple(up))
            stack.append(tuple(down))
    if best is None:
        return LPResult(CUTOFF if cutoff is not None else INFEASIBLE)
    return best
