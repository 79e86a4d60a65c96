"""Linear and integer programming with exact rational results.

A bounded-variable simplex with an exact run and a float run, plus a small
branch-and-bound layer for integer programs.  The exact run takes the
integer programs that every distance model and every branch produce, and
rejects any other data.  It is exact: optima, reduced costs, duals and
branching bounds carry no rounding, so callers can take ceilings of LP values
without tolerance guards.  The float run proves bounds, never a value by
itself.  certify snaps the float run's duals to small-denominator rationals
and evaluates the Lagrangian bound at them exactly (lagrangian_bound), which
proves a lower bound on the LP minimum whatever the floats were; it snaps the
float vertex the same way and keeps it, as a point and an upper bound, only
if it passes an exact feasibility check.  When the two bounds share a
ceiling, that is the LP's ceiling, and solve_ip settles or branches on the
snapped point without an exact solve.  Tolerances exist only inside the float
run, no float value reaches a result without such a check, and any failure
of the float run (a pivot cap, a non-finite value, a start that is not dual
feasible, a claim of infeasibility, or duals that would push up a column
with no upper bound) leaves the caller to solve exactly.  The method is Neumaier & Shcherbina,
"Safe bounds in linear and mixed-integer programming" (2004), and Applegate,
Cook, Dash & Espinoza, "Exact solutions to linear programming problems"
(2007); bounding and branching on checked float results, with an exact
solve only where a check fails, is the hybrid scheme of Cook, Koch, Steffy &
Wolter, "A hybrid branch-and-bound approach for exact rational mixed-integer
programming" (2013).

Both runs keep a full tableau with variable bounds handled implicitly
(nonbasic variables rest at either bound and may flip without a basis
change).  The exact run is the textbook two-phase primal simplex, started
with every column at its lower bound.  The float run is a bounded dual
simplex with no phase one (Koberstein, "The dual simplex method, techniques
for a fast and stable implementation", 2005).  It starts on the all-slack
basis with each column at the bound its cost prefers, which is dual
feasible on every distance model, and on most suffix programs already
optimal.  Its leaving row is the one with the largest bound violation.  Its
ratio test takes the candidates in ratio order and flips a boxed one to its
other bound instead of entering it while the row stays infeasible after the
flip (Maros, "A generalized dual phase-2 simplex algorithm", 2003).  certify
checks whichever optimal vertex it reaches.  The exact run is wholly in
integers.  The tableau is an integer matrix over one common denominator den,
the reduced costs an integer row over den, and both are updated by
integer-preserving elimination whose divisions are exact (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", 1968).  The tableau's last column holds den * x on the basis,
an integer, and a pivot updates it by the same elimination as every other
column (Azulay & Pique, "A revised simplex method with integer Q-matrices",
2001).  The ratio test compares its caps by cross-multiplication, so
Fractions are built only for the result.  Each run prices by its own rule
(the exact run Dantzig's, the float run the largest violation) until a long
degenerate streak, then by Bland's rule, which guarantees termination.

The columns of a program with n columns and m rows are its own at [0, n),
then row i's slack at n + i, then, in the exact run, from n + m on and in
row order, an artificial for each row that starts on one.  The slack's
coefficient, sign[i], is -1 on a ">=" row and +1 otherwise; on an "=" row
the slack is held at [0, 0].  The exact run starts such a row on an
artificial; the float run starts it on its slack, which is then basic and
outside its bounds until the dual simplex drives it out.  Left of its last
column the tableau is always B^-1 [A | S | Art] (over den in the exact run),
so its slack block times the signs is B^-1, whatever rows were negated to
put the identity on the starting basis, and row i's dual is read off its
slack's reduced cost.  An artificial still basic after phase one (a
redundant equality row) stays basic: phase two bounds every artificial to
[0, 0] and never lets one enter, so the ratio test holds a basic one at
zero until it leaves.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
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
# Largest denominator certify snaps a float dual or coordinate to.
_SNAP_DENOMINATOR = 1000


class SolverError(RuntimeError):
    """The solver could not complete; callers must treat this as fatal."""


@dataclass
class LPResult:
    """status, plus the optimum's value and vertex when OPTIMAL.

    duals, set by solve_lp at an optimum, holds row i's multiplier in the
    Lagrangian objective.x + duals.(rows x - rhs): >= 0 on "<=" rows and
    <= 0 on ">=" rows.  solve_ip leaves it None.
    """

    status: str
    value: Fraction | None = None
    x: list[Fraction] | None = None
    duals: list[Fraction] | None = None


Bound = tuple[int, "int | None"]


def solve_lp(
    objective: Sequence[int],
    rows: Sequence[Sequence[int]],
    senses: Sequence[str],
    rhs: Sequence[int],
    bounds: Sequence[Bound],
) -> LPResult:
    """Minimize objective . x subject to rows x (senses) rhs and lo <= x <= hi.

    senses entries are "<=", ">=" or "=".  Upper bounds of None mean
    unbounded above; lower bounds must be finite.  Every other entry of the
    data must be an integer (TypeError otherwise).  Exact: the result is in
    Fractions.
    """
    return _simplex(objective, rows, senses, rhs, bounds, int, None)


def _simplex(objective, rows, senses, rhs, bounds, num, limit) -> LPResult:
    """solve_lp in the number type num: exactly by the primal simplex when
    num is int, else by the float run's dual simplex in at most limit
    iterations."""
    n = len(objective)
    m = len(rows)
    if len(senses) != m or len(rhs) != m:
        raise ValueError("senses and rhs need one entry per row")
    if len(bounds) != n:
        raise ValueError("bounds need one entry per column")
    exact = num is int
    if exact:
        num = operator.index
    zero, one = num(0), num(1)
    c = [num(v) for v in objective]
    lo = [num(b[0]) for b in bounds]
    hi: list = [None if b[1] is None else num(b[1]) for b in bounds]
    tab = [[num(v) for v in row] for row in rows]
    for row in tab:
        if len(row) != n:
            raise ValueError("row length does not match objective")
    b = [num(v) for v in rhs]
    for l, u in zip(lo, hi):
        if u is not None and u < l:
            return LPResult(INFEASIBLE)

    for sense in senses:
        if sense not in ("<=", ">=", "="):
            raise ValueError(f"unknown sense {sense!r}")
    sign = [-one if sense == ">=" else one for sense in senses]
    # The exact run starts every column at its lower bound, and a row on its
    # slack when that can carry the residual, else, as an "=" row always
    # does, on an artificial of the residual's sign.  The float run starts
    # every row on its slack and each column at the bound its cost prefers,
    # its upper bound when the cost is negative (Bixby, "Implementing the
    # simplex method: the initial basis", 1992): that basis is dual feasible
    # unless a negative cost has no upper bound, which no distance model
    # has.  The vertex a run reaches picks solve_ip's branch, and so the
    # witness: the float run's where certify settles a node, the exact run's
    # elsewhere.
    if not exact and any(cj < 0 and u is None for cj, u in zip(c, hi)):
        raise SolverError("the float run's start is not dual feasible")
    at_upper = [not exact and cj < 0 for cj in c]
    start = [u if up else l for l, u, up in zip(lo, hi, at_upper)]
    residual = [
        b[i] - sum(tab[i][j] * start[j] for j in range(n) if start[j])
        for i in range(m)
    ]
    art_rows = [
        i for i in range(m) if exact and (senses[i] == "=" or residual[i] * sign[i] < 0)
    ]
    for i, row in enumerate(tab):
        row += [zero] * (m + len(art_rows)) + [residual[i]]
        row[n + i] = sign[i]
    basis = [n + i for i in range(m)]
    for k, i in enumerate(art_rows):
        basis[i] = n + m + k
        tab[i][n + m + k] = one if residual[i] >= 0 else -one
    lo += [zero] * (m + len(art_rows))
    hi += [zero if sense == "=" else None for sense in senses] + [None] * len(art_rows)
    c_full = c + [zero] * (m + len(art_rows))
    status = [_UPPER if up else _LOWER for up in at_upper]
    status += [_LOWER] * (m + len(art_rows))
    for col in basis:
        status[col] = _BASIC
    # Negate each row whose basic column starts at -1 (the slack of a ">="
    # row, or the artificial of a negative residual) so that the tableau
    # carries the identity on the basis, and its last column, the residuals,
    # the basic values.
    for i, col in enumerate(basis):
        if tab[i][col] != one:
            tab[i] = [-v for v in tab[i]]

    state = _State(tab, 1, basis, status, lo, hi)

    if art_rows:
        c1 = [zero] * (n + m) + [one] * len(art_rows)
        if _iterate(state, _reduced_costs(state, c1)) == UNBOUNDED:
            raise SolverError("phase one claims an unbounded artificial objective")
        # A nonbasic artificial rests at 0: it has no upper bound to flip to.
        if sum(state.tab[i][-1] for i in range(m) if state.basis[i] >= n + m) > 0:
            return LPResult(INFEASIBLE)
        for j in range(n + m, len(lo)):
            state.hi[j] = zero

    d = _reduced_costs(state, c_full)
    if exact:
        if _iterate(state, d) == UNBOUNDED:
            return LPResult(UNBOUNDED)
    elif _dual_iterate(state, d, limit) == INFEASIBLE:
        return LPResult(INFEASIBLE)
    ratio = Fraction if exact else operator.truediv
    x = [ratio(*_variable_value(state, j)) for j in range(n)]
    value = sum(cj * xj for cj, xj in zip(c, x))
    duals = [ratio(d[n + i] * sign[i], state.den) for i in range(m)]
    return LPResult(OPTIMAL, value, x, duals)


@dataclass(slots=True)
class _State:
    # The tableau is tab / den, and its last column holds den * x on the
    # basis: den stays 1 in the float run.
    tab: list
    den: int
    basis: list[int]
    status: list[int]
    lo: list
    hi: list


def _variable_value(state: _State, j: int) -> tuple:
    """x_j as a numerator and a denominator."""
    if state.status[j] == _BASIC:
        return state.tab[state.basis.index(j)][-1], state.den
    return state.lo[j] if state.status[j] == _LOWER else state.hi[j], 1


def _reduced_costs(state: _State, cost: list) -> list:
    m = len(state.basis)
    d = [cj * state.den for cj in cost]
    for i in range(m):
        cb = cost[state.basis[i]]
        if cb:
            row = state.tab[i]
            for j in range(len(d)):
                if row[j]:
                    d[j] -= cb * row[j]
    return d


def _iterate(state: _State, d: list) -> str:
    """The exact run's primal simplex from a primal feasible basis: OPTIMAL,
    or UNBOUNDED."""
    tab, basis = state.tab, state.basis
    status, lo, hi = state.status, state.lo, state.hi
    m = len(basis)
    ncols = len(lo)
    degenerate_streak = 0
    while True:
        use_bland = degenerate_streak >= _BLAND_AFTER
        enter = -1
        direction = 0
        best_score = 0
        for j in range(ncols):
            if status[j] == _BASIC:
                continue
            if hi[j] is not None and hi[j] == lo[j]:
                continue
            if status[j] == _LOWER and d[j] < 0:
                cand = 1
                score = -d[j]
            elif status[j] == _UPPER and d[j] > 0:
                cand = -1
                score = d[j]
            else:
                continue
            if use_bland:
                enter, direction = j, cand
                break
            if score > best_score:
                best_score, enter, direction = score, j, cand
        if enter == -1:
            return OPTIMAL
        j = enter
        den = state.den

        # Row i lets x_j move gap / rate before its basic value reaches a
        # bound: gap is den times the basic value's distance to that bound,
        # rate den times how fast the value moves.  Caps are compared by
        # cross-multiplication, so the exact run stays in integers.
        leave_row = -1
        gap = rate = leave_to = None
        for i in range(m):
            row = tab[i]
            a = row[j] * direction
            if a > 0:
                g = row[-1] - den * lo[basis[i]]
                to = _LOWER
            elif a < 0 and hi[basis[i]] is not None:
                a = -a
                g = den * hi[basis[i]] - row[-1]
                to = _UPPER
            else:
                continue
            if (
                leave_row == -1
                or g * rate < gap * a
                or (g * rate == gap * a and basis[i] < basis[leave_row])
            ):
                gap, rate, leave_row, leave_to = g, a, i, to
        width = None if hi[j] is None else hi[j] - lo[j]
        if leave_row == -1 and width is None:
            return UNBOUNDED

        if leave_row == -1 or (width is not None and width * rate <= gap):
            # x_j flips to its other bound, and every basic value follows.
            for row in tab:
                if row[j]:
                    row[-1] -= row[j] * direction * width
            status[j] = _UPPER if status[j] == _LOWER else _LOWER
            degenerate_streak = 0
            continue
        # Eliminate with the leaving value already at its bound and x_j still
        # at its own: by Sylvester's identity every division stays exact, and
        # the leave row is left with den times x_j's step from that bound.
        leaving = basis[leave_row]
        tab[leave_row][-1] -= den * (lo[leaving] if leave_to == _LOWER else hi[leaving])
        status[leaving] = leave_to
        _pivot(state, d, leave_row, j)
        tab[leave_row][-1] += state.den * (lo[j] if direction == 1 else hi[j])
        degenerate_streak = degenerate_streak + 1 if gap == 0 else 0


def _dual_iterate(state: _State, d: list, limit: int) -> str:
    """The float run's bounded dual simplex from a dual feasible basis:
    OPTIMAL, or INFEASIBLE when a row's violation has no entering column.
    SolverError once it has taken limit iterations."""
    tab, basis = state.tab, state.basis
    status, lo, hi = state.status, state.lo, state.hi
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
        leave_row, slope = -1, 0.0
        for i, col in enumerate(basis):
            v = tab[i][-1]
            gap = lo[col] - v
            if hi[col] is not None and v - hi[col] > gap:
                gap = v - hi[col]
            if gap > _GUIDE_TOL and (
                leave_row == -1 or (col < basis[leave_row] if use_bland else gap > slope)
            ):
                leave_row, slope = i, gap
        if leave_row == -1:
            return OPTIMAL
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
            if status[j] == _BASIC or abs(a) <= _GUIDE_TOL or hi[j] == lo[j]:
                continue
            if ((a < 0) == (status[j] == _LOWER)) == rise:
                ratios.append((abs(d[j] / a), j))
        ratios.sort()
        flips = []
        for _, j in ratios:
            width = None if hi[j] is None else hi[j] - lo[j]
            if use_bland or width is None or abs(row[j]) * width >= slope - _GUIDE_TOL:
                break
            flips.append(j)
            slope -= abs(row[j]) * width
        else:
            return INFEASIBLE
        for k in flips:
            step = hi[k] - lo[k] if status[k] == _LOWER else lo[k] - hi[k]
            status[k] = _UPPER if status[k] == _LOWER else _LOWER
            for r in tab:
                if r[k]:
                    r[-1] -= r[k] * step
        degenerate_streak = degenerate_streak + 1 if abs(d[j]) <= _GUIDE_TOL else 0
        start = lo[j] if status[j] == _LOWER else hi[j]
        row[-1] -= lo[leaving] if rise else hi[leaving]
        status[leaving] = _LOWER if rise else _UPPER
        _pivot(state, d, leave_row, j)
        tab[leave_row][-1] += start


def _pivot(state: _State, d: list, row: int, col: int) -> None:
    tab = state.tab
    piv = tab[row][col]
    if isinstance(piv, float):
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
    else:
        # Integer-preserving (Bareiss): the pivot row stays as it is, with
        # its sign turned so that the new denominator, the pivot, is positive.
        # Every other row's division by the old denominator is exact.
        if piv < 0:
            piv = -piv
            tab[row] = [-v for v in tab[row]]
        prow, den = tab[row], state.den
        for i in range(len(tab)):
            if i != row:
                tab[i] = _eliminate(tab[i], prow, tab[i][col], piv, den)
        d[:] = _eliminate(d, prow, d[col], piv, den)
        state.den = piv
    state.basis[row] = col
    state.status[col] = _BASIC


def _eliminate(r: list, prow: list, f: int, piv: int, den: int) -> list:
    """(piv * r - f * prow) / den, each division exact.  With piv = den, f * prow
    alone is a multiple of den, and a row with f = 0 stays as it is."""
    if piv == den:
        return r if not f else [v - f * vp // den for v, vp in zip(r, prow)]
    if not f:
        return [piv * v // den for v in r]
    return [(piv * v - f * vp) // den for v, vp in zip(r, prow)]


def _satisfies(
    x: list[Fraction | int],
    rows: Sequence[Sequence[int]],
    senses: Sequence[str],
    rhs: Sequence[int],
    bounds: Sequence[Bound],
) -> bool:
    for (l, u), xj in zip(bounds, x):
        if xj < l or (u is not None and xj > u):
            return False
    # Scaled by the common denominator, the row sums stay in integers when
    # the rows are integers.
    scale = math.lcm(*(xj.denominator for xj in x))
    x = [xj.numerator * (scale // xj.denominator) for xj in x]
    for row, sense, b in zip(rows, senses, rhs):
        v = sum(coef * xj for coef, xj in zip(row, x) if coef)
        b *= scale
        if sense == "<=" and v > b:
            return False
        if sense == ">=" and v < b:
            return False
        if sense == "=" and v != b:
            return False
    return True


def lagrangian_bound(
    objective: Sequence[int],
    rows: Sequence[Sequence[int]],
    senses: Sequence[str],
    rhs: Sequence[int],
    bounds: Sequence[Bound],
    duals: Sequence[Fraction | int | float],
) -> Fraction | None:
    """A proven lower bound on the LP minimum from any row multipliers.

    Evaluates exactly -lam.rhs + the sum over j of the minimum over
    [lo_j, hi_j] of (objective + rows^T lam)_j x_j, with lam the given
    multipliers clamped to the signs their rows allow (>= 0 on "<=" rows,
    <= 0 on ">=" rows).  Every feasible x lies in the box and costs at least
    this much, so the bound holds whatever the multipliers are; at an exact
    LPResult.duals it equals the optimum.  None when a multiplier is not
    finite, a box is empty, or a column the bound would push up has no upper
    bound: the bound proves nothing then, and the caller solves exactly.
    """
    lam = []
    for v, sense in zip(duals, senses):
        if isinstance(v, float):
            if not math.isfinite(v):
                return None
            v = Fraction(v)
        if (v < 0 and sense == "<=") or (v > 0 and sense == ">="):
            v = 0
        lam.append(v)
    # Scaled by the common denominator, the evaluation stays in integers
    # when the program's data are integers.
    scale = math.lcm(*(v.denominator for v in lam))
    p = [v.numerator * (scale // v.denominator) for v in lam]
    coefs = [cj * scale for cj in objective]
    for row, pi in zip(rows, p):
        if pi:
            for j, a in enumerate(row):
                if a:
                    coefs[j] += a * pi
    total = -sum(pi * b for pi, b in zip(p, rhs) if pi)
    for cj, (lo, hi) in zip(coefs, bounds):
        if hi is not None and hi < lo:
            return None
        if cj > 0:
            total += cj * lo
        elif cj < 0:
            if hi is None:
                return None
            total += cj * hi
    return Fraction(total, scale)


def _guide(objective, rows, senses, rhs, bounds) -> LPResult | None:
    """The float run of the simplex: its optimal LPResult in floats, or None
    when it reaches its iteration cap, fails, or claims the program
    infeasible or unbounded."""
    limit = _GUIDE_PIVOTS * (len(rows) + len(objective))
    try:
        res = _simplex(objective, rows, senses, rhs, bounds, float, limit)
    except (ArithmeticError, SolverError):
        return None
    return res if res.status == OPTIMAL else None


def _snap(v: float) -> Fraction | int:
    """The rational nearest v with denominator at most _SNAP_DENOMINATOR,
    as an int when v is whole up to the float run's tolerance."""
    r = round(v)
    if abs(v - r) <= _GUIDE_TOL:
        return r
    return Fraction(v).limit_denominator(_SNAP_DENOMINATOR)


def certify(
    objective: Sequence[int],
    rows: Sequence[Sequence[int]],
    senses: Sequence[str],
    rhs: Sequence[int],
    bounds: Sequence[Bound],
) -> tuple[Fraction | None, Fraction | None, list | None]:
    """Proven bounds (lower, upper) on the LP minimum from the float run, and
    the point x that proves upper.

    lower is lagrangian_bound at the float duals, each snapped to a rational
    of small denominator; x is the float vertex snapped the same way, kept
    only if it satisfies every row and bound exactly, and upper is the
    objective at x.  Each is None where the float run proves nothing; only
    solve_lp can then tell.
    """
    guess = _guide(objective, rows, senses, rhs, bounds)
    if guess is None or not all(map(math.isfinite, guess.duals + guess.x)):
        return None, None, None
    lower = lagrangian_bound(
        objective, rows, senses, rhs, bounds, [_snap(v) for v in guess.duals]
    )
    x = [_snap(v) for v in guess.x]
    if not _satisfies(x, rows, senses, rhs, bounds):
        return lower, None, None
    return lower, sum(cj * xj for cj, xj in zip(objective, x)), x


def solve_ip(
    objective: Sequence[int],
    rows: Sequence[Sequence[int]],
    senses: Sequence[str],
    rhs: Sequence[int],
    bounds: Sequence[Bound],
    cutoff: Fraction | int | None = None,
    hint=None,
) -> LPResult:
    """Minimize over integer points by branch and bound on the LP relaxation.

    The data must be integers, as for solve_lp.  The objective is an integer
    at every integer point, so a node's bound is its relaxation's ceiling,
    and a node whose bound reaches the incumbent or the cutoff is pruned.
    Each node runs certify first.  A certified lower bound that already
    reaches the incumbent prunes the node.  When the certified bounds share
    a ceiling, that ceiling is the node's bound and the snapped point its
    point; otherwise solve_lp gives both.  An integral point is optimal in
    its node, since it costs the bound, and becomes the incumbent.  Else the
    node branches on the point's first fractional variable with floor and
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

    # Converted here: certify's float run would take non-integer data.
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
        lower, upper, x = certify(c, rows, senses, rhs, node_bounds)
        bound = None if lower is None else math.ceil(lower)
        if upper is None or math.ceil(upper) != bound:
            if bound is not None and best_value is not None and bound >= best_value:
                continue
            res = solve_lp(c, rows, senses, rhs, node_bounds)
            if res.status == UNBOUNDED:
                raise SolverError("integer program has an unbounded relaxation")
            if res.status != OPTIMAL:
                continue
            x, bound = res.x, math.ceil(res.value)
        if best_value is not None and bound >= best_value:
            continue
        frac_j = -1
        for j, xj in enumerate(x):
            if xj.denominator != 1:
                frac_j = j
                break
        if frac_j == -1:
            # An integral point costs an integer, its node's bound.
            offer(x, bound)
            continue
        if hint is not None:
            guess = hint(x)
            if guess is not None:
                guess = [Fraction(v) for v in guess]
                if all(v.denominator == 1 for v in guess) and _satisfies(
                    guess, rows, senses, rhs, bounds
                ):
                    offer(guess, sum(cj * v for cj, v in zip(c, guess)))
                    if best_value is not None and bound >= best_value:
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
