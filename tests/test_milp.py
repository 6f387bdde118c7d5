import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog as scipy_linprog

from cred.errors import BuildError
from cred.milp import RELATIONS, LinearProgram, solve_lp

INF = np.inf


def random_feasible_lp(rng, m=10, n=20):
    """Boxed LP guaranteed feasible at a random interior point."""
    a = rng.uniform(-2.0, 2.0, size=(m, n))
    x0 = rng.uniform(0.0, 5.0, size=n)
    b = a @ x0 + rng.uniform(0.1, 2.0, size=m)
    c = rng.uniform(-1.0, 1.0, size=n)
    bounds = np.column_stack([np.zeros(n), np.full(n, 10.0)])
    return LinearProgram(c, a, ("<=",) * m, b, bounds)


class TestSolveLp:
    def test_single_lower_bound(self):
        lp = LinearProgram([1.0], [[1.0]], (">=",), [1.0], [[0.0, 10.0]])
        res = solve_lp(lp)
        assert res.optimal
        assert res.values[0] == pytest.approx(1.0, abs=1e-9)
        assert res.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_simplex_edge(self):
        lp = LinearProgram([-1.0, -1.0], [[1.0, 1.0]], ("<=",), [1.0],
                           [[0.0, 2.0], [0.0, 2.0]])
        res = solve_lp(lp)
        assert res.objective_value == pytest.approx(-1.0, abs=1e-9)

    def test_equality_row(self):
        lp = LinearProgram([1.0, 2.0], [[1.0, 1.0]], ("=",), [3.0],
                           [[0.0, INF], [0.0, INF]])
        res = solve_lp(lp)
        assert res.objective_value == pytest.approx(3.0, abs=1e-9)
        assert res.values[0] == pytest.approx(3.0, abs=1e-9)

    def test_free_variable(self):
        # min x1 over x1 >= x0 + 2 and x1 >= -x0 with x0 free and costless:
        # x0 must enter the basis, at -1
        lp = LinearProgram([0.0, 1.0], [[-1.0, 1.0], [1.0, 1.0]], (">=", ">="), [2.0, 0.0],
                           [[-INF, INF], [0.0, INF]])
        res = solve_lp(lp)
        ref = highs(lp)
        assert res.optimal and ref.status == 0
        assert res.objective_value == pytest.approx(ref.fun, abs=1e-9)
        assert np.allclose(res.values, ref.x, rtol=0.0, atol=1e-9)
        assert res.values[0] == pytest.approx(-1.0, abs=1e-12)

    def test_reflected_variable(self):
        lp = LinearProgram([-1.0], np.zeros((0, 1)), (), [], [[-INF, 4.0]])
        res = solve_lp(lp)
        assert res.objective_value == pytest.approx(-4.0, abs=1e-9)

    def test_fixed_variable(self):
        lp = LinearProgram([1.0, 1.0], [[1.0, 1.0]], (">=",), [3.0],
                           [[2.0, 2.0], [0.0, INF]])
        res = solve_lp(lp)
        assert res.values[0] == 2.0
        assert res.values[1] == pytest.approx(1.0, abs=1e-9)

    def test_infeasible(self):
        lp = LinearProgram([0.0], [[1.0]], (">=",), [5.0], [[0.0, 1.0]])
        assert solve_lp(lp).status == "infeasible"

    def test_objective_unbounded_below_rejected(self):
        # a costed variable needs a finite bound in its cost's direction
        with pytest.raises(BuildError):
            LinearProgram([1.0], np.zeros((0, 1)), (), [], [[-INF, 4.0]])
        with pytest.raises(BuildError):
            LinearProgram([-1.0], np.zeros((0, 1)), (), [], [[0.0, INF]])
        free = LinearProgram([0.0, 1.0], [[1.0, 1.0]], (">=",), [1.0], [[-INF, INF], [0.0, INF]])
        assert solve_lp(free).optimal

    @pytest.mark.parametrize("bound", [[INF, INF], [-INF, -INF]])
    def test_bound_without_a_finite_value_rejected(self, bound):
        # x = inf would "satisfy" x <= 1 once the ratio tests see only infinities
        with pytest.raises(BuildError, match="no finite value"):
            LinearProgram([0.0], [[1.0]], ("<=",), [1.0], [bound])

    def test_iteration_limit_reported(self, rng):
        # max_iter caps the dual simplex's steps exactly
        lp = random_feasible_lp(rng)
        res = solve_lp(lp)
        assert res.optimal and res.iterations >= 2
        assert solve_lp(lp, max_iter=res.iterations).optimal
        short = solve_lp(lp, max_iter=res.iterations - 1)
        assert short.status == "iteration_limit" and short.values is None

    def test_lower_infinite_nonbasic_starts_at_upper_bound(self):
        # x0 in (-inf, 1.5] and the >= slack in (-inf, 0] must both start at
        # their finite upper bound, or the first point is not a vertex;
        # min -x0 + 2 x1 over x0 + x1 >= 1 is 2 - 3 x0, so x0 ends at 1.5
        # (x1's lower bound -10 stays inactive)
        lp = LinearProgram([-1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], (">=", "<="), [1.0, 3.0],
                           [[-INF, 1.5], [-10.0, INF]])
        res = solve_lp(lp)
        assert res.optimal
        assert res.values[0] == 1.5
        assert res.values[1] == pytest.approx(-0.5, abs=1e-12)
        assert res.objective_value == pytest.approx(-2.5, abs=1e-12)

    def test_nan_rejected(self):
        with pytest.raises(BuildError):
            LinearProgram([np.nan], [[1.0]], ("<=",), [1.0], [[0.0, 1.0]])
        # nor is a flat lhs read as a matrix of one row per relation
        with pytest.raises(BuildError, match=r"^inconsistent LP dimensions: c\(1,\), A\(1,\)"):
            LinearProgram([1.0], [1.0], ("<=",), [1.0], [[0.0, 1.0]])

    @pytest.mark.parametrize("objective, lhs, relation, rhs", [
        ([INF, 1.0], [1.0, 1.0], "=", 1.0),  # would solve "optimal" with a NaN objective value
        ([0.0, 0.0], [1.0, 0.0], "<=", INF),  # x0 <= inf, x0 in [0, 1]: would solve "infeasible"
        ([0.0, 0.0], [INF, 0.0], ">=", 1.0),  # inf * x0 >= 1: would solve "infeasible"
    ], ids=["objective", "rhs", "lhs"])
    def test_infinite_data_rejected(self, objective, lhs, relation, rhs):
        # costs, matrix and right-hand sides must be finite; bounds may be infinite
        with pytest.raises(BuildError, match="not finite"):
            LinearProgram(objective, [lhs], (relation,), [rhs], [[0.0, 1.0], [0.0, 1.0]])

    def test_matches_independent_implementation(self, rng):
        for _ in range(20):
            lp = random_feasible_lp(rng)
            mine = solve_lp(lp)
            ref = scipy_linprog(
                lp.objective, A_ub=lp.lhs, b_ub=lp.rhs,
                bounds=[tuple(b) for b in lp.bounds], method="highs",
            )
            assert mine.optimal and ref.status == 0
            assert mine.objective_value == pytest.approx(ref.fun, abs=1e-7)
            assert np.all(lp.lhs @ mine.values <= lp.rhs + 1e-7)
            assert np.all(lp.bounds[:, 0] <= mine.values)
            assert np.all(mine.values <= lp.bounds[:, 1])

    def test_strong_duality_spot_check(self, rng):
        # primal: min c x, A x >= b, 0 <= x; dual: max b y, A^T y <= c, y >= 0,
        # with y <= 100 added, which A^T y <= c implies (a >= 0.2, c <= 3)
        m, n = 6, 9
        a = rng.uniform(0.2, 2.0, size=(m, n))
        b = rng.uniform(0.5, 2.0, size=m)
        c = rng.uniform(1.0, 3.0, size=n)
        primal = LinearProgram(c, a, (">=",) * m, b,
                               np.column_stack([np.zeros(n), np.full(n, INF)]))
        dual = LinearProgram(-b, a.T, ("<=",) * n, c,
                             np.column_stack([np.zeros(m), np.full(m, 100.0)]))
        p = solve_lp(primal)
        d = solve_lp(dual)
        assert p.optimal and d.optimal
        assert d.values.max() < 100.0
        # any feasible dual bound stays below the primal optimum
        assert p.objective_value >= -d.objective_value - 1e-7
        assert p.objective_value == pytest.approx(-d.objective_value, abs=1e-6)


#: variable kinds of the random LPs: (lower, upper) relative to a point x0
KINDS = ("free", "fixed", "lower", "upper", "boxed")


@pytest.mark.parametrize("relations, bounds, message", [
    (("<=",), [[np.nan, 1.0]], "LP bounds contain NaN"),
    (("<",), [[0.0, 1.0]], "unknown relation '<'"),
    (("<=",), [[2.0, 1.0]], "variable with lower bound above upper bound"),
], ids=["nan_bound", "unknown_relation", "crossed_bounds"])
def test_each_check_names_its_fault(relations, bounds, message):
    with pytest.raises(BuildError, match=f"^{re.escape(message)}$"):
        solve_lp(LinearProgram([1.0], [[1.0]], relations, [1.0], bounds))


def priced_by_slack_basis(c: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """c with the cost dropped from every variable unbounded in its cost's direction."""
    c = c.copy()
    c[(c > 0) & np.isinf(bounds[:, 0])] = 0.0
    c[(c < 0) & np.isinf(bounds[:, 1])] = 0.0
    return c


@st.composite
def mixed_lps(draw):
    """LP with every relation and bound kind, zero rows included, feasible at x0.

    Raw costs open in their direction are rejected (BuildError) and then
    dropped, so the slack basis prices the LP.  Returns (lp, infeasible):
    with infeasible, a row pair a x <= b, a x >= b + 1 is appended.
    """
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 6))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.RandomState(seed)
    kinds = [KINDS[k] for k in rng.randint(0, len(KINDS), n)]
    x0 = rng.uniform(-3.0, 3.0, n)
    lo = np.array([{"free": -INF, "upper": -INF}.get(k, x - rng.uniform(0.0, 2.0) * (k != "fixed"))
                   for k, x in zip(kinds, x0)])
    hi = np.array([{"free": INF, "lower": INF}.get(k, x + rng.uniform(0.0, 2.0) * (k != "fixed"))
                   for k, x in zip(kinds, x0)])
    a = np.round(rng.uniform(-2.0, 2.0, (m, n)), 1)
    a[rng.uniform(size=m) < 0.2] = 0.0  # zero rows
    rels = tuple(RELATIONS[k] for k in rng.randint(0, 3, m))
    gap = rng.uniform(0.0, 1.0, m) * (rng.uniform(size=m) < 0.7)  # some rows tight at x0
    sign = np.array([{"<=": 1.0, "=": 0.0, ">=": -1.0}[r] for r in rels])
    b = a @ x0 + sign * gap
    c = np.round(rng.uniform(-2.0, 2.0, n), 1)
    infeasible = draw(st.booleans()) and draw(st.booleans())
    if infeasible:
        row = rng.uniform(-1.0, 1.0, n)
        a = np.vstack([a, row, row])
        rels = rels + ("<=", ">=")
        b = np.concatenate([b, [row @ x0, row @ x0 + 1.0]])
    bounds = np.column_stack([lo, hi])
    priced = priced_by_slack_basis(c, bounds)
    if not np.array_equal(priced, c):
        with pytest.raises(BuildError):
            LinearProgram(c, a, rels, b, bounds)
    return LinearProgram(priced, a, rels, b, bounds), infeasible


def highs(lp: LinearProgram):
    rel = np.array(lp.relations, dtype=object)
    ub = rel != "="
    a_ub = np.where((rel[ub] == ">=")[:, None], -lp.lhs[ub], lp.lhs[ub])
    b_ub = np.where(rel[ub] == ">=", -lp.rhs[ub], lp.rhs[ub])
    eq = rel == "="
    return scipy_linprog(
        lp.objective,
        A_ub=a_ub if ub.any() else None, b_ub=b_ub if ub.any() else None,
        A_eq=lp.lhs[eq] if eq.any() else None, b_eq=lp.rhs[eq] if eq.any() else None,
        bounds=[(None if np.isinf(l) else l, None if np.isinf(h) else h) for l, h in lp.bounds],
        method="highs",
    )


def assert_feasible(lp: LinearProgram, x: np.ndarray, tol: float = 1e-7):
    assert np.all(lp.bounds[:, 0] <= x) and np.all(x <= lp.bounds[:, 1])
    act = lp.lhs @ x
    for r, rel in enumerate(lp.relations):
        if rel != ">=":
            assert act[r] <= lp.rhs[r] + tol
        if rel != "<=":
            assert act[r] >= lp.rhs[r] - tol


def shifted(lp: LinearProgram, rng) -> LinearProgram:
    """lp with about half its right-hand sides and bounds moved by up to 0.5."""
    shift = rng.uniform(-0.5, 0.5, lp.n_vars) * (rng.uniform(size=lp.n_vars) < 0.5)
    lo = lp.bounds[:, 0] + shift
    hi = np.maximum(lp.bounds[:, 1] + shift * rng.uniform(0.0, 2.0, lp.n_vars), lo)
    rhs = lp.rhs + rng.uniform(-0.5, 0.5, lp.n_rows) * (rng.uniform(size=lp.n_rows) < 0.5)
    return LinearProgram(lp.objective, lp.lhs, lp.relations, rhs, np.column_stack([lo, hi]))


class TestBoundedSimplex:
    @settings(max_examples=150, deadline=None)
    @given(mixed_lps())
    def test_matches_highs(self, drawn):
        lp, infeasible = drawn
        mine = solve_lp(lp)
        ref = highs(lp)
        expected = {0: "optimal", 2: "infeasible"}[ref.status]
        assert mine.status == expected
        assert (expected == "infeasible") == infeasible
        if expected == "optimal":
            assert mine.objective_value == pytest.approx(ref.fun, rel=1e-9, abs=1e-7)
            assert_feasible(lp, mine.values)

    @settings(max_examples=150, deadline=None)
    @given(mixed_lps(), st.integers(0, 2**31 - 1))
    def test_perturbed_matches_highs(self, drawn, seed):
        # new right-hand sides and bounds can make a feasible LP infeasible
        lp, _ = drawn
        if not solve_lp(lp).optimal:
            return
        moved = shifted(lp, np.random.RandomState(seed))
        mine = solve_lp(moved)
        ref = highs(moved)
        assert mine.status == {0: "optimal", 2: "infeasible"}[ref.status]
        if mine.optimal:
            assert mine.objective_value == pytest.approx(ref.fun, rel=1e-9, abs=1e-7)
            assert_feasible(moved, mine.values)


def test_names_the_benchmark_tracer_reads():
    """credbench/tracing.py probes cred.milp.solve_milp and sizes builds by program.base."""
    import cred.milp

    lp = LinearProgram(np.ones(2), np.ones((1, 2)), ("<=",), np.ones(1), [(0.0, 1.0)] * 2)
    assert lp.base is lp and lp.binary_vars == ()
    with pytest.raises(NotImplementedError):
        cred.milp.solve_milp(lp)
