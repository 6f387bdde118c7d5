import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog as scipy_linprog

from cred.errors import BuildError
from cred.milp import (
    LinearProgram,
    MixedIntegerProgram,
    solve_lp,
    solve_milp,
)

from oracles import enumerate_milp

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
                           [[0.0, INF], [0.0, INF]])
        res = solve_lp(lp)
        assert res.objective_value == pytest.approx(-1.0, abs=1e-9)

    def test_equality_row(self):
        lp = LinearProgram([1.0, 2.0], [[1.0, 1.0]], ("=",), [3.0],
                           [[0.0, INF], [0.0, INF]])
        res = solve_lp(lp)
        assert res.objective_value == pytest.approx(3.0, abs=1e-9)
        assert res.values[0] == pytest.approx(3.0, abs=1e-9)

    def test_free_variable(self):
        lp = LinearProgram([1.0], [[1.0]], (">=",), [-5.0], [[-INF, INF]])
        res = solve_lp(lp)
        assert res.objective_value == pytest.approx(-5.0, abs=1e-9)

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

    def test_unbounded(self):
        lp = LinearProgram([-1.0], np.zeros((0, 1)), (), [], [[0.0, INF]])
        assert solve_lp(lp).status == "unbounded"

    def test_iteration_limit_reported(self, rng):
        lp = random_feasible_lp(rng)
        assert solve_lp(lp, max_iter=1).status == "iteration_limit"

    def test_nan_rejected(self):
        with pytest.raises(BuildError):
            LinearProgram([np.nan], [[1.0]], ("<=",), [1.0], [[0.0, 1.0]])

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
        # primal: min c x, A x >= b, 0 <= x; dual: max b y, A^T y <= c, y >= 0
        m, n = 6, 9
        a = rng.uniform(0.2, 2.0, size=(m, n))
        b = rng.uniform(0.5, 2.0, size=m)
        c = rng.uniform(1.0, 3.0, size=n)
        primal = LinearProgram(c, a, (">=",) * m, b,
                               np.column_stack([np.zeros(n), np.full(n, INF)]))
        dual = LinearProgram(-b, a.T, ("<=",) * n, c,
                             np.column_stack([np.zeros(m), np.full(m, INF)]))
        p = solve_lp(primal)
        d = solve_lp(dual)
        assert p.optimal and d.optimal
        # any feasible dual bound stays below the primal optimum
        assert p.objective_value >= -d.objective_value - 1e-7
        assert p.objective_value == pytest.approx(-d.objective_value, abs=1e-6)


class TestSolveMilp:
    def test_cover_constraint(self):
        lp = LinearProgram([1.0, 1.0], [[1.0, 1.0]], (">=",), [1.0],
                           [[0.0, 1.0], [0.0, 1.0]])
        res = solve_milp(MixedIntegerProgram(lp, (0, 1)))
        assert res.optimal
        assert res.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_integral_relaxation_single_node(self):
        lp = LinearProgram([-1.0], [[1.0]], ("<=",), [1.0], [[0.0, 1.0]])
        res = solve_milp(MixedIntegerProgram(lp, (0,)))
        assert res.optimal and res.node_count == 1
        assert res.objective_value == pytest.approx(solve_lp(lp).objective_value)

    def test_matches_enumeration_on_random_instances(self, rng):
        for _ in range(15):
            n_bin, n_cont, m = 6, 4, 5
            n = n_bin + n_cont
            a = rng.uniform(-1.5, 1.5, size=(m, n))
            x0 = np.concatenate([rng.randint(0, 2, n_bin), rng.uniform(0, 2, n_cont)])
            b = a @ x0 + rng.uniform(0.05, 1.0, size=m)
            c = rng.uniform(-2.0, 2.0, size=n)
            bounds = np.column_stack(
                [np.zeros(n), np.concatenate([np.ones(n_bin), np.full(n_cont, 3.0)])]
            )
            mip = MixedIntegerProgram(
                LinearProgram(c, a, ("<=",) * m, b, bounds), tuple(range(n_bin))
            )
            mine = solve_milp(mip)
            status, obj, _ = enumerate_milp(mip)
            assert mine.status == status
            if status == "optimal":
                assert mine.objective_value == pytest.approx(obj, abs=1e-6)
                vals = mine.values[list(mip.binary_vars)]
                assert np.max(np.abs(vals - np.round(vals))) <= 1e-6
                assert np.all(bounds[:, 0] <= mine.values)
                assert np.all(mine.values <= bounds[:, 1])

    def test_infeasible_instance(self):
        lp = LinearProgram([1.0], [[1.0]], (">=",), [2.0], [[0.0, 1.0]])
        assert solve_milp(MixedIntegerProgram(lp, (0,))).status == "infeasible"

    def test_node_cap_reports_limit(self, rng):
        n = 14
        a = np.ones((1, n))
        lp = LinearProgram(rng.uniform(0.9, 1.1, n), a, ("=",), [n / 2 + 0.3],
                           np.column_stack([np.zeros(n), np.ones(n)]))
        res = solve_milp(MixedIntegerProgram(lp, tuple(range(n))), node_cap=3)
        assert res.status == "iteration_limit"

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_deterministic_repeat(self, seed):
        rng = np.random.RandomState(seed)
        n = 8
        a = rng.uniform(-1.0, 1.0, size=(4, n))
        b = a @ rng.randint(0, 2, n) + 0.25
        lp = LinearProgram(rng.uniform(-1, 1, n), a, ("<=",) * 4, b,
                           np.column_stack([np.zeros(n), np.ones(n)]))
        mip = MixedIntegerProgram(lp, tuple(range(n)))
        r1, r2 = solve_milp(mip), solve_milp(mip)
        assert r1.status == r2.status
        assert r1.node_count == r2.node_count
        if r1.optimal:
            assert np.array_equal(r1.values, r2.values)

    def test_binary_bounds_enforced(self):
        lp = LinearProgram([1.0], np.zeros((0, 1)), (), [], [[0.0, 2.0]])
        with pytest.raises(BuildError):
            MixedIntegerProgram(lp, (0,))
