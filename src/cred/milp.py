"""Dense two-phase simplex and best-bound branch-and-bound over binaries.

Sized for desk-scale dispatch instances (tens of variables, hundreds of
rows).  The simplex prices with Dantzig's rule and falls back to Bland's
rule after a degenerate stall, so it cannot cycle; the node heap of the
branch-and-bound is ordered by (bound, insertion counter) so results and
node counts are reproducible.  An external solver can be substituted
behind the same solve_lp/solve_milp contract.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import BuildError

__all__ = [
    "LinearProgram",
    "MixedIntegerProgram",
    "SolveResult",
    "solve_lp",
    "solve_milp",
]

RELATIONS = ("<=", "=", ">=")

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7
#: a binary accepted at z = _INT_TOL can still admit _INT_TOL * coefficient of
#: a continuous variable it gates; keep that far below the dispatch's 1e-6
#: strict margin for gains in the tens
_INT_TOL = 1e-9
_ZERO_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min objective @ x subject to lhs x (<=,=,>=) rhs and box bounds."""

    objective: np.ndarray
    lhs: np.ndarray
    relations: tuple
    rhs: np.ndarray
    bounds: np.ndarray  # (n, 2), +-inf allowed

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        a = np.asarray(self.lhs, dtype=float)
        if a.ndim != 2:
            a = a.reshape(len(self.relations), c.size)
        b = np.asarray(self.rhs, dtype=float)
        bounds = np.asarray(self.bounds, dtype=float)
        n = c.size
        m = len(self.relations)
        if a.shape != (m, n) or b.shape != (m,) or bounds.shape != (n, 2):
            raise BuildError(
                f"inconsistent LP dimensions: c{c.shape}, A{a.shape}, b{b.shape}, bounds{bounds.shape}"
            )
        if np.any(np.isnan(c)) or np.any(np.isnan(a)) or np.any(np.isnan(b)) or np.any(np.isnan(bounds)):
            raise BuildError("LP contains NaN coefficients")
        rels = tuple(self.relations)
        for r in rels:
            if r not in RELATIONS:
                raise BuildError(f"unknown relation {r!r}")
        if np.any(bounds[:, 0] > bounds[:, 1]):
            raise BuildError("variable with lower bound above upper bound")
        for arr in (c, a, b, bounds):
            arr.setflags(write=False)
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "lhs", a)
        object.__setattr__(self, "relations", rels)
        object.__setattr__(self, "rhs", b)
        object.__setattr__(self, "bounds", bounds)

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return len(self.relations)

    def with_bounds(self, overrides) -> "LinearProgram":
        """New LP with per-variable (lo, hi) overrides applied."""
        bounds = self.bounds.copy()
        for j, (lo, hi) in overrides.items():
            bounds[j] = (lo, hi)
        return LinearProgram(self.objective, self.lhs, self.relations, self.rhs, bounds)


@dataclass(frozen=True, eq=False)
class MixedIntegerProgram:
    base: LinearProgram
    binary_vars: tuple

    def __post_init__(self):
        ids = tuple(sorted(int(j) for j in self.binary_vars))
        if len(set(ids)) != len(ids):
            raise BuildError("duplicate binary indices")
        for j in ids:
            if not 0 <= j < self.base.n_vars:
                raise BuildError(f"binary index {j} out of range")
            lo, hi = self.base.bounds[j]
            if lo < -1e-9 or hi > 1.0 + 1e-9:
                raise BuildError(f"binary variable {j} must be bounded within [0, 1]")
        object.__setattr__(self, "binary_vars", ids)


@dataclass
class SolveResult:
    status: str  # optimal | infeasible | unbounded | iteration_limit
    values: np.ndarray | None = None
    objective_value: float | None = None
    node_count: int | None = None
    iterations: int = 0

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class _IterationLimit(Exception):
    pass


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    colvals = tableau[:, col].copy()
    colvals[row] = 0.0
    tableau -= np.outer(colvals, tableau[row])
    basis[row] = col


#: consecutive non-improving pivots tolerated before switching to Bland's rule
_STALL_LIMIT = 40


def _run_simplex(tableau, basis, cost, n_cols, max_iter, allowed):
    """Minimize cost over the tableau in place. Returns reduced-cost row.

    allowed marks columns eligible to enter the basis.  Pricing uses
    Dantzig's rule until a degenerate stall, then falls back to Bland's
    rule permanently so cycling cannot occur.  Raises _IterationLimit when
    the pivot budget is exhausted; returns None when the problem is
    unbounded in some entering column.
    """
    m = tableau.shape[0]
    z = cost.astype(float).copy()
    for r in range(m):
        cb = cost[basis[r]]
        if cb != 0.0:
            z -= cb * tableau[r, :]
    it = 0
    stall = 0
    bland = False
    while True:
        reduced = np.where(allowed, z[:n_cols], np.inf)
        if bland:
            candidates = np.flatnonzero(reduced < -_PIVOT_TOL)
            if candidates.size == 0:
                return z, it
            e = int(candidates[0])  # smallest eligible index
        else:
            e = int(np.argmin(reduced))
            if reduced[e] >= -_PIVOT_TOL:
                return z, it
        col = tableau[:, e]
        rows = np.flatnonzero(col > _PIVOT_TOL)
        if rows.size == 0:
            return None, it  # unbounded direction
        ratios = tableau[rows, -1] / col[rows]
        best = ratios.min()
        ties = rows[np.flatnonzero(ratios <= best + 1e-12)]
        leave = int(ties[np.argmin(basis[ties])])  # smallest basic index on ties
        _pivot(tableau, basis, leave, e)
        z -= z[e] * tableau[leave, :]
        it += 1
        if not bland:
            stall = stall + 1 if best <= 1e-12 else 0
            if stall > _STALL_LIMIT:
                bland = True
        if it > max_iter:
            raise _IterationLimit()


def solve_lp(lp: LinearProgram, max_iter: int | None = None) -> SolveResult:
    """Two-phase dense simplex with Bland's rule.

    Returns an optimal basic solution, an infeasible/unbounded status, or
    iteration_limit if the pivot budget is exhausted.  Optimal values lie
    within their bounds exactly.
    """
    n = lp.n_vars
    m = lp.n_rows

    # shift/reflect/split variables onto u >= 0
    shift = np.zeros(n)
    extra_caps = []  # (std col, cap) for doubly bounded vars
    n_std = 0
    mapping = []  # per variable: tuple of (std col, sign)
    for j in range(n):
        lo, hi = lp.bounds[j]
        if lo == hi:
            mapping.append(())
            shift[j] = lo
            continue
        if np.isfinite(lo):
            mapping.append(((n_std, 1.0),))
            shift[j] = lo
            if np.isfinite(hi):
                extra_caps.append((n_std, hi - lo))
            n_std += 1
        elif np.isfinite(hi):
            mapping.append(((n_std, -1.0),))
            shift[j] = hi
            n_std += 1
        else:
            mapping.append(((n_std, 1.0), (n_std + 1, -1.0)))
            n_std += 2

    proj = np.zeros((n, n_std))
    for j, terms in enumerate(mapping):
        for col, sign in terms:
            proj[j, col] = sign

    a_u = lp.lhs @ proj
    b_u = lp.rhs - lp.lhs @ shift
    c_u = lp.objective @ proj
    obj_const = float(lp.objective @ shift)

    rows = [(a_u[r], lp.relations[r], b_u[r]) for r in range(m)]
    for col, cap in extra_caps:
        unit = np.zeros(n_std)
        unit[col] = 1.0
        rows.append((unit, "<=", cap))

    m_all = len(rows)
    n_slack = sum(1 for _, rel, _ in rows if rel != "=")
    a_full = np.zeros((m_all, n_std + n_slack))
    b_full = np.zeros(m_all)
    slack_of = np.full(m_all, -1, dtype=int)
    s = 0
    for r, (arow, rel, rhs) in enumerate(rows):
        a_full[r, :n_std] = arow
        b_full[r] = rhs
        if rel != "=":
            a_full[r, n_std + s] = 1.0 if rel == "<=" else -1.0
            slack_of[r] = n_std + s
            s += 1
    neg = b_full < 0.0
    a_full[neg] *= -1.0
    b_full[neg] *= -1.0

    n_cols = n_std + n_slack
    # rows whose slack survives with +1 start basic; the rest get artificials
    basis = np.full(m_all, -1, dtype=int)
    art_rows = []
    for r in range(m_all):
        if slack_of[r] >= 0 and a_full[r, slack_of[r]] > 0.0:
            basis[r] = slack_of[r]
        else:
            art_rows.append(r)
    n_art = len(art_rows)
    art_block = np.zeros((m_all, n_art))
    for k, r in enumerate(art_rows):
        art_block[r, k] = 1.0
        basis[r] = n_cols + k
    tableau = np.hstack([a_full, art_block, b_full[:, None]])
    if max_iter is None:
        max_iter = 2000 + 200 * (m_all + n_cols)

    total_cols = n_cols + n_art
    allowed = np.ones(total_cols, dtype=bool)

    iterations = 0
    try:
        if n_art:
            phase1_cost = np.zeros(total_cols + 1)
            phase1_cost[n_cols:total_cols] = 1.0
            z1, it1 = _run_simplex(tableau, basis, phase1_cost, total_cols, max_iter, allowed)
            iterations += it1
            if z1 is None:
                raise BuildError("phase-1 objective unbounded; inconsistent tableau")
            phase1_obj = -float(z1[-1])
            scale = max(1.0, float(np.abs(b_full).max()) if m_all else 1.0)
            if phase1_obj > 1e-8 * scale:
                return SolveResult("infeasible", iterations=iterations)

            # drive artificial variables out of the basis
            for r in range(m_all):
                if basis[r] >= n_cols:
                    pivots = np.flatnonzero(np.abs(tableau[r, :n_cols]) > _PIVOT_TOL)
                    if pivots.size:
                        _pivot(tableau, basis, r, int(pivots[0]))
                    else:
                        tableau[r, :] = 0.0  # redundant row

        phase2_cost = np.zeros(total_cols + 1)
        phase2_cost[:n_std] = c_u
        allowed = np.zeros(total_cols, dtype=bool)
        allowed[:n_cols] = True
        z2, it2 = _run_simplex(tableau, basis, phase2_cost, total_cols, max_iter, allowed)
        iterations += it2
        if z2 is None:
            return SolveResult("unbounded", iterations=iterations)
    except _IterationLimit:
        return SolveResult("iteration_limit", iterations=iterations + max_iter)

    u = np.zeros(total_cols)
    u[basis] = tableau[:, -1]
    # pivot round-off leaves basic values like +-1e-15 at their bound; callers
    # read values as exact (a droop of -1e-15 is rejected downstream)
    u[np.abs(u) < _ZERO_TOL] = 0.0
    x = np.clip(shift + proj @ u[:n_std], lp.bounds[:, 0], lp.bounds[:, 1])
    obj = float(lp.objective @ x)
    x.setflags(write=False)
    return SolveResult("optimal", values=x, objective_value=obj, iterations=iterations)


def solve_milp(mip: MixedIntegerProgram, node_cap: int = 200_000) -> SolveResult:
    """Best-bound branch-and-bound on the binary variables.

    Branches on the most fractional binary; pruning keeps any solution
    within 1e-9 of the incumbent, so the reported optimum is exact to well
    below the 1e-6 contract.
    """
    counter = 0
    heap = []
    heapq.heappush(heap, (-np.inf, counter, {}))
    incumbent = None
    incumbent_obj = np.inf
    nodes = 0
    binaries = mip.binary_vars

    while heap:
        bound, _, fixes = heapq.heappop(heap)
        if bound >= incumbent_obj - 1e-9:
            continue
        if nodes >= node_cap:
            return SolveResult(
                "iteration_limit",
                values=incumbent,
                objective_value=None if incumbent is None else incumbent_obj,
                node_count=nodes,
            )
        lp = mip.base.with_bounds(fixes) if fixes else mip.base
        res = solve_lp(lp)
        nodes += 1
        if res.status == "iteration_limit":
            return SolveResult("iteration_limit", values=incumbent,
                               objective_value=None if incumbent is None else incumbent_obj,
                               node_count=nodes)
        if res.status == "unbounded":
            return SolveResult("unbounded", node_count=nodes)
        if res.status == "infeasible":
            continue
        if res.objective_value >= incumbent_obj - 1e-9:
            continue
        vals = res.values[list(binaries)] if binaries else np.zeros(0)
        frac = np.abs(vals - np.round(vals))
        if frac.size == 0 or frac.max() <= _INT_TOL:
            incumbent = res.values
            incumbent_obj = res.objective_value
            continue
        j = binaries[int(np.argmax(np.minimum(frac, 1.0 - frac)))]
        for fixed in (0.0, 1.0):
            child = dict(fixes)
            child[j] = (fixed, fixed)
            counter += 1
            heapq.heappush(heap, (res.objective_value, counter, child))

    if incumbent is None:
        return SolveResult("infeasible", node_count=nodes)
    return SolveResult("optimal", values=incumbent, objective_value=incumbent_obj, node_count=nodes)
