"""Independent oracles used to cross-check the library's numerics.

Nothing here imports the code paths it checks: eigenvalues come from the
characteristic polynomial (Faddeev-LeVerrier coefficients chased with a
Durand-Kerner root finder), full decompositions from scipy.linalg.eig,
sensitivities from central finite differences
of a fresh decomposition, segment-table sweeps, eigenvalue loci and the
critical-pair screen from a fresh state space and eigensolve at every grid
point (the reduced-form loci take the sweep's own Hessenberg form of the
base loop, hessenberg_first, to check the stacking and tracking around it
bit for bit; the reduction has tests of its own), step responses from a
row-major propagation that searches every round for divergence (taking
simulate's own expm, to check the storage order and the bound screen
around it bit for bit), MILP optima from exhaustive enumeration of the binary assignments or
from HiGHS (scipy.optimize.milp, test-only), the droop search's net gains
from the net-gain MIP, and the stability-constrained dispatch from the
joint dispatch-plus-stability MIP, in which the droop is a decision beside
the dispatch.  A MIP is a pair (lp, binaries): a LinearProgram and the
indices of its binary variables, each bounded within [0, 1].  Both MIPs
state each pair's piecewise shift in the disaggregated multiple-choice
encoding (Vielma, Ahmed & Nemhauser, Oper. Res. 58(2), 2010), with segment
data read off the tables here, not through the dispatch module.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg as sla
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from cred.errors import (
    ConfigurationError,
    DegenerateEigenvalueError,
    NumericalError,
    TrackingError,
)
from cred.grid import AttackProfile, DroopSchedule, StateSpace, build_state_space
from cred.linearize import LinearizationPoint, hessenberg_first
from cred.milp import LinearProgram, solve_lp
from cred.stability import SIMPLE_TOL, eigen_decompose, is_stable, sensitivity


def char_poly_coefficients(a: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients via Faddeev-LeVerrier."""
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.eye(n)
    for k in range(1, n + 1):
        am = a @ m
        c = -np.trace(am) / k
        coeffs[k] = c
        m = am + c * np.eye(n)
    return coeffs


def durand_kerner(coeffs: np.ndarray, tol: float = 1e-13, max_iter: int = 500) -> np.ndarray:
    """All roots of a monic polynomial by simultaneous iteration."""
    n = len(coeffs) - 1
    roots = (0.4 + 0.9j) ** np.arange(1, n + 1)

    def poly(x):
        out = np.zeros_like(x)
        for c in coeffs:
            out = out * x + c
        return out

    for _ in range(max_iter):
        deltas = np.zeros(n, dtype=complex)
        for i in range(n):
            diff = roots[i] - np.delete(roots, i)
            deltas[i] = poly(np.array([roots[i]]))[0] / np.prod(diff)
        roots = roots - deltas
        if np.max(np.abs(deltas)) < tol:
            break
    return roots


def eigenvalues_by_char_poly(a: np.ndarray) -> np.ndarray:
    roots = durand_kerner(char_poly_coefficients(a))
    return roots[np.lexsort((roots.imag, roots.real))]


def eigen_decompose_scipy(ss):
    """eigen_decompose through scipy.linalg.eig: (values, right, left) vectors.

    Same normalization w^T v = 1 and (real, imag) sort as the library.
    """
    s = ss.state_matrix
    if not np.all(np.isfinite(s)):
        raise NumericalError("state matrix contains non-finite entries")
    try:
        values, vl, vr = sla.eig(s, left=True, right=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigen solver did not converge: {exc}") from exc
    w_left = vl.conj()
    w_left = w_left / np.einsum("ij,ij->j", w_left, vr)
    order = np.lexsort((values.imag, values.real))
    return values[order], vr[:, order], w_left[:, order]


def spectral_gaps(values: np.ndarray) -> np.ndarray:
    """Distance from each eigenvalue to the rest of the spectrum."""
    gaps = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(gaps, np.inf)
    return gaps.min(axis=1)


def simple_sensitivity(model, eig, i: int, area: int) -> complex:
    """sensitivity's entry i, refused (DegenerateEigenvalueError) at a repeated eigenvalue."""
    gap = spectral_gaps(eig.eigenvalues)[i]
    if gap < SIMPLE_TOL:
        raise DegenerateEigenvalueError(
            f"eigenvalue {eig.eigenvalues[i]} repeated within {gap:.2e}")
    return complex(sensitivity(model, eig, area)[i])


def net_gain_state_space(model, area: int, k: float) -> StateSpace:
    """The loop with net gain k in one area: attack if k > 0, droop if k < 0.

    The reference for the sweep's grid loops, which are stated for k > 0;
    both signs, as the finite differences below step to at - h.
    """
    n = model.areas
    gain, droop = np.zeros(n), np.zeros(n)
    if k > 0.0:
        gain[area] = k
    elif k < 0.0:
        droop[area] = -k
    return build_state_space(model, AttackProfile(gain, np.zeros(n), (area,) if k > 0 else ()),
                             DroopSchedule(droop, np.zeros(n)))


def fd_eigen_sensitivity(model, base_lambda: complex, area: int, h: float = 1e-5,
                         at: float = 0.0) -> complex:
    """Central-difference derivative at net gain `at` of the eigenvalue nearest base_lambda."""
    values = []
    for sign in (+1.0, -1.0):
        ss = net_gain_state_space(model, area, at + sign * h)
        spectrum = np.linalg.eigvals(ss.state_matrix)
        values.append(spectrum[np.argmin(np.abs(spectrum - base_lambda))])
    return (values[0] - values[1]) / (2.0 * h)


def sweep_segment_table_pointwise(model, eigen_index: int, area: int, range_end: float,
                                  eps_lim: float, eps_phi: float):
    """Reference sweep: one net_gain_state_space and eigvals per grid point.

    Same grid, tracking gate and anchoring rule as build_segment_table;
    returns (points, grid_abscissas, grid_errors).  A repeated eigenvalue
    at an anchor raises DegenerateEigenvalueError (simple_sensitivity).
    """
    ss0 = net_gain_state_space(model, area, 0.0)
    eig0 = eigen_decompose(ss0)
    if not is_stable(eig0):
        raise ConfigurationError("base system is unstable")
    base_lambda = complex(eig0.eigenvalues[eigen_index])
    points = [LinearizationPoint(0.0, base_lambda,
                                 simple_sensitivity(model, eig0, eigen_index, area))]

    n_steps = int(np.floor(range_end / eps_phi + 1e-9))
    grid = [eps_phi * j for j in range(1, n_steps + 1)]
    if not grid or grid[-1] < range_end - 1e-12:
        grid.append(range_end)

    prev_lambda = base_lambda
    abscissas, errors = [], []
    for k in grid:
        ss_k = net_gain_state_space(model, area, k)
        spectrum = np.linalg.eigvals(ss_k.state_matrix)
        lam_true = complex(spectrum[np.argmin(np.abs(spectrum - prev_lambda))])
        gate = 10.0 * eps_phi * abs(points[-1].slope) + 0.1
        if abs(lam_true - prev_lambda) > gate:
            raise TrackingError(f"eigenvalue jump at abscissa {k:g}")
        anchor = points[-1]
        estimate = anchor.eigenvalue + anchor.slope * (k - anchor.abscissa)
        err = abs(lam_true.real - estimate.real)
        if err > eps_lim:
            eig_k = eigen_decompose(ss_k)
            idx = int(np.argmin(np.abs(eig_k.eigenvalues - lam_true)))
            lam_true = complex(eig_k.eigenvalues[idx])
            points.append(LinearizationPoint(
                float(k), lam_true, simple_sensitivity(model, eig_k, idx, area)))
            err = 0.0
        abscissas.append(float(k))
        errors.append(err)
        prev_lambda = lam_true
    return tuple(points), np.array(abscissas), np.array(errors)


#: dense and reduced-form loci agree within LOCUS_RTOL * max(1, |lambda|):
#: the two loops are similar, and their spectra part by rounding only
LOCUS_RTOL = 1e-12


def grid_loop(model, area: int, k: float, reduced: bool = False) -> np.ndarray:
    """The loop at net gain k: net_gain_state_space's state matrix, or its reduced form.

    The reduced form is the sweep's: hessenberg_first of the base loop,
    with its [0, 0] entry set to the state matrix's area-row damping entry.
    """
    s = net_gain_state_space(model, area, k).state_matrix
    if not reduced:
        return s
    row = model.areas + area
    h = hessenberg_first(net_gain_state_space(model, area, 0.0).state_matrix, row)
    h[0, 0] = s[row, row]
    return h


def exact_locus_pointwise(model, eigen_index: int, area: int, range_end: float,
                          eps_phi: float, reduced: bool = False) -> np.ndarray:
    """Nearest-match locus of one base eigenvalue, with one eigensolve per grid point.

    Same grid as build_segment_table; returns the tracked eigenvalue at
    every grid point, each solved from grid_loop(..., reduced).
    """
    base = eigen_decompose(net_gain_state_space(model, area, 0.0)).eigenvalues
    n_steps = int(np.floor(range_end / eps_phi + 1e-9))
    grid = [eps_phi * j for j in range(1, n_steps + 1)]
    if grid[-1] < range_end - 1e-12:
        grid.append(range_end)
    lam = complex(base[eigen_index])
    locus = []
    for k in grid:
        spectrum = np.linalg.eigvals(grid_loop(model, area, k, reduced))
        lam = complex(spectrum[np.argmin(np.abs(spectrum - lam))])
        locus.append(lam)
    return np.array(locus)


def assert_loci_close(ours: np.ndarray, dense: np.ndarray) -> None:
    """ours agrees with the dense per-point loci within LOCUS_RTOL * max(1, |lambda|)."""
    assert ours.shape == dense.shape
    assert (np.abs(ours - dense) <= LOCUS_RTOL * np.maximum(1.0, np.abs(dense))).all()


def critical_pairs_pointwise(model, range_end: dict, settle_margin: float) -> tuple:
    """Reference screen: pairs whose per-point exact loci reach -settle_margin.

    range_end maps each attacked area to its sweep end (grid step
    end/200).  Eigenvalue i (nonnegative imaginary part) is critical when
    its base real part plus every area's positive rise of the locus real
    part reaches -settle_margin; each area with a positive rise is a pair.
    """
    base = eigen_decompose(net_gain_state_space(model, 0, 0.0)).eigenvalues
    pairs = []
    for i, lam in enumerate(base):
        if lam.imag < -1e-12:
            continue
        rise = {a: exact_locus_pointwise(model, i, a, end, end / 200.0).real.max() - lam.real
                for a, end in range_end.items()}
        if lam.real + sum(max(r, 0.0) for r in rise.values()) >= -settle_margin:
            pairs.extend((i, a) for a, r in rise.items() if r > 0.0)
    return tuple(sorted(pairs))


def with_bounds(lp: LinearProgram, overrides: dict) -> LinearProgram:
    """lp with the (lo, hi) bounds of the variables overrides names."""
    bounds = lp.bounds.copy()
    for j, (lo, hi) in overrides.items():
        bounds[j] = (lo, hi)
    return LinearProgram(lp.objective, lp.lhs, lp.relations, lp.rhs, bounds)


def enumerate_milp(lp: LinearProgram, binaries):
    """Exhaustive optimum over all binary assignments followed by LP solves.

    Returns (status, objective, values); status is "optimal" or
    "infeasible".  Only usable for small binary counts.
    """
    best_obj, best_vals = np.inf, None
    for assignment in itertools.product((0.0, 1.0), repeat=len(binaries)):
        res = solve_lp(with_bounds(lp, {j: (v, v) for j, v in zip(binaries, assignment)}))
        if res.status == "optimal" and res.objective_value < best_obj - 1e-12:
            best_obj, best_vals = res.objective_value, res.values
    if best_vals is None:
        return "infeasible", None, None
    return "optimal", best_obj, best_vals


def solve_with_highs(lp: LinearProgram, binaries=()):
    """(status, objective, values) of the instance under HiGHS with a zero MIP gap.

    HiGHS's MIP point may break a row by its feasibility tolerance (1e-7),
    so its optimum can beat the exact one.  With binaries, its point is
    polished: the binaries are fixed at their integral values and the LP
    they leave is re-solved by HiGHS at a 1e-10 feasibility tolerance,
    whose optimum is returned.
    """
    rel = np.array(lp.relations)
    lo = np.where(rel == "<=", -np.inf, lp.rhs)
    hi = np.where(rel == ">=", np.inf, lp.rhs)
    integrality = np.zeros(lp.n_vars)
    integrality[list(binaries)] = 1
    res = milp(lp.objective,
               constraints=[LinearConstraint(lp.lhs, lo, hi)] if lp.n_rows else [],
               integrality=integrality,
               bounds=Bounds(lp.bounds[:, 0], lp.bounds[:, 1]),
               options={"mip_rel_gap": 0})
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, res.message)
    if status != "optimal" or not len(binaries):
        return status, res.fun, res.x
    fixed = with_bounds(lp, {j: (float(round(res.x[j])),) * 2 for j in binaries})
    ub, eq = rel != "=", rel == "="
    sign = np.where(rel == ">=", -1.0, 1.0)[ub]
    res = linprog(fixed.objective, A_ub=fixed.lhs[ub] * sign[:, None], b_ub=fixed.rhs[ub] * sign,
                  A_eq=fixed.lhs[eq], b_eq=fixed.rhs[eq], bounds=fixed.bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, res.message)
    return status, res.fun, res.x


def _segments(tab, gain: float, strict: float) -> list:
    """(phi_m, hi_m, slope_m, offset_m) of each segment of a table, read off its points."""
    pts = tab.points
    out = []
    for m, point in enumerate(pts):
        hi = pts[m + 1].abscissa - strict if m + 1 < len(pts) else gain
        slope = point.slope.real
        offset = (point.eigenvalue - tab.base_eigenvalue).real - slope * point.abscissa
        out.append((point.abscissa, hi, slope, offset))
    return out


def _matrix(n_vars: int, rows: list, cost: dict, bounds) -> LinearProgram:
    """The LinearProgram of (coeff dict, relation, rhs) rows and a cost dict."""
    c = np.zeros(n_vars)
    c[list(cost)] = list(cost.values())
    lhs = np.zeros((len(rows), n_vars))
    for r, (coeffs, _, _) in enumerate(rows):
        lhs[r, list(coeffs)] = list(coeffs.values())
    return LinearProgram(c, lhs, tuple(rel for _, rel, _ in rows),
                         np.array([rhs for _, _, rhs in rows], dtype=float), bounds)


def net_gain_milp(stab, lower=None):
    """Reference droop search: maximize the attacked areas' total net gain over the stability rows.

    One variable k_a per area with tables of a positive gain, in
    [lower[a], gain] (lower of shape (N,), 0 by default), and per pair
    the encoding k_a = sum_m u_m, sum_m z_m = 1 with z_m binary,
    phi_m z_m <= u_m <= hi_m z_m; each eigenvalue's row sums
    slope_m u_m + offset_m z_m over its pairs' segments, bounded by
    -(strict + settle) - Re(base).  The objective is -sum k.

    Returns ((lp, binaries), index): index maps "k" to {area: column} and
    "z", "u" to {(i, a, m): column}.
    """
    gains = np.asarray(stab.robust_gains, dtype=float)
    lower = np.zeros(gains.size) if lower is None else lower
    live = sorted((tab for tab in stab.tables if gains[tab.area] > 0.0),
                  key=lambda tab: (tab.eigen_index, tab.area))
    margin = stab.strict_margin + stab.settle_margin
    bounds, index, binaries, rows, eig_rows, eig_bounds = [], {}, [], [], {}, {}

    def var(family, key, lo, hi):
        index.setdefault(family, {})[key] = len(bounds)
        bounds.append((lo, hi))
        return len(bounds) - 1

    for a in sorted({tab.area for tab in live}):
        var("k", a, float(lower[a]), float(gains[a]))
    for tab in live:
        i, a, gain = tab.eigen_index, tab.area, float(gains[tab.area])
        k_sum, z_sum = {index["k"][a]: -1.0}, {}
        row = eig_rows.setdefault(i, {})
        eig_bounds.setdefault(i, -margin - tab.base_eigenvalue.real)
        for m, (phi, hi, slope, offset) in enumerate(_segments(tab, gain, stab.strict_margin)):
            z = var("z", (i, a, m), 0.0, 1.0)
            u = var("u", (i, a, m), 0.0, gain)
            binaries.append(z)
            rows.append(({u: 1.0, z: -phi}, ">=", 0.0))
            rows.append(({u: 1.0, z: -hi}, "<=", 0.0))
            k_sum[u] = z_sum[z] = 1.0
            row[u], row[z] = slope, offset
        rows.append((k_sum, "=", 0.0))
        rows.append((z_sum, "=", 1.0))
    rows.extend((row, "<=", eig_bounds[i]) for i, row in sorted(eig_rows.items()))
    lp = _matrix(len(bounds), rows, {j: -1.0 for j in index["k"].values()}, bounds)
    return (lp, tuple(binaries)), index


def net_gain_scan(stab) -> tuple:
    """Reference one-area search: the largest net gain in every pair's feasible set, by interval scan.

    With one attacked area each eigenvalue's row is a function of its net
    gain k in [0, gain].  Segment m of a pair admits [phi_m, min(hi_m,
    gain)] cut by slope_m k + offset_m <= bound, so each pair admits a
    finite union of closed intervals, and the largest k in all of them is
    a right endpoint of one interval.  Returns (k, {pair: segment}), or
    None when no k meets every row.
    """
    gains = np.asarray(stab.robust_gains, dtype=float)
    live = [tab for tab in stab.tables if gains[tab.area] > 0.0]
    (area,) = {tab.area for tab in live}
    gain, margin = float(gains[area]), stab.strict_margin + stab.settle_margin
    spans = {}
    for tab in live:
        pair = (tab.eigen_index, area)
        spans[pair] = []
        cap_base = -margin - tab.base_eigenvalue.real
        for m, (phi, hi, slope, offset) in enumerate(_segments(tab, gain, stab.strict_margin)):
            lo, up = phi, min(hi, gain)
            cap = cap_base - offset
            if slope > 0.0:
                up = min(up, cap / slope)
            elif slope < 0.0:
                lo = max(lo, cap / slope)
            elif cap < 0.0:
                continue
            if lo <= up:
                spans[pair].append((lo, up, m))
    for k in sorted({up for pair_spans in spans.values() for _, up, _ in pair_spans},
                    reverse=True):
        held = {}
        for pair, pair_spans in spans.items():
            m = next((m for lo, up, m in pair_spans if lo <= k <= up), None)
            if m is None:
                break
            held[pair] = m
        else:
            return k, held
    return None


def joint_cred_milp(scn, stab, allow_shed: bool = False, periods=None):
    """Reference dispatch: the joint dispatch-plus-stability MIP over the given periods.

    The droop kc of each (period, area) is a decision beside the dispatch,
    in [0, gain] for an area with tables, else pinned to 0.  Per period: one
    system-wide balance, the online floor, wind headroom pw + pres <= avail
    and pw >= pres, the reserve link pres = omega*kc, the storage recursion
    (every period only), and, for each (eigenvalue, area) pair of a
    positive robust gain, the disaggregated multiple-choice encoding of its
    piecewise shift (Vielma, Ahmed & Nemhauser, Oper. Res. 58(2), 2010):
    knet + kc = gain, knet = sum_m u_m, sum_m z_m = 1 with z_m binary,
    phi_m z_m <= u_m <= hi_m z_m, and each eigenvalue's row sums
    slope_m u_m + offset_m z_m over its pairs' segments, bounded by
    -(strict + settle) - Re(base).  Segment data are read off the tables
    here, not through the dispatch module.

    Returns ((lp, binaries), index): index maps a family ("pg", "pw",
    "pres", "kc", "ps", "pch", "pdis", "soc", "knet", "z", "u") to
    {key: column}.
    """
    n, omega = scn.model.areas, scn.model.omega_max
    periods = tuple(range(scn.n_periods)) if periods is None else tuple(periods)
    assert not scn.storage or periods == tuple(range(scn.n_periods))
    gains = np.asarray(stab.robust_gains if stab is not None else np.zeros(n), dtype=float)
    tables = sorted(stab.tables if stab is not None else (),
                    key=lambda tab: (tab.eigen_index, tab.area))
    live = [tab for tab in tables if gains[tab.area] > 0.0]
    covered = {tab.area for tab in tables}
    margin = stab.strict_margin + stab.settle_margin if stab is not None else 0.0
    bounds, index, binaries, rows, cost = [], {}, [], [], {}

    def var(family, key, lo, hi):
        index.setdefault(family, {})[key] = len(bounds)
        bounds.append((lo, hi))
        return len(bounds) - 1

    for t in periods:
        for g_id, gen in enumerate(scn.generators):
            var("pg", (t, g_id), gen.p_min * gen.committed[t], gen.p_max * gen.committed[t])
        for a in range(n):
            avail = float(scn.wind_available[t, a])
            var("pw", (t, a), 0.0, avail)
            var("pres", (t, a), 0.0, avail)
            var("kc", (t, a), 0.0, float(gains[a]) if a in covered else 0.0)
            var("ps", (t, a), 0.0, float(scn.demand[t, a]) if allow_shed else 0.0)
        for s_id, stor in enumerate(scn.storage):
            var("pch", (t, s_id), 0.0, stor.power_limit)
            var("pdis", (t, s_id), 0.0, stor.power_limit)
            var("soc", (t, s_id), stor.soc_min, stor.soc_max)
        for tab in live:
            var("knet", (t, tab.eigen_index, tab.area), 0.0, float(gains[tab.area]))
            for m in range(len(tab.points)):
                binaries.append(var("z", (t, tab.eigen_index, tab.area, m), 0.0, 1.0))
                var("u", (t, tab.eigen_index, tab.area, m), 0.0, float(gains[tab.area]))

    for t in periods:
        col = {family: {key[1:]: j for key, j in cols.items() if key[0] == t}
               for family, cols in index.items()}
        bal = {j: 1.0 for j in col["pg"].values()}
        for a in range(n):
            bal[col["pw"][(a,)]] = bal[col["ps"][(a,)]] = 1.0
        for s_id in range(len(scn.storage)):
            bal[col["pdis"][(s_id,)]], bal[col["pch"][(s_id,)]] = 1.0, -1.0
        rows.append((bal, "=", float(scn.demand[t].sum())))
        if scn.min_online_fraction > 0.0 and scn.generators:
            rows.append(({j: 1.0 for j in col["pg"].values()}, ">=",
                         scn.min_online_fraction * float(scn.demand[t].sum())))
        for a in range(n):
            pw, pres, kc = col["pw"][(a,)], col["pres"][(a,)], col["kc"][(a,)]
            rows.append(({pw: 1.0, pres: 1.0}, "<=", float(scn.wind_available[t, a])))
            rows.append(({pw: 1.0, pres: -1.0}, ">=", 0.0))
            rows.append(({pres: 1.0, kc: -omega}, "=", 0.0))
        for s_id, stor in enumerate(scn.storage):
            soc = {col["soc"][(s_id,)]: 1.0,
                   col["pch"][(s_id,)]: -stor.efficiency / stor.energy,
                   col["pdis"][(s_id,)]: 1.0 / (stor.efficiency * stor.energy)}
            if t == periods[0]:
                rows.append((soc, "=", stor.soc_initial))
            else:
                soc[index["soc"][(t - 1, s_id)]] = -1.0
                rows.append((soc, "=", 0.0))
            if t == periods[-1]:
                rows.append(({col["soc"][(s_id,)]: 1.0}, "=", stor.soc_initial))
        eig_rows, eig_bounds = {}, {}
        for tab in live:
            i, a, gain = tab.eigen_index, tab.area, float(gains[tab.area])
            knet = col["knet"][(i, a)]
            rows.append(({knet: 1.0, col["kc"][(a,)]: 1.0}, "=", gain))
            knet_sum, z_sum = {knet: -1.0}, {}
            row = eig_rows.setdefault(i, {})
            eig_bounds.setdefault(i, -margin - tab.base_eigenvalue.real)
            for m, (phi, hi, slope, offset) in enumerate(_segments(tab, gain, stab.strict_margin)):
                z, u = col["z"][(i, a, m)], col["u"][(i, a, m)]
                rows.append(({u: 1.0, z: -phi}, ">=", 0.0))
                rows.append(({u: 1.0, z: -hi}, "<=", 0.0))
                knet_sum[u] = z_sum[z] = 1.0
                row[u], row[z] = slope, offset
            rows.append((knet_sum, "=", 0.0))
            rows.append((z_sum, "=", 1.0))
        for i, row in sorted(eig_rows.items()):
            rows.append((row, "<=", eig_bounds[i]))
        for g_id, gen in enumerate(scn.generators):
            cost[col["pg"][(g_id,)]] = gen.marginal_cost * scn.base_power
        for a in range(n):
            cost[col["ps"][(a,)]] = scn.shed_cost * scn.base_power

    return (_matrix(len(bounds), rows, cost, bounds), tuple(binaries)), index


def propagation_reference(ss, disturbance, t_step: float, t_end: float, dt: float):
    """simulate's states and divergence flag, from a row-major loop that
    searches every round's samples for one past DIVERGENCE_NORM.

    The same rounds as simulate's (the stride doubling up to BLOCK // (2n)^2
    rows), each screened exactly by its largest and smallest entry; dt is
    taken as given, without simulate's resolution guard.
    """
    from cred.simulate import BLOCK, DIVERGENCE_NORM, expm

    n = ss.n_areas
    kick = np.concatenate([np.zeros(n), -np.asarray(disturbance, float)
                           / -np.diag(ss.descriptor_a)[n:]])
    n_steps = int(round(t_end / dt))
    k = min(max(int(np.ceil(t_step / dt - 1e-12)), 0), n_steps)
    x_pre = np.linalg.solve(ss.state_matrix, -ss.forcing)
    eq_post = np.linalg.solve(ss.state_matrix, -(ss.forcing + kick))
    states = np.empty((n_steps + 1, 2 * n))
    states[: k + 1] = x_pre
    last, diverged, todo = n_steps, False, n_steps - k
    if k and not np.abs(x_pre).max() <= DIVERGENCE_NORM:
        last, diverged = 1, True
    elif todo:
        dev = states[k + 1 :]
        power = expm(ss.state_matrix * dt).T
        dev[0] = (x_pre - eq_post) @ power
        screen = np.nextafter(DIVERGENCE_NORM - np.abs(eq_post).max(), -np.inf)
        new, filled, stride, cap = dev[:1], 1, 1, BLOCK // (2 * n) ** 2
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                if not (new.max() <= screen and new.min() >= -screen):
                    peak = np.abs(new + eq_post).max(axis=1)
                    over = np.flatnonzero(~(peak <= DIVERGENCE_NORM))
                    if over.size:
                        last, diverged = k + 1 + filled - len(new) + int(over[0]), True
                        break
                if filled == todo:
                    break
                if 2 * stride <= min(filled, cap):
                    power, stride = power @ power, 2 * stride
                m = min(stride, todo - filled)
                new = np.matmul(dev[filled - stride : filled - stride + m], power,
                                out=dev[filled : filled + m])
                filled += m
            states[k + 1 : last + 1] += eq_post
    return states[: last + 1], diverged


def random_system_model(rng: np.random.RandomState, n_areas: int | None = None):
    """Random stable multi-area model for property sweeps."""
    from cred.grid import SystemModel

    n = n_areas if n_areas is not None else rng.randint(2, 4)
    coupling = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            coupling[i, j] = coupling[j, i] = rng.uniform(0.5, 6.0)
    load = rng.uniform(1.0, 8.0, size=n)
    return SystemModel(
        areas=n,
        inertia_sg=rng.uniform(1.0, 10.0, size=n),
        inertia_ibr=rng.uniform(0.0, 1.0, size=n),
        damping=rng.uniform(0.0, 0.2, size=n),
        gov_integral=rng.uniform(2.0, 12.0, size=n),
        gov_proportional=rng.uniform(1.0, 20.0, size=n),
        susceptance=coupling,
        secure_load=load * 0.7,
        vulnerable_load=load * 0.3,
        ibr_max_power=rng.uniform(0.0, 5.0, size=n),
        omega_max=rng.uniform(0.05, 0.5),
    )
