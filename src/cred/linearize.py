"""Exact eigenvalue loci along a net-gain sweep, screened and linearized.

The abscissa is the net destabilizing gain k = K_attack - K_droop in one
area, which the dispatch holds in [0, robust gain]: droop never exceeds the
attack gain it answers.  sweep_loci tracks every base eigenvalue by nearest
match on a fixed grid from k = 0 up to a positive range end; grid points
differ from the base loop in one diagonal entry of the state matrix, so
their spectra come from one stacked eigensolve per block of BLOCK points.
Nearest match from one grid point to the next is a neighbour map of
spectrum positions, computed for TRACK grid points per array op; a prefix
scan composes the maps, so the loci are read off the spectra by index,
bit-equal to a point-by-point tracking loop (also where a map is not
one-to-one).  One sweep per attacked area feeds select_critical_pairs,
which keeps the pairs whose loci reach the settling boundary, and
build_segment_table: whenever the first-order estimate anchored at the
latest linearization point drifts from the swept eigenvalue by more than
eps_lim in real part, that grid point becomes a fresh anchor, so the table
bounds the real-part error on every grid point by eps_lim.

The stacked loops are not the grid's state matrices but matrices similar
to them, already in upper Hessenberg form, so the eigensolver's own
reduction to that form has nothing left to do.  hessenberg_first moves the
area's damping row to index 0 and reduces the base loop S0 once per sweep,
H0 = Q^T P S0 P^T Q, with Householder reflectors that act on indices >= 1
only (Golub & Van Loan, Matrix Computations, Sec. 7.4), so Q e_0 = e_0.  A
grid loop differs from S0 in its damping entry alone, and
Q^T P e_row = Q^T e_0 = e_0, so it is similar to H0 with its [0, 0] entry
rewritten; that entry is written by the expression build_state_space uses.

A sweep's base work depends on the grid's dynamics alone (inertia,
damping, governor gains, coupling), which a re-dispatch keeps from one
interval to the next while the loads, the wind and the attack estimate
change.  So _sweep_base keeps the eigen_decompose, the is_stable verdict
and the hessenberg_first of the last few zero-gain loops, keyed on the
bytes of S0 and on row = N + area: a sweep of an area whose loop is
bit-equal to one kept decomposes nothing, and any other sweep computes
them as it did before.  The key holds the state matrix, not the model;
sensitivity still gives the residues on every sweep.  The precheck and the
certificate (cred.dispatch) share none of this and decompose their loops
on every call, so the certificate stays independent of the sweep it checks.

An anchor needs no decomposition of its own.  With S0 = V diag(lambda0)
V^-1 the base loop and row = N + area, the loop at net gain k is the
rank-one modification S0 + (k/M_a) e_row e_row^T, so an eigenvalue lambda
of it that is no base eigenvalue is a root of the secular equation
k h(lambda) = 1 (Golub, SIAM Review 15(2), 1973; Bunch, Nielsen &
Sorensen, Numer. Math. 31, 1978), where

    h(lambda) = sum_j rho_j / (lambda - lambda0_j),
    rho_j = V[row, j] V^-1[j, row] / M_a,

and rho_j is base eigenvalue j's own derivative dlambda_j/dk at k = 0
(stability.sensitivity).  Differentiating, an anchor's slope is
dlambda/dk = -1 / (k^2 h'(lambda)), with
h'(lambda) = -sum_j rho_j / (lambda - lambda0_j)^2.  The sweep keeps the
base's pole-residue form (lambda0, rho) and every grid spectrum, and an
anchor reads its eigenvalue off the locus.  Two guards stand in for a fresh
decomposition: the eigenvalue must lie at least SIMPLE_TOL from every
other point of its grid spectrum (DegenerateEigenvalueError), and the
secular residual |k h(lambda) - 1| must be at most SECULAR_TOL
(NumericalError).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, CoverageError, NumericalError, TrackingError
from .grid import AttackProfile, ContentKey, DroopSchedule, SystemModel, build_state_space
from .stability import check_simple, eigen_decompose, is_stable, sensitivity

__all__ = [
    "LinearizationPoint",
    "LocusSweep",
    "SegmentTable",
    "hessenberg_first",
    "sweep_loci",
    "build_segment_table",
    "evaluate_piecewise",
    "select_critical_pairs",
]

#: grid points per stacked eigensolve; bounds the stack's memory at fine steps
BLOCK = 256

#: largest grid points x states of one sweep; its spectra, maps and loci
#: peak at about 60 bytes per entry, so a sweep stays below about 130 MB
MAX_GRID_ENTRIES = 1 << 21

#: grid points per nearest-match array op; its distance temporaries take 24
#: bytes per matrix entry to the stack's 8, so they stay below a block's stack
TRACK = 64

#: largest secular residual |k h(lambda) - 1| accepted at an anchor
SECULAR_TOL = 1e-9


@dataclass(frozen=True)
class LinearizationPoint:
    abscissa: float
    eigenvalue: complex
    slope: complex


@dataclass(frozen=True, eq=False)
class LocusSweep:
    """Every base eigenvalue tracked along one area's net-gain grid, from 0 up to range_end.

    base_eigenvalues are the base loop's, sorted as eigen_decompose sorts
    them, and residues is sensitivity(model, base decomposition, area):
    residues[j] is base eigenvalue j's derivative with respect to k, the
    residue of h at its pole (module docstring).  spectra[g] is the full
    spectrum at grid[g], and loci[g, i] is where nearest-match tracking
    has taken base eigenvalue i there; the last grid point is always
    range_end.
    """

    area: int
    range_end: float
    step: float
    base_eigenvalues: np.ndarray
    residues: np.ndarray
    grid: np.ndarray
    spectra: np.ndarray
    loci: np.ndarray


@dataclass(frozen=True, eq=False)
class SegmentTable:
    """Linearization points for one (eigenvalue, area) pair.

    points[0] is always the base point at abscissa 0 with the base
    eigenvalue; abscissas increase strictly up to range_end > 0.  Each
    point anchors the half-open interval from itself up to (but excluding)
    the next point; the last point's interval is closed at range_end.
    grid_abscissas/grid_errors record, for every grid point visited during
    construction, the real-part error of the final table.
    """

    eigen_index: int
    area: int
    points: tuple
    range_end: float
    base_eigenvalue: complex
    grid_abscissas: np.ndarray
    grid_errors: np.ndarray

    @property
    def max_error(self) -> float:
        return float(self.grid_errors.max()) if self.grid_errors.size else 0.0

    @property
    def abscissas(self) -> np.ndarray:
        return np.array([p.abscissa for p in self.points])


def hessenberg_first(s: np.ndarray, row: int) -> np.ndarray:
    """Upper Hessenberg H = Q^T P s P^T Q, where P moves row to index 0 and Q e_0 = e_0.

    Reflector j zeros column j below its subdiagonal and acts on indices
    >= j + 1 only, so H[0, 0] is s[row, row] bit for bit; every entry below
    the subdiagonal is an exact zero, and a column already zero there is
    skipped.
    """
    n = len(s)
    order = np.arange(n)  # row, then the other indices in their order
    order[1:row + 1] -= 1
    order[0] = row
    h = s[order[:, None], order]
    for j in range(n - 2):
        x = h[j + 1:, j]
        tail = math.sqrt(x[1:] @ x[1:])
        if tail == 0.0:
            continue
        # I - u u^T with u^T u = 2 maps x to alpha e_0
        alpha = -math.copysign(math.hypot(x[0], tail), x[0])
        u = x.copy()
        u[0] -= alpha
        u *= math.sqrt(2.0 / (u @ u))
        h[j + 1:, j + 1:] -= u[:, None] * (u @ h[j + 1:, j + 1:])
        h[:, j + 1:] -= (h[:, j + 1:] @ u)[:, None] * u
        h[j + 1, j] = alpha
        h[j + 2:, j] = 0.0
    return h


#: a run sweeps each attacked area once and the next run of the same grid
#: sweeps the same areas, so a few loops serve every repeat; a 48-state
#: entry holds about 0.15 MB, so four keep the cache small
@lru_cache(maxsize=4)
def _sweep_base(loop: ContentKey) -> tuple:
    """(eigen_decompose(S0), is_stable verdict, hessenberg_first(S0, row)) of one loop.

    loop.value is (ss, row): the loop's state space, S0 its state matrix.
    """
    ss, row = loop.value
    eig0 = eigen_decompose(ss)
    h0 = hessenberg_first(ss.state_matrix, row)
    h0.setflags(write=False)
    return eig0, is_stable(eig0), h0


def sweep_loci(model: SystemModel, area: int, range_end: float,
               eps_phi: float | None = None) -> LocusSweep:
    """Track every base eigenvalue by nearest match from net gain 0 up to range_end > 0.

    eps_phi is the (positive) grid step, range_end/200 by default.  The
    base system (net gain zero) must be stable, or ConfigurationError is
    raised, also when its decomposition comes from the cache of zero-gain
    loops keyed on S0's bytes and the row (module docstring).  Grid point g
    maps spectrum position p of point g-1 (of the base for g = 0) to the
    nearest position of its own spectrum, the first one on a tie; loci[g]
    is spectra[g] at the composition of maps 0..g.  Two loci share a
    position once a map is not one-to-one, as where a conjugate pair
    splits on the real axis.
    """
    if not 0.0 < range_end < math.inf:  # NaN too
        raise ConfigurationError(f"range_end must be positive and finite, not {range_end!r}")
    if eps_phi is None:
        eps_phi = range_end / 200.0
    if not eps_phi > 0.0:  # NaN too
        raise ConfigurationError("eps_phi must be > 0")
    if eps_phi > range_end / 4.0:
        raise ConfigurationError("eps_phi must be at most range_end/4")
    points = range_end / eps_phi  # inf where the quotient overflows
    if points * 2 * model.areas > MAX_GRID_ENTRIES:
        raise ConfigurationError(
            f"a sweep of {points:.3g} grid points of {2 * model.areas} states exceeds "
            f"{MAX_GRID_ENTRIES} entries; take a coarser eps_phi")

    n, row = model.areas, model.areas + area
    ss0 = build_state_space(model, AttackProfile.none(n), DroopSchedule.none(n))
    eig0, verdict, h0 = _sweep_base(ContentKey((ss0, row), ss0.state_matrix, row))
    if not verdict:
        raise ConfigurationError("base system is unstable; cannot anchor the sweep at 0")

    n_steps = int(np.floor(points + 1e-9))
    grid = eps_phi * np.arange(1, n_steps + 1, dtype=float)
    if grid[-1] < range_end - 1e-12:
        grid = np.append(grid, range_end)

    # each grid loop is h0 with its [0, 0] entry, the area-row damping entry,
    # rewritten as build_state_space computes it, -(1/M) * (K_p + D + (0 - k));
    # x + (0 - k) and x - k are the same IEEE operation, so the entry is that
    # of the state matrix with attack gain k in the area bit for bit, and the
    # loop is similar to that state matrix (module docstring)
    minv = 1.0 / model.total_inertia[area]
    base_damp = model.gov_proportional[area] + model.damping[area]
    spectra = np.empty((len(grid), len(eig0)), dtype=complex)
    for start in range(0, len(grid), BLOCK):
        ks = grid[start:start + BLOCK]
        stack = np.repeat(h0[None], len(ks), axis=0)
        stack[:, 0, 0] = -minv * (base_damp - ks)
        try:
            block = np.linalg.eigvals(stack)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"grid eigensolve failed for area {area} on abscissas "
                f"[{ks[0]:g}, {ks[-1]:g}]: {exc}"
            ) from exc
        spectra[start:start + len(ks)] = block
    del stack  # the tracking temporaries reuse its memory
    # nearest match takes the locus at before[g, p] to spectra[g, maps[g, p]]
    before = np.concatenate((eig0.eigenvalues[None], spectra[:-1]))
    maps = np.empty(spectra.shape, dtype=np.intp)
    for start in range(0, len(grid), TRACK):
        stop = start + TRACK
        maps[start:stop] = np.argmin(
            np.abs(spectra[start:stop, None, :] - before[start:stop, :, None]), axis=2)
    # pos[g] = maps[g] o ... o maps[0], by a prefix scan of compositions:
    # after the step of width d, pos[g] composes maps[g-2d+1..g]
    rows = np.arange(len(grid))[:, None]
    pos, d = maps, 1
    while d < len(pos):
        pos[d:] = pos[rows[d:], pos[:-d]]
        d *= 2
    loci = spectra[rows, pos]
    residues = sensitivity(model, eig0, area)
    for arr in (grid, spectra, loci, residues):
        arr.setflags(write=False)
    return LocusSweep(int(area), float(range_end), float(eps_phi), eig0.eigenvalues, residues,
                      grid, spectra, loci)


def _anchor_slope(sweep: LocusSweep, lam: complex, k: float) -> complex:
    """dlambda/dk of the loop's eigenvalue lam at net gain k != 0 (module docstring)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = 1.0 / (lam - sweep.base_eigenvalues)
        terms = sweep.residues * q
        residual = abs(k * terms.sum() - 1.0)
        if not residual <= SECULAR_TOL:  # NaN too
            raise NumericalError(
                f"area {sweep.area}: secular residual {residual:.3e} at abscissa {k:g} "
                f"exceeds {SECULAR_TOL:g}"
            )
        return complex(1.0 / (k * k * (terms * q).sum()))


def build_segment_table(sweep: LocusSweep, eigen_index: int, eps_lim: float) -> SegmentTable:
    """Anchor the swept locus of base eigenvalue eigen_index to within eps_lim.

    Each anchor's first-order estimate holds up to the first grid point
    where it misses the locus by more than eps_lim in real part, which
    becomes the next anchor.  The base point's slope is residues[i]; every
    later anchor takes its eigenvalue from the locus and its slope
    -1 / (k^2 h'(lambda)) from the base pole-residue form (module
    docstring), with no state space or decomposition of its own.  The
    eigenvalue must be simple in its grid spectrum at every anchor
    (DegenerateEigenvalueError), an anchor's secular residual
    |k h(lambda) - 1| must be at most SECULAR_TOL (NumericalError), and no
    locus step may exceed the continuity gate of the anchor in force
    (TrackingError).
    """
    if not eps_lim > 0.0:  # NaN too
        raise ConfigurationError("eps_lim must be > 0")
    lam0 = sweep.base_eigenvalues
    if not 0 <= eigen_index < len(lam0):
        raise ConfigurationError(f"eigen index {eigen_index} out of range")
    grid = sweep.grid
    base_lambda = complex(lam0[eigen_index])
    check_simple(lam0, base_lambda, 0.0)

    locus = sweep.loci[:, eigen_index]
    points = [LinearizationPoint(0.0, base_lambda, complex(sweep.residues[eigen_index]))]
    errors = np.empty(len(grid))
    start, prev_lambda = 0, base_lambda
    while start < len(grid):
        anchor = points[-1]
        estimate = anchor.eigenvalue.real + anchor.slope.real * (grid[start:] - anchor.abscissa)
        err = np.abs(locus.real[start:] - estimate)
        over = np.flatnonzero(err > eps_lim)
        stop = start + int(over[0]) if over.size else len(grid)
        # the anchor's gate guards every step up to and including the next anchor
        checked = locus[start:stop + 1]
        jumps = np.abs(checked - np.concatenate(([prev_lambda], checked[:-1])))
        gate = 10.0 * sweep.step * abs(anchor.slope) + 0.1
        bad = np.flatnonzero(jumps > gate)
        if bad.size:
            raise TrackingError(
                f"eigenvalue jump {jumps[bad[0]]:.3e} at abscissa {grid[start + bad[0]]:g} "
                f"exceeds continuity gate {gate:.3e}"
            )
        errors[start:stop] = err[:stop - start]
        if stop == len(grid):
            break
        k, prev_lambda = float(grid[stop]), complex(locus[stop])
        check_simple(sweep.spectra[stop], prev_lambda, k)
        points.append(LinearizationPoint(k, prev_lambda, _anchor_slope(sweep, prev_lambda, k)))
        errors[stop] = 0.0
        start = stop + 1

    errors.setflags(write=False)
    return SegmentTable(
        eigen_index=int(eigen_index),
        area=sweep.area,
        points=tuple(points),
        range_end=sweep.range_end,
        base_eigenvalue=base_lambda,
        grid_abscissas=grid,
        grid_errors=errors,
    )


#: slack of evaluate_piecewise at the range ends and below each anchor
_ROUND_OFF = 1e-12


def evaluate_piecewise(table: SegmentTable, k_lc: float) -> complex:
    """Estimated eigenvalue shift at net gain k_lc, relative to the base value.

    Selects the anchor whose interval contains k_lc (the last anchor at or
    below it, with the anchor abscissa itself belonging to its own
    segment) and returns slope*(k_lc - anchor) + (anchor_eig - base_eig).
    A net gain within _ROUND_OFF below an anchor, the slack allowed at
    the range ends, counts as that anchor's: a solver's round-off on a
    segment's first point must not jump back a segment.  No
    extrapolation outside [0, range_end].
    """
    if k_lc < -_ROUND_OFF or k_lc > table.range_end + _ROUND_OFF:
        raise CoverageError(
            f"net gain {k_lc:g} outside swept range [0, {table.range_end:g}]"
        )
    chosen = table.points[0]
    for p in table.points:
        if p.abscissa <= k_lc + _ROUND_OFF:
            chosen = p
        else:
            break
    return chosen.slope * (k_lc - chosen.abscissa) + (chosen.eigenvalue - table.base_eigenvalue)


def select_critical_pairs(sweeps, settle_margin: float) -> tuple:
    """Pick the (eigenvalue, area) pairs whose exact loci reach -settle_margin.

    sweeps holds one LocusSweep per attacked area.  Simultaneous attacks
    superpose: eigenvalue i (of nonnegative imaginary part) is critical when
    its base real part plus every area's positive rise of its locus real
    part reaches -settle_margin, and each area with a positive rise is a
    pair.  A sweep whose end spectrum reaches -settle_margin on no such
    locus has lost a branch (nearest match stops being one-to-one where a
    complex pair splits on the real axis) and raises TrackingError.
    """
    base = sweeps[0].base_eigenvalues
    upper = np.flatnonzero(base.imag >= -1e-12)
    worst = np.array([s.loci[:, upper].real.max(axis=0) for s in sweeps])
    for s, reach in zip(sweeps, worst):
        end_max = float(s.spectra[-1].real.max())
        if end_max >= -settle_margin and reach.max() < -settle_margin:
            raise TrackingError(
                f"area {s.area}: an eigenvalue with real part {end_max:.6g} at abscissa "
                f"{s.range_end:g} lies on no tracked locus that reaches -{settle_margin:g}"
            )
    rise = worst - base[upper].real
    critical = base[upper].real + np.maximum(rise, 0.0).sum(axis=0) >= -settle_margin
    keep = (rise > 0.0) & critical
    return tuple(sorted((int(upper[m]), sweeps[a].area) for a, m in zip(*np.nonzero(keep))))
