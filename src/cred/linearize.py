"""Adaptive multi-point linearization of eigenvalue loci along a net-gain sweep.

The abscissa is the net destabilizing gain k = K_attack - K_droop in one
area.  Starting from k = 0, the locus of one tracked eigenvalue is swept on
a fixed grid toward a signed range end; whenever the first-order estimate
anchored at the latest linearization point drifts from the true eigenvalue
by more than eps_lim in real part, the offending grid point becomes a fresh
anchor with its own eigenvalue and sensitivity.  The resulting table bounds
the real-part approximation error on every visited grid point by eps_lim.

Grid points differ from the base loop in one diagonal entry of the state
matrix, so their spectra come from one stacked eigensolve per block of
BLOCK points; only an anchor takes a full state space and decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    CoverageError,
    DegenerateEigenvalueError,
    NumericalError,
    TrackingError,
)
from .grid import AttackProfile, DroopSchedule, StateSpace, SystemModel, build_state_space
from .stability import eigen_decompose, is_stable, sensitivity

__all__ = [
    "LinearizationPoint",
    "SegmentTable",
    "net_gain_state_space",
    "build_segment_table",
    "evaluate_piecewise",
    "select_critical_pairs",
]

#: grid points per stacked eigensolve; bounds the stack's memory at fine steps
BLOCK = 256


@dataclass(frozen=True)
class LinearizationPoint:
    abscissa: float
    eigenvalue: complex
    slope: complex


@dataclass(frozen=True, eq=False)
class SegmentTable:
    """Linearization points for one (eigenvalue, area) pair.

    points[0] is always the base point at abscissa 0 with the base
    eigenvalue; abscissas move strictly monotonically toward range_end.
    Each point anchors the half-open interval extending away from zero up
    to (but excluding) the next point; the last point's interval is closed
    at range_end.  grid_abscissas/grid_errors record, for every grid point
    visited during construction, the real-part error of the final table.
    """

    eigen_index: int
    area: int
    points: tuple
    range_end: float
    base_eigenvalue: complex
    tolerance: float
    step: float
    grid_abscissas: np.ndarray
    grid_errors: np.ndarray

    @property
    def max_error(self) -> float:
        return float(self.grid_errors.max()) if self.grid_errors.size else 0.0

    @property
    def abscissas(self) -> np.ndarray:
        return np.array([p.abscissa for p in self.points])


def net_gain_state_space(model: SystemModel, area: int, k: float) -> StateSpace:
    """Closed loop with net gain k in one area: attack if k > 0, droop if k < 0."""
    n = model.areas
    gain = np.zeros(n)
    droop = np.zeros(n)
    if k >= 0.0:
        gain[area] = k
    else:
        droop[area] = -k
    return build_state_space(
        model,
        AttackProfile(gain, np.zeros(n), (area,) if k > 0 else ()),
        DroopSchedule(droop, np.zeros(n)),
    )


def _tracking_gate(step: float, slope: complex) -> float:
    return 10.0 * step * abs(slope) + 0.1


def _grid_spectra(model: SystemModel, ss0: StateSpace, eigen_index: int, area: int, grid):
    """Spectrum at each grid gain, from one stacked eigvals call per block.

    Each grid loop is ss0 with its area-row damping entry rewritten as
    build_state_space computes it, -(1/M) * (K_p + D + (-k)); x + (-k) and
    x - k are the same IEEE operation, so the matrices are bit-identical to
    net_gain_state_space(model, area, k).state_matrix.
    """
    row = model.areas + area
    minv = 1.0 / model.total_inertia[area]
    base_damp = model.gov_proportional[area] + model.damping[area]
    for start in range(0, len(grid), BLOCK):
        ks = grid[start:start + BLOCK]
        stack = np.repeat(ss0.state_matrix[None], len(ks), axis=0)
        stack[:, row, row] = -minv * (base_damp - ks)
        try:
            spectra = np.linalg.eigvals(stack)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"grid eigensolve failed for pair ({eigen_index}, {area}) on abscissas "
                f"[{ks[0]:g}, {ks[-1]:g}]: {exc}"
            ) from exc
        yield from spectra


def build_segment_table(
    model: SystemModel,
    eigen_index: int,
    area: int,
    range_end: float,
    eps_lim: float,
    eps_phi: float,
) -> SegmentTable:
    """Sweep the net gain from 0 toward range_end and collect anchors.

    range_end may have either sign; eps_phi is the (positive) grid step.
    The base system (net gain zero) must be stable and the tracked
    eigenvalue simple wherever a sensitivity is taken.  Grid spectra share
    one stacked eigensolve per BLOCK points; each new anchor still builds
    its state space and takes a full eigen decomposition.
    """
    if eps_lim <= 0.0:
        raise ConfigurationError("eps_lim must be > 0")
    if eps_phi <= 0.0:
        raise ConfigurationError("eps_phi must be > 0")
    if range_end == 0.0:
        raise ConfigurationError("range_end must be nonzero")
    if eps_phi > abs(range_end) / 4.0:
        raise ConfigurationError("eps_phi must be at most |range_end|/4")

    ss0 = net_gain_state_space(model, area, 0.0)
    eig0 = eigen_decompose(ss0)
    if not is_stable(eig0):
        raise ConfigurationError("base system is unstable; cannot anchor the sweep at 0")
    if not 0 <= eigen_index < len(eig0):
        raise ConfigurationError(f"eigen index {eigen_index} out of range")
    base_lambda = complex(eig0.eigenvalues[eigen_index])
    try:
        base_slope = sensitivity(ss0, eig0, eigen_index, area).d_lambda_dKL
    except DegenerateEigenvalueError as exc:
        raise DegenerateEigenvalueError(f"at abscissa 0: {exc}") from exc

    direction = 1.0 if range_end > 0 else -1.0
    n_steps = int(np.floor(abs(range_end) / eps_phi + 1e-9))
    grid = direction * eps_phi * np.arange(1, n_steps + 1, dtype=float)
    if abs(grid[-1]) < abs(range_end) - 1e-12:
        grid = np.append(grid, range_end)

    points = [LinearizationPoint(0.0, base_lambda, base_slope)]
    prev_lambda = base_lambda
    audit_abscissas = []
    audit_errors = []

    for k, spectrum in zip(grid.tolist(), _grid_spectra(model, ss0, eigen_index, area, grid)):
        j = int(np.argmin(np.abs(spectrum - prev_lambda)))
        lam_true = complex(spectrum[j])
        gate = _tracking_gate(eps_phi, points[-1].slope)
        if abs(lam_true - prev_lambda) > gate:
            raise TrackingError(
                f"eigenvalue jump {abs(lam_true - prev_lambda):.3e} at abscissa {k:g} "
                f"exceeds continuity gate {gate:.3e}"
            )

        anchor = points[-1]
        estimate = anchor.eigenvalue + anchor.slope * (k - anchor.abscissa)
        err = abs(lam_true.real - estimate.real)
        if err > eps_lim:
            ss_k = net_gain_state_space(model, area, k)
            eig_k = eigen_decompose(ss_k)
            idx = int(np.argmin(np.abs(eig_k.eigenvalues - lam_true)))
            try:
                slope = sensitivity(ss_k, eig_k, idx, area).d_lambda_dKL
            except DegenerateEigenvalueError as exc:
                raise DegenerateEigenvalueError(f"at abscissa {k:g}: {exc}") from exc
            lam_true = complex(eig_k.eigenvalues[idx])
            points.append(LinearizationPoint(float(k), lam_true, slope))
            err = 0.0
        audit_abscissas.append(float(k))
        audit_errors.append(err)
        prev_lambda = lam_true

    grid_abscissas = np.array(audit_abscissas)
    grid_errors = np.array(audit_errors)
    grid_abscissas.setflags(write=False)
    grid_errors.setflags(write=False)
    return SegmentTable(
        eigen_index=int(eigen_index),
        area=int(area),
        points=tuple(points),
        range_end=float(range_end),
        base_eigenvalue=base_lambda,
        tolerance=float(eps_lim),
        step=float(eps_phi),
        grid_abscissas=grid_abscissas,
        grid_errors=grid_errors,
    )


def evaluate_piecewise(table: SegmentTable, k_lc: float) -> complex:
    """Estimated eigenvalue shift at net gain k_lc, relative to the base value.

    Selects the anchor whose interval contains k_lc (the nearest anchor on
    the zero side, with the anchor abscissa itself belonging to its own
    segment) and returns slope*(k_lc - anchor) + (anchor_eig - base_eig).
    No extrapolation outside [0, range_end] (in the signed sense).
    """
    d = 1.0 if table.range_end > 0 else -1.0
    pos = k_lc * d
    if pos < -1e-12 or pos > abs(table.range_end) + 1e-12:
        raise CoverageError(
            f"net gain {k_lc:g} outside swept range [0, {table.range_end:g}]"
        )
    chosen = table.points[0]
    for p in table.points:
        if p.abscissa * d <= pos:
            chosen = p
        else:
            break
    return chosen.slope * (k_lc - chosen.abscissa) + (chosen.eigenvalue - table.base_eigenvalue)


def select_critical_pairs(
    model: SystemModel,
    attack_areas,
    range_end,
    screening_margin: float = 0.5,
) -> tuple:
    """Pick the (eigenvalue, area) pairs whose locus could cross the axis.

    range_end maps each attacked area to its signed sweep end.  An
    eigenvalue is critical when the summed worst-case first-order real
    shift across all attacked areas reaches -Re(lambda0) - screening_margin
    (simultaneous attacks superpose, so areas are judged jointly); every
    area contributing a positive shift to a critical eigenvalue yields a
    pair.  Only one member of each conjugate pair survives (the one with
    nonnegative imaginary part); eigenvalues whose sensitivity is undefined
    at the base point are kept conservatively.
    """
    ss0 = build_state_space(model, AttackProfile.none(model.areas), DroopSchedule.none(model.areas))
    eig0 = eigen_decompose(ss0)
    if not is_stable(eig0):
        raise ConfigurationError("base system must be stable before screening")
    areas = sorted(int(a) for a in attack_areas)
    pairs = []
    for i in range(len(eig0)):
        if eig0.eigenvalues[i].imag < -1e-12:
            continue  # conjugate partner carries the same information
        shifts = {}
        degenerate = False
        for n in areas:
            end = float(range_end[n]) if not np.isscalar(range_end) else float(range_end)
            if end == 0.0:
                continue
            try:
                sens = sensitivity(ss0, eig0, i, n)
            except DegenerateEigenvalueError:
                degenerate = True
                shifts[n] = np.inf
                continue
            shifts[n] = sens.d_lambda_dKL.real * end
        total = sum(max(s, 0.0) for s in shifts.values())
        if degenerate or total >= -eig0.eigenvalues[i].real - screening_margin:
            pairs.extend((i, n) for n, s in shifts.items() if s > 0.0)
    return tuple(sorted(pairs))
