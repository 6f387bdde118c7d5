"""Eigenvalue analysis of the closed-loop grid: spectra, sensitivities, verdicts.

NumPy only: np.linalg.eig gives the spectrum and right vectors V of the
state matrix S, and the rows of V^-1 the left vectors w, already scaled so
that w_i^T v_i = 1.  The attack gain in area a enters S in one diagonal
entry, S[row, row] = -(K_p + D - K_attack + K_droop) / M_a with row = N + a,
so the first-order derivative of every eigenvalue with respect to it is

    dlambda_i / dK = w_i[row] v_i[row] / M_a,

which sensitivity returns for the whole spectrum at once; it is defined at
a simple eigenvalue, which check_simple guards.  is_stable gives the strict
Hurwitz verdict, Re(lambda) < 0 for every mode but a structural one at the
origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEigenvalueError, NumericalError
from .grid import StateSpace, SystemModel

__all__ = [
    "EigenSolution",
    "StabilityVerdict",
    "eigen_decompose",
    "sensitivity",
    "check_simple",
    "is_stable",
]

#: eigenvalues closer together than this are treated as repeated
SIMPLE_TOL = 1e-6

#: eigenvalues with modulus below this are treated as a structural origin mode
ZERO_MODE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class EigenSolution:
    """Full spectrum with bi-orthogonally normalized vector pairs.

    eigenvalues are sorted by (real, imag) ascending; column i of
    right_vectors (v_i) and of left_vectors (w_i, row i of V^-1) belongs
    to eigenvalues[i], with w_i^T v_i = 1.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray

    def __len__(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class StabilityVerdict:
    """stable: max_real < 0, with the origin modes at indices excluded left out."""

    stable: bool
    max_real: float
    excluded: tuple

    def __bool__(self) -> bool:
        return self.stable


def eigen_decompose(ss: StateSpace) -> EigenSolution:
    """Spectrum and left/right vectors of the closed-loop state matrix.

    The rows of V^-1 are the left vectors w of S (w_i^T S = lambda_i w_i^T)
    with w_i^T v_i = 1.  Both vector sets must pass a residual check against
    S, and a failed LAPACK call, a singular V or a failed check raises
    NumericalError.
    """
    s = ss.state_matrix
    if not np.isfinite(s).all():
        raise NumericalError("state matrix contains non-finite entries")
    try:
        values, vr = np.linalg.eig(s)
        values = values + 0j  # complex even for a real spectrum; an origin mode's -0.0 reads +0.0
        order = np.lexsort((values.imag, values.real))
        values, vr = values[order], vr[:, order]
        w_left = np.linalg.inv(vr).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigen solver failed on a {s.shape[0]}x{s.shape[1]} "
                             f"state matrix: {exc}") from exc

    scale = max(np.linalg.norm(s, np.inf), 1.0)
    resid = np.linalg.norm(s @ vr - vr * values, axis=0)
    if (resid > 1e-8 * scale).any():
        raise NumericalError(f"eigenpair residual {resid.max():.3e} exceeds 1e-8*|S|")
    # w is scaled by w^T v = 1, not to unit length: judge its direction
    resid = (np.linalg.norm(s.T @ w_left - w_left * values, axis=0)
             / np.linalg.norm(w_left, axis=0))
    if (resid > 1e-8 * scale).any():
        raise NumericalError(f"left eigenvector residual {resid.max():.3e} exceeds 1e-8*|S|")

    for arr in (values, vr, w_left):
        arr.setflags(write=False)
    return EigenSolution(values, vr, w_left)


def sensitivity(model: SystemModel, eig: EigenSolution, area: int) -> np.ndarray:
    """d lambda / dK of every eigenvalue w.r.t. the attack gain in one area (module docstring).

    Entry i holds at a simple eigenvalue i only (check_simple); the
    droop-gain derivative is the exact negation of the attack-gain one.
    """
    row = model.areas + area
    return (eig.left_vectors[row] / model.total_inertia[area]) * eig.right_vectors[row]


def check_simple(spectrum: np.ndarray, lam: complex, k: float) -> None:
    """Raise DegenerateEigenvalueError if another point of spectrum lies within SIMPLE_TOL of lam.

    spectrum is the loop's at net gain k, lam one of its points.
    """
    gap = float(np.partition(np.abs(spectrum - lam), 1)[1])
    if gap < SIMPLE_TOL:
        raise DegenerateEigenvalueError(
            f"at abscissa {k:g}: eigenvalue {lam} is repeated within {gap:.2e}; "
            "sensitivity undefined"
        )


def is_stable(eig: EigenSolution) -> StabilityVerdict:
    """Strict Hurwitz verdict: every mode must satisfy Re(lambda) < 0.

    A mode at the origin (|lambda| at most ZERO_MODE_TOL) is treated as the
    structural angle-reference mode and excluded from the verdict.
    """
    lam = eig.eigenvalues
    origin = np.abs(lam) <= ZERO_MODE_TOL
    if origin.all():
        raise NumericalError("no eigenvalues left after zero-mode exclusion")
    excluded = tuple(np.flatnonzero(origin).tolist())
    max_real = float(lam.real[~origin].max())
    return StabilityVerdict(stable=max_real < 0.0, max_real=max_real, excluded=excluded)
