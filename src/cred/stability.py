"""Eigenvalue analysis of the closed-loop grid: spectra, sensitivities, verdicts.

Left eigenvectors are normalized against the descriptor, y^T E z = 1, which
makes the first-order eigenvalue derivative with respect to the attack gain
in area n simply  -y[N+n] * z[N+n]  (the feedback matrix loses one unit of
damping in that diagonal entry).  The sign convention is fixed by agreement
with central finite differences of the spectrum.  sensitivity returns that
derivative as a complex number; is_stable gives the strict Hurwitz verdict,
Re(lambda) < 0 for every mode but a structural one at the origin.

NumPy only: np.linalg.eig gives the spectrum and right vectors V, and the
rows of V^-1 the left vectors, already scaled so that w_i^T v_i = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateEigenvalueError, NumericalError
from .grid import StateSpace

__all__ = [
    "EigenSolution",
    "StabilityVerdict",
    "eigen_decompose",
    "sensitivity",
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
    right_vectors/left_vectors belongs to eigenvalues[i] and satisfies
    y_i^T E z_i = 1 with E the descriptor matrix.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray

    def __len__(self) -> int:
        return self.eigenvalues.shape[0]

    def min_gap(self, i: int) -> float:
        """Distance from eigenvalue i to the rest of the spectrum."""
        gaps = np.abs(self.eigenvalues - self.eigenvalues[i])
        gaps[i] = np.inf
        return float(gaps.min())


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
    with w_i^T v_i = 1; the pencil's are y = E^-1 w.  Both vector sets must
    pass a residual check against S, and a failed LAPACK call, a singular V
    or a failed check raises NumericalError.
    """
    s = ss.state_matrix
    if not np.all(np.isfinite(s)):
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
    # map to pencil left vectors y = E^-1 w, so that y^T E z = w^T z = 1
    y = np.linalg.solve(ss.descriptor_a, w_left)

    scale = max(np.linalg.norm(s, np.inf), 1.0)
    resid = np.linalg.norm(s @ vr - vr * values, axis=0)
    if np.any(resid > 1e-8 * scale):
        raise NumericalError(f"eigenpair residual {resid.max():.3e} exceeds 1e-8*|S|")
    # w is scaled by w^T v = 1, not to unit length: judge its direction
    resid = (np.linalg.norm(s.T @ w_left - w_left * values, axis=0)
             / np.linalg.norm(w_left, axis=0))
    if np.any(resid > 1e-8 * scale):
        raise NumericalError(f"left eigenvector residual {resid.max():.3e} exceeds 1e-8*|S|")

    for arr in (values, vr, y):
        arr.setflags(write=False)
    return EigenSolution(values, vr, y)


def sensitivity(ss: StateSpace, eig: EigenSolution, i: int, n: int) -> complex:
    """Analytic derivative d lambda_i / dK of eigenvalue i w.r.t. the attack gain in area n.

    Requires a simple eigenvalue; the droop-gain derivative is the exact
    negation of the attack-gain derivative.
    """
    if not 0 <= i < len(eig):
        raise ContractError(f"eigen index {i} out of range")
    n_areas = ss.n_areas
    if not 0 <= n < n_areas:
        raise ContractError(f"area {n} out of range")
    gap = eig.min_gap(i)
    if gap < SIMPLE_TOL:
        raise DegenerateEigenvalueError(
            f"eigenvalue {eig.eigenvalues[i]} is repeated within {gap:.2e}; "
            "sensitivity undefined"
        )
    k = n_areas + n
    d_kl = -(eig.left_vectors[k, i] * eig.right_vectors[k, i])
    return complex(d_kl)


def is_stable(eig: EigenSolution) -> StabilityVerdict:
    """Strict Hurwitz verdict: every mode must satisfy Re(lambda) < 0.

    A mode at the origin (|lambda| at most ZERO_MODE_TOL) is treated as the
    structural angle-reference mode and excluded from the verdict.
    """
    lam = eig.eigenvalues
    excluded = tuple(int(j) for j in np.flatnonzero(np.abs(lam) <= ZERO_MODE_TOL))
    keep = np.ones(len(lam), dtype=bool)
    for j in excluded:
        keep[j] = False
    if not np.any(keep):
        raise NumericalError("no eigenvalues left after zero-mode exclusion")
    max_real = float(lam[keep].real.max())
    return StabilityVerdict(stable=max_real < 0.0, max_real=max_real, excluded=excluded)
