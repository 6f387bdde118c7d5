"""Eigenvalue analysis of the closed-loop grid: spectra, sensitivities, verdicts.

Left eigenvectors are normalized against the descriptor, y^T E z = 1, which
makes the first-order eigenvalue derivative with respect to the attack gain
in area n simply  -y[N+n] * z[N+n]  (the feedback matrix loses one unit of
damping in that diagonal entry).  The sign convention is fixed by agreement
with central finite differences of the spectrum.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import ContractError, DegenerateEigenvalueError, NumericalError
from .grid import StateSpace

__all__ = [
    "EigenSolution",
    "SensitivityRecord",
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
class SensitivityRecord:
    """First-order derivative of one eigenvalue w.r.t. the area-n attack gain."""

    eigen_index: int
    area: int
    d_lambda_dKL: complex


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    max_real: float
    margin: float
    excluded: tuple
    zero_mode_flagged: bool

    def __bool__(self) -> bool:
        return self.stable


_GEEV, _GEEV_LWORK = sla.get_lapack_funcs(("geev", "geev_lwork"), dtype=np.float64)


@functools.cache
def _geev_lwork(n: int) -> int:
    """The workspace scipy.linalg.eig passes dgeev for an n x n matrix."""
    work, info = _GEEV_LWORK(n, compute_vl=1, compute_vr=1)
    if info != 0:
        raise NumericalError(f"dgeev workspace query failed with info={info}")
    return int(work.real)


def _complex_vectors(wi: np.ndarray, *vectors: np.ndarray) -> tuple:
    """Complex eigenvectors from dgeev's real storage, as scipy.linalg.eig forms them.

    dgeev stores a conjugate pair (positive imaginary part wi first) as the
    real and imaginary parts in two adjacent columns, so the flagged
    columns are never adjacent and one vectorized pass equals scipy's
    column loop.
    """
    first = wi > 0
    first[:-1] |= wi[1:] < 0
    idx = np.flatnonzero(first)
    out = []
    for v in vectors:
        c = v.astype(complex)
        c.imag[:, idx] = v[:, idx + 1]
        c[:, idx + 1] = c[:, idx].conj()
        out.append(c)
    return tuple(out)


def eigen_decompose(ss: StateSpace) -> EigenSolution:
    """Spectrum and left/right vectors of the closed-loop state matrix.

    One LAPACK dgeev call with the arguments scipy.linalg.eig passes it, so
    the spectrum and vectors are bit for bit those of sla.eig(s, left=True).
    """
    s = ss.state_matrix
    if not np.all(np.isfinite(s)):
        raise NumericalError("state matrix contains non-finite entries")
    wr, wi, vl, vr, info = _GEEV(s, lwork=_geev_lwork(s.shape[0]), compute_vl=1,
                                 compute_vr=1, overwrite_a=0)
    if info != 0:
        raise NumericalError(f"eigen solver did not converge on a {s.shape[0]}x"
                             f"{s.shape[1]} state matrix: dgeev info={info}")
    values = wr + 1j * wi  # scipy.linalg.eig's expression, signed zeros included
    if wi.any():
        vl, vr = _complex_vectors(wi, vl, vr)

    # dgeev's vl satisfies vl^H S = diag(w) vl^H, so conj(vl) are the
    # transpose-sense left vectors of S.
    w_left = vl.conj()
    norms = np.einsum("ij,ij->j", w_left, vr)
    if np.any(np.abs(norms) < 1e-300):
        raise NumericalError("left/right eigenvector pair is numerically orthogonal")
    # map to pencil left vectors y = E^-1 w and fold in the normalization,
    # so that y^T E z = w^T z / norm = 1
    y = np.linalg.solve(ss.descriptor_a, w_left) / norms

    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vr = vr[:, order]
    y = y[:, order]

    scale = max(np.linalg.norm(s, np.inf), 1.0)
    resid = np.linalg.norm(s @ vr - vr * values, axis=0)
    if np.any(resid > 1e-8 * scale):
        raise NumericalError(f"eigenpair residual {resid.max():.3e} exceeds 1e-8*|S|")

    for arr in (values, vr, y):
        arr.setflags(write=False)
    return EigenSolution(values, vr, y)


def sensitivity(ss: StateSpace, eig: EigenSolution, i: int, n: int) -> SensitivityRecord:
    """Analytic derivative of eigenvalue i w.r.t. the attack gain in area n.

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
    return SensitivityRecord(i, n, complex(d_kl))


def is_stable(eig: EigenSolution, margin: float = 0.0) -> StabilityVerdict:
    """Strict Hurwitz verdict: every mode must satisfy Re(lambda) < -margin.

    A mode at the origin (|lambda| below ZERO_MODE_TOL) is treated as the
    structural angle-reference mode, excluded from the verdict and flagged.
    """
    if margin < 0.0:
        raise ContractError("margin must be >= 0")
    lam = eig.eigenvalues
    excluded = tuple(int(j) for j in np.flatnonzero(np.abs(lam) <= ZERO_MODE_TOL))
    keep = np.ones(len(lam), dtype=bool)
    for j in excluded:
        keep[j] = False
    if not np.any(keep):
        raise NumericalError("no eigenvalues left after zero-mode exclusion")
    max_real = float(lam[keep].real.max())
    return StabilityVerdict(
        stable=max_real < -margin,
        max_real=max_real,
        margin=float(margin),
        excluded=excluded,
        zero_mode_flagged=bool(excluded),
    )
