"""Time-domain step response of the closed loop and trajectory classification.

xdot = S x + f starts at the pre-step equilibrium and the load step enters
the piecewise-constant forcing at a chosen time, so samples are propagated
exactly with Phi = expm(S dt) (zero-order hold; Van Loan, IEEE TAC 23(3),
1978), expm being the Pade approximant of the lowest degree that the 1-norm
allows, with scaling and squaring past degree 13 (Higham, SIAM J. Matrix
Anal. Appl. 26(4), 2005).  A trajectory whose state passes DIVERGENCE_NORM
is cut short and flagged diverged rather than treated as an error.

The samples are propagated in rounds, each one product of earlier rows with
a power P of Phi.  A round is screened for divergence by a bound before its
samples are: the computed rows of src @ P satisfy

    max|src @ P| <= max|src| ||P||_1 (1 + gamma_2n),

||P||_1 the largest column sum of |P| and gamma_2n = 2n u / (1 - 2n u) the
dot products' rounding (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 2002, section 3.1), away from underflow.  Only a block
whose bound exceeds the screen has its samples searched.  A sample past
DIVERGENCE_NORM puts its block's bound past the screen, so the bound decides
how much is searched, never which sample ends the trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClassificationError, ConfigurationError
from .grid import StateSpace

__all__ = ["Trajectory", "expm", "simulate", "classify_trajectory"]

DIVERGENCE_NORM = 1e6

#: most multiply-adds in one propagation product, rows x (2n)^2: 256 rows of
#: a 48-state loop, the largest product measured free of OpenBLAS stalls
BLOCK = 256 * 48**2

#: largest samples x states of one trajectory, 128 MiB of float64 states
MAX_STATE_ENTRIES = 1 << 24

#: |log-amplitude slope| below this is called marginal (1/s)
CLASSIFY_TOL = 0.01


@dataclass(frozen=True, eq=False)
class Trajectory:
    """State history on a uniform time grid.

    states[k] holds [angles, frequency deviations] at times[k]; step_time
    is the grid time at which the step enters: t_step rounded up to the
    grid, clamped to its first and last times.  The trajectory ends early (diverged=True) if
    the state norm blows up.  simulate stores states area-major (column-
    major), so that each state's history, such as omega[:, area], is
    contiguous; states[k] is still sample k.
    """

    times: np.ndarray
    states: np.ndarray
    step_time: float
    equilibrium_post: np.ndarray
    diverged: bool

    @property
    def n_areas(self) -> int:
        return self.states.shape[1] // 2

    @property
    def omega(self) -> np.ndarray:
        return self.states[:, self.n_areas:]

    @property
    def delta(self) -> np.ndarray:
        return self.states[:, : self.n_areas]


def _equilibrium(ss: StateSpace, forcing: np.ndarray) -> np.ndarray:
    return np.linalg.solve(ss.state_matrix, -forcing)


#: Pade coefficients b_0..b_m of each degree m, and the 1-norm theta_m up to
#: which degree m is accurate to unit roundoff without scaling (Higham, SIAM
#: J. Matrix Anal. Appl. 26(4), 2005, Table 2.3)
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
        110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
          (7, 9.504178996162932e-1), (9, 2.097847961257068))
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by a Pade approximant r = (V - U)^-1 (V + U), U odd and V even in a.

    The degree is the lowest m in 3, 5, 7, 9 with ||a||_1 <= theta_m, which
    needs no scaling; past theta_9, a is halved s times until its 1-norm is
    at most theta_13, and the degree-13 approximant is squared s times
    (Higham 2005, Algorithm 2.3).  U and V are sums of the even powers of a
    up to a^(m-1); r is formed as I + 2 (V - U)^-1 U, so that the identity
    is added once, after the solve, and does not round away the small U of
    a small a.  The zero matrix gives exactly the identity.
    """
    ident = np.eye(len(a))
    norm = float(np.abs(a).sum(axis=0).max())
    if norm == 0.0:
        return ident
    m = next((m for m, theta in _THETA if norm <= theta), 13)
    s = max(0, int(np.ceil(np.log2(norm / _THETA13)))) if m == 13 else 0
    a = a / 2.0**s
    b = _PADE[m]
    even = [ident, a @ a]  # a^0, a^2, ..., a^(m-1)
    while len(even) <= m // 2:
        even.append(even[-1] @ even[1])
    u = a @ sum(b[2 * j + 1] * p for j, p in enumerate(even))
    v = sum(b[2 * j] * p for j, p in enumerate(even))
    r = ident + 2.0 * np.linalg.solve(v - u, u)
    for _ in range(s):
        r = r @ r
    return r


def _growth(powers: np.ndarray) -> list:
    """Per matrix P of the stack, a bound on max|src @ P| / max|src| for the
    computed product.

    ||P||_1, the largest column sum of |P|, times 1 + 4 (2n + 2) eps:
    gamma_2n of the 2n-term dot products, the rounding of the column sums
    and the two roundings of a bound formed from this one (module
    docstring).
    """
    width = powers.shape[1]
    norms = (np.ones(width) @ np.abs(powers)).max(axis=1)
    return (norms * (1.0 + 4 * (width + 2) * np.finfo(float).eps)).tolist()


def _screened(block: np.ndarray, bound: float, screen: float) -> float:
    """A bound on max|block|: bound itself when within screen, else the block's
    exact largest |entry|, NaN when the block holds a NaN."""
    if bound <= screen:
        return bound
    return np.abs(block).max()


def simulate(
    ss: StateSpace,
    disturbance: np.ndarray,
    t_step: float = 1.0,
    t_end: float = 30.0,
    dt: float | None = 0.01,
) -> Trajectory:
    """Step response of the closed loop, sampled every dt up to t_end.

    disturbance is the per-area load step (p.u.), applied to the forcing
    from the first grid time at or after t_step.  dt must resolve the
    fastest mode, dt <= 1/(10 max|lambda|), so that classify_trajectory
    sees every oscillation peak; a given dt with 10 dt ||S||_1 <= 1 passes
    without an eigensolve, since max|lambda| <= ||S||_1.  dt=None picks
    min(0.02, 1/(12 max|lambda|)) from the guard's eigensolve.  Raises
    ConfigurationError unless t_step, t_end and the disturbance are finite,
    t_end is nonnegative and past t_step, and dt, when given, is positive;
    and, before any state is allocated, when the horizon's samples x states
    exceed MAX_STATE_ENTRIES.
    """
    n = ss.n_areas
    if not (np.isfinite(t_step) and np.isfinite(t_end) and (dt is None or dt > 0.0)):
        raise ConfigurationError("t_step and t_end must be finite and dt must be positive")
    disturbance = np.asarray(disturbance, dtype=float)
    if disturbance.shape != (n,) or not np.isfinite(disturbance).all():
        raise ConfigurationError(f"disturbance must hold {n} finite values")
    if t_end <= t_step or t_end < 0.0:  # the grid starts at time 0
        raise ConfigurationError("t_end must exceed t_step and be nonnegative")
    # max|lambda| <= ||S||_1, so a dt within the norm's bound needs no eigensolve
    if dt is None or not 10.0 * dt * np.abs(ss.state_matrix).sum(axis=0).max() <= 1.0:
        lam_max = float(np.abs(np.linalg.eigvals(ss.state_matrix)).max())
        if dt is None:
            dt = min(0.02, 1.0 / (12.0 * lam_max)) if lam_max > 0.0 else 0.02
        if lam_max > 0.0 and dt > 1.0 / (10.0 * lam_max):
            raise ConfigurationError(
                f"dt={dt:g} too coarse for fastest mode |lambda|={lam_max:g}; "
                f"need dt <= {1.0 / (10.0 * lam_max):g}"
            )
    samples = t_end / dt + 1.0  # inf where the quotient overflows
    if not samples * 2 * n <= MAX_STATE_ENTRIES:
        raise ConfigurationError(
            f"a horizon of {samples:.3g} samples of {2 * n} states exceeds "
            f"{MAX_STATE_ENTRIES} entries; take a coarser dt or a shorter t_end")

    m_diag = -np.diag(ss.descriptor_a)[n:]
    extra = np.concatenate([np.zeros(n), -disturbance / m_diag])
    f_post = ss.forcing + extra

    n_steps = int(round(t_end / dt))
    k_switch = int(np.ceil(t_step / dt - 1e-12))

    x_pre = _equilibrium(ss, ss.forcing)
    eq_post = _equilibrium(ss, f_post)
    states = np.empty((n_steps + 1, 2 * n), order="F")
    k = min(max(k_switch, 0), n_steps)
    states[: k + 1] = x_pre
    # the deviation from eq_post is propagated in place after the step: each
    # round appends up to `stride` rows as one product of earlier rows with
    # Phi^stride, the stride doubling while it fits the rows filled and the
    # `cap` rows whose product stays within BLOCK multiply-adds
    last, diverged, todo = n_steps, False, n_steps - k
    if k and not np.abs(x_pre).max() <= DIVERGENCE_NORM:
        last, diverged = 1, True
    elif todo:
        dev = states[k + 1 :]
        # Phi^T and its squares, one per doubling of the stride, in one stack;
        # the products before the first doubling take phi itself, of which
        # stack[0] is a C-ordered copy that serves only its bound
        phi = expm(ss.state_matrix * dt).T
        cap = BLOCK // (2 * n) ** 2
        stack = np.empty((max(1, min(cap, todo - 1).bit_length()), 2 * n, 2 * n))
        stack[0] = phi
        powers = [phi]
        for power in stack[1:]:
            powers.append(np.matmul(powers[-1], powers[-1], out=power))
        dev[0] = (x_pre - eq_post) @ phi
        # no row within `screen` of zero can put its sample past the bound
        # (rounded down, so that the bound holds after rounding too)
        screen = np.nextafter(DIVERGENCE_NORM - np.abs(eq_post).max(), -np.inf)
        # `bound` bounds max|new| (module docstring), `running` every row so
        # far; a doubling round's source is every row so far, a capped
        # round's the block before, and row 0 is screened exactly
        growth, bound, running = _growth(stack), np.inf, 0.0
        new, filled, stride, level = dev[:1], 1, 1, 0
        with np.errstate(over="ignore", invalid="ignore"):
            # NumPy copies a ufunc's operands through its buffer, 8192 elements
            # by default, when their contiguous runs are at most a quarter of
            # it; a block's runs are its rows, one run per state, so the
            # screens and the add work in place through a small buffer
            bufsize = np.setbufsize(64)
            while True:
                bound = _screened(new, bound, screen)
                if not bound <= screen:  # NaN trips it
                    peak = np.abs(new + eq_post).max(axis=1)
                    over = np.flatnonzero(~(peak <= DIVERGENCE_NORM))
                    if over.size:
                        last, diverged = k + 1 + filled - len(new) + int(over[0]), True
                        break
                running = max(running, bound)
                if filled == todo:
                    break
                if 2 * stride <= min(filled, cap):
                    level, stride, bound = level + 1, 2 * stride, running
                m = min(stride, todo - filled)
                src, new = dev[filled - stride : filled - stride + m], dev[filled : filled + m]
                if m > 1:
                    np.matmul(src, powers[level], out=new)
                else:  # NumPy takes one strided row outside BLAS: multiply it
                    # contiguous, as stored row-major, for the same bits
                    new[:] = np.matmul(np.ascontiguousarray(src), powers[level])
                filled += m
                bound *= growth[level]
            states[k + 1 : last + 1] += eq_post
            np.setbufsize(bufsize)

    times = np.arange(last + 1) * dt
    states = states[: last + 1]
    for arr in (times, states, eq_post):
        arr.setflags(write=False)
    return Trajectory(
        times=times,
        states=states,
        step_time=float(k * dt),
        equilibrium_post=eq_post,
        diverged=diverged,
    )


def _swing(omega: np.ndarray, eq: np.ndarray) -> np.ndarray:
    """Per area, the largest deviation of the samples omega (rows) from eq.

    The extremes are reduced over omega.T, one row per area: on simulate's
    area-major states each row is one contiguous history, reduced where it
    lies without a copy, and any other layout gives the same extremes.
    """
    per_area = omega.T
    return np.maximum(per_area.max(axis=1) - eq, eq - per_area.min(axis=1))


def _slope(t: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of the line through the points (t, y), from centred t."""
    t_c = t - t.mean()
    return float(t_c @ y / (t_c @ t_c))


def classify_trajectory(traj: Trajectory, area: int | None = None) -> str:
    """Label the post-step oscillation as decaying, growing, or marginal.

    Fits a line to the log of the rectified frequency-deviation peaks of
    one area (the one with the largest swing unless given) and compares
    the slope against CLASSIFY_TOL.  A diverged trajectory is growing by
    definition.  Raises ClassificationError when fewer than four peaks are
    available, as when no sample lies at or after the step.
    """
    if traj.diverged:
        return "growing"
    # the grid is uniform, so the post-step samples are a suffix, taken as views
    first = int(np.searchsorted(traj.times, traj.step_time))
    if first == len(traj.times):
        raise ClassificationError("no samples at or after the step; cannot classify")
    omega = traj.omega[first:]
    eq = traj.equilibrium_post[traj.n_areas:]
    times = traj.times[first:]
    if area is None:
        area = int(np.argmax(_swing(omega, eq)))
    signal = omega[:, area] - eq[area]
    np.abs(signal, out=signal)
    floor = max(signal.max() * 1e-9, 1e-300)

    interior = signal[1:-1]
    peak_idx = np.flatnonzero(
        (interior > signal[:-2]) & (interior >= signal[2:]) & (interior > floor)
    ) + 1
    if peak_idx.size < 4:
        raise ClassificationError(
            f"only {peak_idx.size} usable oscillation peaks; cannot classify"
        )
    slope = _slope(times[peak_idx], np.log(signal[peak_idx]))
    if slope > CLASSIFY_TOL:
        return "growing"
    if slope < -CLASSIFY_TOL:
        return "decaying"
    return "marginal"
