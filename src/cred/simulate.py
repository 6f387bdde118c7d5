"""Time-domain step response of the closed loop and trajectory classification.

xdot = S x + f starts at the pre-step equilibrium and the load step enters
the piecewise-constant forcing at a chosen time, so samples are propagated
exactly with Phi = expm(S dt) (zero-order hold; Van Loan, IEEE TAC 23(3),
1978), expm being the Pade approximant of the lowest degree that the 1-norm
allows, with scaling and squaring past degree 13 (Higham, SIAM J. Matrix
Anal. Appl. 26(4), 2005).  A trajectory whose state passes DIVERGENCE_NORM
is cut short and flagged diverged rather than treated as an error.
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

#: |log-amplitude slope| below this is called marginal (1/s)
CLASSIFY_TOL = 0.01


@dataclass(frozen=True, eq=False)
class Trajectory:
    """State history on a uniform time grid.

    states[k] holds [angles, frequency deviations] at times[k]; step_time
    is the grid time at which the step enters: t_step rounded up to the
    grid, clamped to its first and last times.  The trajectory ends early (diverged=True) if
    the state norm blows up.
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
    ConfigurationError unless t_step, t_end and the disturbance are finite
    and dt, when given, is positive.
    """
    n = ss.n_areas
    if not (np.isfinite(t_step) and np.isfinite(t_end) and (dt is None or dt > 0.0)):
        raise ConfigurationError("t_step and t_end must be finite and dt must be positive")
    disturbance = np.asarray(disturbance, dtype=float)
    if disturbance.shape != (n,) or not np.isfinite(disturbance).all():
        raise ConfigurationError(f"disturbance must hold {n} finite values")
    if t_end <= t_step:
        raise ConfigurationError("t_end must exceed t_step")
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

    m_diag = -np.diag(ss.descriptor_a)[n:]
    extra = np.concatenate([np.zeros(n), -disturbance / m_diag])
    f_post = ss.forcing + extra

    n_steps = int(round(t_end / dt))
    k_switch = int(np.ceil(t_step / dt - 1e-12))

    x_pre = _equilibrium(ss, ss.forcing)
    eq_post = _equilibrium(ss, f_post)
    states = np.empty((n_steps + 1, 2 * n))
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
        power = expm(ss.state_matrix * dt).T
        dev[0] = (x_pre - eq_post) @ power
        # no row within `screen` of zero can put its sample past the bound
        # (rounded down, so that the bound holds after rounding too)
        screen = np.nextafter(DIVERGENCE_NORM - np.abs(eq_post).max(), -np.inf)
        new, filled, stride, cap = dev[:1], 1, 1, BLOCK // (2 * n) ** 2
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                if not (new.max() <= screen and new.min() >= -screen):  # NaN trips it
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

    The extremes are taken along one contiguous row per area, one pass
    each, where the strided columns took one inner loop per sample; the
    copy is freed on return, before the classifier copies a signal.
    """
    per_area = np.ascontiguousarray(omega.T)
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
    signal = np.abs(omega[:, area] - eq[area])
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
