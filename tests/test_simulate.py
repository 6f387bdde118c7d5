import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cred.errors import ClassificationError, ConfigurationError
from cred.grid import AttackProfile, DroopSchedule, build_state_space
from cred.scenario import scenario_from_dict
from cred.simulate import (
    _PADE,
    _THETA,
    _THETA13,
    BLOCK,
    DIVERGENCE_NORM,
    MAX_STATE_ENTRIES,
    Trajectory,
    _growth,
    _slope,
    _swing,
    classify_trajectory,
    expm,
    simulate,
)
from cred.stability import eigen_decompose, is_stable

from oracles import propagation_reference, random_system_model

#: the module, which the package's simulate function shadows
simulate_module = sys.modules["cred.simulate"]

FIXTURES = Path(__file__).parent / "fixtures"

#: post-step sample counts at the edges of the propagation rounds of a loop
#: of at most 6 states, whose rounds are capped at BLOCK // 36 = 16384 rows:
#: up to 2049 samples the stride doubles through 1, 2, 4, ..., 2048
ROUND_EDGES = sorted({1, 2, 3} | {2**j + d for j in range(2, 12) for d in (-1, 0, 1)})

#: post-step sample counts at the edges of the rounds of a 48-state loop,
#: whose rounds are capped at BLOCK // 48**2 = 256 rows past 512 samples
CAPPED_EDGES = sorted({256 * j + d for j in range(2, 6) for d in (-1, 0, 1)})


def _assert_same_bits(traj, reference):
    """traj holds the reference's states, bit for bit, and its divergence flag."""
    states, diverged = reference
    assert traj.diverged == diverged
    assert traj.states.shape == states.shape
    assert np.ascontiguousarray(traj.states).tobytes() == states.tobytes()


def _closed_form(ss, step, k_switch, n_steps, dt):
    """x_eq + expm(S (t - t_step)) (x0 - x_eq) on the grid, x0 up to the step.

    Also returns each sample's error scale: its size plus that of x0 - x_eq.
    """
    n = ss.n_areas
    kick = np.concatenate([np.zeros(n), step / np.diag(ss.descriptor_a)[n:]])
    x0 = np.linalg.solve(ss.state_matrix, -ss.forcing)
    x_eq = np.linalg.solve(ss.state_matrix, -(ss.forcing + kick))
    out = np.tile(x0, (n_steps + 1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(k_switch + 1, n_steps + 1):
            out[k] = x_eq + sla.expm(ss.state_matrix * ((k - k_switch) * dt)) @ (x0 - x_eq)
        scale = np.abs(out).max(axis=1) + np.abs(x0 - x_eq).max()
    return out, scale


def _rel_error(states, ref, scale):
    return float((np.abs(states - ref[: len(states)]).max(axis=1) / scale[: len(states)]).max())


def _ss(model, gain=0.0, droop=0.0):
    n = model.areas
    g = np.zeros(n)
    d = np.zeros(n)
    g[0], d[0] = gain, droop
    return build_state_space(
        model,
        AttackProfile(g, np.zeros(n), (0,) if gain > 0 else ()),
        DroopSchedule(d, np.zeros(n)),
    )


class TestSimulate:
    def test_decay_envelope_matches_closed_form(self, one_area_model):
        ss = _ss(one_area_model)
        traj = simulate(ss, np.array([1.0]), t_step=1.0, t_end=25.0, dt=0.01)
        assert not traj.diverged
        mask = traj.times >= traj.step_time
        e = np.abs(traj.omega[mask, 0])
        t = traj.times[mask]
        interior = e[1:-1]
        peaks = np.flatnonzero((interior > e[:-2]) & (interior >= e[2:])) + 1
        slope = np.polyfit(t[peaks], np.log(e[peaks]), 1)[0]
        assert slope == pytest.approx(-1.0, rel=0.05)

    def test_zero_disturbance_stays_at_equilibrium(self, one_area_model, desk_bundle):
        # the deviation from the post-step equilibrium stays exactly zero
        for model in (one_area_model, desk_bundle.model):
            ss = _ss(model)
            traj = simulate(ss, np.zeros(model.areas), t_step=1.0, t_end=10.0, dt=0.01)
            assert len(traj.times) == 1001 and not traj.diverged
            assert traj.states.tobytes() == np.tile(traj.states[0], (1001, 1)).tobytes()

    def test_no_sample_after_the_step(self, one_area_model):
        ss = _ss(one_area_model)
        traj = simulate(ss, np.array([1.0]), t_step=1.0, t_end=1.004, dt=0.01)
        x0 = np.linalg.solve(ss.state_matrix, -ss.forcing)
        assert len(traj.times) == 101 and not traj.diverged
        assert np.array_equal(traj.states, np.tile(x0, (101, 1)))

    @pytest.mark.parametrize("t_step, t_end, step_time", [
        (-0.5, 5.0, 0.0),  # the step enters at the first sample
        (1.001, 1.004, 1.0),  # rounded up past the last sample, clamped to it
    ])
    def test_step_time_is_clamped_to_the_grid(self, one_area_model, t_step, t_end,
                                              step_time):
        traj = simulate(_ss(one_area_model), np.array([1.0]), t_step=t_step, t_end=t_end,
                        dt=0.01)
        assert traj.step_time == step_time
        k = int(np.searchsorted(traj.times, traj.step_time))
        assert traj.times[k] == step_time
        assert np.all(traj.states[: k + 1] == traj.states[0])
        assert np.all(traj.states[k + 1 :] != traj.states[0])
        if k == len(traj.times) - 1:
            with pytest.raises(ClassificationError, match="only 0 usable oscillation peaks"):
                classify_trajectory(traj)

    def test_unstable_attack_diverges(self, one_area_model):
        # gain 3 flips the damping to -1: envelope grows like exp(t/2)
        ss = _ss(one_area_model, gain=3.0)
        traj = simulate(ss, np.array([5.0]), t_step=1.0, t_end=30.0, dt=0.01)
        assert traj.diverged
        assert traj.times[-1] < 30.0
        assert classify_trajectory(traj) == "growing"

    def test_pre_step_state_past_the_bound_ends_the_trajectory(self):
        # the desk's governor integrals scaled by 1e-8 put the pre-step
        # equilibrium at 3.3e7: the trajectory is cut at its second sample
        from cred.systems import three_area_system

        doc = three_area_system()
        for area in doc["areas"]:
            area["gov_integral"] *= 1e-8
        model = scenario_from_dict(doc).model
        ss = _ss(model)
        x_pre = np.linalg.solve(ss.state_matrix, -ss.forcing)
        assert 3e7 < np.abs(x_pre).max() < 4e7
        step = 0.01 * np.asarray(model.secure_load)
        traj = simulate(ss, step, t_step=1.0, t_end=60.0, dt=None)
        assert traj.diverged and len(traj.times) == 2
        assert classify_trajectory(traj) == "growing"
        _assert_same_bits(traj, propagation_reference(ss, step, 1.0, 60.0, traj.times[1]))

    def test_unstable_envelope_growth_rate(self, one_area_model):
        ss = _ss(one_area_model, gain=3.0)
        traj = simulate(ss, np.array([1.0]), t_step=1.0, t_end=20.0, dt=0.01)
        mask = traj.times >= traj.step_time
        e = np.abs(traj.omega[mask, 0])
        t = traj.times[mask]
        interior = e[1:-1]
        peaks = np.flatnonzero((interior > e[:-2]) & (interior >= e[2:])) + 1
        slope = np.polyfit(t[peaks], np.log(e[peaks]), 1)[0]
        assert slope == pytest.approx(0.5, rel=0.05)

    def test_samples_match_closed_form(self, one_area_model):
        three_area = random_system_model(np.random.RandomState(7), n_areas=3)
        for model in (one_area_model, three_area):
            ss = _ss(model)
            step = 0.05 * np.asarray(model.secure_load)
            traj = simulate(ss, step, t_step=1.0, t_end=8.0, dt=0.01)
            ref, scale = _closed_form(ss, step, k_switch=100, n_steps=800, dt=0.01)
            assert not traj.diverged
            assert traj.states.shape == ref.shape
            assert np.array_equal(traj.states[:101], ref[:101])
            assert _rel_error(traj.states, ref, scale) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.one_of(st.sampled_from(ROUND_EDGES), st.integers(1, ROUND_EDGES[-1])),
    )
    def test_block_propagation_matches_closed_form(self, seed, n_post):
        # stable and growing loops; steps up to 1e8 p.u. so that some
        # responses cross the divergence bound, in the first block or later
        rng = np.random.RandomState(seed)
        model = random_system_model(rng)
        worst = model.vulnerable_load[0] / (2.0 * model.omega_max)
        ss = _ss(model, gain=rng.uniform(0.0, 3.0) * (model.gov_proportional[0] + worst))
        step = 10.0 ** rng.uniform(0.0, 8.0) * rng.uniform(-1.0, 1.0, size=model.areas)
        t_step = rng.uniform(0.0, 2.0)
        dt_frac = rng.uniform(0.1, 1.0)
        lam_max = float(np.abs(np.linalg.eigvals(ss.state_matrix)).max())
        dt = dt_frac / (10.0 * lam_max)
        k_switch = int(np.ceil(t_step / dt - 1e-12))
        n_steps = k_switch + n_post
        ref, scale = _closed_form(ss, step, k_switch, n_steps, dt)
        peak = np.abs(ref).max(axis=1)
        over = np.flatnonzero(peak[1:] > DIVERGENCE_NORM)
        last = int(over[0]) + 1 if over.size else n_steps
        # a sample within rounding of the bound could fall either side
        assume(np.all(np.abs(peak[: last + 1] / DIVERGENCE_NORM - 1.0) > 1e-8))

        traj = simulate(ss, step, t_step=t_step, t_end=n_steps * dt, dt=dt)
        assert traj.diverged == bool(over.size)
        assert len(traj.times) == last + 1
        assert _rel_error(traj.states, ref, scale) <= 1e-10

    @staticmethod
    def _cut_inside(ss, first, end):
        """Simulate a step whose first sample past the bound is a post-step row
        strictly between first and end.

        A step sized between two successive records of the growing response's
        swing puts the first sample past the bound at the later record.
        """
        k_switch, n_steps, dt = 100, 100 + 768, 0.01
        unit_step = np.zeros(ss.n_areas)
        unit_step[0] = 1.0
        unit, _ = _closed_form(ss, unit_step, k_switch, n_steps, dt)
        swing = np.abs(unit[k_switch + 1 :] - unit[0]).max(axis=1)
        before = np.maximum.accumulate(swing)[:-1]
        records = [r for r in range(first + 1, end) if swing[r] > before[r - 1]]
        assert records
        r = records[len(records) // 2]
        step = unit_step * 2.0 * DIVERGENCE_NORM / (swing[r] + before[r - 1])
        ref, scale = _closed_form(ss, step, k_switch, n_steps, dt)
        over = np.flatnonzero(np.abs(ref[1:]).max(axis=1) > DIVERGENCE_NORM)
        assert over[0] + 1 == k_switch + 1 + r

        traj = simulate(ss, step, t_step=k_switch * dt, t_end=n_steps * dt, dt=dt)
        assert traj.diverged
        assert len(traj.times) == k_switch + 2 + r
        assert _rel_error(traj.states, ref, scale) <= 1e-10
        _assert_same_bits(traj, propagation_reference(ss, step, k_switch * dt,
                                                      n_steps * dt, dt))

    @pytest.mark.parametrize("first, end", [
        (64, 128),  # a doubling round
        (128, 256),  # the doubling round that fills 256 rows
        (512, 768),  # a doubling round past 256 rows, cut short by the horizon
    ])
    def test_cut_inside_a_round(self, one_area_model, first, end):
        # a 2-state loop, whose rounds would be capped at BLOCK // 4 rows:
        # the post-step rows first..end-1 are appended by one product
        self._cut_inside(_ss(one_area_model, gain=3.0), first, end)

    def test_cut_inside_a_capped_round(self):
        # a growing 48-state loop, whose rounds are capped at 256 rows: the
        # rows 512..767 are appended by one product of rows 256..511
        ring = scenario_from_dict(json.loads((FIXTURES / "ring_seed0_op2.json").read_text()))
        ss = _ss(ring.model, gain=30.0)
        assert ss.state_matrix.shape == (48, 48) and BLOCK // 48**2 == 256
        assert np.linalg.eigvals(ss.state_matrix).real.max() > 0.5
        self._cut_inside(ss, 512, 768)

    @pytest.mark.parametrize("scenario", ["desk", "ring"])
    def test_no_product_exceeds_block(self, desk_bundle, monkeypatch, scenario):
        # every propagation round multiplies rows x 2n by 2n x 2n, and the
        # squarings of Phi are 2n x 2n products, (2n)^3 multiply-adds each
        if scenario == "desk":
            model = desk_bundle.model
        else:
            model = scenario_from_dict(
                json.loads((FIXTURES / "ring_seed0_op2.json").read_text())).model
        ss = _ss(model)
        width = 2 * model.areas
        assert width**3 <= BLOCK
        products, matmul = [], np.matmul

        def recording(a, b, **kwargs):
            products.append((a.shape[0] * a.shape[1] * b.shape[1], a is b))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        traj = simulate(ss, 0.01 * np.asarray(model.secure_load), t_step=1.0, t_end=60.0,
                        dt=0.01)
        assert not traj.diverged and len(traj.times) == 6001
        rounds = [size for size, squaring in products if not squaring]
        squarings = [size for size, squaring in products if squaring]
        assert rounds and max(rounds) <= BLOCK
        if scenario == "desk":  # the 5899 rows after the first: 1, 2, 4, ..., 2048, 1804
            assert width == 6 and len(rounds) == 13 and max(rounds) == 2048 * 36
            assert squarings == [6**3] * 12  # strides 2, 4, ..., 4096
        else:  # 256-row rounds, each at the cap
            assert width == 48 and max(rounds) == BLOCK
            assert squarings == [48**3] * 8  # strides 2, 4, ..., 256

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from([1, 2, 3, 12, 24]),
        st.one_of(st.sampled_from(ROUND_EDGES + CAPPED_EDGES),
                  st.integers(1, CAPPED_EDGES[-1])),
    )
    def test_propagation_matches_the_row_major_reference(self, seed, n_areas, n_post):
        # stable and growing loops of 2 to 48 states, with steps up to 1e8
        # p.u. so that some responses are cut, in a doubling or a capped round
        rng = np.random.RandomState(seed)
        model = random_system_model(rng, n_areas)
        worst = model.vulnerable_load[0] / (2.0 * model.omega_max)
        ss = _ss(model, gain=rng.uniform(0.0, 3.0) * (model.gov_proportional[0] + worst))
        step = 10.0 ** rng.uniform(0.0, 8.0) * rng.uniform(-1.0, 1.0, size=n_areas)
        t_step = rng.uniform(0.0, 2.0)
        lam_max = float(np.abs(np.linalg.eigvals(ss.state_matrix)).max())
        dt = rng.uniform(0.1, 1.0) / (10.0 * lam_max)
        t_end = (int(np.ceil(t_step / dt - 1e-12)) + n_post) * dt
        traj = simulate(ss, step, t_step=t_step, t_end=t_end, dt=dt)
        _assert_same_bits(traj, propagation_reference(ss, step, t_step, t_end, dt))

    @pytest.mark.parametrize("width", [2, 6, 12, 48])
    def test_growth_bounds_sign_aligned_rows(self, width):
        # row j of src holds +-s with the signs of column j of p, so that the
        # exact (src @ p)[j, j] is s times that column's sum; the computed one
        # may round past s ||p||_1, and the slack must cover that
        rng = np.random.default_rng(width)
        worst = 0.0
        for _ in range(300):
            p = rng.standard_normal((width, width)) * 10.0 ** rng.uniform(-2.0, 2.0,
                                                                          (width, width))
            p[:, rng.integers(width)] *= 10.0  # a column sum above every row sum
            s = rng.uniform(0.5, 2.0) * 10.0 ** rng.uniform(-6.0, 6.0)
            src = s * np.where(p.T < 0.0, -1.0, 1.0)
            bound = s * _growth(p[None])[0]
            worst = max(worst, float(np.abs(src @ p).max()) / bound)
            assert np.abs(src @ p).max() <= bound
        assert worst > 1.0 - 1e-13  # sign-aligned rows reach the bound

    @pytest.mark.parametrize("case", ["decaying", "growing", "desk", "ring"])
    def test_every_block_is_within_its_bound(self, one_area_model, desk_bundle, monkeypatch,
                                             case):
        # the bound handed to the screen never falls below the block's largest
        # |entry|, in doubling rounds (the source: every row so far) and in
        # capped ones (the block before); a block within the screen is not
        # searched
        if case in ("decaying", "growing"):
            model, gain, step = one_area_model, 3.0 * (case == "growing"), 1.0
        elif case == "desk":
            model, gain, step = desk_bundle.model, 0.0, 0.01
        else:
            model = scenario_from_dict(
                json.loads((FIXTURES / "ring_seed0_op2.json").read_text())).model
            gain, step = 0.0, 0.01
        ss = _ss(model, gain=gain)
        calls, screened = [], simulate_module._screened

        def recording(block, bound, screen):
            calls.append((float(np.abs(block).max()), bound, screen))
            return screened(block, bound, screen)

        monkeypatch.setattr(simulate_module, "_screened", recording)
        traj = simulate(ss, step * np.asarray(model.secure_load), t_step=1.0, t_end=60.0,
                        dt=0.01)
        assert traj.diverged == (case == "growing")
        assert len(calls) > 10
        assert all(largest <= bound for largest, bound, _ in calls[1:])
        searched = [not bound <= screen for _, bound, screen in calls]
        if case == "growing":  # searched from some round on, up to the cut
            assert searched[-1] and not all(searched)
        else:  # row 0 only
            assert searched == [True] + [False] * (len(calls) - 1)

    @pytest.mark.parametrize("kwargs", [
        dict(dt=1e-320),  # t_end / dt overflows
        dict(t_end=1e15),
        dict(dt=1e-12),
        dict(dt=0.01, t_end=MAX_STATE_ENTRIES // 2 * 0.01),  # one sample too many
    ])
    def test_horizon_past_the_state_entries(self, one_area_model, monkeypatch, kwargs):
        def no_states(*args, **kw):
            raise AssertionError("the states were allocated")

        monkeypatch.setattr(np, "empty", no_states)
        kwargs = dict(t_step=1.0, t_end=30.0, dt=0.01) | kwargs
        with pytest.raises(ConfigurationError, match=(
                r"^a horizon of \S+ samples of 2 states exceeds 16777216 entries; "
                r"take a coarser dt or a shorter t_end$")):
            simulate(_ss(one_area_model), np.array([1.0]), **kwargs)

    def test_horizon_at_the_state_entries_passes(self, one_area_model, monkeypatch):
        allocated = []

        def recording(shape, **kwargs):
            allocated.append(shape)
            raise MemoryError

        monkeypatch.setattr(np, "empty", recording)
        with pytest.raises(MemoryError):
            simulate(_ss(one_area_model), np.array([1.0]), t_step=1.0,
                     t_end=(MAX_STATE_ENTRIES // 2 - 1) * 0.01, dt=0.01)
        assert allocated == [(MAX_STATE_ENTRIES // 2, 2)]

    @pytest.mark.parametrize("t_step, t_end", [(-5.0, -1.0), (-1.0, -0.5)])
    def test_negative_horizon(self, one_area_model, t_step, t_end):
        # the grid starts at time 0, so no sample lies before a negative t_end
        with pytest.raises(ConfigurationError, match="t_end must exceed t_step and be "
                                                     "nonnegative"):
            simulate(_ss(one_area_model), np.array([1.0]), t_step=t_step, t_end=t_end,
                     dt=0.01)

    def test_ufunc_buffer_is_handed_back(self, one_area_model):
        # the propagation works through a small ufunc buffer of its own and
        # leaves the caller's size as it found it, on a cut trajectory too
        with np.errstate():
            np.setbufsize(1024)
            for gain, step in ((0.0, 1.0), (3.0, 5.0)):
                traj = simulate(_ss(one_area_model, gain=gain), np.array([step]), t_step=1.0,
                                t_end=30.0, dt=0.01)
                assert traj.diverged == (gain > 0.0)
                assert np.getbufsize() == 1024

    def test_resolution_guard(self, one_area_model):
        ss = _ss(one_area_model)
        with pytest.raises(ConfigurationError):
            simulate(ss, np.array([1.0]), t_step=1.0, t_end=10.0, dt=0.1)

    @pytest.mark.parametrize("dt, solves", [(0.01, 0), (0.03, 1)])
    def test_guard_solves_only_past_the_norm_bound(self, one_area_model, monkeypatch, dt,
                                                   solves):
        # ||S||_1 = 5 passes dt <= 0.02 and max|lambda| = sqrt(5) dt <= 0.0447
        ss = _ss(one_area_model)
        assert np.abs(ss.state_matrix).sum(axis=0).max() == 5.0
        calls, eigvals = [], np.linalg.eigvals

        def counting(a):
            calls.append(a)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        traj = simulate(ss, np.array([1.0]), t_step=1.0, t_end=10.0, dt=dt)
        assert len(calls) == solves
        assert len(traj.times) == round(10.0 / dt) + 1 and not traj.diverged
        assert classify_trajectory(traj) == "decaying"

    def test_guard_message_when_both_bounds_reject(self, one_area_model):
        with pytest.raises(ConfigurationError, match=(
                r"^dt=0\.1 too coarse for fastest mode \|lambda\|=2\.23607; "
                r"need dt <= 0\.0447214$")):
            simulate(_ss(one_area_model), np.array([1.0]), t_step=1.0, t_end=10.0, dt=0.1)

    @pytest.mark.parametrize("gain", [0.0, 40.0])
    def test_dt_none_picks_dt_from_one_eigensolve(self, one_area_model, monkeypatch, gain):
        ss = _ss(one_area_model, gain=gain)
        lam_max = float(np.abs(np.linalg.eigvals(ss.state_matrix)).max())
        dt = min(0.02, 1.0 / (12.0 * lam_max))
        assert (dt < 0.02) == (gain > 0.0)  # both branches of the min
        explicit = simulate(ss, np.array([1.0]), t_step=1.0, t_end=10.0, dt=dt)
        calls = []
        eigvals = np.linalg.eigvals

        def counting(a):
            calls.append(a)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        chosen = simulate(ss, np.array([1.0]), t_step=1.0, t_end=10.0, dt=None)
        assert len(calls) == 1
        assert np.array_equal(chosen.times, explicit.times)
        assert np.array_equal(chosen.states, explicit.states)

    def test_bad_horizon(self, one_area_model):
        ss = _ss(one_area_model)
        with pytest.raises(ConfigurationError):
            simulate(ss, np.array([1.0]), t_step=5.0, t_end=4.0, dt=0.01)

    @pytest.mark.parametrize("step", [np.nan, np.inf, -np.inf])
    def test_non_finite_disturbance(self, one_area_model, step):
        with pytest.raises(ConfigurationError, match="disturbance must hold 1 finite values"):
            simulate(_ss(one_area_model), np.array([step]), t_step=1.0, t_end=5.0, dt=0.01)

    def test_deviation_norm_monotone_after_last_peak(self, one_area_model):
        ss = _ss(one_area_model)
        traj = simulate(ss, np.array([1.0]), t_step=1.0, t_end=30.0, dt=0.01)
        e = np.linalg.norm(traj.states - traj.equilibrium_post, axis=1)
        interior = e[1:-1]
        peaks = np.flatnonzero((interior > e[:-2]) & (interior >= e[2:])) + 1
        tail = e[peaks[-1]:]
        assert np.all(np.diff(tail) <= 1e-12)


def _damped_oscillators(rng, n, norm):
    """n-state matrix of lightly damped modes with 1-norm near `norm`.

    Eigenvalues min(1, c) rho +- i c omega, per mode rho in (-1, 0.1) and
    omega in (0.2, 1), c scaling the 1-norm; a mildly non-normal similarity
    hides the modes, as in a closed loop.
    """
    t = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    rot = np.zeros((n, n))
    damp = np.zeros(n)
    for j in range(0, n - 1, 2):
        omega = rng.uniform(0.2, 1.0)
        rot[j, j + 1], rot[j + 1, j] = omega, -omega
        damp[j : j + 2] = rng.uniform(-1.0, 0.1)
    if n % 2:
        damp[-1] = rng.uniform(-1.0, 0.1)
    t_inv = np.linalg.inv(t)
    c = norm / np.abs(t @ rot @ t_inv).sum(axis=0).max()
    return t @ (c * rot + min(1.0, c) * np.diag(damp)) @ t_inv


def _expm_error(a):
    """Distance of expm(a) from scipy.linalg.expm(a), relative to its size.

    It is divided by max(1, ||a||_1) too: exp's relative condition number is
    at least ||a|| (Van Loan, SIAM J. Numer. Anal. 14(6), 1977), so two
    accurate routes may differ by about ||a|| eps.
    """
    ref = sla.expm(a)
    norm = np.abs(a).sum(axis=0).max()
    return np.abs(expm(a) - ref).max() / np.abs(ref).max() / max(1.0, norm)


class TestExpm:
    def test_zero_matrix_gives_the_identity(self):
        for n in (1, 2, 6, 48):
            assert np.array_equal(expm(np.zeros((n, n))), np.eye(n))

    def test_matches_scipy_on_damped_oscillators(self):
        rng = np.random.default_rng(0)
        norms = []
        for n in (2, 3, 6, 17, 48):
            for norm in np.logspace(-3.0, 3.0, 13):
                a = _damped_oscillators(rng, n, norm)
                norms.append(np.abs(a).sum(axis=0).max())
                assert _expm_error(a) <= 1e-13
        # both sides of theta_13 = 5.37, where expm starts to scale and square
        assert min(norms) < 2e-3 and max(norms) > 500.0

    @staticmethod
    def _with_norm(a, norm):
        """a scaled below norm, then one entry of its largest column grown until
        the 1-norm expm computes is norm exactly."""
        a = a * (0.99 * norm / np.abs(a).sum(axis=0).max())
        col = int(np.argmax(np.abs(a).sum(axis=0)))
        a[-1, col] = abs(a[-1, col]) + norm - np.abs(a).sum(axis=0)[col]
        while (got := float(np.abs(a).sum(axis=0).max())) != norm:
            a[-1, col] = np.nextafter(a[-1, col], np.inf if got < norm else 0.0)
        return a

    @pytest.mark.parametrize("n", [6, 48])
    def test_degree_follows_the_norm(self, monkeypatch, n):
        # at theta_m expm takes degree m unscaled, one ulp past it the next
        # degree
        used = []

        class Recording(dict):
            def __getitem__(self, m):
                used.append(m)
                return super().__getitem__(m)

        monkeypatch.setattr(simulate_module, "_PADE", Recording(_PADE))
        rng = np.random.default_rng(n)
        bounds = [*_THETA, (13, _THETA13)]
        for (m, theta), (above, _) in zip(bounds, bounds[1:] + [(13, None)]):
            for norm, degree in ((theta, m), (np.nextafter(theta, np.inf), above)):
                a = self._with_norm(_damped_oscillators(rng, n, norm), norm)
                used.clear()
                assert _expm_error(a) <= 1e-13
                assert used == [degree]

    def test_matches_scipy_on_step_loops(self, desk_bundle):
        ring = scenario_from_dict(json.loads((FIXTURES / "ring_seed0_op2.json").read_text()))
        for model in (desk_bundle.model, ring.model):
            ss = _ss(model)
            lam_max = float(np.abs(np.linalg.eigvals(ss.state_matrix)).max())
            assert _expm_error(ss.state_matrix * min(0.02, 1.0 / (12.0 * lam_max))) <= 1e-13


class TestClassify:
    def test_slope_matches_polyfit(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(4, 300))
            t = np.sort(rng.uniform(1.0, 61.0, size=k))
            y = rng.uniform(-30.0, 5.0) + rng.uniform(-1.0, 1.0) * t + rng.normal(0, 0.1, k)
            assert abs(_slope(t, y) - np.polyfit(t, y, 1)[0]) <= 1e-12

    def test_no_sample_after_the_step_time(self):
        # a step time past the last sample leaves nothing to classify
        t = np.arange(0.0, 1.0, 0.01)
        traj = Trajectory(times=t, states=np.zeros((len(t), 2)), step_time=1.0,
                          equilibrium_post=np.zeros(2), diverged=False)
        with pytest.raises(ClassificationError, match="no samples at or after the step"):
            classify_trajectory(traj)

    def test_synthetic_decaying_signal(self):
        t = np.arange(0.0, 20.0, 0.01)
        omega = np.exp(-0.5 * t) * np.sin(2.0 * t)
        states = np.column_stack([np.zeros_like(t), omega])
        traj = Trajectory(
            times=t, states=states, step_time=0.0,
            equilibrium_post=np.zeros(2), diverged=False,
        )
        assert classify_trajectory(traj) == "decaying"

    def test_diverged_flag_shortcut(self):
        traj = Trajectory(
            times=np.array([0.0, 0.01]), states=np.zeros((2, 2)), step_time=0.0,
            equilibrium_post=np.zeros(2), diverged=True,
        )
        assert classify_trajectory(traj) == "growing"

    def test_overdamped_trace_rejected(self, one_area_model):
        # heavy proportional action: both eigenvalues real, no peaks to fit
        from cred.grid import SystemModel

        model = SystemModel(
            areas=1, inertia_sg=[1.0], inertia_ibr=[0.0], damping=[0.0],
            gov_integral=[5.0], gov_proportional=[10.0], susceptance=[[0.0]],
            secure_load=[7.0], vulnerable_load=[3.0], ibr_max_power=[4.0],
            omega_max=0.5,
        )
        traj = simulate(_ss(model), np.array([1.0]), t_step=1.0, t_end=20.0, dt=0.005)
        with pytest.raises(ClassificationError):
            classify_trajectory(traj)

    def test_matches_masked_copy(self, rng, monkeypatch):
        # the classifier as written over a masked copy of the state history
        # hands the line fit exactly the same peak times and log amplitudes
        def masked(traj, area):
            mask = traj.times >= traj.step_time
            omega = traj.omega[mask] - traj.equilibrium_post[traj.n_areas:]
            if area is None:
                area = int(np.argmax(np.abs(omega).max(axis=0)))
            signal = np.abs(omega[:, area])
            interior = signal[1:-1]
            peaks = np.flatnonzero((interior > signal[:-2]) & (interior >= signal[2:])
                                   & (interior > max(signal.max() * 1e-9, 1e-300))) + 1
            if peaks.size < 4:
                return "error"
            return traj.times[mask][peaks].tobytes(), np.log(signal[peaks]).tobytes()

        fits = []

        def recording_slope(t, y):
            fits.append((t.tobytes(), y.tobytes()))
            return _slope(t, y)

        monkeypatch.setattr(simulate_module, "_slope", recording_slope)

        compared = 0
        for _ in range(20):
            model = random_system_model(rng)
            ss = _ss(model, gain=rng.uniform(0.0, 2.0 * model.gov_proportional[0]))
            traj = simulate(ss, 0.01 * model.secure_load, t_step=rng.uniform(0.5, 2.0),
                            t_end=20.0, dt=None)
            if traj.diverged:  # labelled without a fit
                continue
            for area in [None, *range(model.areas)]:
                fits.clear()
                try:
                    classify_trajectory(traj, area)
                except ClassificationError:
                    fits.append("error")
                assert fits == [masked(traj, area)]
                compared += fits != ["error"]
        assert compared >= 20

    def test_copies_no_state_history(self, desk_bundle):
        import tracemalloc

        model = desk_bundle.model
        traj = simulate(_ss(model), 0.01 * np.asarray(model.secure_load), t_step=1.0,
                        t_end=600.0, dt=0.01)
        tracemalloc.start()
        try:
            assert classify_trajectory(traj) == "decaying"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the one rectified signal and its peak masks, below 1.5 columns of
        # the history: the area choice reduces the columns in place, and no
        # state column is copied
        column = traj.states.nbytes // traj.states.shape[1]
        assert peak < 1.5 * column

    @staticmethod
    def _axis0_area(traj):
        """The area of largest swing by the axis-0 formula over the post-step samples."""
        omega = traj.omega[traj.times >= traj.step_time]
        eq = traj.equilibrium_post[traj.n_areas:]
        swing = np.maximum(omega.max(axis=0) - eq, eq - omega.min(axis=0))
        return swing, int(np.argmax(swing))

    @staticmethod
    def _outcome(traj, area=None):
        try:
            return classify_trajectory(traj, area)
        except ClassificationError as exc:
            return f"error: {exc}"

    @pytest.mark.parametrize("n_areas", [3, 24])
    def test_area_choice_matches_axis0_formula(self, rng, n_areas):
        for _ in range(3):
            model = random_system_model(rng, n_areas)
            ss = _ss(model, gain=rng.uniform(0.0, 2.0 * model.gov_proportional[0]))
            traj = simulate(ss, 0.01 * model.secure_load, t_step=1.0, t_end=20.0, dt=None)
            swing, area = self._axis0_area(traj)
            first = int(np.searchsorted(traj.times, traj.step_time))
            ours = _swing(traj.omega[first:], traj.equilibrium_post[n_areas:])
            assert ours.tobytes() == swing.tobytes()
            assert self._outcome(traj) == self._outcome(traj, area)

    def test_row_major_states_give_the_same_answer(self, rng, desk_bundle):
        # the classifier reads simulate's area-major states in place; a
        # row-major copy of them picks the same area and label
        models = [desk_bundle.model, random_system_model(rng, 3), random_system_model(rng, 24)]
        labels = set()
        for model in models:
            for gain in (0.0, 1.5 * model.gov_proportional[0]):
                traj = simulate(_ss(model, gain=gain), 0.01 * np.asarray(model.secure_load),
                                t_step=1.0, t_end=20.0, dt=None)
                assert traj.states.flags.f_contiguous
                copy = Trajectory(times=traj.times, states=np.ascontiguousarray(traj.states),
                                  step_time=traj.step_time,
                                  equilibrium_post=traj.equilibrium_post, diverged=False)
                first = int(np.searchsorted(traj.times, traj.step_time))
                eq = traj.equilibrium_post[model.areas:]
                assert (_swing(copy.omega[first:], eq).tobytes()
                        == _swing(traj.omega[first:], eq).tobytes())
                assert self._outcome(copy) == self._outcome(traj)
                labels.add(self._outcome(traj))
        assert len(labels) >= 2

    def test_tie_goes_to_the_first_area(self):
        # area 1 is area 0 run backwards: the same extremes, bit for bit, but
        # growing, so the label tells which area the classifier fitted
        t = np.arange(0.0, 20.0, 0.01)
        decaying = np.exp(-0.5 * t) * np.sin(2.0 * t)
        states = np.column_stack([np.zeros((len(t), 2)), decaying, decaying[::-1]])
        traj = Trajectory(times=t, states=states, step_time=0.0,
                          equilibrium_post=np.zeros(4), diverged=False)
        swing, area = self._axis0_area(traj)
        assert swing[0] == swing[1] and area == 0
        assert classify_trajectory(traj) == "decaying"
        assert classify_trajectory(traj, 1) == "growing"

    @pytest.mark.parametrize("column", [0, 2])
    def test_nan_sample_picks_the_formula_area(self, rng, column):
        model = random_system_model(rng, 3)
        traj = simulate(_ss(model, gain=0.5 * model.gov_proportional[0]),
                        0.01 * model.secure_load, t_step=1.0, t_end=20.0, dt=None)
        states = traj.states.copy()
        states[len(states) // 2, 3 + column] = np.nan
        traj = Trajectory(times=traj.times, states=states, step_time=traj.step_time,
                          equilibrium_post=traj.equilibrium_post, diverged=False)
        swing, area = self._axis0_area(traj)
        assert np.isnan(swing[column]) and area == column
        assert self._outcome(traj) == self._outcome(traj, area)

    def test_agrees_with_eigen_verdict(self, rng):
        agreed = 0
        attempts = 0
        while agreed < 50 and attempts < 400:
            attempts += 1
            model = random_system_model(rng)
            worst = model.vulnerable_load[0] / (2.0 * model.omega_max)
            gain = rng.uniform(0.0, 3.0 * (model.gov_proportional[0] + worst))
            ss = _ss(model, gain=gain)
            eig = eigen_decompose(ss)
            verdict = is_stable(eig)
            dominant = eig.eigenvalues[np.argmax(eig.eigenvalues.real)]
            if abs(verdict.max_real) <= 0.02 or abs(dominant.imag) < 0.3:
                continue
            period = 2.0 * np.pi / abs(dominant.imag)
            lam_max = float(np.abs(eig.eigenvalues).max())
            dt = min(0.01, 1.0 / (12.0 * lam_max))
            t_end = 1.0 + 12.0 * period
            traj = simulate(ss, 0.01 * model.secure_load, t_step=1.0,
                            t_end=t_end, dt=dt)
            try:
                label = classify_trajectory(traj)
            except ClassificationError:
                continue
            if label == "marginal":
                continue
            assert (label == "decaying") == verdict.stable
            agreed += 1
        assert agreed >= 50
