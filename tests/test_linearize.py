import dataclasses
import gc
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    LOCUS_RTOL,
    assert_loci_close,
    critical_pairs_pointwise,
    exact_locus_pointwise,
    fd_eigen_sensitivity,
    grid_loop,
    net_gain_state_space,
    random_system_model,
    spectral_gaps,
    sweep_segment_table_pointwise,
)

from cred import linearize
from cred.errors import (
    ConfigurationError,
    CoverageError,
    CredError,
    DegenerateEigenvalueError,
    NumericalError,
    TrackingError,
)
from cred.grid import AttackProfile, DroopSchedule, SystemModel
from cred.linearize import (
    BLOCK,
    MAX_GRID_ENTRIES,
    SECULAR_TOL,
    build_segment_table,
    evaluate_piecewise,
    hessenberg_first,
    select_critical_pairs,
    sweep_loci,
)
from cred.scenario import scenario_from_dict
from cred.stability import eigen_decompose, sensitivity
from cred.systems import single_area_toy, three_area_system
from cred.workflow import WorkflowConfig, run_workflow

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def curved_two_area():
    """Two coupled areas whose dominant locus bends within the sweep."""
    return SystemModel(
        areas=2,
        inertia_sg=[2.0, 4.0],
        inertia_ibr=[0.0, 0.0],
        damping=[0.05, 0.05],
        gov_integral=[6.0, 5.0],
        gov_proportional=[3.0, 2.0],
        susceptance=[[0.0, 2.0], [2.0, 0.0]],
        secure_load=[2.0, 2.0],
        vulnerable_load=[1.0, 2.0],
        ibr_max_power=[0.0, 3.0],
        omega_max=0.25,
    )


def resweep_max_error(model, table):
    """Independent audit: fresh eigenvalues on the grid vs the final table."""
    lam_prev = table.base_eigenvalue
    worst = 0.0
    for k in table.grid_abscissas:
        spectrum = np.linalg.eigvals(net_gain_state_space(model, table.area, k).state_matrix)
        lam_true = spectrum[np.argmin(np.abs(spectrum - lam_prev))]
        est = table.base_eigenvalue + evaluate_piecewise(table, float(k))
        worst = max(worst, abs(lam_true.real - est.real))
        lam_prev = lam_true
    return worst


class TestBuildSegmentTable:
    def test_exactly_linear_single_point(self, one_area_model):
        # Re(lambda) = -(2 - k)/2 while the pair stays complex: one anchor
        tab = build_segment_table(sweep_loci(one_area_model, 0, 4.0, 0.05), 1, 0.05)
        assert len(tab.points) == 1
        assert tab.points[0].abscissa == 0.0
        assert tab.points[0].slope.real == pytest.approx(0.5, abs=1e-10)
        assert tab.max_error <= 1e-10

    def test_vanishing_tolerance_anchors_every_step(self, curved_two_area):
        # any genuine curvature beats a near-zero tolerance at each step
        tab = build_segment_table(sweep_loci(curved_two_area, 1, 8.0, 0.1), 0, 1e-13)
        assert len(tab.points) == int(np.ceil(8.0 / 0.1)) + 1

    def test_curved_case_multiple_points_bounded_error(self, curved_two_area):
        tab = build_segment_table(sweep_loci(curved_two_area, 1, 8.0, 0.04), 0, 0.02)
        assert len(tab.points) >= 2
        assert tab.max_error <= 0.02
        assert resweep_max_error(curved_two_area, tab) <= 0.02 + 1e-9

    def test_base_point_matches_base_system(self, curved_two_area, one_area_ss):
        tab = build_segment_table(sweep_loci(curved_two_area, 1, 6.0, 0.03), 2, 0.02)
        from cred.stability import eigen_decompose, sensitivity

        eig0 = eigen_decompose(net_gain_state_space(curved_two_area, 1, 0.0))
        assert tab.points[0].eigenvalue == eig0.eigenvalues[2]
        assert tab.base_eigenvalue == eig0.eigenvalues[2]

    def test_abscissas_strictly_monotone(self, curved_two_area):
        tab = build_segment_table(sweep_loci(curved_two_area, 1, 8.0, 0.04), 0, 0.005)
        phis = tab.abscissas
        assert np.all(np.diff(phis) > 0)

    def test_refinement_monotonicity(self, curved_two_area):
        counts = []
        for eps in (0.04, 0.02, 0.01, 0.005):
            tab = build_segment_table(sweep_loci(curved_two_area, 1, 8.0, 0.04), 0, eps)
            counts.append(len(tab.points))
        assert counts == sorted(counts)

    def test_step_too_coarse_rejected(self, one_area_model):
        with pytest.raises(ConfigurationError):
            build_segment_table(sweep_loci(one_area_model, 0, 4.0, 1.5), 1, 0.05)

    def test_bad_tolerance_rejected(self, one_area_model):
        with pytest.raises(ConfigurationError):
            build_segment_table(sweep_loci(one_area_model, 0, 4.0, 0.05), 1, 0.0)

    @pytest.mark.parametrize("eigen_index", [-1, 2])
    def test_eigen_index_out_of_range_rejected(self, one_area_model, eigen_index):
        sweep = sweep_loci(one_area_model, 0, 4.0, 0.05)
        with pytest.raises(ConfigurationError) as info:
            build_segment_table(sweep, eigen_index, 0.05)
        assert str(info.value) == f"eigen index {eigen_index} out of range"


#: anchor slopes from the base pole-residue form against a fresh decomposition
#: per anchor (relative), and the grid errors the two tables read (absolute)
SLOPE_RTOL = 1e-9
ERROR_ATOL = 1e-10


def assert_matches_pointwise(model, eigen_index, area, range_end, eps_lim, eps_phi):
    """The table agrees with the per-point reference sweep, or both raise the same type.

    The swept locus equals the reduced-form per-point locus bit for bit and
    the dense one within LOCUS_RTOL.  Grid abscissas and anchor abscissas
    are equal, anchor eigenvalues agree within LOCUS_RTOL, slopes within
    SLOPE_RTOL and grid errors within ERROR_ATOL.  Where the anchor lists
    part, the table that does not anchor at that grid point misses the
    locus there by at least eps_lim - ERROR_ATOL, and nothing past that
    point is compared.
    """
    try:
        points, abscissas, errors = sweep_segment_table_pointwise(
            model, eigen_index, area, range_end, eps_lim, eps_phi)
    except CredError as exc:
        with pytest.raises(type(exc)):
            build_segment_table(sweep_loci(model, area, range_end, eps_phi), eigen_index, eps_lim)
        return None
    sweep = sweep_loci(model, area, range_end, eps_phi)
    locus = sweep.loci[:, eigen_index]
    assert np.array_equal(locus, exact_locus_pointwise(model, eigen_index, area, range_end,
                                                       eps_phi, reduced=True))
    assert_loci_close(locus, exact_locus_pointwise(model, eigen_index, area, range_end, eps_phi))
    tab = build_segment_table(sweep, eigen_index, eps_lim)
    assert np.array_equal(tab.grid_abscissas, abscissas)
    same = 0
    for ours, theirs in zip(tab.points, points):
        if ours.abscissa != theirs.abscissa:
            break
        gap = abs(ours.eigenvalue - theirs.eigenvalue)
        assert gap <= LOCUS_RTOL * max(1.0, abs(theirs.eigenvalue))
        assert abs(ours.slope - theirs.slope) <= SLOPE_RTOL * abs(theirs.slope)
        same += 1
    if same == len(tab.points) == len(points):
        assert np.abs(tab.grid_errors - errors).max() <= ERROR_ATOL
        return tab
    # the anchor lists part at the first grid point where only one table anchors
    parted = min(t[same].abscissa for t in (tab.points, points) if len(t) > same)
    g = int(np.flatnonzero(abscissas == parted)[0])
    assert np.abs(tab.grid_errors[:g] - errors[:g]).max(initial=0.0) <= ERROR_ATOL
    assert max(tab.grid_errors[g], errors[g]) >= eps_lim - ERROR_ATOL
    return tab


class TestStackedSweep:
    """Grid spectra from stacked eigensolves equal a fresh solve per point."""

    @settings(max_examples=60)
    @given(data=st.data(), seed=st.integers(0, 2**31 - 1), n_areas=st.integers(1, 3),
           magnitude=st.floats(0.5, 20.0), steps=st.integers(4, 300),
           divides=st.booleans(), eps_lim=st.floats(1e-4, 0.1))
    def test_matches_pointwise_sweep(self, data, seed, n_areas, magnitude, steps, divides,
                                     eps_lim):
        model = random_system_model(np.random.RandomState(seed), n_areas)
        eigen_index = data.draw(st.integers(0, 2 * n_areas - 1), label="eigen_index")
        area = data.draw(st.integers(0, n_areas - 1), label="area")
        eps_phi = magnitude / (steps if divides else steps + 0.37)
        assert_matches_pointwise(model, eigen_index, area, magnitude, eps_lim, eps_phi)

    @pytest.mark.parametrize("seed, n_areas, eigen_index, area, range_end, eps_lim, steps", [
        (2129335774, 3, 5, 1, 18.0, 0.1, 150),
        (73165354, 2, 2, 0, 40.0, 0.09, 30),
    ])
    def test_tracking_failure_matches_pointwise(self, seed, n_areas, eigen_index, area,
                                                range_end, eps_lim, steps):
        model = random_system_model(np.random.RandomState(seed), n_areas)
        eps_phi = range_end / steps
        with pytest.raises(TrackingError):
            sweep_segment_table_pointwise(model, eigen_index, area, range_end, eps_lim, eps_phi)
        assert_matches_pointwise(model, eigen_index, area, range_end, eps_lim, eps_phi) is None

    def test_grid_spanning_several_blocks(self, curved_two_area):
        tab = assert_matches_pointwise(curved_two_area, 0, 1, 8.0, 1e-4, 8.0 / 600)
        assert len(tab.grid_abscissas) > 2 * BLOCK
        blocks = {int(np.flatnonzero(tab.grid_abscissas == p.abscissa)[0]) // BLOCK
                  for p in tab.points[1:]}
        assert blocks == {0, 1, 2}

    @pytest.mark.parametrize("steps", [200, 600])
    def test_state_spaces_only_at_anchors(self, desk_bundle, monkeypatch, steps):
        rep = run_workflow(WorkflowConfig(mode="worst_case"), bundle=desk_bundle)
        assert rep.pairs
        built, decomposed, solves, anchors = [], [], [], 0
        original_state_space, original_eigvals = linearize.build_state_space, np.linalg.eigvals
        original_decompose = linearize.eigen_decompose

        def counting_state_space(model, attack, droop):
            built.append((attack, droop))
            return original_state_space(model, attack, droop)

        def counting_decompose(ss):
            decomposed.append(ss)
            return original_decompose(ss)

        def counting_eigvals(a):
            solves.append(a.shape[0])
            return original_eigvals(a)

        monkeypatch.setattr(linearize, "build_state_space", counting_state_space)
        monkeypatch.setattr(linearize, "eigen_decompose", counting_decompose)
        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        for i, n in rep.pairs:
            gain = rep.robust_gains[n]
            built.clear()
            decomposed.clear()
            solves.clear()
            linearize._sweep_base.cache_clear()
            tab = build_segment_table(sweep_loci(desk_bundle.model, n, gain, gain / steps), i,
                                      0.02)
            # one state space and decomposition per cold sweep, the base's; none per anchor
            n = desk_bundle.model.areas
            assert built == [(AttackProfile.none(n), DroopSchedule.none(n))]
            assert len(decomposed) == 1
            anchors += len(tab.points) - 1
            grid = len(tab.grid_abscissas)
            assert len(solves) == math.ceil(grid / BLOCK)
            assert sum(solves) == grid
        assert anchors > 0

    def test_solver_failure_is_typed(self, curved_two_area, monkeypatch):
        original, calls = np.linalg.eigvals, []

        def failing_second_block(a):
            calls.append(a)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return original(a)

        monkeypatch.setattr(np.linalg, "eigvals", failing_second_block)
        step = 8.0 / 600
        with pytest.raises(NumericalError) as info:
            build_segment_table(sweep_loci(curved_two_area, 1, 8.0, step), 0, 0.02)
        message = str(info.value)
        assert "area 1" in message
        assert f"[{step * (BLOCK + 1):g}, {step * 2 * BLOCK:g}]" in message
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def ring_model():
    """The 24-area ring of ring_tables seed 0, op 2 (48 states)."""
    return scenario_from_dict(json.loads((FIXTURES / "ring_seed0_op2.json").read_text())).model


def permuted(s, row):
    """s with row and column `row` moved first, the others kept in order."""
    order = [row] + [i for i in range(len(s)) if i != row]
    return s[np.ix_(order, order)]


def similarity_residual(s, row, h):
    """||Q^T P s P^T Q - h||_F, with Q the orthogonal factor that reduces P s P^T to h.

    Q is scipy.linalg.hessenberg's, which also fixes e_0; by the implicit Q
    theorem (Golub & Van Loan, Matrix Computations, Sec. 7.4.5) an
    unreduced h fixes Q up to the signs of its columns, matched here to
    h's subdiagonal.
    """
    a = permuted(s, row)
    ref, q = sla.hessenberg(a, calc_q=True)
    signs = np.cumprod(np.r_[1.0, np.sign(np.diag(h, -1) / np.diag(ref, -1))])
    q = q * signs
    return np.linalg.norm(q.T @ a @ q - h)


#: orthogonal-similarity residual of hessenberg_first, relative to ||s||_F
HESSENBERG_RTOL = 1e-14


class TestHessenbergFirst:
    """The sweep's once-per-sweep reduction of the base loop."""

    @pytest.mark.parametrize("seed, n_areas", [(None, 3)] + [(s, 1 + s % 4) for s in range(24)])
    def test_orthogonal_reduction_keeps_the_damping_entry(self, desk_bundle, seed, n_areas):
        model = (desk_bundle.model if seed is None
                 else random_system_model(np.random.RandomState(seed), n_areas))
        for area in range(model.areas):
            s = net_gain_state_space(model, area, 0.0).state_matrix
            row = model.areas + area
            h = hessenberg_first(s, row)
            assert not np.tril(h, -2).any()  # exact zeros
            assert h[0, 0].tobytes() == s[row, row].tobytes()
            assert similarity_residual(s, row, h) <= HESSENBERG_RTOL * np.linalg.norm(s)

    def test_ring_form(self):
        # at 48 states the reduced form is sensitive to rounding (it lies about
        # 1e-12 from scipy's), so similarity_residual cannot resolve
        # HESSENBERG_RTOL; the ring is checked for its form and for its norm,
        # which an orthogonal similarity keeps
        model = ring_model()
        s = net_gain_state_space(model, 3, 0.0).state_matrix
        h = hessenberg_first(s, model.areas + 3)
        assert not np.tril(h, -2).any()
        assert h[0, 0].tobytes() == s[model.areas + 3, model.areas + 3].tobytes()
        assert abs(np.linalg.norm(h) - np.linalg.norm(s)) <= HESSENBERG_RTOL * np.linalg.norm(s)

    @pytest.mark.parametrize("row", [0, 1])
    def test_one_area_needs_no_reflector(self, one_area_model, row):
        s = net_gain_state_space(one_area_model, 0, 0.0).state_matrix
        assert np.array_equal(hessenberg_first(s, row), permuted(s, row))

    def test_reduced_column_is_skipped(self):
        rng = np.random.RandomState(7)
        a = rng.standard_normal((5, 5))
        a[2:, 0] = 0.0  # column 0 is already zero below its subdiagonal
        h = hessenberg_first(a, 0)
        assert np.array_equal(h[:, 0], a[:, 0])
        assert not np.tril(h, -2).any()
        assert similarity_residual(a, 0, h) <= HESSENBERG_RTOL * np.linalg.norm(a)
        # an upper Hessenberg input skips every column and comes back as it was
        hess = np.triu(a, -1)
        assert np.array_equal(hessenberg_first(hess, 0), hess)

    @pytest.mark.parametrize("which, area", [("desk", 1), ("ring", 3)])
    def test_stack_first_entry_is_the_state_matrix_entry(self, desk_bundle, monkeypatch,
                                                         which, area):
        model = desk_bundle.model if which == "desk" else ring_model()
        original, stacks = np.linalg.eigvals, []

        def keeping_eigvals(a):
            stacks.append(a.copy())
            return original(a)

        monkeypatch.setattr(np.linalg, "eigvals", keeping_eigvals)
        sweep = sweep_loci(model, area, 5.0)
        monkeypatch.undo()
        row = model.areas + area
        h0 = hessenberg_first(net_gain_state_space(model, area, 0.0).state_matrix, row)
        (stack,) = stacks
        assert stack[:, 0, 0].tobytes() == np.array(
            [net_gain_state_space(model, area, k).state_matrix[row, row]
             for k in sweep.grid]).tobytes()
        rest = stack.copy()
        rest[:, 0, 0] = h0[0, 0]
        assert (rest == h0).all()


class TestSweepRange:
    """A range or step that no grid can cover is an input error, raised before any work."""

    @pytest.mark.parametrize("range_end, eps_phi, message", [
        (math.inf, None, "range_end must be positive and finite, not inf"),
        (-math.inf, None, "range_end must be positive and finite, not -inf"),
        (math.nan, None, "range_end must be positive and finite, not nan"),
        (math.inf, 1.0, "range_end must be positive and finite, not inf"),
        (0.0, None, "range_end must be positive and finite, not 0.0"),
        (-1.0, 0.01, "range_end must be positive and finite, not -1.0"),
        (1e308, 1e-300, "grid points of 6 states exceeds"),
        (1.0, 5.9 / MAX_GRID_ENTRIES, "grid points of 6 states exceeds"),
        (1.0, 0.0, "eps_phi must be > 0"),
        (1.0, math.nan, "eps_phi must be > 0"),
    ])
    def test_typed_error_before_the_base_loop(self, desk_bundle, monkeypatch, range_end,
                                               eps_phi, message):
        def no_base(*args):
            raise AssertionError("the sweep built its base loop")

        monkeypatch.setattr(linearize, "build_state_space", no_base)
        with pytest.raises(ConfigurationError, match=message):
            sweep_loci(desk_bundle.model, 1, range_end, eps_phi)


def sweep_bytes(sweep):
    """Every field of a LocusSweep, its arrays as bytes."""
    return [v.tobytes() if isinstance(v, np.ndarray) else v
            for v in dataclasses.astuple(sweep)]


def counting_base_work(monkeypatch):
    """Record each eigen_decompose and hessenberg_first call the sweep makes."""
    calls = []
    for name in ("eigen_decompose", "hessenberg_first"):
        def wrapper(*args, _real=getattr(linearize, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(linearize, name, wrapper)
    return calls


class TestSweepBaseCache:
    """The zero-gain loop's decomposition, verdict and reduction, shared by content."""

    @pytest.mark.parametrize("which, area, range_end", [
        ("desk", 1, 5.0), ("desk", 0, 3.0), ("ring", 3, 5.0)])
    def test_hit_equals_a_cold_sweep(self, which, area, range_end):
        model = scenario_from_dict(three_area_system()).model if which == "desk" else ring_model()
        linearize._sweep_base.cache_clear()
        sweep_loci(model, area, range_end)
        hit = sweep_loci(model, area, range_end)
        assert linearize._sweep_base.cache_info().hits == 1
        linearize._sweep_base.cache_clear()
        cold = sweep_loci(model, area, range_end)
        assert sweep_bytes(hit) == sweep_bytes(cold)
        assert hit.residues is not cold.residues  # sensitivity runs on every sweep

    def test_second_parse_does_no_base_work(self, monkeypatch):
        doc = three_area_system()
        linearize._sweep_base.cache_clear()
        first = sweep_loci(scenario_from_dict(doc).model, 1, 5.0)
        calls = counting_base_work(monkeypatch)
        again = sweep_loci(scenario_from_dict(doc).model, 1, 5.0)
        assert calls == []
        assert sweep_bytes(again) == sweep_bytes(first)
        # another area of the same grid is another row, so another reduction
        sweep_loci(scenario_from_dict(doc).model, 0, 5.0)
        assert calls == ["eigen_decompose", "hessenberg_first"]

    @pytest.mark.parametrize("field, value", [("damping", 30.0), ("inertia_sg", 6500.0)])
    def test_edited_dynamics_miss(self, monkeypatch, field, value):
        doc = three_area_system()
        linearize._sweep_base.cache_clear()
        first = sweep_loci(scenario_from_dict(doc).model, 1, 5.0)
        doc["areas"][1][field] = value
        calls = counting_base_work(monkeypatch)
        edited = sweep_loci(scenario_from_dict(doc).model, 1, 5.0)
        assert calls == ["eigen_decompose", "hessenberg_first"]
        assert not np.array_equal(edited.loci, first.loci)
        assert not np.array_equal(edited.base_eigenvalues, first.base_eigenvalues)

    def test_unstable_base_raises_on_a_hit(self):
        doc = single_area_toy()
        doc["areas"][0].update(gov_proportional=0.0, damping=0.0, vulnerable_load=0.0)
        model = scenario_from_dict(doc).model
        linearize._sweep_base.cache_clear()
        for hits in (0, 1):
            with pytest.raises(ConfigurationError, match="^base system is unstable; cannot "
                                                         "anchor the sweep at 0$"):
                sweep_loci(model, 0, 1.0)
            assert linearize._sweep_base.cache_info().hits == hits

    def test_failed_decomposition_is_not_kept(self, desk_bundle, monkeypatch):
        real, calls = linearize.eigen_decompose, []

        def failing_first(ss):
            calls.append(ss)
            if len(calls) == 1:
                raise NumericalError("eigen solver failed")
            return real(ss)

        monkeypatch.setattr(linearize, "eigen_decompose", failing_first)
        linearize._sweep_base.cache_clear()
        with pytest.raises(NumericalError, match="^eigen solver failed$"):
            sweep_loci(desk_bundle.model, 1, 5.0)
        sweep_loci(desk_bundle.model, 1, 5.0)
        assert len(calls) == 2
        assert linearize._sweep_base.cache_info().currsize == 1

    def test_keeps_no_model(self):
        model = scenario_from_dict(three_area_system()).model
        ref = weakref.ref(model)
        linearize._sweep_base.cache_clear()
        sweep = sweep_loci(model, 1, 5.0)
        del model, sweep
        gc.collect()
        assert ref() is None
        assert linearize._sweep_base.cache_info().currsize == 1


class TestRankOneAnchors:
    """Anchor slopes from the base pole-residue form, and its two guards."""

    @settings(max_examples=40)
    @given(data=st.data(), seed=st.integers(0, 2**31 - 1), n_areas=st.integers(1, 3),
           magnitude=st.floats(0.5, 20.0), steps=st.integers(20, 200),
           eps_lim=st.floats(1e-3, 0.05))
    def test_slopes_match_fresh_decomposition(self, data, seed, n_areas, magnitude, steps,
                                              eps_lim):
        model = random_system_model(np.random.RandomState(seed), n_areas)
        eigen_index = data.draw(st.integers(0, 2 * n_areas - 1), label="eigen_index")
        area = data.draw(st.integers(0, n_areas - 1), label="area")
        try:
            tab = build_segment_table(sweep_loci(model, area, magnitude, magnitude / steps),
                                      eigen_index, eps_lim)
        except (TrackingError, DegenerateEigenvalueError):
            return  # contracts tested elsewhere
        for p in tab.points:
            ss = net_gain_state_space(model, area, p.abscissa)
            eig = eigen_decompose(ss)
            idx = int(np.argmin(np.abs(eig.eigenvalues - p.eigenvalue)))
            assert abs(eig.eigenvalues[idx] - p.eigenvalue) <= 1e-12 * max(abs(p.eigenvalue), 1.0)
            slope = sensitivity(model, eig, area)[idx]
            assert abs(p.slope - slope) <= SLOPE_RTOL * abs(p.slope)
            if spectral_gaps(eig.eigenvalues)[idx] >= 1e-3:  # FD blurs near a collision
                fd = fd_eigen_sensitivity(model, p.eigenvalue, area, at=p.abscissa)
                assert abs(p.slope - fd) <= 1e-4 * max(abs(fd), 1e-5)

    def test_collision_at_an_anchor_is_degenerate(self, curved_two_area):
        # modes 0 and 1 meet on the real axis as the attack on area 0 takes
        # out damping, near k = 10.97: bisect to the last float before their
        # split and end the sweep there
        def split(k):
            ss = net_gain_state_space(curved_two_area, 0, k)
            return np.count_nonzero(np.linalg.eigvals(ss.state_matrix).imag == 0.0) > 0

        lo, hi = 10.9, 11.0
        assert not split(lo) and split(hi)
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (lo, mid) if split(mid) else (mid, hi)
        sweep = sweep_loci(curved_two_area, 0, lo, lo / 50)
        # a vanishing tolerance anchors every grid point, the collision too
        with pytest.raises(DegenerateEigenvalueError,
                           match=rf"^at abscissa {lo:g}: eigenvalue .* is repeated within "):
            build_segment_table(sweep, 1, 1e-13)
        with pytest.raises(DegenerateEigenvalueError):
            sweep_segment_table_pointwise(curved_two_area, 1, 0, lo, 1e-13, lo / 50)
        # a tolerance that anchors short of it builds the table
        tab = build_segment_table(sweep, 1, 1e-3)
        assert len(tab.points) > 1 and tab.points[-1].abscissa != lo

    def test_secular_residual_is_checked(self, curved_two_area):
        sweep = sweep_loci(curved_two_area, 1, 8.0, 0.04)
        tab = build_segment_table(sweep, 0, 0.02)
        assert len(tab.points) > 1
        # the other poles' residues off by 1e-6 leave the base slope and the
        # first anchor's place, and put the secular equation out by about 1e-6
        scale = np.full(len(sweep.residues), 1.0 + 1e-6)
        scale[0] = 1.0
        bent = dataclasses.replace(sweep, residues=sweep.residues * scale)
        with pytest.raises(NumericalError, match=(
                rf"^area 1: secular residual \S+ at abscissa {tab.points[1].abscissa:g} "
                rf"exceeds {SECULAR_TOL:g}$")):
            build_segment_table(bent, 0, 0.02)


class TestEvaluatePiecewise:
    def test_single_point_shift(self, one_area_model):
        tab = build_segment_table(sweep_loci(one_area_model, 0, 4.0, 0.05), 1, 0.05)
        shift = evaluate_piecewise(tab, 2.0)
        assert abs(shift - (1.0 + 0.5j)) <= 1e-9

    def test_zero_gain_zero_shift(self, curved_two_area):
        tab = build_segment_table(sweep_loci(curved_two_area, 1, 8.0, 0.04), 0, 0.02)
        assert evaluate_piecewise(tab, 0.0) == 0.0

    def test_boundary_belongs_to_its_anchor(self, curved_two_area):
        tab = build_segment_table(sweep_loci(curved_two_area, 1, 8.0, 0.04), 0, 0.02)
        assert len(tab.points) >= 2
        second = tab.points[1]
        shift = evaluate_piecewise(tab, second.abscissa)
        assert shift == second.eigenvalue - tab.base_eigenvalue

    def test_round_off_below_an_anchor_belongs_to_it(self):
        # a solver held this net gain in the second segment, 3e-16 below its anchor
        anchor = 1.98738987455449
        base = complex(-1.0, 2.0)
        tab = linearize.SegmentTable(
            0, 1, (linearize.LinearizationPoint(0.0, base, 2.0 + 0j),
                   linearize.LinearizationPoint(anchor, base + 0.5, -1.0 + 0j)),
            3.0, base, np.zeros(0), np.zeros(0))
        k = anchor - 3e-16
        assert k < anchor
        assert evaluate_piecewise(tab, k) == pytest.approx(0.5, abs=1e-12)
        # a genuine gap below the anchor stays in the first segment
        assert evaluate_piecewise(tab, anchor - 1e-6) == pytest.approx(2.0 * (anchor - 1e-6))

    def test_anchor_consistency_everywhere(self, curved_two_area):
        tab = build_segment_table(sweep_loci(curved_two_area, 1, 8.0, 0.04), 0, 0.005)
        for p in tab.points:
            assert evaluate_piecewise(tab, p.abscissa) == p.eigenvalue - tab.base_eigenvalue

    def test_single_point_equals_first_order_estimate(self, one_area_model):
        tab = build_segment_table(sweep_loci(one_area_model, 0, 4.0, 0.05), 1, 0.05)
        for k in (0.0, 0.7, 1.3, 3.9):
            assert evaluate_piecewise(tab, k) == tab.points[0].slope * k

    def test_outside_range_rejected(self, one_area_model):
        tab = build_segment_table(sweep_loci(one_area_model, 0, 4.0, 0.05), 1, 0.05)
        with pytest.raises(CoverageError):
            evaluate_piecewise(tab, 4.5)
        with pytest.raises(CoverageError):
            evaluate_piecewise(tab, -0.5)


def screen(model, range_end: dict, settle_margin: float) -> tuple:
    sweeps = tuple(sweep_loci(model, a, end) for a, end in range_end.items())
    return select_critical_pairs(sweeps, settle_margin)


@pytest.fixture
def symmetric_two_area():
    return SystemModel(
        areas=2, inertia_sg=[2.0, 2.0], inertia_ibr=[0.0, 0.0],
        damping=[0.0, 0.0], gov_integral=[6.0, 6.0],
        gov_proportional=[2.0, 2.0], susceptance=[[0.0, 2.0], [2.0, 0.0]],
        secure_load=[2.0, 2.0], vulnerable_load=[2.0, 2.0],
        ibr_max_power=[1.0, 1.0], omega_max=0.25,
    )


def far_left_model():
    return SystemModel(
        areas=1, inertia_sg=[0.1], inertia_ibr=[0.0], damping=[0.0],
        gov_integral=[2500.0], gov_proportional=[10.0], susceptance=[[0.0]],
        secure_load=[1.0], vulnerable_load=[0.5], ibr_max_power=[0.0],
        omega_max=0.5,
    )


class TestSelectCriticalPairs:
    """The screen keeps exactly the pairs whose exact loci reach -settle_margin."""

    def test_one_area_selected_with_conjugate_dropped(self, one_area_model):
        # Re(lambda) = -(2 - k)/2 reaches 1 at k = 4: only the +2j member is kept
        pairs = screen(one_area_model, {0: 4.0}, 0.0)
        assert pairs == ((1, 0),) == critical_pairs_pointwise(one_area_model, {0: 4.0}, 0.0)
        # the locus ends at Re 1, below the 1.5 it would need to come close enough
        assert screen(one_area_model, {0: 1.0}, 0.0) == ()

    def test_unattacked_area_yields_no_pairs(self, curved_two_area):
        pairs = screen(curved_two_area, {1: 6.0}, 0.05)
        assert pairs
        assert all(n == 1 for _, n in pairs)
        assert pairs == critical_pairs_pointwise(curved_two_area, {1: 6.0}, 0.05)

    def test_joint_shift_across_areas_selects_both(self, symmetric_two_area):
        model = symmetric_two_area
        eig0 = eigen_decompose(net_gain_state_space(model, 0, 0.0))
        i = int(np.argmax(eig0.eigenvalues.imag))  # the mode whose locus bends least
        dist = -eig0.eigenvalues[i].real
        # size each range so one area alone lifts the exact locus 0.7 of the
        # way to the axis (bisection on the rise): only the superposed rise
        # reaches it
        ranges = {}
        for n in (0, 1):
            lo, hi = 0.1, 16.0
            for _ in range(20):
                mid = 0.5 * (lo + hi)
                rise = exact_locus_pointwise(model, i, n, mid, mid / 200.0).real.max() + dist
                lo, hi = (mid, hi) if rise < 0.7 * dist else (lo, mid)
            ranges[n] = lo
            assert screen(model, {n: lo}, 0.0) == ()
        pairs = screen(model, ranges, 0.0)
        assert (i, 0) in pairs and (i, 1) in pairs
        assert pairs == critical_pairs_pointwise(model, ranges, 0.0)

    def test_far_left_mode_excluded(self):
        # Re(lambda0) = -50 with a rise of about 2 over the range 0.4
        model = far_left_model()
        assert screen(model, {0: 0.4}, 0.0) == () == critical_pairs_pointwise(model, {0: 0.4}, 0.0)

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**31 - 1), n_areas=st.integers(1, 3), data=st.data(),
           margin=st.floats(0.0, 0.5))
    def test_matches_pointwise_loci(self, seed, n_areas, data, margin):
        model = random_system_model(np.random.RandomState(seed), n_areas)
        areas = data.draw(st.sets(st.integers(0, n_areas - 1), min_size=1), label="areas")
        ends = {a: data.draw(st.floats(0.5, 20.0), label=f"end {a}") for a in sorted(areas)}
        try:
            pairs = screen(model, ends, margin)
        except TrackingError:
            return  # a lost branch; its contract is tested below
        assert pairs == critical_pairs_pointwise(model, ends, margin)

    def test_lost_branch_raises(self, one_area_model):
        sweep = sweep_loci(one_area_model, 0, 4.0)
        # every locus stuck at its base value: the end spectrum's Re 1 lies on none
        stuck = dataclasses.replace(sweep, loci=np.broadcast_to(
            sweep.base_eigenvalues, sweep.loci.shape))
        with pytest.raises(TrackingError, match=r"area 0: .* at abscissa 4\b"):
            select_critical_pairs((stuck,), 0.05)
        assert select_critical_pairs((sweep,), 0.05) == ((1, 0),)
        # an end spectrum left of -settle_margin needs no locus to reach it
        assert select_critical_pairs((sweep_loci(one_area_model, 0, 1.0),), 0.05) == ()

    def test_sweep_tracks_every_base_eigenvalue(self, curved_two_area):
        sweep = sweep_loci(curved_two_area, 1, 6.0)
        assert sweep.step == 6.0 / 200.0
        assert sweep.grid[-1] == 6.0 and len(sweep.grid) == 200
        for i in range(len(sweep.base_eigenvalues)):
            assert np.array_equal(sweep.loci[:, i], exact_locus_pointwise(
                curved_two_area, i, 1, 6.0, sweep.step, reduced=True))
            assert_loci_close(sweep.loci[:, i],
                              exact_locus_pointwise(curved_two_area, i, 1, 6.0, sweep.step))
        assert np.array_equal(sweep.spectra[-1],
                              np.linalg.eigvals(grid_loop(curved_two_area, 1, 6.0, reduced=True)))
        assert_loci_close(np.sort_complex(sweep.spectra[-1]), np.sort_complex(
            np.linalg.eigvals(net_gain_state_space(curved_two_area, 1, 6.0).state_matrix)))


class TestSplitPairTracking:
    """Where a conjugate pair splits on the real axis, nearest match is not one-to-one.

    On the desk loop, mode 5 and its conjugate (mode 4) meet the real axis
    near net gain 26.8 in area 1; past that point both follow the slower
    real branch and the faster one lies on no locus.
    """

    @pytest.mark.parametrize("steps", [200, 600])
    def test_loci_equal_pointwise_tracking(self, desk_bundle, steps):
        model = desk_bundle.model
        sweep = sweep_loci(model, 1, 30.0, 30.0 / steps)
        if steps == 600:
            assert len(sweep.grid) > 2 * BLOCK
        merged, previous = [], sweep.base_eigenvalues
        for g, k in enumerate(sweep.grid):
            spectrum = np.linalg.eigvals(net_gain_state_space(model, 1, k).state_matrix)
            step_map = np.argmin(np.abs(spectrum - previous[:, None]), axis=1)
            if len(np.unique(step_map)) < len(step_map):
                merged.append(g)
            previous = spectrum
        assert merged
        assert 26.5 < sweep.grid[merged[0]] < 27.0
        assert sweep.loci[-1, 4] == sweep.loci[-1, 5]
        assert sweep.loci[-1, 5].imag == 0.0
        assert sweep.spectra[-1].real.max() > sweep.loci[-1].real.max()
        for i in range(len(sweep.base_eigenvalues)):
            assert np.array_equal(sweep.loci[:, i],
                                  exact_locus_pointwise(model, i, 1, 30.0, sweep.step, reduced=True))
            assert_loci_close(sweep.loci[:, i], exact_locus_pointwise(model, i, 1, 30.0, sweep.step))
