import gc
import re
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from cred import grid
from cred.errors import ConfigurationError
from cred.grid import (
    AttackProfile,
    DroopSchedule,
    SystemModel,
    build_state_space,
)
from cred.scenario import scenario_from_dict
from cred.systems import three_area_system

from oracles import random_system_model


def _models(seed):
    return random_system_model(np.random.RandomState(seed))


class TestLoopBlocksCache:
    """The blocks every loop of a grid shares, kept by the bytes of its dynamics."""

    @staticmethod
    def loop(model):
        n = model.areas
        return build_state_space(model, AttackProfile.none(n), DroopSchedule.none(n))

    def test_reparsed_model_hits(self):
        doc = three_area_system()
        grid._loop_blocks.cache_clear()
        first = self.loop(scenario_from_dict(doc).model)
        again = self.loop(scenario_from_dict(doc).model)
        assert grid._loop_blocks.cache_info()[:2] == (1, 1)  # hits, misses
        assert again.state_matrix.tobytes() == first.state_matrix.tobytes()
        assert again.descriptor_a.tobytes() == first.descriptor_a.tobytes()
        # a load is no dynamics: the next interval's grid hits and gets its own forcing
        doc["areas"][1]["secure_load"] = 3000.0
        loaded = self.loop(scenario_from_dict(doc).model)
        assert grid._loop_blocks.cache_info()[:2] == (2, 1)
        assert loaded.state_matrix.tobytes() == first.state_matrix.tobytes()
        assert not np.array_equal(loaded.forcing, first.forcing)

    @pytest.mark.parametrize("field, value", [
        ("inertia_sg", 6500.0), ("damping", 30.0), ("gov_proportional", 9000.0),
        ("gov_integral", 7000.0)])
    def test_edited_dynamics_miss(self, field, value):
        doc = three_area_system()
        grid._loop_blocks.cache_clear()
        first = self.loop(scenario_from_dict(doc).model)
        doc["areas"][1][field] = value
        edited = self.loop(scenario_from_dict(doc).model)
        assert grid._loop_blocks.cache_info()[:2] == (0, 2)
        assert not np.array_equal(edited.state_matrix, first.state_matrix)

    def test_edited_coupling_misses(self):
        doc = three_area_system()
        grid._loop_blocks.cache_clear()
        first = self.loop(scenario_from_dict(doc).model)
        doc["coupling"][0][2] = doc["coupling"][2][0] = 2500.0
        edited = self.loop(scenario_from_dict(doc).model)
        assert grid._loop_blocks.cache_info()[:2] == (0, 2)
        assert not np.array_equal(edited.state_matrix, first.state_matrix)

    def test_keeps_no_model(self):
        model = scenario_from_dict(three_area_system()).model
        ref = weakref.ref(model)
        grid._loop_blocks.cache_clear()
        self.loop(model)
        del model
        gc.collect()
        assert ref() is None
        assert grid._loop_blocks.cache_info().currsize == 1


class TestBuildStateSpace:
    def test_one_area_no_attack(self, one_area_model):
        ss = build_state_space(one_area_model, AttackProfile.none(1), DroopSchedule.none(1))
        assert ss.state_matrix.tolist() == [[0.0, 1.0], [-5.0, -2.0]]

    def test_one_area_attack_and_droop(self, one_area_model):
        ss = build_state_space(
            one_area_model,
            AttackProfile([3.0], [0.0], (0,)),
            DroopSchedule([2.0], [0.0]),
        )
        # damping entry is K_p + D - K_attack + K_droop = 2 - 3 + 2 = 1
        assert ss.state_matrix.tolist() == [[0.0, 1.0], [-5.0, -1.0]]

    def test_two_symmetric_areas_hand_assembled(self):
        model = SystemModel(
            areas=2,
            inertia_sg=[1.0, 1.0],
            inertia_ibr=[0.0, 0.0],
            damping=[0.0, 0.0],
            gov_integral=[5.0, 5.0],
            gov_proportional=[2.0, 2.0],
            susceptance=[[0.0, 1.0], [1.0, 0.0]],
            secure_load=[1.0, 1.0],
            vulnerable_load=[0.0, 0.0],
            ibr_max_power=[0.0, 0.0],
            omega_max=0.5,
        )
        ss = build_state_space(model, AttackProfile.none(2), DroopSchedule.none(2))
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        # E S = B: the stiffness block of B is the governor's plus the Laplacian
        assert np.array_equal(np.diag(model.gov_integral) + lap,
                              (ss.descriptor_a @ ss.state_matrix)[2:, :2])
        expected = np.array(
            [
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [-6.0, 1.0, -2.0, 0.0],
                [1.0, -6.0, 0.0, -2.0],
            ]
        )
        assert np.array_equal(ss.state_matrix, expected)

    def test_forcing_vector(self, one_area_model):
        droop = DroopSchedule([0.0], [1.5])
        attack = AttackProfile([0.0], [0.5], (0,))
        ss = build_state_space(one_area_model, attack, droop)
        # forcing = [0; -(secure + static - ref)/M] = [0; -(7 + 0.5 - 1.5)]
        assert ss.forcing.tolist() == [0.0, -6.0]

    def test_singular_inertia_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemModel(
                areas=1, inertia_sg=[0.0], inertia_ibr=[0.0], damping=[0.0],
                gov_integral=[5.0], gov_proportional=[2.0], susceptance=[[0.0]],
                secure_load=[1.0], vulnerable_load=[0.0], ibr_max_power=[0.0],
                omega_max=0.5,
            )

    def test_asymmetric_susceptance_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemModel(
                areas=2, inertia_sg=[1.0, 1.0], inertia_ibr=[0.0, 0.0],
                damping=[0.0, 0.0], gov_integral=[5.0, 5.0],
                gov_proportional=[2.0, 2.0], susceptance=[[0.0, 1.0], [2.0, 0.0]],
                secure_load=[1.0, 1.0], vulnerable_load=[0.0, 0.0],
                ibr_max_power=[0.0, 0.0], omega_max=0.5,
            )

    def test_attack_outside_declared_areas_rejected(self):
        with pytest.raises(ConfigurationError):
            AttackProfile([1.0, 0.0], [0.0, 0.0], (1,))

    @pytest.mark.parametrize("edit, message", [
        (dict(areas=0), "areas must be >= 1"),
        (dict(damping=[0.0]), "damping must have shape (2,), got (1,)"),
        (dict(gov_integral=[5.0, 0.0]), "gov_integral must be > 0.0 elementwise"),
        (dict(susceptance=[[0.0, 1.0]]), "susceptance must be 2x2"),
        (dict(susceptance=[[0.0, -1.0], [-1.0, 0.0]]),
         "susceptance entries must be finite and >= 0"),
        (dict(susceptance=[[0.0, 1.0], [2.0, 0.0]]), "susceptance must be symmetric"),
        (dict(susceptance=[[1.0, 1.0], [1.0, 1.0]]), "susceptance diagonal must be zero"),
        (dict(omega_max=float("nan")), "omega_max must be a positive number"),
        (dict(omega_max=0.0), "omega_max must be a positive number"),
    ], ids=["no_areas", "shape", "strict_min", "susceptance_shape", "susceptance_sign",
            "susceptance_symmetry", "susceptance_diagonal", "omega_max_nan", "omega_max_zero"])
    def test_model_check_names_its_field(self, edit, message):
        kw = dict(areas=2, inertia_sg=[1.0, 1.0], inertia_ibr=[0.0, 0.0], damping=[0.0, 0.0],
                  gov_integral=[5.0, 5.0], gov_proportional=[2.0, 2.0],
                  susceptance=[[0.0, 1.0], [1.0, 0.0]], secure_load=[1.0, 1.0],
                  vulnerable_load=[0.0, 0.0], ibr_max_power=[0.0, 0.0], omega_max=0.5)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            SystemModel(**dict(kw, **edit))

    @pytest.mark.parametrize("make, message", [
        (lambda: AttackProfile([1.0, 0.0], [0.0, 0.0], (0, 2)), "attack_areas out of range"),
        (lambda: build_state_space(_models(0), AttackProfile.none(9), DroopSchedule.none(9)),
         "attack/droop dimensioned for a different number of areas"),
    ], ids=["attack_areas", "dimension_mismatch"])
    def test_profile_checks(self, make, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            make()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_structure_rows_identity(self, seed):
        model = _models(seed)
        n = model.areas
        ss = build_state_space(model, AttackProfile.none(n), DroopSchedule.none(n))
        assert np.array_equal(ss.state_matrix[:n, :n], np.zeros((n, n)))
        assert np.array_equal(ss.state_matrix[:n, n:], np.eye(n))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_state_matrix_matches_generalized_pencil(self, seed):
        model = _models(seed)
        n = model.areas
        ss = build_state_space(model, AttackProfile.none(n), DroopSchedule.none(n))
        # the feedback matrix B of E xdot = B x + u, from the model itself
        feedback = np.zeros((2 * n, 2 * n))
        feedback[:n, n:] = np.eye(n)
        feedback[n:, :n] = np.diag(model.gov_integral) + model.coupling_laplacian()
        feedback[n:, n:] = np.diag(model.gov_proportional + model.damping)
        direct = np.linalg.eigvals(ss.state_matrix)
        pencil = sla.eigvals(feedback, ss.descriptor_a)
        for lam in direct:
            assert np.min(np.abs(pencil - lam)) <= 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 5.0))
    def test_attack_droop_cancellation_bit_identical(self, seed, gain):
        model = _models(seed)
        n = model.areas
        areas = tuple(range(n))
        gains = np.full(n, gain)
        cancel = build_state_space(
            model,
            AttackProfile(gains, np.zeros(n), areas),
            DroopSchedule(gains, np.zeros(n)),
        )
        clean = build_state_space(model, AttackProfile.none(n), DroopSchedule.none(n))
        assert np.array_equal(cancel.state_matrix, clean.state_matrix)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([1, 2, 3, 24]))
    def test_matches_fresh_blockwise_assembly(self, seed, n):
        """Every loop of a model equals, bit for bit, its blocks assembled afresh."""

        def fresh(model, attack, droop):
            m_total = model.total_inertia
            minv = 1.0 / m_total
            stiff = np.diag(model.gov_integral) + model.coupling_laplacian()
            damp = model.gov_proportional + model.damping + (droop.droop_gain - attack.dyn_gain)
            descriptor = np.zeros((2 * n, 2 * n))
            descriptor[:n, :n] = np.eye(n)
            descriptor[n:, n:] = -np.diag(m_total)
            state = np.zeros((2 * n, 2 * n))
            state[:n, n:] = np.eye(n)
            state[n:, :n] = -minv[:, None] * stiff
            state[n:, n:] = np.diag(-minv * damp)
            net_load = model.secure_load + attack.static_component - droop.power_ref
            return descriptor, state, np.concatenate([np.zeros(n), -minv * net_load])

        rng = np.random.RandomState(seed)
        model = random_system_model(rng, n)
        built = []
        for _ in range(3):  # the first call builds the model's blocks, the rest reuse them
            areas = tuple(np.flatnonzero(rng.rand(n) < 0.5).tolist())
            gains = np.zeros(n)
            gains[list(areas)] = rng.uniform(0.0, 30.0, len(areas))
            static = np.zeros(n)
            static[list(areas)] = rng.uniform(-1.0, 1.0, len(areas))
            attack = AttackProfile(gains, static, areas)
            droop = DroopSchedule(rng.uniform(0.0, 30.0, n) * (rng.rand(n) < 0.7),
                                  rng.uniform(0.0, 5.0, n))
            ss = build_state_space(model, attack, droop)
            expected = fresh(model, attack, droop)
            for got, want in zip((ss.descriptor_a, ss.state_matrix, ss.forcing), expected):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert not got.flags.writeable
            built.append(ss)
        assert not np.shares_memory(built[0].state_matrix, built[1].state_matrix)
