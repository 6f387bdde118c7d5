import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cred.errors import ContractError, InsufficientDataError
from cred.uncertainty import (
    AttackEstimate,
    apply_budget_clamp,
    k_eta,
    moments_from_samples,
    robust_gain,
    worst_case_gain,
)

from oracles import random_system_model


class TestMoments:
    def test_hand_arithmetic(self):
        est = moments_from_samples({0: [1.0, 2.0, 3.0]}, 1)
        assert est.mean[0] == pytest.approx(2.0)
        assert est.std[0] == pytest.approx(1.0)  # n-1 denominator
        assert est.sample_count[0] == 3

    def test_constant_samples(self):
        est = moments_from_samples({0: [5.0, 5.0, 5.0, 5.0]}, 1)
        assert est.mean[0] == 5.0
        assert est.std[0] == 0.0

    def test_monte_carlo_regeneration(self):
        mean, std, n = 17.59, 0.48, 1000
        rng = np.random.RandomState(42)
        est = moments_from_samples({1: rng.normal(mean, std, n).tolist()}, 2)
        assert abs(est.mean[1] - mean) <= 3 * std / math.sqrt(n)
        assert abs(est.std[1] - std) <= 3 * std / math.sqrt(2 * (n - 1))
        assert est.mean[0] == 0.0 and est.std[0] == 0.0

    def test_too_few_samples_rejected(self):
        with pytest.raises(InsufficientDataError):
            moments_from_samples({0: [1.0]}, 1)


@pytest.mark.parametrize("make, message", [
    (lambda: AttackEstimate([1.0, 2.0], [0.1], [3, 3]),
     "mean, std and sample_count must share a shape"),
    (lambda: AttackEstimate([1.0], [-0.1], [3]), "std must be >= 0"),
    (lambda: moments_from_samples({2: [1.0, 2.0]}, 2), "sample area 2 out of range"),
], ids=["shape", "negative_std", "sample_area"])
def test_each_contract_check_names_its_fault(make, message):
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        make()


class TestKEta:
    def test_half_is_exactly_one(self):
        assert k_eta(0.5) == 1.0

    def test_ninety_five(self):
        assert abs(k_eta(0.95) - math.sqrt(19.0)) <= 1e-12

    def test_open_interval_enforced(self):
        for eta in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ContractError):
                k_eta(eta)
            with pytest.raises(ContractError, match=r"^eta must lie in the open interval"):
                robust_gain(AttackEstimate([1.0], [0.5], [10]), eta)


class TestRobustGain:
    def test_half_confidence(self):
        est = AttackEstimate([10.0], [2.0], [100])
        assert robust_gain(est, 0.5)[0] == pytest.approx(12.0)

    def test_table_case_one(self):
        est = AttackEstimate([17.59], [0.48], [1000])
        expected = 17.59 + math.sqrt(19.0) * 0.48
        assert abs(robust_gain(est, 0.95)[0] - expected) <= 1e-12

    def test_degenerate_certainty(self):
        est = AttackEstimate([7.5], [0.0], [10])
        for eta in (0.1, 0.5, 0.99):
            assert robust_gain(est, eta)[0] == 7.5

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.05, 0.94),
        st.floats(0.001, 0.05),
        st.floats(0.01, 5.0),
        st.floats(0.0, 20.0),
    )
    def test_monotone_in_eta_and_sigma(self, eta, d_eta, sigma, mean):
        est = AttackEstimate([mean], [sigma], [10])
        lo = robust_gain(est, eta)[0]
        hi = robust_gain(est, eta + d_eta)[0]
        assert hi > lo
        wider = AttackEstimate([mean], [sigma * 1.5], [10])
        assert robust_gain(wider, eta)[0] > lo


class TestWorstCase:
    def test_budget_saturating(self, one_area_model):
        assert worst_case_gain(one_area_model, (0,))[0] == pytest.approx(3.0)

    def test_nothing_to_attack(self, one_area_model):
        gains = worst_case_gain(one_area_model, ())
        assert np.array_equal(gains, np.zeros(1))

    def test_static_component_reduces_budget(self, one_area_model):
        gains = worst_case_gain(one_area_model, (0,), static_component=[1.0])
        assert gains[0] == pytest.approx(2.0)

    def test_ordering_worst_robust_mean(self, rng):
        for _ in range(25):
            model = random_system_model(rng)
            n = model.areas
            area = rng.randint(0, n)
            worst = worst_case_gain(model, (area,))
            mean = rng.uniform(0.0, worst[area])
            sigma = rng.uniform(0.0, 0.2 * max(mean, 1e-6))
            est_mean = np.zeros(n)
            est_std = np.zeros(n)
            est_mean[area], est_std[area] = mean, sigma
            est = AttackEstimate(est_mean, est_std, np.full(n, 10))
            robust = apply_budget_clamp(model, robust_gain(est, 0.95))
            assert worst[area] >= robust[area] - 1e-12
            assert robust[area] >= mean - 1e-12


class TestClamp:
    def test_clamp_warns_and_caps(self, one_area_model, caplog):
        with caplog.at_level(logging.WARNING, logger="cred.uncertainty"):
            out = apply_budget_clamp(one_area_model, [10.0])
        assert out[0] == pytest.approx(3.0)
        assert any("clamping" in rec.message for rec in caplog.records)

    def test_no_clamp_below_budget(self, one_area_model, caplog):
        with caplog.at_level(logging.WARNING, logger="cred.uncertainty"):
            out = apply_budget_clamp(one_area_model, [2.5])
        assert out[0] == 2.5
        assert not caplog.records
