import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cred.errors import DegenerateEigenvalueError, NumericalError
from cred.grid import AttackProfile, DroopSchedule, StateSpace, build_state_space
from cred.stability import check_simple, eigen_decompose, is_stable, sensitivity

from oracles import (
    eigen_decompose_scipy,
    eigenvalues_by_char_poly,
    fd_eigen_sensitivity,
    random_system_model,
    spectral_gaps,
)


def _hand_state_space(s: np.ndarray) -> StateSpace:
    n = s.shape[0] // 2
    e = np.eye(2 * n)
    e[n:, n:] *= -1.0
    return StateSpace(e, s, np.zeros(2 * n))


class TestEigenDecompose:
    def test_conjugate_pair(self, one_area_ss):
        eig = eigen_decompose(one_area_ss)
        assert np.allclose(eig.eigenvalues, [-1 - 2j, -1 + 2j], atol=1e-12)

    def test_double_eigenvalue(self):
        ss = _hand_state_space(np.array([[0.0, 1.0], [-1.0, -2.0]]))
        eig = eigen_decompose(ss)
        assert np.allclose(eig.eigenvalues, [-1.0, -1.0], atol=1e-7)

    def test_matches_characteristic_polynomial_oracle(self, rng):
        for _ in range(5):
            model = random_system_model(rng, n_areas=3)
            ss = build_state_space(model, AttackProfile.none(3), DroopSchedule.none(3))
            eig = eigen_decompose(ss)
            oracle = eigenvalues_by_char_poly(ss.state_matrix)
            for lam in eig.eigenvalues:
                assert np.min(np.abs(oracle - lam)) <= 1e-7

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_normalization_and_residual(self, seed):
        model = random_system_model(np.random.RandomState(seed))
        n = model.areas
        ss = build_state_space(model, AttackProfile.none(n), DroopSchedule.none(n))
        eig = eigen_decompose(ss)
        s = ss.state_matrix
        scale = np.linalg.norm(s, np.inf)
        for i in range(len(eig)):
            v, w = eig.right_vectors[:, i], eig.left_vectors[:, i]
            lam = eig.eigenvalues[i]
            assert np.linalg.norm(s @ v - lam * v) <= 1e-8 * scale
            assert np.linalg.norm(w @ s - lam * w) <= 1e-8 * scale * np.linalg.norm(w)
            assert abs(w @ v - 1.0) <= 1e-8
            if abs(lam.imag) > 1e-9:  # complex modes pair up
                partner = np.min(np.abs(eig.eigenvalues - lam.conjugate()))
                assert partner <= 1e-9 * max(scale, 1.0)

    def test_ordering_deterministic(self, one_area_ss):
        eig = eigen_decompose(one_area_ss)
        key = list(zip(eig.eigenvalues.real, eig.eigenvalues.imag))
        assert key == sorted(key)


class TestDirectGeev:
    """np.linalg.eig and V^-1 against scipy.linalg.eig(left=True), LAPACK dgeev's other route.

    Both call dgeev on the same matrix, so the spectrum and the right
    vectors are bit for bit equal; the left vectors come from V^-1 here and
    from dgeev's own left vectors in the oracle, so they agree to rounding.
    """

    @staticmethod
    def assert_matches_scipy(ss):
        eig = eigen_decompose(ss)
        values, right, left = eigen_decompose_scipy(ss)
        for ours, theirs in ((eig.eigenvalues, values), (eig.right_vectors, right)):
            assert ours.dtype == theirs.dtype
            assert ours.tobytes() == theirs.tobytes()  # signed zeros included
        assert eig.left_vectors.dtype == left.dtype
        error = np.linalg.norm(eig.left_vectors - left, axis=0)
        assert np.all(error <= 1e-12 * np.linalg.norm(left, axis=0))
        return eig

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**31 - 1), n_areas=st.integers(1, 3),
           attack=st.floats(0.0, 40.0), droop=st.floats(0.0, 40.0))
    def test_matches_scipy_eig(self, data, seed, n_areas, attack, droop):
        rng = np.random.RandomState(seed)
        model = random_system_model(rng, n_areas)
        area = data.draw(st.integers(0, n_areas - 1), label="area")
        gain = np.zeros(n_areas)
        gain[area] = attack
        ss = build_state_space(model, AttackProfile(gain, np.zeros(n_areas), (area,)),
                               DroopSchedule(droop * rng.uniform(size=n_areas), np.zeros(n_areas)))
        self.assert_matches_scipy(ss)

    @pytest.mark.parametrize("droop, real", [(4.0, True), (0.5, False)])
    def test_real_and_complex_spectra(self, one_area_model, droop, real):
        # lambda^2 + (2 + droop) lambda + 5: a real pair once droop > 2 sqrt(5) - 2
        ss = build_state_space(one_area_model, AttackProfile.none(1),
                               DroopSchedule([droop], [0.0]))
        eig = self.assert_matches_scipy(ss)
        assert bool(np.all(eig.eigenvalues.imag == 0.0)) == real
        assert (eig.right_vectors.dtype == np.float64) == real

    @pytest.mark.parametrize("corner", [0.0, -0.0])
    def test_signed_zero_origin_mode(self, corner):
        # np.linalg.eig returns the origin mode as -0.0 for a -0.0 corner;
        # the spectrum reads it as +0.0, as scipy's wr + 1j * wi does
        eig = self.assert_matches_scipy(_hand_state_space(np.array([[corner, 1.0], [0.0, -2.0]])))
        origin = eig.eigenvalues[1]
        assert origin == 0.0 and not np.signbit(origin.real)

    def test_desk_loop(self, desk_bundle):
        n = desk_bundle.model.areas
        ss = build_state_space(desk_bundle.model, AttackProfile.none(n), DroopSchedule.none(n))
        eig = self.assert_matches_scipy(ss)
        assert np.all(eig.eigenvalues.imag != 0.0)

    def test_non_convergence_is_typed(self, one_area_ss, monkeypatch):
        def not_converged(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", not_converged)
        with pytest.raises(NumericalError, match="eigen solver failed on a 2x2 state matrix: "
                                                 "Eigenvalues did not converge"):
            eigen_decompose(one_area_ss)

    def test_non_finite_state_matrix_is_typed(self):
        ss = _hand_state_space(np.array([[0.0, 1.0], [np.nan, -1.0]]))
        with pytest.raises(NumericalError) as info:
            eigen_decompose(ss)
        assert str(info.value) == "state matrix contains non-finite entries"

    def test_inaccurate_right_vectors_are_typed(self, one_area_ss, monkeypatch):
        eig = np.linalg.eig

        def swapped(a):
            values, vr = eig(a)
            return values, vr[:, ::-1]  # each vector paired with the other eigenvalue

        monkeypatch.setattr(np.linalg, "eig", swapped)
        with pytest.raises(NumericalError, match=r"^eigenpair residual \S+ exceeds 1e-8\*\|S\|$"):
            eigen_decompose(one_area_ss)

    def test_inaccurate_left_vectors_are_typed(self, one_area_ss, monkeypatch):
        inv = np.linalg.inv

        def corrupted(a):
            out = inv(a)
            out[0] += out[1]  # still w^T v = 1 on the diagonal, no longer a left vector
            return out

        monkeypatch.setattr(np.linalg, "inv", corrupted)
        with pytest.raises(NumericalError, match="left eigenvector residual"):
            eigen_decompose(one_area_ss)


class TestSensitivity:
    def test_one_area_exact_value(self, one_area_model, one_area_ss):
        eig = eigen_decompose(one_area_ss)
        d = sensitivity(one_area_model, eig, 0)
        # implicit differentiation of lam^2 + (2-k) lam + 5 at k=0, lam=-1+2j
        assert abs(d[1] - (0.5 + 0.25j)) <= 1e-10
        assert abs(d[0] - d[1].conjugate()) <= 1e-12

    def test_matches_finite_differences(self, rng):
        checked = 0
        for _ in range(100):
            model = random_system_model(rng)
            n = model.areas
            ss = build_state_space(model, AttackProfile.none(n), DroopSchedule.none(n))
            eig = eigen_decompose(ss)
            area = rng.randint(0, n)
            d = sensitivity(model, eig, area)
            for i in np.flatnonzero(spectral_gaps(eig.eigenvalues) >= 1e-3):
                fd = fd_eigen_sensitivity(model, eig.eigenvalues[i], area)
                # small floor: near-zero sensitivities drown in FD noise
                assert abs(d[i] - fd) <= 1e-4 * max(abs(fd), 1e-5)
                checked += 1
        assert checked >= 300

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_conjugate_symmetry(self, seed):
        model = random_system_model(np.random.RandomState(seed))
        n = model.areas
        ss = build_state_space(model, AttackProfile.none(n), DroopSchedule.none(n))
        eig = eigen_decompose(ss)
        lam = eig.eigenvalues
        d = sensitivity(model, eig, 0)
        gaps = spectral_gaps(lam)
        for i in range(len(eig)):
            if lam[i].imag <= 1e-9 or gaps[i] < 1e-6:
                continue
            j = int(np.argmin(np.abs(lam - lam[i].conjugate())))
            assert abs(d[i] - d[j].conjugate()) <= 1e-8

    def test_repeated_eigenvalue_rejected(self):
        ss = _hand_state_space(np.array([[0.0, 1.0], [-1.0, -2.0]]))
        lam = eigen_decompose(ss).eigenvalues
        with pytest.raises(DegenerateEigenvalueError,
                           match=r"^at abscissa 0: eigenvalue .* is repeated within .*; "
                                 r"sensitivity undefined$"):
            check_simple(lam, lam[0], 0.0)


class TestIsStable:
    def test_stable_pair(self, one_area_ss):
        assert is_stable(eigen_decompose(one_area_ss)).stable

    def test_unstable_spectrum(self):
        ss = _hand_state_space(np.array([[0.0, 1.0], [-1.0, 1.0]]))
        verdict = is_stable(eigen_decompose(ss))
        assert not verdict.stable
        assert verdict.max_real == pytest.approx(0.5)

    def test_one_area_threshold(self, one_area_model):
        # unstable exactly when attack gain exceeds damping + droop
        for gain, droop_gain in ((1.9, 0.0), (2.5, 1.0), (3.4, 1.0)):
            ss = build_state_space(
                one_area_model,
                AttackProfile([gain], [0.0], (0,)),
                DroopSchedule([droop_gain], [0.0]),
            )
            verdict = is_stable(eigen_decompose(ss))
            assert verdict.stable == (gain < 2.0 + droop_gain)

    def test_origin_modes_alone_leave_no_verdict(self):
        with pytest.raises(NumericalError) as info:
            is_stable(eigen_decompose(_hand_state_space(np.zeros((2, 2)))))
        assert str(info.value) == "no eigenvalues left after zero-mode exclusion"

    def test_zero_mode_excluded_and_flagged(self):
        # no governor integral action: one structural mode at the origin
        s = np.array([[0.0, 1.0], [0.0, -2.0]])
        verdict = is_stable(eigen_decompose(_hand_state_space(s)))
        assert verdict.stable
        assert verdict.excluded == (1,)
        assert verdict.max_real == -2.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_no_attack_system_always_stable(self, seed):
        model = random_system_model(np.random.RandomState(seed))
        n = model.areas
        ss = build_state_space(model, AttackProfile.none(n), DroopSchedule.none(n))
        assert is_stable(eigen_decompose(ss)).stable
