"""Unit and property tests for the scalar primitives."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ftteleop as ft
from ftteleop import Weights, dilate, s_integral, sat_clip, sat_pow, signed_pow

finite_x = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
powers = st.floats(min_value=0.05, max_value=4.0)
deltas = st.floats(min_value=1e-3, max_value=100.0)


class TestSignedPow:
    def test_zero(self):
        assert signed_pow(0.0, 0.5) == 0.0

    def test_negative_root(self):
        assert signed_pow(-4.0, 0.5) == -2.0

    def test_cube_root(self):
        assert signed_pow(2.0, 1.0 / 3.0) == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)
        assert signed_pow(2.0, 1.0 / 3.0) == pytest.approx(1.2599210498948732, rel=1e-15)

    def test_elementwise(self):
        out = signed_pow(np.array([-8.0, 0.0, 8.0]), 1.0 / 3.0)
        np.testing.assert_allclose(out, [-2.0, 0.0, 2.0], rtol=1e-15)

    @pytest.mark.parametrize("bad_p", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_exponent(self, bad_p):
        with pytest.raises(ValueError):
            signed_pow(1.0, bad_p)

    @pytest.mark.parametrize("bad_x", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad_x):
        with pytest.raises(ValueError):
            signed_pow(bad_x, 0.5)

    @given(x=finite_x, p=powers)
    def test_odd(self, x, p):
        assert signed_pow(-x, p) == -signed_pow(x, p)

    @given(x=finite_x, p=powers)
    def test_sign_matches(self, x, p):
        if x != 0.0 and abs(x) ** p == 0.0:
            return  # |x|^p underflows to zero; sign necessarily lost
        assert np.sign(signed_pow(x, p)) == np.sign(x)

    @given(x=st.floats(min_value=1e-3, max_value=1e3),
           eps=st.floats(min_value=1e-2, max_value=10.0),
           a=st.floats(min_value=0.1, max_value=3.0),
           p=powers)
    def test_power_law_scaling(self, x, eps, a, p):
        # signed_pow(eps^a x, p) = eps^(a p) signed_pow(x, p)
        left = signed_pow(eps**a * x, p)
        right = eps ** (a * p) * signed_pow(x, p)
        assert left == pytest.approx(right, rel=1e-12)

    @given(a=st.floats(min_value=0.0, max_value=100.0),
           b=st.floats(min_value=0.0, max_value=100.0), p=powers)
    @example(a=0.0, b=4.698e-162, p=3.0)
    def test_strictly_increasing(self, a, b, p):
        # rounding keeps the order but not always its strictness: a tiny
        # b^p underflows to 0, and for p < 1 neighbouring floats can share
        # a power. The order stays strict where the gap survives rounding.
        if a < b:
            assert signed_pow(a, p) <= signed_pow(b, p)
            if b >= 2 * a and signed_pow(b, p) >= np.finfo(float).tiny:
                assert signed_pow(a, p) < signed_pow(b, p)


class TestSatPow:
    def test_interior_branch(self):
        assert sat_pow(0.5, 1.0, 1.0) == 0.5

    def test_saturated_branch(self):
        assert sat_pow(2.0, 1.0, 1.0) == 1.0

    def test_saturated_negative(self):
        assert sat_pow(-3.0, 0.5, 2.0) == pytest.approx(-np.sqrt(2.0), rel=1e-15)

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            sat_pow(1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            sat_pow(1.0, -0.5, 1.0)

    @given(x=finite_x, p=powers, d=deltas)
    def test_odd(self, x, p, d):
        assert sat_pow(-x, p, d) == -sat_pow(x, p, d)

    @given(x=finite_x, p=powers, d=deltas)
    def test_magnitude_cap(self, x, p, d):
        assert abs(sat_pow(x, p, d)) <= d**p

    @given(x=finite_x, p=powers, d=deltas)
    def test_commutes_with_clip(self, x, p, d):
        # the saturated power is exactly the powered clip, bit for bit
        assert sat_pow(x, p, d) == signed_pow(sat_clip(x, d), p)

    def test_branches_agree_at_level(self):
        for p, d in [(0.5, 1.0), (1.0 / 3.0, 0.2), (2.0, 3.0)]:
            assert sat_pow(d, p, d) == d**p
            below = sat_pow(d * (1 - 1e-12), p, d)
            assert below == pytest.approx(d**p, rel=1e-10)


class TestSIntegral:
    def test_interior_value(self):
        assert s_integral(0.5, 1.0, 1.0) == 0.125

    def test_saturated_value(self):
        assert s_integral(2.0, 1.0, 1.0) == 1.5

    @pytest.mark.parametrize("delta,p", [(1.0, 0.5), (0.2, 1.0 / 3.0), (2.0, 2.0)])
    def test_zero_at_origin(self, delta, p):
        assert s_integral(0.0, delta, p) == 0.0

    @given(x=finite_x, p=powers, d=deltas)
    def test_nonnegative_and_even(self, x, p, d):
        v = s_integral(x, d, p)
        assert v >= 0.0
        assert v == s_integral(-x, d, p)
        if abs(x) >= 1e-30:  # below that, |x|^(p+1) may underflow to 0
            assert v > 0.0

    @given(x=finite_x, p=powers, d=deltas)
    def test_lower_bound_beyond_level(self, x, p, d):
        if abs(x) >= d:
            bound = d**p * abs(x) / (p + 1.0)
            assert s_integral(x, d, p) >= bound * (1.0 - 1e-12)

    def test_derivative_matches_sat_pow(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            p = rng.uniform(0.1, 3.0)
            d = rng.uniform(0.05, 3.0)
            x = rng.uniform(0.01, 3.0 * d) * rng.choice([-1.0, 1.0])
            h = 1e-6 * max(1.0, abs(x))
            if abs(abs(x) - d) < 10 * h:
                continue  # the second derivative jumps at the level
            fd = (s_integral(x + h, d, p) - s_integral(x - h, d, p)) / (2 * h)
            target = sat_pow(x, p, d)
            assert fd == pytest.approx(target, rel=1e-6, abs=1e-9)

    def test_continuously_differentiable_at_level(self):
        p, d = 1.0 / 3.0, 0.7
        left = (s_integral(d, d, p) - s_integral(d - 1e-9, d, p)) / 1e-9
        right = (s_integral(d + 1e-9, d, p) - s_integral(d, d, p)) / 1e-9
        assert left == pytest.approx(right, rel=1e-5)


class TestDilate:
    def test_identity_at_one(self):
        np.testing.assert_array_equal(dilate([1.0, 1.0], [1.5, 1.0], 1.0), [1.0, 1.0])

    def test_uniform_weight_is_scaling(self):
        np.testing.assert_allclose(dilate([2.0, 3.0], [1.0, 1.0], 0.5), [1.0, 1.5])

    def test_anisotropic(self):
        np.testing.assert_allclose(dilate([1.0, 1.0], [2.0, 1.0], 0.5), [0.25, 0.5])

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            dilate([1.0, 2.0], [1.0], 0.5)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            dilate([1.0], [1.0], 0.0)

    @given(eps=st.floats(min_value=1e-3, max_value=10.0))
    def test_composition(self, eps):
        w = np.array([1.5, 1.0, 0.5])
        x = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(
            dilate(dilate(x, w, eps), w, 1.0 / eps), x, rtol=1e-12)


class TestWeights:
    def test_benchmark_pair(self):
        w = Weights(1.5, 1.0)
        assert w.is_finite_time
        assert w.degree == pytest.approx(-0.5)
        assert w.pos_exponent == pytest.approx(1.0 / 3.0)
        assert w.vel_exponent == pytest.approx(0.5)
        assert w.theta_exponent == pytest.approx(2.0 / 3.0)

    def test_linear_pair(self):
        w = Weights(1.0, 1.0)
        assert not w.is_finite_time
        assert w.pos_exponent == 1.0
        assert w.vel_exponent == 1.0

    def test_rejects_discontinuous_regime(self):
        with pytest.raises(ValueError, match="discontinuous"):
            Weights(2.0, 1.0)

    def test_rejects_inverted_ordering(self):
        with pytest.raises(ValueError, match="ordering"):
            Weights(0.8, 1.0)

    @pytest.mark.parametrize("r1,r2", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_rejects_nonpositive(self, r1, r2):
        with pytest.raises(ValueError):
            Weights(r1, r2)

    def test_everything_in_between_accepted(self):
        for r1 in (1.01, 1.5, 1.9, 1.99):
            w = Weights(r1, 1.0)
            assert 0.0 < w.pos_exponent < 1.0
            assert 0.0 < w.vel_exponent < 1.0


_C1 = dict(variant="C1", n=2, weights=(1.5, 1.0), k_s=6.0, d_s=8.0)
_C3 = dict(_C1, variant="C3", delta_p=0.2, delta_d=0.3)


@pytest.mark.parametrize("build, problem", [
    (lambda: ft.ControllerConfig.build(**{**_C1, "k_s": 1 + 1j}), "k_s must be real numbers"),
    (lambda: ft.ControllerConfig.build(**{**_C1, "d_s": ["8", "8"]}), "d_s must be numbers"),
    (lambda: ft.ControllerConfig.build(**{**_C1, "d_s": [10**400, 8.0]}),
     "d_s must lie within the float range"),
    (lambda: ft.ControllerConfig.build(**{**_C3, "delta_p": 10**400}),
     "delta_p must lie within the float range"),
    (lambda: ft.ControllerConfig.build(**{**_C3, "delta_d": "0.3"}),
     "delta_d must be a number"),
    (lambda: ft.ControllerConfig.build(**{**_C3, "delta_d": 0.3j}),
     "delta_d must be a real number"),
    (lambda: Weights("abc", 1.0), "r1 must be a number"),
    (lambda: Weights(1.5, "1.0"), "r2 must be a number"),
    (lambda: Weights(1.5, 1 + 1j), "r2 must be a real number"),
    (lambda: Weights(10**400, 1.0), "r1 must lie within the float range"),
    (lambda: ft.RobotState(q=[1j, 0], qdot=[0.0, 0.0]), "q must be real numbers"),
    (lambda: ft.RobotState(q=[0.0, 0.0], qdot=["1", "0"]), "qdot must be numbers"),
    (lambda: ft.RobotState(q=[10**400, 0], qdot=[0.0, 0.0]),
     "q must lie within the float range"),
    (lambda: ft.ControllerState(theta_l=[0.5j, 0.0], theta_r=[0.0, 0.0]),
     "theta_l must be real numbers"),
    (lambda: ft.ControllerState(theta_l=[0.0, 0.0], theta_r=[None, 0.0]),
     "theta_r must be numbers"),
    (lambda: ft.HomogeneitySpec(weights=np.ones(4), degree=1j),
     "degree must be a real number"),
    (lambda: ft.HomogeneitySpec(weights=np.ones(4), degree="-0.5"), "degree must be a number"),
    (lambda: ft.HomogeneitySpec(weights=["1", "1"], degree=-0.5), "weights must be numbers"),
    (lambda: signed_pow(1.0, "0.5"), "p must be a number"),
    (lambda: sat_pow([0.5, 1j], 0.5, 1.0), "x must be real numbers"),
    (lambda: s_integral(1.0, 10**400, 0.5), "delta must lie within the float range"),
    (lambda: sat_clip(["0.5"], 1.0), "x must be numbers"),
    (lambda: dilate([1.0, 1.0], [1.5, 1j], 0.5), "weights must be real numbers"),
], ids=["k_s-complex", "d_s-text", "d_s-huge-int", "delta_p-huge-int", "delta_d-text",
        "delta_d-complex", "r1-text", "r2-numeric-text", "r2-complex", "r1-huge-int",
        "q-complex", "qdot-numeric-text", "q-huge-int", "theta_l-complex", "theta_r-none",
        "degree-complex", "degree-text", "spec-weights-text", "p-text", "x-complex",
        "delta-huge-int", "clip-x-text", "dilate-weights-complex"])
def test_constructors_name_input_that_is_not_real_numbers(build, problem):
    # every numeric input goes through _real_number or _real_array: no bare
    # TypeError or OverflowError, numpy's own message or parsed numeric text
    with pytest.raises(ValueError, match=f"^{problem}$"):
        build()
