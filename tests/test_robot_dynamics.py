"""Dynamics tests against independent kinematics-based oracles.

The oracles build the kinetic and potential energy straight from link mass
center positions (forward kinematics with numeric differentiation) and never
touch the implementation's precomputed geometry matrices.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ftteleop as ft
from ftteleop import robot_dynamics

from conftest import BENCHMARK, random_chain


# --- oracles ---------------------------------------------------------------


def com_positions(q):
    """Mass-center positions of the benchmark links, straight kinematics."""
    lengths = BENCHMARK["lengths"]
    offsets = BENCHMARK["com_offsets"]
    phi = np.cumsum(q)
    points = []
    base = np.zeros(2)
    for k in range(len(q)):
        direction = np.array([np.cos(phi[k]), np.sin(phi[k])])
        points.append(base + offsets[k] * direction)
        base = base + lengths[k] * direction
    return np.array(points)


def kinetic_oracle(q, qd, h=1e-6):
    """Kinetic energy via finite-difference mass-center velocities."""
    masses = BENCHMARK["masses"]
    inertias = BENCHMARK["inertias"]
    vel = (com_positions(q + h * qd) - com_positions(q - h * qd)) / (2 * h)
    omega = np.cumsum(qd)
    energy = 0.0
    for k in range(len(q)):
        energy += 0.5 * masses[k] * vel[k] @ vel[k] + 0.5 * inertias[k] * omega[k] ** 2
    return energy


def mass_oracle(q):
    """Inertia matrix entries from second differences of the kinetic energy
    (exactly quadratic in the joint velocities)."""
    n = len(q)
    m = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            ei, ej = np.eye(n)[i], np.eye(n)[j]
            m[i, j] = (kinetic_oracle(q, ei + ej) - kinetic_oracle(q, ei)
                       - kinetic_oracle(q, ej))
    return m


def potential_oracle(q, gravity=9.81):
    masses = BENCHMARK["masses"]
    return gravity * float(np.dot(masses, com_positions(q)[:, 1]))


def christoffel_oracle(params, q, qd, h=1e-5):
    """C_kj = 1/2 sum_i (dM_kj/dq_i + dM_ki/dq_j - dM_ij/dq_k) qd_i, with the
    inertia gradient taken by central differences of mass_matrix alone."""
    dm = np.array([(ft.mass_matrix(params, q + h * e) - ft.mass_matrix(params, q - h * e))
                   / (2 * h) for e in np.eye(len(q))])   # dm[i] = dM/dq_i
    return 0.5 * (np.einsum("i,ikj->kj", qd, dm) + np.einsum("i,jki->kj", qd, dm)
                  - np.einsum("i,kij->kj", qd, dm))


def gravity_closed_form(chain, gravity=9.81):
    """g * sum_{a>=j} (masses @ lever)_a: joint j's torque with all links horizontal."""
    n = len(chain["masses"])
    lever = np.zeros((n, n))
    for k in range(n):
        lever[k, :k] = chain["lengths"][:k]
        lever[k, k] = chain["com_offsets"][k]
    return gravity * np.cumsum((chain["masses"] @ lever)[::-1])[::-1]


# --- inertia ----------------------------------------------------------------


class TestMassMatrix:
    def test_benchmark_m11(self, benchmark_params):
        m = ft.mass_matrix(benchmark_params, np.array([0.7, 0.0]))
        assert m[0, 0] == pytest.approx(2.368, abs=1e-12)

    def test_benchmark_m12_at_right_angle(self, benchmark_params):
        m = ft.mass_matrix(benchmark_params, np.array([1.234, np.pi / 2]))
        assert m[0, 1] == pytest.approx(0.192, abs=1e-12)

    def test_matches_kinetic_energy_oracle(self, benchmark_params):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = rng.uniform(-np.pi, np.pi, 2)
            np.testing.assert_allclose(
                ft.mass_matrix(benchmark_params, q), mass_oracle(q), atol=1e-6)

    def test_symmetric_exactly(self, benchmark_params):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = ft.mass_matrix(benchmark_params, rng.normal(size=2))
            np.testing.assert_array_equal(m, m.T)

    def test_dimension_mismatch(self, benchmark_params):
        with pytest.raises(ValueError):
            ft.mass_matrix(benchmark_params, np.zeros(3))


class TestCoriolis:
    def test_zero_velocity_gives_zero(self, benchmark_params):
        c = ft.coriolis_matrix(benchmark_params, np.array([0.4, -1.2]), np.zeros(2))
        np.testing.assert_array_equal(c, np.zeros((2, 2)))

    def test_skew_symmetry_against_fd(self, benchmark_params):
        rng = np.random.default_rng(5)
        h = 2e-6
        for _ in range(300):
            q, qd, x = rng.normal(size=(3, 2))
            c = ft.coriolis_matrix(benchmark_params, q, qd)
            m_dot = (ft.mass_matrix(benchmark_params, q + h * qd)
                     - ft.mass_matrix(benchmark_params, q - h * qd)) / (2 * h)
            defect = abs(x @ ((m_dot - 2 * c) @ x))
            assert defect < 1e-9 * (x @ x)

    def test_lagrangian_residual_oracle(self, benchmark_params):
        # C qd must equal dM/dt qd - grad_q K at zero acceleration. The
        # gradient step is larger than the oracle's internal step so its
        # finite-difference noise is not amplified.
        q = np.array([1.0, -0.4])
        qd = np.array([1.0, 1.0])
        h = 1e-6
        h_grad = 1e-4
        m_dot = (ft.mass_matrix(benchmark_params, q + h * qd)
                 - ft.mass_matrix(benchmark_params, q - h * qd)) / (2 * h)
        grad_k = np.empty(2)
        for j in range(2):
            e = np.eye(2)[j]
            grad_k[j] = (kinetic_oracle(q + h_grad * e, qd)
                         - kinetic_oracle(q - h_grad * e, qd)) / (2 * h_grad)
        expected = m_dot @ qd - grad_k
        actual = ft.coriolis_matrix(benchmark_params, q, qd) @ qd
        np.testing.assert_allclose(actual, expected, atol=1e-4)

    @pytest.mark.parametrize("n", [1, 3, 4, 6])
    def test_matches_christoffel_oracle(self, n):
        rng = np.random.default_rng([n, 13])
        params = ft.RobotParams(**random_chain(rng, n))
        for _ in range(10):
            q, qd = rng.uniform(-np.pi, np.pi, n), rng.normal(size=n)
            oracle = christoffel_oracle(params, q, qd)
            scale = np.linalg.norm(ft.mass_matrix(params, q)) * np.linalg.norm(qd)
            np.testing.assert_allclose(ft.coriolis_matrix(params, q, qd), oracle,
                                       rtol=0, atol=1e-8 * scale)

    @pytest.mark.parametrize("n", [1, 3, 4, 6])
    def test_skew_symmetry_at_more_joints(self, n):
        rng = np.random.default_rng([n, 14])
        params = ft.RobotParams(**random_chain(rng, n))
        h = 1e-5
        for _ in range(20):
            q, qd, x = rng.normal(size=(3, n))
            c = ft.coriolis_matrix(params, q, qd)
            m_dot = (ft.mass_matrix(params, q + h * qd)
                     - ft.mass_matrix(params, q - h * qd)) / (2 * h)
            scale = np.linalg.norm(ft.mass_matrix(params, q)) * np.linalg.norm(qd)
            assert abs(x @ ((m_dot - 2 * c) @ x)) < 1e-8 * scale * (x @ x)

    def test_quadratic_growth_bound(self, benchmark_params):
        rng = np.random.default_rng(6)
        gain = benchmark_params.bounds.coriolis_gain
        for _ in range(300):
            q = rng.uniform(-np.pi, np.pi, 2)
            qd = rng.normal(size=2) * rng.uniform(0.1, 5.0)
            force = ft.coriolis_matrix(benchmark_params, q, qd) @ qd
            assert np.linalg.norm(force) <= gain * (qd @ qd) * (1 + 1e-12)


class TestGravity:
    def test_horizontal_plane_is_zero(self, benchmark_params_flat):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = ft.gravity_vector(benchmark_params_flat, rng.normal(size=2))
            np.testing.assert_array_equal(g, np.zeros(2))

    def test_stretched_horizontal_configuration(self, benchmark_params):
        # both links horizontal: shoulder carries every mass lever
        m1, m2 = BENCHMARK["masses"]
        l1 = BENCHMARK["lengths"][0]
        lc1, lc2 = BENCHMARK["com_offsets"]
        expected = 9.81 * (m1 * lc1 + m2 * l1 + m2 * lc2)
        g = ft.gravity_vector(benchmark_params, np.zeros(2))
        assert g[0] == pytest.approx(expected, rel=1e-12)

    def test_matches_potential_gradient(self, benchmark_params):
        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(20):
            q = rng.uniform(-np.pi, np.pi, 2)
            grad = np.empty(2)
            for j in range(2):
                e = np.eye(2)[j]
                grad[j] = (potential_oracle(q + h * e) - potential_oracle(q - h * e)) / (2 * h)
            np.testing.assert_allclose(ft.gravity_vector(benchmark_params, q), grad, atol=1e-6)

    def test_caps_hold_on_dense_grid(self, benchmark_params):
        caps = benchmark_params.bounds.gravity_caps
        axis = np.linspace(-np.pi, np.pi, 73)
        worst = np.zeros(2)
        for q1 in axis:
            for q2 in axis:
                worst = np.maximum(worst, np.abs(
                    ft.gravity_vector(benchmark_params, np.array([q1, q2]))))
        assert np.all(worst <= caps)

    @settings(max_examples=25)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_caps_are_the_exact_bound(self, n, seed):
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, n)
        params = ft.RobotParams(**chain)
        caps = params.bounds.gravity_caps
        np.testing.assert_allclose(caps, gravity_closed_form(chain), rtol=1e-12, atol=0)
        for q in rng.uniform(-np.pi, np.pi, (100, n)):
            assert np.all(np.abs(ft.gravity_vector(params, q)) <= caps)


class TestForwardDynamics:
    def test_static_equilibrium(self):
        # exact: the gravity torque is subtracted in joint space before the
        # link-coordinate solve, so a held arm sees a zero right-hand side
        for n, seed in itertools.product((1, 2, 4, 6), range(3)):
            rng = np.random.default_rng([n, seed, 12])
            params = ft.RobotParams(**random_chain(rng, n))
            for q in rng.uniform(-np.pi, np.pi, (10, n)):
                state = ft.RobotState(q=q, qdot=np.zeros(n))
                acc = ft.forward_dynamics(params, state, ft.gravity_vector(params, q))
                np.testing.assert_array_equal(acc, np.zeros(n), err_msg=f"n={n}, q={q}")

    def test_rest_stays_at_rest_without_gravity(self, benchmark_params_flat):
        state = ft.RobotState(q=np.array([0.2, 0.4]), qdot=np.zeros(2))
        acc = ft.forward_dynamics(benchmark_params_flat, state, np.zeros(2))
        np.testing.assert_array_equal(acc, np.zeros(2))

    def test_matches_linear_solve_oracle(self, benchmark_params_flat):
        q = np.array([1.0, -0.4])
        state = ft.RobotState(q=q, qdot=np.zeros(2))
        tau = np.array([1.0, 0.0])
        expected = np.linalg.solve(mass_oracle(q), tau)
        acc = ft.forward_dynamics(benchmark_params_flat, state, tau)
        np.testing.assert_allclose(acc, expected, atol=1e-5)

    def test_residual_is_algebraically_zero(self, benchmark_params):
        rng = np.random.default_rng(9)
        for _ in range(50):
            q, qd = rng.normal(size=(2, 2))
            tau, f = rng.normal(size=(2, 2)) * 5.0
            state = ft.RobotState(q=q, qdot=qd)
            acc = ft.forward_dynamics(benchmark_params, state, tau, f)
            residual = (ft.mass_matrix(benchmark_params, q) @ acc
                        + ft.coriolis_matrix(benchmark_params, q, qd) @ qd
                        + ft.gravity_vector(benchmark_params, q) - tau - f)
            assert np.max(np.abs(residual)) < 1e-10

    @pytest.mark.parametrize("n", range(2, 7))
    def test_kernel_members_do_not_depend_on_the_batch(self, n):
        # each member of a (B, 2, n) stack equals the member evaluated alone,
        # bit for bit: the engine's batch == alone guarantee rests on this
        rng = np.random.default_rng([n, 17])
        pair = [ft.RobotParams(**random_chain(rng, n)) for _ in range(2)]
        for size in (1, 7, 64):
            arms = robot_dynamics.stack_arm_arrays([pair] * size)
            phi, omega, u = rng.normal(size=(3, size, 2, n)) * 2.0
            acc = robot_dynamics.acceleration_kernel(arms, phi, omega, u)
            alone = robot_dynamics.stack_arm_arrays([pair])
            for b in range(size):
                single = robot_dynamics.acceleration_kernel(alone, phi[[b]], omega[[b]], u[[b]])
                np.testing.assert_array_equal(acc[[b]], single, err_msg=f"B={size}, member {b}")

    @pytest.mark.parametrize("size", [1, 16, 1000])
    def test_two_link_coriolis_contraction_equals_the_reduce(self, size):
        # at n = 2 the contraction rounds exactly like the multiply-and-reduce
        # it replaced, which keeps the golden traces exact
        rng = np.random.default_rng([size, 18])
        arms = robot_dynamics.stack_arm_arrays([[ft.RobotParams(**BENCHMARK)] * 2] * size)
        phi, omega = rng.normal(size=(2, size, 2, 2)) * 2.0
        s = robot_dynamics._coriolis_factor(arms, robot_dynamics._differences(phi))
        w2 = omega * omega
        np.testing.assert_array_equal(np.einsum("...ab,...b->...a", s, w2),
                                      np.add.reduce(s * w2[..., None, :], -1))

    def test_link_inertia_is_positive_definite(self):
        # why the audit's stacked solve needs no pivoting: W is a Gram matrix, so
        # A = W o cos(phi_a - phi_b) + diag(I) is positive definite (Schur
        # product theorem), and M = L^T A L is its congruence
        for n in range(1, 7):
            rng = np.random.default_rng([n, 13])
            params = ft.RobotParams(**random_chain(rng, n))
            q = rng.uniform(-np.pi, np.pi, (200, n))
            phi = robot_dynamics.link_angles(q)
            a = robot_dynamics._link_inertia(params.arm, robot_dynamics._differences(phi))
            assert np.linalg.eigvalsh(a)[:, 0].min() > 0, f"n={n}"
            for qk, ak in zip(q, a):
                np.testing.assert_allclose(robot_dynamics._congruence(ak),
                                           ft.mass_matrix(params, qk), rtol=1e-13, atol=1e-15)


def _spd_stack(rng, size, n):
    """A stack of random symmetric positive-definite matrices, condition ~ 10-100."""
    g = rng.normal(size=(size, n, n))
    return g @ np.swapaxes(g, -1, -2) + 0.5 * n * np.eye(n)


class TestSpdSolve:
    """The stacked elimination the audit's full field solves with."""

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("size", [1, 7, 6656])
    def test_matches_lapack(self, n, size):
        rng = np.random.default_rng([n, size, 19])
        a = _spd_stack(rng, size, n)
        for k in (1, 3):
            b = rng.normal(size=(size, n, k))
            x = robot_dynamics._spd_solve(a, b)
            ref = np.linalg.solve(a, b)
            assert x.shape == ref.shape
            err = np.linalg.norm(x - ref, axis=-2) / np.linalg.norm(ref, axis=-2)
            assert err.max() <= 1e-12, f"k={k}: {err.max():.2e}"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_members_do_not_depend_on_the_stack(self, n):
        # every operation is elementwise along the stack, so bit for bit
        rng = np.random.default_rng([n, 20])
        a = _spd_stack(rng, 6656, n).reshape(52, 128, n, n)
        b = rng.normal(size=(52, 128, n, 1))
        x = robot_dynamics._spd_solve(a, b)
        for index in [(0, 0), (3, 77), (51, 127)] + [tuple(i) for i in rng.integers(0, 52, (5, 2))]:
            np.testing.assert_array_equal(robot_dynamics._spd_solve(a[index], b[index]), x[index])
            np.testing.assert_array_equal(
                robot_dynamics._spd_solve(a[index][None], b[index][None])[0], x[index])

    @pytest.mark.parametrize("bad", [
        [[0.0, 1.0], [1.0, 2.0]], [[-1.0, 0.0], [0.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]],
        [[1.0, 1.0], [1.0, 1.0]],
    ], ids=["zero-first", "negative-first", "negative-second", "singular"])
    def test_a_pivot_that_is_not_positive_raises(self, bad):
        # one bad member among good ones fails the whole stack, as LAPACK's does
        rng = np.random.default_rng(21)
        a = _spd_stack(rng, 9, 2)
        a[4] = bad
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            robot_dynamics._spd_solve(a, rng.normal(size=(9, 2, 1)))

    @pytest.mark.parametrize("bad", [
        [[np.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, np.nan]], [[1.0, np.nan], [np.nan, 1.0]],
    ], ids=["nan-first", "nan-second", "nan-off-diagonal"])
    def test_a_nan_member_solves_to_nan(self, bad):
        # as with LAPACK, a NaN pivot raises nothing: only its own member is NaN
        rng = np.random.default_rng(22)
        a = _spd_stack(rng, 9, 2)
        a[4] = bad
        b = rng.normal(size=(9, 2, 1))
        x = robot_dynamics._spd_solve(a, b)
        assert np.isnan(np.linalg.solve(a, b)[4]).any() and np.isnan(x[4]).any()
        good = np.arange(9) != 4
        np.testing.assert_array_equal(x[good], robot_dynamics._spd_solve(a[good], b[good]))


class TestEnergies:
    def test_rest_has_no_kinetic_energy(self, benchmark_params):
        kinetic, _ = ft.energies(benchmark_params, ft.RobotState(q=np.ones(2), qdot=np.zeros(2)))
        assert kinetic == 0.0

    def test_benchmark_value(self, benchmark_params):
        state = ft.RobotState(q=np.array([0.3, 0.0]), qdot=np.array([1.0, 0.0]))
        kinetic, _ = ft.energies(benchmark_params, state)
        assert kinetic == pytest.approx(0.5 * 2.368, abs=1e-12)

    def test_inertia_bounds_sandwich(self, benchmark_params):
        rng = np.random.default_rng(10)
        b = benchmark_params.bounds
        for _ in range(100):
            state = ft.RobotState(q=rng.uniform(-np.pi, np.pi, 2), qdot=rng.normal(size=2))
            kinetic, _ = ft.energies(benchmark_params, state)
            speed2 = state.qdot @ state.qdot
            assert 0.5 * b.inertia_min * speed2 <= kinetic <= 0.5 * b.inertia_max * speed2

    def test_potential_matches_oracle(self, benchmark_params):
        rng = np.random.default_rng(11)
        for _ in range(20):
            q = rng.uniform(-np.pi, np.pi, 2)
            _, potential = ft.energies(benchmark_params, ft.RobotState(q=q, qdot=np.zeros(2)))
            assert potential == pytest.approx(potential_oracle(q), rel=1e-10)

    def test_free_motion_energy_drift(self, benchmark_params_flat):
        # no torque, no gravity: kinetic energy is conserved along the flow
        dt, steps = 1e-4, 10_000
        q = np.array([0.3, -0.2])
        qd = np.array([1.0, 0.5])
        start = 0.5 * qd @ (ft.mass_matrix(benchmark_params_flat, q) @ qd)
        for _ in range(steps):
            state = ft.RobotState(q=q, qdot=qd)
            acc = ft.forward_dynamics(benchmark_params_flat, state, np.zeros(2))
            q = q + dt * qd
            qd = qd + dt * acc
        end = 0.5 * qd @ (ft.mass_matrix(benchmark_params_flat, q) @ qd)
        assert abs(end - start) / start < 1e-4


class TestDeriveBounds:
    def test_upper_bound_covers_known_entry(self, benchmark_params):
        # the largest eigenvalue exceeds the largest diagonal entry (2.368)
        assert benchmark_params.bounds.inertia_max >= 2.368

    def test_eigenvalues_within_bounds(self, benchmark_params):
        rng = np.random.default_rng(12)
        b = benchmark_params.bounds
        for _ in range(200):
            eigs = np.linalg.eigvalsh(
                ft.mass_matrix(benchmark_params, rng.uniform(-np.pi, np.pi, 2)))
            assert eigs[0] >= b.inertia_min
            assert eigs[-1] <= b.inertia_max

    @pytest.mark.parametrize("n", range(1, 7))
    def test_grid_holds_the_origin(self, n):
        grid = robot_dynamics._configuration_grid(n, 10_000)
        assert np.min(np.max(np.abs(grid), axis=1)) <= 1e-15
        per_joint = max(2, int(np.ceil(10_000 ** (1.0 / n))))
        assert grid.shape == (per_joint ** (n - 1), n)
        np.testing.assert_array_equal(grid[:, 0], 0.0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_inertia_and_coriolis_ignore_the_first_joint(self, n):
        # the property behind sampling the bounds with q_1 = 0
        rng = np.random.default_rng([n, 1])
        params = ft.RobotParams(**random_chain(rng, n))
        for _ in range(20):
            q, v = rng.uniform(-np.pi, np.pi, n), rng.normal(size=n)
            shifted = q.copy()
            shifted[0] += rng.uniform(-np.pi, np.pi)
            np.testing.assert_allclose(ft.mass_matrix(params, shifted),
                                       ft.mass_matrix(params, q), rtol=0, atol=1e-12)
            np.testing.assert_allclose(ft.coriolis_matrix(params, shifted, v),
                                       ft.coriolis_matrix(params, q, v), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bounds_equal_the_full_torus_grid(self, n):
        params = ft.RobotParams(**random_chain(np.random.default_rng([n, 2]), n))
        per_joint = max(2, int(np.ceil(robot_dynamics._BOUND_GRID_TARGET ** (1.0 / n))))
        axis = np.linspace(-np.pi, np.pi, per_joint, endpoint=False)
        if per_joint % 2:
            axis -= axis[per_joint // 2]
        torus = np.stack([g.ravel() for g in np.meshgrid(*[axis] * n, indexing="ij")], axis=-1)
        phi = robot_dynamics.link_angles(torus)
        eigs = np.linalg.eigvalsh(robot_dynamics.inertia_kernel(params.arm, phi))
        growth = robot_dynamics._coriolis_growth(params.arm, phi).max()
        margin = robot_dynamics._BOUND_MARGIN
        inertia_margin = margin if n > 1 else 1.0   # a pendulum's inertia is exact
        b = params.bounds
        np.testing.assert_allclose(
            [b.inertia_min, b.inertia_max, b.coriolis_gain],
            [eigs[:, 0].min() / inertia_margin, eigs[:, -1].max() * inertia_margin,
             growth * margin], rtol=1e-14)

    @pytest.mark.parametrize("chain", [(n, [n, 3]) for n in range(1, 8)] + [(6, 6)],
                             ids=[f"n{n}" for n in range(1, 8)] + ["bench-six-link"])
    def test_pruned_growth_is_the_grid_maximum(self, chain):
        # the bound decomposes only the forms whose ceiling reaches the
        # running maximum; it must equal the maximum over every sample
        n, seed = chain
        params = ft.RobotParams(**random_chain(np.random.default_rng(seed), n))
        phi = robot_dynamics.link_angles(
            robot_dynamics._configuration_grid(n, robot_dynamics._BOUND_GRID_TARGET))
        growth = robot_dynamics._coriolis_growth(params.arm, phi)
        assert params.bounds.coriolis_gain == growth.max() * robot_dynamics._BOUND_MARGIN
        sums = robot_dynamics._growth_sums(params.arm, phi)
        assert np.all(robot_dynamics._growth_ceiling(sums) >= growth)
        # a chunk may hold no sample that reaches the running maximum
        assert robot_dynamics._spectral_growth(sums[:0]).shape == (0,)

    def test_six_link_build_decomposes_few_coriolis_forms(self, monkeypatch):
        eigvalsh, matrices = np.linalg.eigvalsh, []

        def counting(a):
            matrices.append(np.prod(np.shape(a)[:-2], dtype=int))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        ft.RobotParams(**random_chain(np.random.default_rng(6), 6))
        samples = robot_dynamics._configuration_grid(6, robot_dynamics._BOUND_GRID_TARGET).shape[0]
        # every sample's inertia matrix, then n Coriolis forms per decomposed sample
        forms = sum(matrices) - samples
        assert 0 < forms < 0.05 * 6 * samples

    def test_six_link_bounds_hold_at_random_configurations(self):
        # the benchmark's fixed 6-link chain: 5 grid points per joint, an odd
        # count, so the grid holds q = 0 only because it is shifted there
        params = ft.RobotParams(**random_chain(np.random.default_rng(6), 6))
        b = params.bounds
        rng = np.random.default_rng([6, 6])
        for _ in range(2000):
            q, v = rng.uniform(-np.pi, np.pi, 6), rng.normal(size=6)
            eigs = np.linalg.eigvalsh(ft.mass_matrix(params, q))
            assert b.inertia_min <= eigs[0] and eigs[-1] <= b.inertia_max
            growth = np.linalg.norm(ft.coriolis_matrix(params, q, v) @ v) / (v @ v)
            assert growth <= b.coriolis_gain

    def test_horizontal_plane_zero_gravity_caps(self, benchmark_params_flat):
        np.testing.assert_array_equal(
            benchmark_params_flat.bounds.gravity_caps, np.zeros(2))

    def test_single_pendulum_constant_inertia(self):
        params = ft.RobotParams(masses=[2.0], lengths=[0.5], com_offsets=[0.3],
                                inertias=[0.01])
        expected = 2.0 * 0.3**2 + 0.01
        assert params.bounds.inertia_min == pytest.approx(expected, rel=1e-12)
        assert params.bounds.inertia_max == pytest.approx(expected, rel=1e-12)
        assert params.bounds.inertia_min == params.bounds.inertia_max


class TestValidation:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="masses"):
            ft.RobotParams(masses=[-1.0, 1.0], lengths=[1, 1], com_offsets=[0.5, 0.5],
                           inertias=[0.1, 0.1])

    def test_rejects_com_beyond_link(self):
        with pytest.raises(ValueError, match="com_offsets"):
            ft.RobotParams(masses=[1.0], lengths=[0.5], com_offsets=[0.6], inertias=[0.1])

    def test_rejects_weak_actuators(self):
        # limits below the gravity caps: cannot hold the own link weight
        with pytest.raises(ValueError, match="torque limit"):
            ft.RobotParams(**BENCHMARK, torque_limits=[5.0, 5.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["masses", "lengths", "com_offsets", "inertias",
                                      "torque_limits"])
    def test_rejects_non_finite_vectors(self, name, value):
        vectors = dict(BENCHMARK, torque_limits=[40.0, 16.0])
        vectors[name] = np.array([value, vectors[name][1]])
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ft.RobotParams(**vectors)

    def test_accepts_strong_actuators(self):
        params = ft.RobotParams(**BENCHMARK, torque_limits=[40.0, 16.0])
        assert np.all(params.torque_limits > params.bounds.gravity_caps)

    def test_state_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ft.RobotState(q=[np.nan, 0.0], qdot=[0.0, 0.0])

    def test_state_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            ft.RobotState(q=[0.0, 0.0], qdot=[0.0])


class TestArmArrays:
    def test_built_once_from_the_parameters(self, benchmark_params):
        arm = benchmark_params.arm
        np.testing.assert_array_equal(arm.inertia, np.diag(BENCHMARK["inertias"]))
        # its suffix sums are the exact gravity caps
        np.testing.assert_allclose(np.cumsum(arm.gravity[::-1])[::-1],
                                   gravity_closed_form(BENCHMARK), rtol=1e-14)
        assert not any(a.flags.writeable for a in arm)

    def test_replace_rebuilds_them(self, benchmark_params):
        flat = replace(benchmark_params, gravity=0.0)
        np.testing.assert_array_equal(flat.arm.gravity, 0.0)
        np.testing.assert_array_equal(flat.arm.weights, benchmark_params.arm.weights)
