import numpy as np
import pytest

from riemstats.errors import ConvergenceError, DomainError
from riemstats.geometry import (
    ChristoffelField,
    Euclidean,
    Hypersphere,
    InvariantMetric,
    SpecialEuclidean,
    christoffels_from_metric,
    exp_by_integration,
    log_by_shooting,
    transport_by_ladder,
)
from riemstats.geometry import invariant, numerical
from riemstats.geometry.numerical import _solve_metric, dormand_prince

# Spherical chart (theta, phi) on S^2: metric diag(1, sin^2 theta).


def sphere_metric_matrix(coords):
    theta = coords[..., 0]
    out = np.zeros(coords.shape[:-1] + (2, 2))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = np.sin(theta) ** 2
    return out


def sphere_christoffels_closed_form(coords):
    theta = coords[..., 0]
    gamma = np.zeros(coords.shape[:-1] + (2, 2, 2))
    gamma[..., 0, 1, 1] = -np.sin(theta) * np.cos(theta)
    cot = np.cos(theta) / np.sin(theta)
    gamma[..., 1, 0, 1] = cot
    gamma[..., 1, 1, 0] = cot
    return gamma


def chart_to_xyz(coords):
    theta, phi = coords[..., 0], coords[..., 1]
    return np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1
    )


def chart_pushforward(coords, vec):
    theta, phi = coords[..., 0], coords[..., 1]
    d_theta = np.stack(
        [np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -np.sin(theta)], axis=-1
    )
    d_phi = np.stack(
        [-np.sin(theta) * np.sin(phi), np.sin(theta) * np.cos(phi), np.zeros_like(theta)],
        axis=-1,
    )
    return vec[..., :1] * d_theta + vec[..., 1:] * d_phi


# Spherical coordinates (r, theta, phi) on R^3: metric diag(1, r^2, r^2 sin^2 theta).


def spherical_metric_matrix(coords):
    r, theta = coords[..., 0], coords[..., 1]
    out = np.zeros(coords.shape[:-1] + (3, 3))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = r**2
    out[..., 2, 2] = (r * np.sin(theta)) ** 2
    return out


def spherical_to_xyz(coords):
    return coords[..., :1] * chart_to_xyz(coords[..., 1:])


def spherical_pushforward(coords, vec):
    radial = chart_to_xyz(coords[..., 1:])
    return vec[..., :1] * radial + coords[..., :1] * chart_pushforward(coords[..., 1:], vec[..., 1:])


class TestSolveMetric:
    @pytest.mark.parametrize("columns", [1, 4], ids=["contraction", "tensor"])
    def test_closed_form_2x2_matches_lapack(self, columns, monkeypatch):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((500, 2, 2))
        g = a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(2)
        rhs = rng.standard_normal((500, 2, columns))
        expected = np.linalg.solve(g, rhs)

        def forbidden(*args):
            raise AssertionError("a 2x2 metric is solved in closed form")

        monkeypatch.setattr(np.linalg, "solve", forbidden)
        np.testing.assert_allclose(_solve_metric(g, rhs), expected, rtol=1e-12, atol=1e-13)
        with pytest.raises(DomainError, match="chart domain exit"):
            _solve_metric(np.diag([1.0, 0.0]), rhs[0])

    def test_spherical_chart_of_r3_has_straight_geodesics(self, monkeypatch):
        """A dim-3 chart solves through LAPACK; its geodesics are straight lines."""
        solved = []
        plain_solve = np.linalg.solve

        def counted_solve(*args):
            solved.append(args[0].shape)
            return plain_solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        field = christoffels_from_metric(spherical_metric_matrix, 3)
        rng = np.random.default_rng(13)
        base = np.stack(
            [rng.uniform(1.0, 2.0, 20), rng.uniform(0.8, np.pi - 0.8, 20),
             rng.uniform(-np.pi, np.pi, 20)],
            axis=-1,
        )
        vel = 0.15 * rng.standard_normal((20, 3))
        end = exp_by_integration(field, base, vel)
        expected = spherical_to_xyz(base) + spherical_pushforward(base, vel)
        np.testing.assert_allclose(spherical_to_xyz(end), expected, atol=1e-9)
        # One stacked solve per rate evaluation, over the members still running.
        assert solved and solved[0] == (20, 3, 3)
        assert all(len(shape) == 3 and shape[1:] == (3, 3) and 1 <= shape[0] <= 20
                   for shape in solved)
        assert all(b[0] <= a[0] for a, b in zip(solved, solved[1:]))


class TestChristoffels:
    def test_finite_differences_match_closed_form(self):
        gamma_fd = christoffels_from_metric(sphere_metric_matrix, 2)
        rng = np.random.default_rng(0)
        coords = np.stack(
            [rng.uniform(0.4, np.pi - 0.4, 50), rng.uniform(-np.pi, np.pi, 50)], axis=-1
        )
        np.testing.assert_allclose(
            gamma_fd(coords), sphere_christoffels_closed_form(coords), atol=1e-6
        )

    def test_lower_index_symmetry(self):
        gamma_fd = christoffels_from_metric(sphere_metric_matrix, 2)
        coords = np.array([1.2, 0.3])
        vals = gamma_fd(coords)
        np.testing.assert_allclose(vals, np.swapaxes(vals, -1, -2), atol=1e-9)

    def test_shape_validation(self):
        bad = ChristoffelField(lambda c: np.zeros(c.shape[:-1] + (2, 2)), 2)
        with pytest.raises(DomainError):
            bad(np.zeros(2))

    def test_non_finite_is_domain_exit(self):
        field = ChristoffelField(lambda c: np.full(c.shape[:-1] + (2, 2, 2), np.nan), 2)
        with pytest.raises(DomainError):
            field(np.zeros(2))


class TestGeodesicAcceleration:
    """``field(coords, v)`` is ``Gamma(v, v)``, the tensor contracted with ``v`` twice."""

    @pytest.mark.parametrize(
        "field",
        [
            christoffels_from_metric(sphere_metric_matrix, 2),
            ChristoffelField(sphere_christoffels_closed_form, 2),
        ],
        ids=["finite_differences", "closed_form"],
    )
    def test_equals_contracted_tensor(self, field):
        rng = np.random.default_rng(6)
        coords = np.stack(
            [rng.uniform(0.4, np.pi - 0.4, 50), rng.uniform(-np.pi, np.pi, 50)], axis=-1
        )
        vel = rng.standard_normal((50, 2))
        expected = np.einsum("...kij,...i,...j->...k", field(coords), vel, vel)
        np.testing.assert_allclose(field(coords, vel), expected, rtol=0.0, atol=1e-12)

    def test_integration_builds_no_tensor(self, monkeypatch):
        """No ``inv`` and no tensor; ``2 * dim + 1`` metric evaluations per rate
        evaluation, and ``1 + 6k`` rate evaluations for ``k`` adaptive steps."""
        calls, rate_calls = [], []

        def counted_metric(coords):
            calls.append(coords.shape)
            return sphere_metric_matrix(coords)

        contract = numerical._MetricChristoffels._contract

        def counted_contract(self, coords, velocity):
            rate_calls.append(coords.shape)
            return contract(self, coords, velocity)

        def forbidden(*args, **kwargs):
            raise AssertionError("the integration path builds the Christoffel tensor")

        monkeypatch.setattr(np.linalg, "inv", forbidden)
        monkeypatch.setattr(ChristoffelField, "_tensor", forbidden)
        monkeypatch.setattr(numerical._MetricChristoffels, "_contract", counted_contract)
        field = christoffels_from_metric(counted_metric, 2)
        base = np.array([[1.1, -0.4], [0.9, 0.2]])
        vel = np.array([[-0.3, 0.8], [0.5, 0.1]])
        end = exp_by_integration(field, base, vel)
        assert end.shape == (2, 2)
        assert len(rate_calls) > 1 and (len(rate_calls) - 1) % 6 == 0
        assert len(calls) == (2 * 2 + 1) * len(rate_calls)

    def test_singular_metric_is_domain_exit(self):
        """At the pole of the S^2 chart (theta = 0) the metric matrix is singular."""
        field = christoffels_from_metric(sphere_metric_matrix, 2)
        pole = np.array([0.0, 0.3])
        with pytest.raises(DomainError, match="chart domain exit"):
            field(pole)
        with pytest.raises(DomainError, match="chart domain exit"):
            field(pole, np.array([0.2, 0.1]))
        with pytest.raises(DomainError, match="chart domain exit"):
            exp_by_integration(field, pole, np.array([0.2, 0.1]))

    def test_non_finite_acceleration_is_domain_exit(self):
        def nan_metric(coords):
            return np.full(coords.shape[:-1] + (2, 2), np.nan)

        with pytest.raises(DomainError, match="chart domain exit"):
            christoffels_from_metric(nan_metric, 2)(np.zeros(2), np.ones(2))
        huge = ChristoffelField(lambda c: np.full(c.shape[:-1] + (2, 2, 2), 1e308), 2)
        with pytest.raises(DomainError, match="chart domain exit"):
            huge(np.zeros(2), np.full(2, 10.0))


class TestExpByIntegration:
    gamma = ChristoffelField(sphere_christoffels_closed_form, 2)

    def test_zero_velocity(self):
        base = np.array([1.0, 0.5])
        np.testing.assert_array_equal(exp_by_integration(self.gamma, base, np.zeros(2)), base)

    def test_flat_chart_is_translation(self):
        flat = ChristoffelField(lambda c: np.zeros(c.shape[:-1] + (2, 2, 2)), 2)
        base = np.array([0.3, -0.2])
        vel = np.array([1.0, 2.0])
        np.testing.assert_allclose(exp_by_integration(flat, base, vel), base + vel, atol=1e-12)

    def test_matches_closed_form_sphere_exp(self):
        rng = np.random.default_rng(1)
        sphere = Hypersphere(2).metric
        for _ in range(10):
            base = np.array([rng.uniform(1.0, np.pi - 1.0), rng.uniform(-1.0, 1.0)])
            vel = rng.standard_normal(2)
            vel = 0.5 * vel / np.linalg.norm(vel)
            end = exp_by_integration(self.gamma, base, vel)
            expected = sphere.exp(chart_pushforward(base, vel), chart_to_xyz(base))
            np.testing.assert_allclose(chart_to_xyz(end), expected, atol=1e-6)

    def test_error_falls_with_tolerance(self, monkeypatch):
        """The end-point error follows the step tolerance: below it at each
        setting, and cut by more than 30 for each 100-fold tighter setting."""
        base = np.array([1.0, 0.2])
        vel = np.array([0.4, 0.9])
        sphere = Hypersphere(2).metric
        expected = sphere.exp(chart_pushforward(base, vel), chart_to_xyz(base))
        errs = []
        for tol in (1e-5, 1e-7, 1e-9):
            monkeypatch.setattr(numerical, "_INTEGRATION_TOL", tol)
            end = exp_by_integration(self.gamma, base, vel)
            errs.append(np.max(np.abs(chart_to_xyz(end) - expected)))
            assert errs[-1] < tol
        assert errs[1] < errs[0] / 30 and errs[2] < errs[1] / 30

    def test_batch_equals_loop(self):
        gamma_fd = christoffels_from_metric(sphere_metric_matrix, 2)
        rng = np.random.default_rng(7)
        base = np.stack([rng.uniform(0.8, np.pi - 0.8, 50), rng.uniform(-3, 3, 50)], axis=-1)
        vel = 0.5 * rng.standard_normal((50, 2))
        batched = exp_by_integration(gamma_fd, base, vel)
        looped = np.stack([exp_by_integration(gamma_fd, b, v) for b, v in zip(base, vel)])
        np.testing.assert_allclose(batched, looped, rtol=0.0, atol=1e-12)

    def test_fd_christoffels_give_same_geodesic(self):
        gamma_fd = christoffels_from_metric(sphere_metric_matrix, 2)
        base = np.array([1.1, -0.4])
        vel = np.array([-0.3, 0.8])
        np.testing.assert_allclose(
            exp_by_integration(gamma_fd, base, vel),
            exp_by_integration(self.gamma, base, vel),
            atol=1e-6,
        )


def _chart_geodesics_inside(rng, count, max_speed, margin):
    """Seeded chart inputs like the benchmark's, with speeds up to ``max_speed``,
    kept to those whose closed-form geodesic stays at ``theta`` in
    ``[margin, pi - margin]``, so that the chart is smooth along it."""
    base = np.stack([rng.uniform(0.8, np.pi - 0.8, count), rng.uniform(-3, 3, count)], axis=-1)
    vel = rng.standard_normal((count, 2))
    vel *= (rng.uniform(0.05, max_speed, count) / np.linalg.norm(vel, axis=-1))[:, None]
    sphere = Hypersphere(2).metric
    start, push = chart_to_xyz(base), chart_pushforward(base, vel)
    path = sphere.exp(np.linspace(0.0, 1.0, 41)[:, None, None] * push, start)
    theta = np.arccos(np.clip(path[..., 2], -1.0, 1.0))
    inside = np.all((theta >= margin) & (theta <= np.pi - margin), axis=0)
    return base[inside], vel[inside], path[-1, inside]


class TestAdaptiveIntegration:
    """Geodesics integrate with ``dormand_prince``."""

    def test_chart_matches_closed_form_within_1e_8(self):
        rng = np.random.default_rng(21)
        base, vel, expected = _chart_geodesics_inside(rng, 300, 1.5, 0.3)
        assert len(base) >= 100
        field = christoffels_from_metric(sphere_metric_matrix, 2)
        end = exp_by_integration(field, base, vel)
        assert np.max(np.abs(chart_to_xyz(end) - expected)) < 1e-8

    def test_chart_batch_equals_loop_bit_for_bit(self):
        rng = np.random.default_rng(22)
        base, vel, _ = _chart_geodesics_inside(rng, 40, 1.5, 0.3)
        field = christoffels_from_metric(sphere_metric_matrix, 2)
        looped = np.stack([exp_by_integration(field, b, v) for b, v in zip(base, vel)])
        np.testing.assert_array_equal(exp_by_integration(field, base, vel), looped)

    @pytest.mark.parametrize("path", ["chart_exp", "invariant_exp", "invariant_log"])
    def test_every_geodesic_path_runs_dormand_prince(self, monkeypatch, path):
        """Each geodesic without a closed form is integrated by ``dormand_prince``."""
        calls = []

        def counted(rates, state, batch_ndim):
            calls.append(batch_ndim)
            return dormand_prince(rates, state, batch_ndim)

        monkeypatch.setattr(numerical, "dormand_prince", counted)
        monkeypatch.setattr(invariant, "dormand_prince", counted)
        se3 = SpecialEuclidean(3)
        vec = 0.3 * se3.lie_algebra_basis()[0]
        if path == "chart_exp":
            field = ChristoffelField(sphere_christoffels_closed_form, 2)
            exp_by_integration(field, np.array([1.0, 0.5]), np.array([0.1, 0.2]))
        elif path == "invariant_exp":
            se3.invariant_metric("left", np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])).exp(
                vec, se3.identity
            )
        else:
            metric = se3.invariant_metric("right")
            target = metric.exp(vec, se3.identity)
            calls.clear()
            metric.log(target, se3.identity)
        assert calls

    def test_batch_work_is_the_sum_of_solo_work(self):
        """Finished members leave the batch: its rate evaluations, counted per
        member, are those of its members run one by one, with the same bits."""
        rng = np.random.default_rng(24)
        base, vel, _ = _chart_geodesics_inside(rng, 30, 1.5, 0.3)
        field = christoffels_from_metric(sphere_metric_matrix, 2)
        sizes = []

        def counted(coords, velocity):
            sizes.append(len(coords))
            return field(coords, velocity)

        looped, solo = [], []
        for b, v in zip(base, vel):
            sizes.clear()
            looped.append(exp_by_integration(counted, b, v))
            solo.append(sum(sizes))
        assert min(solo) < max(solo)  # the members need different numbers of steps
        sizes.clear()
        np.testing.assert_array_equal(exp_by_integration(counted, base, vel), np.stack(looped))
        assert sum(sizes) == sum(solo)

    @pytest.mark.parametrize("cap", [3, 2])
    def test_step_cap_counts_steps_up_to_the_last(self, monkeypatch, cap):
        """``y' = 1`` takes the steps 0.1, 0.5 and 0.4: a cap of 3 steps is
        enough, and a cap of 2 leaves the time 0.4 as the residual."""

        def rates(y):
            return (np.ones_like(y),)

        (uncapped,) = dormand_prince(rates, (np.zeros((3, 2)),), 1)
        monkeypatch.setattr(numerical, "_MAX_STEPS", cap)
        if cap == 3:
            (out,) = dormand_prince(rates, (np.zeros((3, 2)),), 1)
            np.testing.assert_array_equal(out, uncapped)
        else:
            with pytest.raises(ConvergenceError) as info:
                dormand_prince(rates, (np.zeros((3, 2)),), 1)
            assert info.value.residual == pytest.approx(0.4, abs=1e-15)

    def test_component_with_an_empty_tail(self):
        """A state component of zero width has no say in the step error: the
        other component integrates as it does alone, and the empty one comes
        back with its shape."""

        def rates(a, b):
            return np.ones_like(a), np.zeros_like(b)

        (alone,) = dormand_prince(lambda a: (np.ones_like(a),), (np.zeros((3, 2)),), 1)
        out, empty = dormand_prince(rates, (np.zeros((3, 2)), np.zeros((3, 0))), 1)
        np.testing.assert_array_equal(out, alone)
        np.testing.assert_allclose(out, np.ones((3, 2)), rtol=0, atol=1e-15)
        assert empty.shape == (3, 0)

    def test_late_domain_exit_raises_after_others_finish(self):
        """A member whose rates turn non-finite after the others have finished
        still raises: here ``x' = 0`` ends in 3 steps, while ``x' = 5x`` from
        1 passes the bound 50 near t = 0.78 after many more."""
        sizes = []

        def rates(x, c):
            sizes.append(len(x))
            return np.where(x > 50.0, np.inf, c * x), np.zeros_like(c)

        with pytest.raises(DomainError, match="non-finite state"):
            dormand_prince(rates, (np.ones((2, 1)), np.array([[0.0], [5.0]])), 1)
        assert sizes[:19] == [2] * 19 and set(sizes[19:]) == {1}

    def test_step_cap_raises_convergence_error(self, monkeypatch):
        monkeypatch.setattr(numerical, "_MAX_STEPS", 2)
        field = ChristoffelField(sphere_christoffels_closed_form, 2)
        with pytest.raises(ConvergenceError) as info:
            exp_by_integration(field, np.array([1.0, 0.5]), np.array([0.4, 0.9]))
        assert info.value.residual > 0.0
        se3 = SpecialEuclidean(3)
        with pytest.raises(ConvergenceError) as info:
            se3.invariant_metric("right").exp(se3.lie_algebra_basis()[3], se3.identity)
        assert info.value.residual > 0.0

    @pytest.mark.parametrize("bad_after", [0, 7], ids=["first_stage", "last_stage"])
    def test_non_finite_stage_is_domain_exit(self, bad_after):
        """A non-finite rate raises at once, whichever stage it comes from."""
        calls = []

        def rates(y):
            calls.append(None)
            return (np.full_like(y, np.inf if len(calls) > bad_after else 1.0),)

        with pytest.raises(DomainError, match="non-finite state"):
            dormand_prince(rates, (np.zeros((4, 3)),), 1)
        assert len(calls) == bad_after + 1

    def test_flat_state_keeps_shapes_and_members(self):
        """Empty, two-axis and unbatched states come back in their own shapes,
        and a batch whose components have different tails equals its loop."""

        def rates(x, m):  # member-wise, by +, - and * only
            return m[..., 0] - x * m[..., 1], -x[..., :, None] * x[..., None, :]

        (empty,) = dormand_prince(lambda y: (np.ones_like(y),), (np.zeros((0, 2)),), 1)
        assert empty.shape == (0, 2)
        rng = np.random.default_rng(2222)
        x, m = rng.uniform(-1.0, 1.0, (3, 4, 2)), rng.uniform(-1.0, 1.0, (3, 4, 2, 2))
        x_out, m_out = dormand_prince(rates, (x, m), 2)
        assert (x_out.shape, m_out.shape) == (x.shape, m.shape)
        for i in range(3):
            for j in range(4):
                x_one, m_one = dormand_prince(rates, (x[i, j], m[i, j]), 0)
                assert (x_one.shape, m_one.shape) == ((2,), (2, 2))
                np.testing.assert_array_equal(x_out[i, j], x_one)
                np.testing.assert_array_equal(m_out[i, j], m_one)

    def test_rate_evaluations_are_one_plus_six_per_step(self):
        """``y' = 1`` takes the steps 0.1, 0.5 and 0.4: 1 + 6 * 3 rate evaluations."""
        shapes = []

        def rates(y):
            shapes.append(y.shape)
            return (np.ones_like(y),)

        (out,) = dormand_prince(rates, (np.zeros((5, 3)),), 1)
        assert shapes == [(5, 3)] * 19
        np.testing.assert_allclose(out, 1.0, rtol=0.0, atol=1e-15)


class TestInvariantMomentumRate:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_three_operand_einsum(self, side):
        se3 = SpecialEuclidean(3)
        metric = InvariantMetric(
            se3, side=side, inner_matrix=np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        )
        basis = se3.lie_algebra_basis()
        bracket = basis[:, None] @ basis[None] - basis[None] @ basis[:, None]
        structure = np.einsum("lac,jkac->ljk", basis, bracket)  # <e_l, [e_j, e_k]>_F
        rng = np.random.default_rng(8)
        mu, xi = rng.standard_normal((2, 20, 6))
        expected = np.einsum("...l,...j,ljk->...k", mu, xi, structure)
        expected = expected if side == "left" else -expected
        np.testing.assert_allclose(metric._momentum_rate(mu, xi), expected, rtol=0.0, atol=1e-14)


class TestLogByShooting:
    gamma = ChristoffelField(sphere_christoffels_closed_form, 2)

    def _exp(self, vel, base):
        return exp_by_integration(self.gamma, base, vel)

    def test_target_equals_base(self):
        base = np.array([1.0, 0.3])
        np.testing.assert_allclose(log_by_shooting(self._exp, base, base), np.zeros(2), atol=1e-12)

    def test_flat_chart_difference(self):
        flat_gamma = ChristoffelField(lambda c: np.zeros(c.shape[:-1] + (2, 2, 2)), 2)

        def flat_exp(vel, base):
            return exp_by_integration(flat_gamma, base, vel)

        base = np.array([0.1, 0.2])
        target = np.array([1.4, -0.5])
        np.testing.assert_allclose(
            log_by_shooting(flat_exp, base, target), target - base, atol=1e-10
        )

    def test_matches_closed_form_sphere_log(self):
        rng = np.random.default_rng(2)
        base = np.array([1.2, 0.1])
        vel_true = 0.7 * rng.standard_normal(2)
        target = self._exp(vel_true, base)
        vel = log_by_shooting(self._exp, base, target, tol=1e-10)
        np.testing.assert_allclose(vel, vel_true, atol=1e-6)

    def test_batched_problems(self):
        rng = np.random.default_rng(3)
        bases = np.stack([rng.uniform(0.8, 2.0, 8), rng.uniform(-1.0, 1.0, 8)], axis=-1)
        vels = 0.5 * rng.standard_normal((8, 2))
        targets = self._exp(vels, bases)
        out = log_by_shooting(self._exp, bases, targets, tol=1e-9)
        np.testing.assert_allclose(out, vels, atol=1e-6)

    def test_non_convergence_carries_residual(self):
        base = np.array([1.0, 0.0])
        target = np.array([1.5, 1.0])
        with pytest.raises(ConvergenceError) as info:
            log_by_shooting(self._exp, base, target, max_iter=0)
        assert info.value.residual is not None


class TestPoleLadder:
    def test_endpoint_equals_base(self):
        sphere = Hypersphere(2).metric
        base = np.array([1.0, 0.0, 0.0])
        vec = np.array([0.0, 0.4, -0.2])
        np.testing.assert_allclose(
            transport_by_ladder(sphere, vec, base, base, n_rungs=5), vec, atol=1e-12
        )

    def test_euclidean_exact(self):
        metric = Euclidean(3).metric
        vec = np.array([1.0, 2.0, 3.0])
        out = transport_by_ladder(metric, vec, np.zeros(3), np.array([5.0, -1.0, 2.0]))
        np.testing.assert_allclose(out, vec, atol=1e-12)

    def test_sphere_matches_closed_form(self):
        rng = np.random.default_rng(4)
        sphere = Hypersphere(2)
        metric = sphere.metric
        base = sphere.random_point(rng=rng)
        vec = metric.random_tangent(base, rng=rng)
        direction = metric.random_tangent(base, rng=rng)
        end = metric.exp(direction, base)
        expected = metric.parallel_transport(vec, base, direction=direction)
        out = transport_by_ladder(metric, vec, base, end, n_rungs=50)
        np.testing.assert_allclose(out, expected, atol=1e-5)

    def test_each_rung_reuses_the_previous_end(self):
        metric = Hypersphere(2).metric
        calls = {"exp": 0, "log": 0}

        class Counting:
            def exp(self, vec, base):
                calls["exp"] += 1
                return metric.exp(vec, base)

            def log(self, point, base):
                calls["log"] += 1
                return metric.log(point, base)

        base, end = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        out = transport_by_ladder(Counting(), np.array([0.0, 0.0, 1.0]), base, end, n_rungs=7)
        np.testing.assert_allclose(out, [0.0, 0.0, 1.0], atol=1e-12)
        # One batched exp gives every rung's start, midpoint and end; each
        # rung then makes two exps and two logs.
        assert calls == {"exp": 1 + 2 * 7, "log": 1 + 2 * 7}

    @pytest.mark.parametrize("space", ["stiefel52", "sphere2"])
    def test_batched_rung_points_equal_per_rung_exps(self, space):
        """The rung points of one batched exp give the bits of one exp per point."""
        from riemstats.geometry import Stiefel

        rng = np.random.default_rng(41)
        manifold = Stiefel(5, 2) if space == "stiefel52" else Hypersphere(2)
        metric = manifold.metric
        base = manifold.random_point(rng=rng)
        vec = metric.random_tangent(base, rng=rng)
        vec = 0.3 * vec / metric.norm(vec, base)
        direction = metric.random_tangent(base, rng=rng)
        end = metric.exp(0.4 * direction / metric.norm(direction, base), base)

        n_rungs = 6
        whole = metric.log(end, base)
        expected = vec
        start = metric.exp(0.0 * whole, base)
        for i in range(n_rungs):
            mid = metric.exp(((i + 0.5) / n_rungs) * whole, base)
            nxt = metric.exp(((i + 1.0) / n_rungs) * whole, base)
            reflected = metric.exp(-metric.log(metric.exp(expected, start), mid), mid)
            expected = -metric.log(reflected, nxt)
            start = nxt
        np.testing.assert_array_equal(
            transport_by_ladder(metric, vec, base, end, n_rungs=n_rungs), expected
        )

    def test_norm_drift_under_20_rungs(self):
        from riemstats.geometry import Hyperboloid
        from riemstats.geometry.spd import SPDMatrices

        rng = np.random.default_rng(5)
        for space in (Hypersphere(2), Hyperboloid(2), SPDMatrices(2)):
            metric = space.default_metric
            base = space.random_point(rng=rng)
            vec = metric.random_tangent(base, rng=rng)
            end = space.random_point(rng=rng)
            out = transport_by_ladder(metric, vec, base, end, n_rungs=20)
            drift = abs(float(metric.norm(out, end)) - float(metric.norm(vec, base)))
            assert drift < 1e-4, space.name
