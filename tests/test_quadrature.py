"""Gaussian-weighted quadrature rules."""

import numpy as np
import pytest

from blowuplab.errors import ConfigurationError, ContractViolation, NumericError
from blowuplab.quadrature import (
    build_rule,
    gaussian_mass,
    integrate,
    rule_for_grid,
    sphere_area,
)


@pytest.fixture(scope="module")
def rules():
    return {
        1: build_rule(1, "line", 256, 20.0),
        2: build_rule(2, "radial", 256, 20.0),
        3: build_rule(3, "radial", 256, 20.0),
    }


class TestConstruction:
    def test_mass_line(self, rules):
        assert np.sum(rules[1].weights) == pytest.approx(
            np.sqrt(4.0 * np.pi), rel=1e-10
        )

    def test_mass_radial(self, rules):
        assert np.sum(rules[3].weights) == pytest.approx(
            (4.0 * np.pi) ** 1.5, rel=1e-10
        )

    def test_radial_mode_for_n1(self):
        rule = build_rule(1, "radial", 64, 15.0)
        assert np.sum(rule.weights) == pytest.approx(np.sqrt(4.0 * np.pi), rel=1e-10)

    def test_nodes_increasing_weights_positive(self, rules):
        for rule in rules.values():
            assert np.all(np.diff(rule.nodes) > 0.0)
            assert np.all(rule.weights > 0.0)
            assert np.max(np.abs(rule.nodes)) <= rule.truncation_radius

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            build_rule(0, "line", 256, 20.0)
        with pytest.raises(ConfigurationError):
            build_rule(1, "line", 8, 20.0)
        with pytest.raises(ConfigurationError):
            build_rule(1, "line", 256, 5.0)
        with pytest.raises(ConfigurationError):
            build_rule(2, "line", 256, 20.0)
        with pytest.raises(ConfigurationError):
            build_rule(1, "hexagonal", 256, 20.0)

    def test_sphere_area(self):
        assert sphere_area(1) == pytest.approx(2.0)
        assert sphere_area(2) == pytest.approx(2.0 * np.pi)
        assert sphere_area(3) == pytest.approx(4.0 * np.pi)


class TestMoments:
    # Gaussian moment oracles: int |y|^2 rho = 2N (4pi)^(N/2),
    # int |y|^4 rho = 4N(N+2) (4pi)^(N/2)
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_second_moment(self, rules, N):
        got = integrate(rules[N], lambda y: y * y)
        assert got == pytest.approx(2.0 * N * gaussian_mass(N), rel=1e-8)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_fourth_moment(self, rules, N):
        got = integrate(rules[N], lambda y: y**4)
        assert got == pytest.approx(4.0 * N * (N + 2.0) * gaussian_mass(N), rel=1e-8)

    def test_line_fourth_moment_value(self, rules):
        # 12 * sqrt(4 pi) = 42.539...
        assert integrate(rules[1], lambda y: y**4) == pytest.approx(
            12.0 * np.sqrt(4.0 * np.pi), rel=1e-8
        )


class TestIntegrate:
    def test_zero(self, rules):
        assert integrate(rules[1], lambda y: 0.0 * y) == 0.0

    def test_constant(self, rules):
        for N in (1, 2, 3):
            got = integrate(rules[N], np.full(rules[N].nodes.shape, 3.5))
            assert got == pytest.approx(3.5 * gaussian_mass(N), rel=1e-10)

    def test_linearity(self, rules):
        rule = rules[1]
        rng = np.random.default_rng(7)
        g1 = rng.standard_normal(rule.nodes.shape)
        g2 = rng.standard_normal(rule.nodes.shape)
        lhs = integrate(rule, 2.5 * g1 - 1.25 * g2)
        rhs = 2.5 * integrate(rule, g1) - 1.25 * integrate(rule, g2)
        assert lhs == pytest.approx(rhs, abs=1e-13 * (1 + abs(rhs)))

    def test_positivity(self, rules):
        rng = np.random.default_rng(11)
        g = np.abs(rng.standard_normal(rules[2].nodes.shape))
        assert integrate(rules[2], g) >= 0.0

    def test_truncation_adequacy(self):
        # doubling R_max changes nothing, for growth up to degree 8
        for N, mode in ((1, "line"), (3, "radial")):
            r15 = build_rule(N, mode, 512, 15.0)
            r30 = build_rule(N, mode, 1024, 30.0)
            for deg in (2, 5, 8):
                a = integrate(r15, lambda y: y**deg + 1.0)
                b = integrate(r30, lambda y: y**deg + 1.0)
                assert a == pytest.approx(b, rel=1e-10)

    def test_nonfinite_sample_names_node(self, rules):
        g = np.ones(rules[1].nodes.shape)
        g[132] = np.inf
        with pytest.raises(NumericError, match="node"):
            integrate(rules[1], g)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("index", [0, 128, 255], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("N", [1, 3])
    def test_nonfinite_sample_raises_at_its_node(self, rules, N, index, bad):
        g = np.ones(rules[N].nodes.shape)
        g[index] = bad
        with pytest.raises(NumericError, match=rf"\(index {index}\)$"):
            integrate(rules[N], g)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_nonfinite_sample_on_zero_weight_origin_raises(self, bad):
        rule = rule_for_grid(np.linspace(0.0, 20.0, 257), 3, "radial")
        assert rule.weights[0] == 0.0
        g = np.ones(rule.nodes.shape)
        g[0] = bad
        with pytest.raises(NumericError, match=r"node 0 \(index 0\)$"):
            integrate(rule, g)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflow_from_finite_samples_is_returned(self, rules, sign):
        # sum of weights sqrt(4 pi) > 1: every sample finite, the sum is not
        g = np.full(rules[1].nodes.shape, sign * 1e308)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert integrate(rules[1], g) == sign * np.inf

    def test_shape_mismatch(self, rules):
        with pytest.raises(ContractViolation):
            integrate(rules[1], np.ones(7))


class TestGridRule:
    def test_line_grid_rule_matches_build_rule(self):
        nodes = np.linspace(-20.0, 20.0, 401)
        rule = rule_for_grid(nodes, 1, "line")
        assert np.sum(rule.weights) == pytest.approx(np.sqrt(4.0 * np.pi), rel=1e-10)
        assert np.array_equal(rule.nodes, nodes)

    def test_radial_grid_rule_n3(self):
        nodes = np.linspace(0.0, 20.0, 257)
        rule = rule_for_grid(nodes, 3, "radial")
        # integrand r^2 rho extends evenly through the origin: trapezoid is
        # spectrally accurate here
        assert np.sum(rule.weights) == pytest.approx((4.0 * np.pi) ** 1.5, rel=1e-10)
        assert rule.weights[0] == 0.0  # measure vanishes at the origin
