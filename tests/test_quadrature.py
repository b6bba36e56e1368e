"""Gaussian-weighted quadrature rules."""

import mpmath
import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.special import gamma

from blowuplab.errors import ConfigurationError, ContractViolation, NumericError
from blowuplab.quadrature import (
    cubic_spline,
    gaussian_mass,
    integrate,
    rule_for_grid,
    sphere_area,
)


@pytest.fixture(scope="module")
def rules():
    radial = np.linspace(0.0, 20.0, 256)
    return {
        1: rule_for_grid(np.linspace(-20.0, 20.0, 256), 1, "line"),
        2: rule_for_grid(radial, 2, "radial"),
        3: rule_for_grid(radial, 3, "radial"),
    }


def plain_trapezoid(nodes, N, geometry):
    """The rho-weighted trapezoid, with the surface factor on radial grids."""
    h = nodes[1] - nodes[0]
    w = np.full(nodes.shape, h)
    w[0] = w[-1] = h / 2.0
    if geometry == "line":
        return w * np.exp(-nodes * nodes / 4.0)
    return w * sphere_area(N) * nodes ** (N - 1) * np.exp(-nodes * nodes / 4.0)


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
        rule = rule_for_grid(np.linspace(0.0, 15.0, 64), 1, "radial")
        assert np.sum(rule.weights) == pytest.approx(np.sqrt(4.0 * np.pi), rel=1e-10)

    def test_nodes_increasing_weights_positive(self, rules):
        for rule in rules.values():
            assert np.all(np.diff(rule.nodes) > 0.0)
            assert np.all(rule.weights >= 0.0)

    @pytest.mark.parametrize("n", [64, 201, 801])
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_radial_weights_nonnegative_with_zero_origin(self, N, n):
        # integrate's finiteness argument needs both
        rule = rule_for_grid(np.linspace(0.0, 20.0, n), N, "radial")
        assert rule.weights[0] == 0.0
        assert np.all(rule.weights[1:] > 0.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            rule_for_grid(np.linspace(-20.0, 20.0, 256), 1, "hexagonal")

    def test_even_n_radial_grid_needs_the_correction_stencil(self):
        with pytest.raises(ConfigurationError, match="more than 7 nodes"):
            rule_for_grid(np.linspace(0.0, 20.0, 7), 2, "radial")

    def test_sphere_area(self):
        # the closed-form Gamma(N/2) gives scipy.special.gamma's bits
        for N in range(1, 7):
            assert sphere_area(N) == 2.0 * np.pi ** (N / 2.0) / gamma(N / 2.0)

    @pytest.mark.parametrize("N", [7, 9])
    def test_sphere_area_is_correctly_rounded_past_six(self, N):
        # here scipy's value sits 1 and 2 ulp below the 40-digit one
        with mpmath.workdps(40):
            exact = float(2 * mpmath.pi ** (mpmath.mpf(N) / 2) / mpmath.gamma(mpmath.mpf(N) / 2))
        assert abs(sphere_area(N) - exact) <= np.spacing(exact)


class TestMoments:
    # Gaussian moment oracles: int |y|^2 rho = 2N (4pi)^(N/2),
    # int |y|^4 rho = 4N(N+2) (4pi)^(N/2)
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_second_moment(self, rules, N):
        got = integrate(rules[N], rules[N].nodes**2)
        assert got == pytest.approx(2.0 * N * gaussian_mass(N), rel=1e-8)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_fourth_moment(self, rules, N):
        got = integrate(rules[N], rules[N].nodes**4)
        assert got == pytest.approx(4.0 * N * (N + 2.0) * gaussian_mass(N), rel=1e-8)

    def test_line_fourth_moment_value(self, rules):
        # 12 * sqrt(4 pi) = 42.539...
        assert integrate(rules[1], rules[1].nodes**4) == pytest.approx(
            12.0 * np.sqrt(4.0 * np.pi), rel=1e-8
        )


class TestIntegrate:
    def test_zero(self, rules):
        assert integrate(rules[1], np.zeros(rules[1].nodes.shape)) == 0.0

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
        # doubling R_max at equal h changes nothing, for growth up to degree 8
        for N, lo in ((1, -1.0), (2, 0.0), (3, 0.0)):
            geometry = "line" if N == 1 else "radial"
            r15 = rule_for_grid(np.linspace(15.0 * lo, 15.0, 301), N, geometry)
            r30 = rule_for_grid(np.linspace(30.0 * lo, 30.0, 601), N, geometry)
            h15, h30 = r15.nodes[1] - r15.nodes[0], r30.nodes[1] - r30.nodes[0]
            assert h15 == pytest.approx(h30, rel=1e-12)
            for deg in (2, 5, 8):
                a = integrate(r15, r15.nodes**deg + 1.0)
                b = integrate(r30, r30.nodes**deg + 1.0)
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
        with pytest.raises(ContractViolation):
            integrate(rules[1], np.ones((2, 2) + rules[1].nodes.shape))

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_stack_sums_each_row_alone_bitwise(self, rules, N):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((7,) + rules[N].nodes.shape)
        got = integrate(rules[N], stack)
        assert got.shape == (7,)
        assert np.array_equal(got, [integrate(rules[N], row) for row in stack])

    def test_stack_names_the_first_row_with_a_nonfinite_sample(self, rules):
        stack = np.ones((4,) + rules[1].nodes.shape)
        stack[3, 5] = np.nan
        stack[2, 200] = np.inf
        with pytest.raises(NumericError, match=r"\(index 200\) of row 2$"):
            integrate(rules[1], stack)

    def test_stack_overflow_from_finite_samples_is_returned(self, rules):
        stack = np.ones((3,) + rules[1].nodes.shape)
        stack[1] = 1e308
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = integrate(rules[1], stack)
        assert got[1] == np.inf and np.isfinite(got[[0, 2]]).all()


def _spline_case(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        x = np.linspace(-rng.uniform(1.0, 30.0), rng.uniform(1.0, 30.0), n)
    else:
        x = np.cumsum(rng.uniform(0.01, 1.0, n)) - rng.uniform(0.0, 10.0)
    y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
    return x, y, rng


class TestCubicSpline:
    @pytest.mark.parametrize("n", [4, 5, 64, 401, 900])
    @pytest.mark.parametrize("kind", ["uniform", "random"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scipy_bitwise(self, kind, n, seed):
        x, y, rng = _spline_case(kind, n, seed)
        width = x[-1] - x[0]
        at = np.concatenate([
            x,  # every knot, the last one included, which PPoly puts in the last interval
            rng.uniform(x[0], x[-1], 500),
            # outside the knots, where the end cubics extrapolate
            x[0] - width * rng.uniform(0.0, 0.1, 20),
            x[-1] + width * rng.uniform(0.0, 0.1, 20),
        ])
        assert np.array_equal(cubic_spline(x, y, at), CubicSpline(x, y)(at))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_refuses_fewer_than_four_knots(self, n):
        x = np.arange(float(n))
        with pytest.raises(ContractViolation, match="n >= 4"):
            cubic_spline(x, x, x)

    def test_refuses_mismatched_shapes(self):
        x = np.arange(6.0)
        with pytest.raises(ContractViolation, match="one shape"):
            cubic_spline(x, np.ones(5), x)
        with pytest.raises(ContractViolation, match="one shape"):
            cubic_spline(x, np.ones((2, 6)), x)

    @pytest.mark.parametrize("fault", ["repeated", "descending", "nan"])
    def test_refuses_x_not_strictly_increasing(self, fault):
        x = np.arange(6.0)
        if fault == "repeated":
            x[3] = x[2]
        elif fault == "descending":
            x = x[::-1]
        else:
            x[3] = np.nan
        with pytest.raises(ContractViolation, match="strictly increasing"):
            cubic_spline(x, np.ones(6), np.arange(6.0))


class TestGridRule:
    def test_line_grid_rule_keeps_the_grid(self):
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

    @pytest.mark.parametrize(
        "N, geometry, lo",
        [(1, "line", -20.0), (1, "radial", 0.0), (3, "radial", 0.0), (5, "radial", 0.0)],
    )
    def test_line_and_odd_n_weights_are_the_plain_trapezoid(self, N, geometry, lo):
        for n in (64, 201, 401):
            nodes = np.linspace(lo, 20.0, n)
            rule = rule_for_grid(nodes, N, geometry)
            assert np.array_equal(rule.weights, plain_trapezoid(nodes, N, geometry))

    @pytest.mark.parametrize("N", [2, 4])
    def test_even_n_correction_touches_the_first_seven_weights(self, N):
        nodes = np.linspace(0.0, 20.0, 201)
        rule = rule_for_grid(nodes, N, "radial")
        plain = plain_trapezoid(nodes, N, "radial")
        assert np.array_equal(rule.weights[7:], plain[7:])
        assert np.all(rule.weights[1:7] != plain[1:7])

    @pytest.mark.parametrize("N", [2, 4])
    def test_even_n_mass_error_falls_at_high_order(self, N):
        # Gregory's order-7 correction: halving h cuts the error by about 2^8,
        # where the plain trapezoid's h^2 end term would cut it by 4
        errs = []
        for n in (201, 401):
            rule = rule_for_grid(np.linspace(0.0, 20.0, n), N, "radial")
            errs.append(abs(np.sum(rule.weights) / gaussian_mass(N) - 1.0))
        assert errs[0] < 1e-8
        assert errs[0] / errs[1] > 2.0**7
