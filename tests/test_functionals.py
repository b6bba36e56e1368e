"""Weighted energy functionals on similarity fields.

The a != 0 energy values marked as oracle constants come from mpmath
quadrature of the defining integrals at 40 digits.
"""

import tracemalloc

import numpy as np
import pytest

from blowuplab.core_math import Params, rescaled_F
from blowuplab.errors import ConfigurationError
from blowuplab.functionals import FunctionalConfig, FunctionalSnapshot, snapshot
from blowuplab.initial_data import line_grid
from blowuplab.quadrature import rule_for_grid
from blowuplab.similarity_solver import SimField, step_w

P30 = Params(3.0, 0.0)
P31 = Params(3.0, 1.0)
CFG = FunctionalConfig()
NODES = line_grid(20.0, 401)
RULE = rule_for_grid(NODES, 1, "line")
ROOT4PI = np.sqrt(4.0 * np.pi)


def const_field(c, s, params):
    return SimField(
        geometry="line",
        nodes=NODES,
        values=np.full(NODES.shape, float(c)),
        s=s,
        params=params,
    )


def random_field(seed, s=10.0, params=P31):
    rng = np.random.default_rng(seed)
    vals = 0.5 * np.exp(-NODES**2 / 9.0) * rng.standard_normal() + 0.1 * np.sin(
        NODES / 2.0
    )
    return SimField(geometry="line", nodes=NODES, values=vals, s=s, params=params)


def snap(field, cfg=CFG):
    return snapshot(field, cfg)


class TestE:
    def test_zero_field(self):
        assert snap(const_field(0.0, 5.0, P31)).E == 0.0

    def test_closed_form_a0(self):
        # constant c at a = 0: E = sqrt(4 pi) (c^2/4 - c^4/4)
        for c in (2.0**-0.5, 1.3):
            want = ROOT4PI * (c * c / 4.0 - c**4 / 4.0)
            got = snap(const_field(c, 300.0, P30)).E
            assert got == pytest.approx(want, rel=1e-10)

    def test_oracle_a1(self):
        # mpmath: c = 2^-1/2 -> 0.29892706145748230562; c = 2 -> -8.6271182406972846248
        got = snap(const_field(2.0**-0.5, 10.0, P31)).E
        assert got == pytest.approx(0.29892706145748231, rel=1e-8)
        got = snap(const_field(2.0, 10.0, P31)).E
        assert got == pytest.approx(-8.6271182406972846, rel=1e-8)

    def test_stable_path_at_large_s(self):
        f = random_field(3, s=700.0)
        assert np.isfinite(snap(f).E)

    def test_rule_is_the_field_grid_rule(self):
        # a field integrates with the rule of its own grid, built once and
        # handed to every field stepped from it
        nodes = line_grid(20.0, 201)
        f = SimField(geometry="line", nodes=nodes, values=np.ones(201), s=5.0, params=P31)
        want = rule_for_grid(nodes, 1, "line")
        np.testing.assert_array_equal(f.rule.weights, want.weights)
        assert f.rule.nodes is nodes
        # w = 1: J = -mass/(2s) with mass the sum of the weights
        assert -10.0 * snapshot(f, CFG).J == pytest.approx(np.sum(want.weights), rel=1e-14)
        assert step_w(f, 0.02).rule is f.rule


class TestFamily:
    def test_zero_field_values(self):
        f = const_field(0.0, 4.0, P31)
        sn = snap(f)
        assert sn.J == 0.0
        assert sn.H_m == 0.0
        assert sn.N_m == pytest.approx(CFG.A * np.exp(-4.0), rel=1e-14)
        assert sn.I == 0.0
        assert sn.L0 == 0.0
        assert sn.L == pytest.approx(
            CFG.theta * 4.0**-0.75, rel=1e-14
        )

    def test_J_closed_form(self):
        # w = 1, s = 2: J = -sqrt(4 pi)/4
        got = snap(const_field(1.0, 2.0, P31)).J
        assert got == pytest.approx(-ROOT4PI / 4.0, rel=1e-10)

    def test_H_definition_exact(self):
        for seed in range(4):
            sn = snap(random_field(seed))
            assert sn.H_m - sn.E - CFG.m0 * sn.J == 0.0

    def test_L_definition_exact(self):
        sn = snap(random_field(5, s=10.0))
        l0, val = sn.L0, sn.L
        assert val - np.exp(6.0 / np.sqrt(10.0)) * l0 - CFG.theta * 10.0**-0.75 == 0.0

    def test_theta_term_alone_decays(self):
        vals = [
            snap(const_field(0.0, s, P31)).L for s in (4.0, 9.0, 16.0, 25.0)
        ]
        assert np.all(np.diff(vals) < 0.0)


class TestSnapshot:
    def test_reconstruction_identities(self):
        for seed in range(3):
            f = random_field(seed, s=7.0)
            sn = snapshot(f, CFG)
            b = CFG.b(f.params)
            mass = sn.I * sn.s**b
            assert sn.L0 == pytest.approx(sn.E - sn.s**-1.5 * mass, abs=1e-12)
            assert sn.L == pytest.approx(
                np.exp((f.params.p + 3.0) / np.sqrt(sn.s)) * sn.L0
                + CFG.theta * sn.s**-0.75,
                abs=1e-12,
            )
            assert sn.H_m == pytest.approx(sn.E + CFG.m0 * sn.J, abs=1e-12)

    @pytest.mark.parametrize("params", [P31, Params(3.0, -1.0), Params(3.0, 0.0)])
    def test_snapshot_of_a_block_is_each_field_alone_bitwise(self, params):
        # a run's block: a (rows, n) stack of fields with one s per row; at
        # s = 2.16 numpy's array s**-1.5, at 2.36 its s**-0.75 and at 2.15
        # its s**-30 (s^(-b) at p = 3) is not the scalar's
        fields = [random_field(seed, s=s, params=params)
                  for seed, s in ((9, 5.0), (10, 2.16), (11, 40.0), (12, 2.36), (13, 2.15))]
        s = np.array([f.s for f in fields])
        assert (s ** -CFG.b(params))[-1] != float(s[-1]) ** -CFG.b(params)
        block = fields[0]._stepped(np.stack([f.values for f in fields]), s=s)
        got = snapshot(block, CFG)
        alone = [snapshot(f, CFG) for f in fields]
        for name in vars(got):
            assert getattr(got, name).shape == (5,)
            assert np.array_equal(getattr(got, name), [getattr(a, name) for a in alone])
        assert len(vars(got)) == len(FunctionalSnapshot.FIELDS) + 1  # and mass

    @pytest.mark.parametrize("kernel", ["snapshot", "rescaled_F"])
    def test_a_ledger_block_holds_at_most_six_and_a_half_blocks(self, kernel):
        # a run's 21 x 401 block (ceil(2^13 / 401) rows): each kernel forms
        # its values in place, so its traced peak stays near six blocks (11
        # for snapshot and 8 for rescaled_F when every step had its own
        # array); the heap top then does not grow and trim on every call
        s = 2.0 + np.arange(21) / 50
        fields = [random_field(seed, s=float(si)) for seed, si in enumerate(s)]
        block = fields[0]._stepped(np.stack([f.values for f in fields]), s=s)
        calls = {
            "snapshot": lambda: snapshot(block, CFG),
            "rescaled_F": lambda: rescaled_F(s, block.values, P31),
        }
        calls[kernel]()  # builds the (p, a) table of G outside the trace
        tracemalloc.start()
        try:
            calls[kernel]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * block.values.nbytes

    def test_b_exponent(self):
        assert CFG.b(P31) == CFG.m0 * 3.0

    @pytest.mark.parametrize("name", ["m0", "theta", "A"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0], ids=["inf", "nan", "zero"])
    def test_constants_must_be_finite_and_positive(self, name, bad):
        # theta = inf makes every L inf, m0 = inf makes N_m NaN and A = inf
        # makes it inf: each would leave the audit nothing to compare
        with pytest.raises(ConfigurationError, match="finite and > 0"):
            FunctionalConfig(**{name: bad})


class TestMass:
    def test_constant(self):
        # int w^2 rho dy = -2 s J
        sn = snap(const_field(2.0, 3.0, P31))
        assert -2.0 * sn.s * sn.J == pytest.approx(4.0 * ROOT4PI, rel=1e-10)
