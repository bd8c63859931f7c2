import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline, PchipInterpolator

from cylwave.grids import Field, GridConfig, build_grid
from cylwave.weighted import (WeightedMeasure, WeightOverflowError, hermite,
                              pchip_slopes, quadrature_weights, shifted_hermite,
                              spline_slopes, translate, weighted_inner, weighted_norm_h1,
                              weighted_norm_l2, weighted_norm_h2)


def grid_1d(n_z=401, z=(-20.0, 20.0)):
    return build_grid(GridConfig(n_y=1, n_z=n_z, z_min=z[0], z_max=z[1],
                                 bc_axial_right="neumann"))


def bump(grid, center=0.0, width=2.0):
    # compactly supported (numerically) smooth profile
    return Field(grid, np.exp(-((grid.z - center) / width) ** 2)[None, :])


class TestNorms:
    def test_zero_field(self):
        g = grid_1d()
        m = WeightedMeasure(1.0)
        assert weighted_norm_l2(Field(g, np.zeros(g.shape)), m) == 0.0
        assert weighted_norm_h1(Field(g, np.zeros(g.shape)), m) == 0.0

    def test_unit_field_closed_form(self):
        # int_0^1 e^{2z} dz = (e^2 - 1)/2 on a unit-measure cross-section
        g = grid_1d(n_z=2001, z=(0.0, 1.0))
        val = weighted_norm_l2(Field(g, np.ones(g.shape)), WeightedMeasure(2.0))
        assert val == pytest.approx(np.sqrt((np.e ** 2 - 1) / 2), abs=2e-6)

    def test_h1_of_constant_equals_l2(self):
        g = grid_1d(n_z=101, z=(0.0, 5.0))
        u = Field(g, np.full(g.shape, 0.7))
        m = WeightedMeasure(0.5)
        assert weighted_norm_h1(u, m) == pytest.approx(weighted_norm_l2(u, m), rel=1e-12)

    def test_h1_closed_form(self):
        # u = e^{-z} on [0, L], c = 1: ||u||_{H1}^2 = 2 (1 - e^{-L})
        L = 3.0
        g = grid_1d(n_z=3001, z=(0.0, L))
        u = Field(g, np.exp(-g.z)[None, :])
        val = weighted_norm_h1(u, WeightedMeasure(1.0))
        assert val == pytest.approx(np.sqrt(2 * (1 - np.exp(-L))), abs=5e-5)

    def test_h2_at_least_h1(self):
        g = grid_1d(n_z=201, z=(-3.0, 3.0))
        u = bump(g)
        m = WeightedMeasure(0.3)
        assert weighted_norm_h2(u, m) >= weighted_norm_h1(u, m)

    def test_overflow_guard(self):
        g = grid_1d(n_z=101, z=(0.0, 800.0))
        with pytest.raises(WeightOverflowError, match="re-reference weight"):
            weighted_norm_l2(Field(g, np.ones(g.shape)), WeightedMeasure(1.0))

    def test_reference_shift_cancels_in_ratios(self):
        g = grid_1d(n_z=201, z=(-5.0, 5.0))
        u, v = bump(g, -1.0), bump(g, 1.0, width=1.0)
        r0 = weighted_norm_l2(u, WeightedMeasure(0.8, 0.0)) / weighted_norm_l2(v, WeightedMeasure(0.8, 0.0))
        r1 = weighted_norm_l2(u, WeightedMeasure(0.8, 2.5)) / weighted_norm_l2(v, WeightedMeasure(0.8, 2.5))
        assert r0 == pytest.approx(r1, rel=1e-13)

    def test_quadrature_weights_cached_read_only(self):
        # equal (grid, measure) keys share one array, so no caller may write it
        w = quadrature_weights(grid_1d(), WeightedMeasure(0.8, 1.5))
        assert quadrature_weights(grid_1d(), WeightedMeasure(0.8, 1.5)) is w
        assert quadrature_weights(grid_1d(), WeightedMeasure(0.8, 2.5)) is not w
        with pytest.raises(ValueError, match="read-only"):
            w *= 2.0

    def test_norm_factor_conversion(self):
        g = grid_1d(n_z=201, z=(-5.0, 5.0))
        u = bump(g)
        m0, m1 = WeightedMeasure(0.8, 0.0), WeightedMeasure(0.8, 2.0)
        n0, n1 = weighted_norm_l2(u, m0), weighted_norm_l2(u, m1)
        assert n1 * m1.norm_factor(m0.z_ref) == pytest.approx(n0, rel=1e-13)


class TestInner:
    def test_inner_with_zero(self):
        g = grid_1d(n_z=101, z=(-3.0, 3.0))
        assert weighted_inner(bump(g), Field(g, np.zeros(g.shape)), WeightedMeasure(1.0)) == 0.0

    def test_inner_consistent_with_norm(self):
        g = grid_1d(n_z=101, z=(-3.0, 3.0))
        u = bump(g, 0.4)
        m = WeightedMeasure(0.7)
        assert weighted_inner(u, u, m) == pytest.approx(weighted_norm_l2(u, m) ** 2, rel=1e-14)

    def test_sin_cos_orthogonal_under_unit_weight(self):
        # full periods on the window; tiny weight rate emulates the unweighted pairing
        g = grid_1d(n_z=4001, z=(0.0, 2 * np.pi))
        s = Field(g, np.sin(g.z)[None, :])
        c = Field(g, np.cos(g.z)[None, :])
        m = WeightedMeasure(1e-9)
        val = weighted_inner(s, c, m)
        assert abs(val) < 1e-7 * weighted_norm_l2(s, m) * weighted_norm_l2(c, m)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_cauchy_schwarz(self, seed):
        g = grid_1d(n_z=64, z=(-2.0, 2.0))
        rng = np.random.default_rng(seed)
        u = Field(g, rng.normal(size=g.shape))
        v = Field(g, rng.normal(size=g.shape))
        m = WeightedMeasure(0.9)
        lhs = abs(weighted_inner(u, v, m))
        rhs = weighted_norm_l2(u, m) * weighted_norm_l2(v, m)
        assert lhs <= rhs * (1 + 1e-12)


class TestTranslate:
    def test_identity(self):
        g = grid_1d(n_z=101, z=(-3.0, 3.0))
        u = bump(g)
        assert np.array_equal(translate(u, 0.0).values, u.values)

    def test_inverse_pair(self):
        g = grid_1d(n_z=401, z=(-10.0, 10.0))
        u = Field(g, (0.5 * (1 - np.tanh(g.z)))[None, :])
        back = translate(translate(u, 0.37), -0.37)
        assert np.max(np.abs(back.values - u.values)) < 1e-6

    def test_monotone_profile_stays_monotone(self):
        g = grid_1d(n_z=401, z=(-10.0, 10.0))
        u = Field(g, (0.5 * (1 - np.tanh(1.3 * g.z)))[None, :])
        out = translate(u, 0.83)
        assert np.all(np.diff(out.values[0]) <= 1e-15)

    def test_out_of_range_rejected(self):
        g = grid_1d(n_z=101, z=(-3.0, 3.0))
        with pytest.raises(ValueError):
            translate(bump(g), 3.01)

    def test_shift_law_compact_support(self):
        # ||T_eta u|| = e^{c eta / 2} ||u|| for data supported away from the ends
        g = grid_1d(n_z=1601, z=(-20.0, 20.0))
        u = bump(g, 0.0, 1.5)
        m = WeightedMeasure(0.6)
        n0 = weighted_norm_l2(u, m)
        for eta in (0.5, -0.5, 1.0, -1.0):
            n1 = weighted_norm_l2(translate(u, eta), m)
            assert n1 / n0 == pytest.approx(np.exp(0.3 * eta), rel=1e-6)


class TestHermiteOracle:
    """The NumPy Hermite helpers against scipy.interpolate.

    Node positions differ by rounding (``linspace`` nodes against a shift
    counted in cells of ``dz``), so values agree to ``16 eps`` times the
    value scale plus the slope scale times the coordinate scale, and
    derivatives to the same bound divided by ``dz``.
    """

    Z = (-10.0, 5.0)
    N = 301

    @classmethod
    def rows(cls):
        g = grid_1d(n_z=cls.N, z=cls.Z)
        rng = np.random.default_rng(7)
        y = np.vstack([
            0.5 * (1.0 - np.tanh(g.z)),                 # monotone front
            rng.normal(size=g.n_z),                     # non-monotone
            np.round(2.0 * rng.normal(size=g.n_z)),     # many flat segments
            np.sin(g.z) * np.exp(-0.1 * g.z ** 2),      # smooth, both signs
        ])
        return g, y

    @staticmethod
    def tolerances(g, y, d):
        eps = np.finfo(float).eps
        tol0 = 16 * eps * (np.max(np.abs(y)) + np.max(np.abs(g.z)) * np.max(np.abs(d)))
        return tol0, tol0 / g.dz

    @pytest.mark.parametrize("kind", ["pchip", "spline"])
    def test_slopes(self, kind):
        g, y = self.rows()
        ours = (pchip_slopes if kind == "pchip" else spline_slopes)(y, g.dz)
        ref = (PchipInterpolator if kind == "pchip" else CubicSpline)(g.z, y, axis=1)
        scale = np.max(np.abs(ref.derivative()(g.z)), axis=1, keepdims=True)
        assert np.all(np.abs(ours - ref.derivative()(g.z)) <= 1e-12 * scale)
        # 1D input gives the same slopes as the matching row of 2D input
        np.testing.assert_allclose(
            (pchip_slopes if kind == "pchip" else spline_slopes)(y[1], g.dz), ours[1],
            rtol=0, atol=1e-13 * scale[1, 0])

    def test_pchip_two_nodes_is_linear(self):
        y = np.array([[1.0, 3.0], [2.0, 2.0]])
        ref = PchipInterpolator([0.0, 0.5], y, axis=1)
        np.testing.assert_array_equal(pchip_slopes(y, 0.5), ref.derivative()([0.0, 0.5]))
        xq = np.linspace(0.0, 0.5, 7)
        np.testing.assert_allclose(hermite(np.array([0.0, 0.5]), y, pchip_slopes(y, 0.5), xq),
                                   ref(xq), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kind", ["pchip", "spline"])
    @pytest.mark.parametrize("cells", [0.0, 1e-12 / 0.05, -1e-12 / 0.05, 3.0, -17.0,
                                       7.4, -0.6, 150.0, -250.0, 301.0, -400.5])
    def test_shifted_hermite(self, kind, cells):
        g, y = self.rows()
        R = cells * g.dz
        if kind == "pchip":
            d, ref = pchip_slopes(y, g.dz), PchipInterpolator(g.z, y, axis=1)
        else:
            d, ref = spline_slopes(y, g.dz), CubicSpline(g.z, y, axis=1)
        tol0, tol1 = self.tolerances(g, y, d)
        zq = g.z - R
        inside = np.clip(zq, g.z_min, g.z_max)
        at, dz = ref(inside), ref.derivative()(inside)
        # beyond either end the derivative is zero; a node moved onto an end
        # to within rounding counts as inside
        edge = 1e-12 * g.dz
        dz[:, (zq < g.z_min - edge) | (zq > g.z_max + edge)] = 0.0
        assert np.max(np.abs(shifted_hermite(y, d, g.dz, R) - at)) <= tol0
        assert np.max(np.abs(shifted_hermite(y, d, g.dz, R, nu=1) - dz)) <= tol1

    def test_shift_by_whole_cells_reads_nodes(self):
        g, y = self.rows()
        d = spline_slopes(y, g.dz)
        out = shifted_hermite(y, d, g.dz, 5 * g.dz)
        np.testing.assert_array_equal(out[:, 5:], y[:, :-5])
        np.testing.assert_array_equal(out[:, :5], np.repeat(y[:, :1], 5, axis=1))
        np.testing.assert_array_equal(shifted_hermite(y, d, g.dz, 0.0, nu=1), d)

    @pytest.mark.parametrize("kind", ["pchip", "spline"])
    def test_hermite_at_other_points(self, kind):
        g, y = self.rows()
        if kind == "pchip":
            d, ref = pchip_slopes(y, g.dz), PchipInterpolator(g.z, y, axis=1)
        else:
            d, ref = spline_slopes(y, g.dz), CubicSpline(g.z, y, axis=1)
        tol0, _ = self.tolerances(g, y, d)
        xq = np.concatenate([[g.z_min, g.z_max], g.z[::7],
                             np.random.default_rng(3).uniform(g.z_min, g.z_max, 200)])
        assert np.max(np.abs(hermite(g.z, y, d, xq) - ref(xq))) <= tol0
        # across rows: the same interpolant along the first axis
        cols = y[:, ::50]
        yq = np.linspace(0.0, 3.0, 13)
        ref_y = PchipInterpolator(np.arange(4.0), cols, axis=0)(yq)
        ours = hermite(np.arange(4.0), cols.T, pchip_slopes(cols.T, 1.0), yq).T
        assert np.max(np.abs(ours - ref_y)) <= 1e-13 * np.max(np.abs(cols))

    def test_translate_is_shifted_pchip(self):
        g, y = self.rows()
        u = Field(build_grid(GridConfig(n_y=4, n_z=self.N, z_min=self.Z[0], z_max=self.Z[1],
                                        bc_axial_right="neumann")), y)
        np.testing.assert_array_equal(
            translate(u, 0.37).values,
            shifted_hermite(y, pchip_slopes(y, g.dz), g.dz, 0.37))
