import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cylwave.grids import (DIRICHLET, NEUMANN, CrossSectionField, Field,
                           GridConfig, GridError, _apply_transport, _section_operator,
                           apply_boundary, axial_bands, axial_derivative, build_grid,
                           half_grid, section_derivative,
                           transport_operator)


def grid_1d(n_z=401, z=(-20.0, 20.0), axial_right=DIRICHLET):
    return build_grid(GridConfig(n_y=1, n_z=n_z, z_min=z[0], z_max=z[1],
                                 bc_axial_right=axial_right))


def grid_2d(n_y=33, n_z=41, bc=NEUMANN, axial_right=NEUMANN):
    return build_grid(GridConfig(n_y=n_y, n_z=n_z, y_min=0.0, y_max=1.0,
                                 z_min=-2.0, z_max=2.0, bc_left=bc, bc_right=bc,
                                 bc_axial_right=axial_right))


class TestBuildGrid:
    def test_axial_spacing(self):
        g = grid_1d(n_z=401, z=(-20.0, 20.0))
        assert g.dz == pytest.approx(0.1)

    def test_section_spacing(self):
        g = grid_2d(n_y=33)
        assert g.dy == pytest.approx(1.0 / 32.0)

    def test_too_few_axial_points(self):
        with pytest.raises(GridError, match="axial resolution too small"):
            build_grid(GridConfig(n_y=1, n_z=8, z_min=0.0, z_max=1.0))

    def test_empty_window(self):
        with pytest.raises(GridError):
            build_grid(GridConfig(n_z=32, z_min=1.0, z_max=1.0))

    def test_unknown_tag(self):
        with pytest.raises(GridError, match="unknown boundary tag"):
            build_grid(GridConfig(n_y=5, n_z=32, z_min=0, z_max=1, bc_left="robin"))

    def test_pure_1d_requires_neumann(self):
        with pytest.raises(GridError):
            build_grid(GridConfig(n_y=1, n_z=32, z_min=0, z_max=1, bc_left=DIRICHLET))

    def test_no_free_section_node_rejected(self):
        # two cross-section nodes are too few for the one-sided d/dy at the
        # section ends, whatever the boundary tags
        for bc_left, bc_right in itertools.product((NEUMANN, DIRICHLET), repeat=2):
            with pytest.raises(GridError, match="n_y = 2"):
                build_grid(GridConfig(n_y=2, bc_left=bc_left, bc_right=bc_right))

    def test_deterministic(self):
        cfg = GridConfig(n_y=5, n_z=32, z_min=0.0, z_max=1.0)
        assert build_grid(cfg) == build_grid(cfg)

    def test_grid_is_immutable(self):
        g = grid_1d()
        with pytest.raises(Exception):
            g.n_z = 10

    def test_axial_nodes_built_once_and_read_only(self):
        g = grid_1d()
        assert g.z is g.z
        np.testing.assert_array_equal(g.z, np.linspace(g.z_min, g.z_max, g.n_z))
        with pytest.raises(ValueError):
            g.z[0] = 0.0
        # the cached nodes stay out of equality and hashing (cache keys)
        fresh = grid_1d()
        assert g == fresh and hash(g) == hash(fresh)

    def test_section_nodes_and_pinned_mask_built_once_and_read_only(self):
        g = grid_2d(n_y=5, bc=DIRICHLET)
        assert g.y is g.y and g.dirichlet_mask is g.dirichlet_mask
        np.testing.assert_array_equal(g.y, np.linspace(0.0, 1.0, 5))
        assert g.dirichlet_mask[[0, -1]].all() and not g.dirichlet_mask[1:-1].any()
        with pytest.raises(ValueError):
            g.y[0] = 1.0
        with pytest.raises(ValueError):
            g.dirichlet_mask[2, 0] = True
        # a field built from the shared nodes zeroes its pinned ends in a copy
        v = CrossSectionField(g, g.y)
        assert v.values[0] == v.values[-1] == 0.0 and g.y[-1] == 1.0
        fresh = grid_2d(n_y=5, bc=DIRICHLET)
        assert g == fresh and hash(g) == hash(fresh)


class TestHalfGrid:
    def test_shipped_grids_nest(self):
        import glob
        import os

        from cylwave.config import parse_config_file

        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        shapes = set()
        for path in sorted(glob.glob(os.path.join(root, "*.cfg"))):
            g = parse_config_file(path).make_grid()
            h = half_grid(g)
            shapes.add(g.shape)
            # coarse node (i, j) is fine node (2i, 2j), and nothing else moves
            assert h.shape == ((g.n_y + 1) // 2, (g.n_z + 1) // 2)
            assert np.array_equal(h.z, g.z[::2]) and np.array_equal(h.y, g.y[::2])
            assert np.array_equal(h.dirichlet_mask, g.dirichlet_mask[::2, ::2])
            assert (h.z_min, h.z_max, h.y_min, h.y_max, h.bc_left, h.bc_right) == (
                g.z_min, g.z_max, g.y_min, g.y_max, g.bc_left, g.bc_right)
        assert shapes == {(1, 1201), (1, 401), (65, 371)}

    @pytest.mark.parametrize("n_y, n_z", [(1, 400), (33, 40), (32, 41), (1, 29), (3, 41)])
    def test_even_or_too_small_has_none(self, n_y, n_z):
        # with an even count the last node is no coarse node; n_z = 29 would
        # halve to 15 < 16 axial nodes, n_y = 3 to 2 section nodes
        g = grid_1d(n_z=n_z) if n_y == 1 else grid_2d(n_y=n_y, n_z=n_z)
        assert half_grid(g) is None

    def test_smallest_halves(self):
        assert half_grid(grid_1d(n_z=31)).n_z == 16
        assert half_grid(grid_2d(n_y=5, n_z=31)).shape == (3, 16)


class TestFields:
    def test_shape_mismatch(self):
        g = grid_1d(n_z=32)
        with pytest.raises(GridError):
            Field(g, np.zeros((1, 31)))

    def test_nonfinite_rejected(self):
        g = grid_1d(n_z=32)
        vals = np.zeros((1, 32))
        vals[0, 3] = np.nan
        with pytest.raises(GridError):
            Field(g, vals)

    def test_section_dirichlet_ends_zeroed(self):
        g = grid_2d(bc=DIRICHLET)
        f = CrossSectionField(g, np.ones(g.n_y))
        assert f.values[0] == 0.0 and f.values[-1] == 0.0


class TestApplyBoundary:
    def test_dirichlet_rows_zeroed(self):
        g = grid_2d(bc=DIRICHLET, axial_right=DIRICHLET)
        out = apply_boundary(Field(g, np.ones(g.shape)))
        assert np.all(out.values[0, :] == 0.0)
        assert np.all(out.values[-1, :] == 0.0)
        assert np.all(out.values[:, -1] == 0.0)

    def test_neumann_leaves_constants(self):
        g = grid_2d(bc=NEUMANN, axial_right=NEUMANN)
        u = Field(g, np.ones(g.shape))
        assert np.array_equal(apply_boundary(u).values, u.values)

    def test_idempotent(self):
        g = grid_2d(bc=DIRICHLET, axial_right=DIRICHLET)
        rng = np.random.default_rng(0)
        u = Field(g, rng.uniform(size=g.shape))
        once = apply_boundary(u)
        twice = apply_boundary(once)
        assert np.array_equal(once.values, twice.values)

    def test_mirror_ghost_kills_normal_derivative(self):
        # linear-in-y data: the operator's boundary row must equal the
        # mirror-ghost stencil, whose implied centered normal derivative is 0
        g = grid_2d(bc=NEUMANN, axial_right=NEUMANN)
        u = Field(g, np.tile(g.y[:, None], (1, g.n_z)))
        lap = _apply_transport(g, u.values, 0.0)
        mirror_row0 = 2.0 * (u.values[1, :] - u.values[0, :]) / g.dy ** 2
        np.testing.assert_allclose(lap[0, :], mirror_row0, atol=1e-12)
        ghost = u.values[1, :]  # reflection
        normal = (u.values[1, :] - ghost) / (2 * g.dy)
        assert np.max(np.abs(normal)) == 0.0


class TestLaplacianAdvection:
    def test_constants_annihilated(self):
        g = grid_2d(bc=NEUMANN, axial_right=NEUMANN)
        out = _apply_transport(g, np.ones(g.shape), 0.7)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_linear_axial_advection_exact(self):
        g = grid_1d(n_z=81, z=(-4.0, 4.0), axial_right=NEUMANN)
        out = _apply_transport(g, np.tile(g.z, (1, 1)), 2.0)
        np.testing.assert_allclose(out[0, 1:-1], 2.0, atol=1e-11)

    def test_dirichlet_sine_eigenfunction(self):
        errs = []
        for n_y in (33, 65):
            g = build_grid(GridConfig(n_y=n_y, n_z=17, y_min=0.0, y_max=1.0,
                                      z_min=0.0, z_max=1.0, bc_left=DIRICHLET,
                                      bc_right=DIRICHLET, bc_axial_right=NEUMANN))
            u = np.tile(np.sin(np.pi * g.y)[:, None], (1, g.n_z))
            out = _apply_transport(g, u, 0.0)
            expect = -np.pi ** 2 * u[1:-1, 1:-1]
            errs.append(np.max(np.abs(out[1:-1, 1:-1] - expect)))
        assert errs[0] < 0.01 * np.pi ** 2
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)

    def test_interior_row_sums_vanish(self):
        g = grid_2d(bc=NEUMANN, axial_right=NEUMANN)
        A = transport_operator(g, 0.9).toarray()
        sums = A.sum(axis=1).reshape(g.shape)
        np.testing.assert_allclose(sums, 0.0, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_linearity(self, seed, alpha, beta):
        g = grid_2d(n_y=9, n_z=17)
        rng = np.random.default_rng(seed)
        u, v = rng.normal(size=g.shape), rng.normal(size=g.shape)
        lhs = _apply_transport(g, alpha * u + beta * v, 0.4)
        rhs = alpha * _apply_transport(g, u, 0.4) + beta * _apply_transport(g, v, 0.4)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8 * (1 + abs(alpha) + abs(beta)))

    @pytest.mark.parametrize("n_y, bc_left, bc_right, bc_axial_right", [
        (1, NEUMANN, NEUMANN, NEUMANN),
        (1, NEUMANN, NEUMANN, DIRICHLET),
    ] + [(7,) + tags for tags in itertools.product((NEUMANN, DIRICHLET), repeat=3)])
    def test_matrix_free_apply_matches_assembled_operator(self, n_y, bc_left, bc_right,
                                                          bc_axial_right):
        # the residual applies the operator from its bands; the Newton polish
        # factors the assembled matrix, so the two must agree; the random
        # values are nonzero on pinned nodes too, which both must map to zero
        g = build_grid(GridConfig(n_y=n_y, n_z=33, y_max=2.0, z_min=-3.0, z_max=2.0,
                                  bc_left=bc_left, bc_right=bc_right,
                                  bc_axial_right=bc_axial_right))
        u = np.random.default_rng(7).uniform(-1.0, 1.0, g.shape)
        for c in (0.0, 0.37, -0.2):
            want = (transport_operator(g, c) @ u.ravel()).reshape(g.shape)
            got = _apply_transport(g, u, c)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            assert not got[g.dirichlet_mask].any()

    @pytest.mark.parametrize("g", [
        grid_1d(n_z=33),
        grid_2d(n_y=7, n_z=33, bc=NEUMANN, axial_right=NEUMANN),
        grid_2d(n_y=7, n_z=33, bc=DIRICHLET, axial_right=DIRICHLET),
    ], ids=["1d", "neumann_2d", "dirichlet_2d"])
    @pytest.mark.parametrize("c", [0.0, 0.37])
    def test_five_diagonals_match_kron_assembly(self, g, c):
        # reference: the axial block on every section plus the section
        # operator on every axial node, pinned rows zeroed by a mask product
        lower, diag, upper = axial_bands(g, c)
        ref = sp.kron(sp.identity(g.n_y), sp.diags([lower[1:], diag, upper[:-1]], [-1, 0, 1]))
        if g.n_y > 1:
            ref = ref + sp.kron(_section_operator(g), sp.identity(g.n_z))
        ref = (sp.diags((~g.dirichlet_mask.ravel()).astype(float)) @ ref).tocsc()
        A = transport_operator(g, c)
        assert A.format == "csc" and A.shape == ref.shape
        assert A.nnz == ref.nnz and (A != ref).nnz == 0
        assert not A.toarray()[g.dirichlet_mask.ravel()].any()
        d = np.random.default_rng(3).normal(size=g.n_y * g.n_z)
        assert (transport_operator(g, c, d) != A + sp.diags(d)).nnz == 0


class TestDerivatives:
    """The slice kernels reproduce ``np.gradient(..., edge_order=2)`` bit for
    bit, so the weighted norms and the tracker's h'' keep their values."""

    @pytest.mark.parametrize("n_y, n_z", itertools.product((1, 3, 7, 65), (16, 371, 1201)))
    def test_match_numpy_gradient_bitwise(self, n_y, n_z):
        g = build_grid(GridConfig(n_y=n_y, n_z=n_z, y_min=-0.3, y_max=1.7,
                                  z_min=-33.0, z_max=17.0))
        rng = np.random.default_rng(n_y * 10_000 + n_z)
        for scale in (1e-3, 1.0, 1e3):
            values = scale * rng.standard_normal(g.shape)
            assert np.array_equal(axial_derivative(values, g),
                                  np.gradient(values, g.dz, axis=1, edge_order=2))
            expect = (np.zeros(g.shape) if n_y == 1
                      else np.gradient(values, g.dy, axis=0, edge_order=2))
            assert np.array_equal(section_derivative(values, g), expect)
