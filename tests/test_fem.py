"""Tests for P1 finite elements: assembly, eigensystem, projections, norms."""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.integrate import quad, trapezoid

from spdefem import FemSpace, L2Comparer, SpectralBasis, operator_error_norm
from spdefem.fem import _largest_singular_value
from spdefem.rng import substream

from oracles import (alias_class_svd_norm, field_values,
                     parabola_coefficients, semigroup, union_knot_distance)


def closed_form_discrete_eigenvalues(n_elements, length=1.0):
    """Uniform-mesh eigenvalues of M^{-1} S (independent derivation)."""
    h = length / n_elements
    i = np.arange(1, n_elements)
    c = np.cos(i * np.pi * h / length)
    return (6.0 / h ** 2) * (1.0 - c) / (2.0 + c)


def dense_eigensystem(space):
    """Generalized eigh of (S, M), each column's sign fixed so that its
    first entry is positive, as for the discrete sines sin(i pi j / N)."""
    lam, vecs = sla.eigh(space.stiffness.toarray(), space.mass.toarray())
    return lam, vecs * np.sign(vecs[0])


def hat_coupling(space, basis):
    """<phi_j, e_k> from the hat antiderivative, valid on any mesh."""
    nodes = space.nodes
    a, m, b = nodes[:-2], nodes[1:-1], nodes[2:]
    w = basis.frequencies
    sin_a, sin_m, sin_b = (np.sin(np.outer(x, w)) for x in (a, m, b))
    return np.sqrt(2.0 / basis.length) * (
        (sin_m - sin_a) / (m - a)[:, None]
        + (sin_m - sin_b) / (b - m)[:, None]) / w ** 2


class TestAssembly:
    def test_uniform_mass_and_stiffness_rows(self):
        # Hat-function product integrals on a uniform mesh: mass row
        # (h/6)[1, 4, 1], stiffness row (1/h)[-1, 2, -1].
        n_el, h = 8, 1.0 / 8.0
        space = FemSpace(n_el)
        i = 3
        assert space.mass[i, i] == pytest.approx(4 * h / 6, rel=1e-14)
        assert space.mass[i, i + 1] == pytest.approx(h / 6, rel=1e-14)
        assert space.mass[i, i - 1] == pytest.approx(h / 6, rel=1e-14)
        assert space.stiffness[i, i] == pytest.approx(2 / h, rel=1e-14)
        assert space.stiffness[i, i + 1] == pytest.approx(-1 / h, rel=1e-14)
        assert np.abs(space.mass[0, 2:]).max() == 0.0

    @pytest.mark.parametrize("n_el", [2, 3, 9, 64])
    def test_mass_and_stiffness_are_sparse_tridiagonal(self, n_el):
        space = FemSpace(n_el, length=2.0)
        n, h = space.n, 2.0 / n_el
        ones = np.ones(n - 1)
        dense_mass = (h / 6.0) * (4.0 * np.eye(n) + np.diag(ones, 1)
                                  + np.diag(ones, -1))
        dense_stiffness = (1.0 / h) * (2.0 * np.eye(n) - np.diag(ones, 1)
                                       - np.diag(ones, -1))
        for matrix, dense in ((space.mass, dense_mass),
                              (space.stiffness, dense_stiffness)):
            assert sp.issparse(matrix) and matrix.format == "csr"
            assert matrix.nnz == 3 * n - 2
            assert np.allclose(matrix.toarray(), dense, rtol=1e-14,
                               atol=0.0)

    def test_mass_rows_match_quadrature(self):
        space = FemSpace(8, length=2.0)
        nodes = space.nodes

        def hat(x, j):
            a, m, b = nodes[j - 1], nodes[j], nodes[j + 1]
            return np.where(
                (x >= a) & (x <= m), (x - a) / (m - a),
                np.where((x > m) & (x <= b), (b - x) / (b - m), 0.0))

        for (i, j) in [(3, 3), (3, 4), (5, 4)]:
            val, _ = quad(lambda x: hat(x, i) * hat(x, j), 0.0, 2.0,
                          points=list(nodes), limit=400)
            assert space.mass[i - 1, j - 1] == pytest.approx(val, abs=1e-12)

    def test_single_interior_node_eigenvalue_is_twelve(self):
        # h = 1/2: M = [h/3 * 2] = 1/3, S = [2/h] = 4, so lambda = 12.
        space = FemSpace(2)
        assert space.n == 1
        assert space.eigenvalues[0] == pytest.approx(12.0, rel=1e-13)
        v = np.array([0.7])
        out = semigroup(space, 0.25, v)
        assert out[0] == pytest.approx(0.7 * np.exp(-3.0), rel=1e-13)


class TestEigensystem:
    @pytest.mark.parametrize("n_el", [4, 16, 64])
    def test_uniform_eigenvalues_match_closed_form(self, n_el):
        space = FemSpace(n_el)
        expected = closed_form_discrete_eigenvalues(n_el)
        assert np.abs(space.eigenvalues - expected).max() < 1e-9 * expected[-1]

    @pytest.mark.parametrize("mesh", [(32, 1.0), (24, 2.0)])
    def test_discrete_eigenvalues_dominate_continuous(self, mesh):
        space = FemSpace(*mesh)
        lam = (np.arange(1, space.n + 1) * np.pi / space.length) ** 2
        assert np.all(space.eigenvalues >= lam * (1.0 - 1e-12))
        # quadratic growth envelope: lambda_h / lambda <= 12 / pi^2 < 2
        assert (space.eigenvalues / lam).max() <= 2.0

    def test_eigenvectors_mass_orthonormal(self):
        space = FemSpace(24, length=2.0)
        vecs = space.from_eigen(np.eye(space.n))
        gram = vecs.T @ space.mass @ vecs
        assert np.abs(gram - np.eye(space.n)).max() < 1e-12

    def test_semigroup_max_principle(self):
        # sup-norm stability of the discrete semigroup, constant below 2
        # (measured worst ratio ~0.96 over these meshes and times).
        worst = 0.0
        for space in [FemSpace(16), FemSpace(64), FemSpace(24, length=2.0)]:
            gen = substream(42, purpose="test")
            for _ in range(20):
                v = gen.standard_normal(space.n)
                for t in [1e-4, 1e-3, 1e-2, 0.1, 1.0]:
                    out = semigroup(space, t, v)
                    worst = max(worst, np.abs(out).max() / np.abs(v).max())
        assert worst <= 2.0

    def test_discrete_smoothing_l2_to_sup(self):
        # ||S_h(t) P_h f||_inf <= C t^{-1/4} ||f|| uniformly in h and t
        # (measured constant ~0.063; frozen bound leaves 3x headroom).
        basis = SpectralBasis(k_max=512)
        worst = 0.0
        for n_el in [8, 32, 128]:
            space = FemSpace(n_el)
            gen = substream(7, purpose="test")
            for _ in range(10):
                x = gen.standard_normal(512)
                x /= np.linalg.norm(x)
                v = space.l2_project(basis, x)
                for t in [2.0 ** -j for j in range(2, 13)]:
                    val = np.abs(semigroup(space, t, v)).max() * t ** 0.25
                    worst = max(worst, val)
        assert worst <= 0.2


class TestClosedForms:
    """The closed-form eigensystem, transforms and overlaps against dense
    versions assembled here."""

    @pytest.mark.parametrize("n_el", [2, 4, 8, 64, 512])
    def test_match_dense_eigensystem(self, n_el):
        space = FemSpace(n_el)
        lam, vecs = dense_eigensystem(space)
        assert np.abs(space.eigenvalues - lam).max() <= 1e-12 * lam.max()
        scale = np.abs(vecs).max()
        assert np.abs(space.from_eigen(np.eye(space.n)) - vecs).max() \
            <= 1e-10 * scale
        gen = substream(30, purpose="test")
        for shape in [(space.n,), (space.n, 5)]:
            x = gen.standard_normal(shape)
            to = vecs.T @ space.mass @ x
            assert space.to_eigen(x).shape == shape
            assert np.abs(space.to_eigen(x) - to).max() \
                <= 1e-10 * np.abs(to).max()
            back = vecs @ x
            assert space.from_eigen(x).shape == shape
            assert np.abs(space.from_eigen(x) - back).max() \
                <= 1e-10 * np.abs(back).max()
            assert np.abs(space.to_eigen(space.from_eigen(x)) - x).max() \
                <= 1e-12 * np.abs(x).max()

    @pytest.mark.parametrize("n_el", [2, 4, 8, 64, 512])
    def test_coupling_and_overlaps_match_dense(self, n_el):
        space = FemSpace(n_el)
        basis = SpectralBasis(k_max=4 * n_el + 3)
        coupling = hat_coupling(space, basis)
        # the reference's sine differences cancel at low modes, costing it
        # about eps / (pi h)^2 relative: 6e-12 at N = 512
        assert np.abs(space.coupling(basis) - coupling).max() \
            <= 1e-10 * np.abs(coupling).max()
        _, vecs = dense_eigensystem(space)
        dense = vecs.T @ coupling
        overlap = space.mode_overlap(basis).toarray()
        assert np.abs(overlap - dense).max() <= 1e-10 * np.abs(dense).max()
        # one nonzero per column, none for the modes that vanish at
        # every node (k = 0 or N mod 2N); the other entries are exact zeros
        k = basis.modes
        per_column = (overlap != 0.0).sum(axis=0)
        null = (k % n_el) == 0
        assert np.all(per_column[null] == 0)
        assert np.all(per_column[~null] == 1)

    @pytest.mark.parametrize("n_el,k_max", [
        (n_el, k_max) for n_el in (2, 3, 8, 64)
        for k_max in (n_el + 1, 4 * n_el + 3)])
    def test_eigen_route_products_match_dense(self, n_el, k_max):
        # C = M V B: the L2 projection and the solves against the hat
        # coupling and dense solves with M and S.  Below 2N modes
        # alias by reflection; k = N (and 2N above) vanish at every node.
        space = FemSpace(n_el)
        basis = SpectralBasis(k_max=k_max)
        coupling = hat_coupling(space, basis)
        mass, stiffness = space.mass.toarray(), space.stiffness.toarray()
        gen = substream(31, purpose="test")
        for batch in [(), (3,)]:
            x = gen.standard_normal((k_max,) + batch)
            v = gen.standard_normal((space.n,) + batch)
            cases = {
                "l2_project": (space.l2_project(basis, x),
                               np.linalg.solve(mass, coupling @ x)),
                "solve_mass": (space.solve_mass(v),
                               np.linalg.solve(mass, v)),
                "solve_stiffness": (space.solve_stiffness(v),
                                    np.linalg.solve(stiffness, v)),
            }
            for name, (got, want) in cases.items():
                assert got.shape == want.shape, name
                assert np.abs(got - want).max() \
                    <= 1e-12 * np.abs(want).max(), (name, batch)


class TestProjections:
    def test_l2_projection_idempotent_on_space_members(self):
        space = FemSpace(8)
        basis = SpectralBasis(k_max=8192)
        v = substream(12, purpose="test").standard_normal(space.n)
        coeffs = hat_coupling(space, basis).T @ v
        again = space.l2_project(basis, coeffs)
        assert np.abs(again - v).max() < 1e-10

    def test_l2_projection_self_adjoint(self):
        space = FemSpace(12)
        basis = SpectralBasis(k_max=256)
        gen = substream(13, purpose="test")
        for _ in range(5):
            x = gen.standard_normal(256)
            w = gen.standard_normal(space.n)
            lhs = space.l2_project(basis, x) @ space.mass @ w
            rhs = x @ (hat_coupling(space, basis).T @ w)
            assert lhs == pytest.approx(rhs, abs=1e-8 * max(1.0, abs(rhs)))

    def test_projection_error_decays_for_smooth_function(self):
        basis = SpectralBasis(k_max=512)
        coeffs = parabola_coefficients(basis)
        errs = []
        for n_el in [4, 8, 16, 32]:
            space = FemSpace(n_el)
            v = space.l2_project(basis, coeffs)
            pts = np.linspace(0.0, 1.0, 2049)
            exact = pts * (1.0 - pts)
            errs.append(np.sqrt(trapezoid(
                (field_values(space, v, pts) - exact) ** 2, pts)))
        rates = np.log2(np.array(errs[:-1]) / errs[1:])
        assert np.all(rates > 1.8)


class TestNormEquivalence:
    @pytest.mark.parametrize("gamma", [-0.5, -0.25, 0.25, 0.5])
    def test_discrete_and_continuous_fractional_norms_equivalent(self, gamma):
        # Ratios measured in [0.96, 1.06] across these meshes; equality is
        # exact at gamma = 1/2 where both sides are the H^1_0 seminorm.
        big = SpectralBasis(k_max=2048)
        ratios = []
        for n_el in [8, 16, 32, 64]:
            space = FemSpace(n_el)
            gen = substream(11, purpose="test")
            level = []
            for _ in range(10):
                v = gen.standard_normal(space.n)
                if gamma == 0.5:
                    cont = np.sqrt(v @ space.stiffness @ v)
                else:
                    ck = hat_coupling(space, big).T @ v
                    cont = np.sqrt(np.sum(big.eigenvalues ** (2 * gamma) * ck ** 2))
                c = space.to_eigen(v)
                disc = np.sqrt(np.sum(space.eigenvalues ** (2 * gamma) * c ** 2))
                level.append(cont / disc)
            ratios.append(level)
        flat = np.concatenate(ratios)
        assert flat.min() > 0.5 and flat.max() < 2.0
        medians = np.median(np.asarray(ratios), axis=1)
        assert medians.max() / medians.min() < 1.5


class TestOperatorErrorNorms:
    def test_projection_error_operator_is_contraction(self):
        # The modes that vanish at every node pass through I - P_h
        # untouched, so the norm is exactly 1.
        basis = SpectralBasis(k_max=128)
        nrm = operator_error_norm(FemSpace(8), basis,
                                  s=0, r=0, which="l2")
        assert abs(nrm - 1.0) <= 1e-12

    @pytest.mark.parametrize("n_el,k_max", [
        (n_el, k_max) for n_el in (4, 8, 16)
        for k_max in (4 * (n_el - 1), 16 * n_el, 100)])
    def test_matches_dense_operator_svd(self, n_el, k_max):
        # Assemble the whole k_max x k_max weighted operator densely and
        # take its largest singular value.
        space = FemSpace(n_el)
        basis = SpectralBasis(k_max=k_max)
        lam = basis.eigenvalues
        coup = space.coupling(basis)
        mass, stiffness = space.mass.toarray(), space.stiffness.toarray()
        t = 0.01
        flow = sla.expm(-t * np.linalg.solve(mass, stiffness))
        kernels = {
            "l2": np.eye(k_max) - coup.T @ np.linalg.solve(mass, coup),
            "ritz": np.eye(k_max) - coup.T @ np.linalg.solve(
                stiffness, coup * lam),
            "semigroup": (coup.T @ flow @ np.linalg.solve(mass, coup)
                          - np.diag(np.exp(-lam * t))),
        }
        cases = [("l2", 0.0, 0.0), ("l2", 0.0, 2.0), ("l2", 0.5, 1.5),
                 ("l2", 1.0, 2.0), ("ritz", 1.0, 2.0), ("ritz", 0.5, 1.5),
                 ("ritz", 0.0, 1.0), ("semigroup", 0.0, 0.0),
                 ("semigroup", 0.0, 1.0), ("semigroup", 0.0, 2.0)]
        for which, s, r in cases:
            dense = (lam[:, None] ** (s / 2.0) * kernels[which]
                     * lam[None, :] ** (-r / 2.0))
            expected = np.linalg.norm(dense, 2)
            got = operator_error_norm(space, basis, s=s, r=r, which=which,
                                      t=t if which == "semigroup" else None)
            assert got == pytest.approx(expected, rel=1e-10), (which, s, r)

    @pytest.mark.parametrize("n_el,k_max", [(128, 600), (128, 2048),
                                            (8, 2048)])
    @pytest.mark.parametrize("which,s,r,t", [
        ("l2", 0.0, 0.0, None), ("l2", 0.0, 2.0, None),
        ("l2", 0.5, 1.5, None), ("ritz", 1.0, 2.0, None),
        ("ritz", 0.0, 1.0, None),
        *(("semigroup", 0.0, r, t) for t in (0.01, 1.0)
          for r in (0.0, 1.0, 2.0))])
    def test_matches_alias_class_svd(self, n_el, k_max, which, s, r, t):
        # Ragged classes (600 modes over 256 residues at 128 elements),
        # the cancelling first class of the semigroup error at t = 0.01,
        # r = 2, and gains e^{-lambda_h t} that underflow to 0 at t = 1.
        space = FemSpace(n_el)
        basis = SpectralBasis(k_max=k_max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = operator_error_norm(space, basis, s=s, r=r, which=which,
                                      t=t)
        expected = alias_class_svd_norm(space, basis, s=s, r=r, which=which,
                                        t=t)
        assert got == pytest.approx(expected, rel=1e-11)

    def test_makes_no_dense_linear_algebra_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense linear algebra call")

        for name in ("norm", "svd", "eig", "eigh", "eigvalsh", "solve"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(np, "dot", refuse)
        nrm = operator_error_norm(FemSpace(8),
                                  SpectralBasis(k_max=256), s=1.0, r=2.0,
                                  which="ritz")
        assert 0.0 < nrm < 1.0

    def test_zero_blocks(self):
        # At t = 1e4 every weight underflows: all blocks and the null
        # class vanish.  A zero row beside a nonzero block adds nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert operator_error_norm(
                FemSpace(16), SpectralBasis(k_max=64),
                which="semigroup", t=1e4) == 0.0
            zero = np.zeros((3, 2, 4))
            assert _largest_singular_value(*zero, np.ones(2)) == 0.0
            delta, u, v = zero
            delta[1, :3] = [3.0, 0.5, 3.0]
            u[1, :3] = [1.0, -2.0, 0.25]
            v[1, :3] = [0.5, 1.0, 4.0]
            got = _largest_singular_value(delta, u, v, np.array([1.0, 0.7]))
        block = np.diag(delta[1]) - 0.7 * np.outer(u[1], v[1])
        assert got == pytest.approx(np.linalg.norm(block, 2), rel=1e-14)

    @pytest.mark.parametrize("which,s,r", [("l2", 0.0, 2.0), ("l2", 0.0, 1.0),
                                           ("ritz", 1.0, 2.0)])
    def test_weighted_error_orders(self, which, s, r):
        basis = SpectralBasis(k_max=256)
        hs, errs = [], []
        for n_el in [8, 16, 32]:
            space = FemSpace(n_el)
            hs.append(space.h)
            errs.append(operator_error_norm(space, basis, s=s, r=r, which=which))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - (r - s)) < 0.15

    def test_semigroup_error_smoothing_bound(self):
        # ||(S_h(t) P_h - S(t))|| <= C h^2 / t; measured constant ~0.047.
        basis = SpectralBasis(k_max=256)
        for n_el in [8, 16, 32]:
            space = FemSpace(n_el)
            h = space.h
            for t in [0.001, 0.016, 0.25, 1.0]:
                nrm = operator_error_norm(space, basis, which="semigroup",
                                          r=0.0, t=t)
                assert nrm * t / h ** 2 <= 0.15

    def test_argument_validation(self):
        space = FemSpace(8)
        basis = SpectralBasis(k_max=64)
        with pytest.raises(ValueError, match="which"):
            operator_error_norm(space, basis, which="nope")
        with pytest.raises(ValueError):
            operator_error_norm(space, basis, s=0.5, r=0.2, which="l2")
        with pytest.raises(ValueError):
            operator_error_norm(space, basis, s=0.0, r=0.5, which="ritz")
        with pytest.raises(ValueError):
            operator_error_norm(space, basis, which="semigroup", r=0.0)
        with pytest.raises(ValueError, match="basis too small"):
            operator_error_norm(FemSpace(64),
                                SpectralBasis(k_max=64), which="l2")


class TestUnionNorm:
    """The nested-mesh comparer against the union-knot Simpson rule of
    `oracles.union_knot_distance`, which assumes no nesting."""

    def test_same_space_matches_mass_norm(self):
        space = FemSpace(8)
        gen = substream(19, purpose="test")
        va, vb = gen.standard_normal(space.n), gen.standard_normal(space.n)
        cmp_ = L2Comparer(space, space)
        expected = space.l2_norm(va - vb)
        assert cmp_.distance(va, vb) == pytest.approx(expected, rel=1e-12)

    def test_cross_mesh_distance_matches_fine_quadrature(self):
        fine, coarse = FemSpace(24), FemSpace(8)
        gen = substream(20, purpose="test")
        vf, vc = gen.standard_normal(fine.n), gen.standard_normal(coarse.n)
        cmp_ = L2Comparer(fine, coarse)
        pts = np.linspace(0.0, 1.0, 200001)
        diff = field_values(fine, vf, pts) - field_values(coarse, vc, pts)
        oracle = np.sqrt(trapezoid(diff ** 2, pts))
        assert cmp_.distance(vf, vc) == pytest.approx(oracle, rel=1e-6)

    def test_batched_columns_match_loop(self):
        fine, coarse = FemSpace(16), FemSpace(4)
        gen = substream(21, purpose="test")
        vf = gen.standard_normal((fine.n, 5))
        vc = gen.standard_normal((coarse.n, 5))
        cmp_ = L2Comparer(fine, coarse)
        batch = cmp_.distance(vf, vc)
        for j in range(5):
            assert batch[j] == pytest.approx(
                cmp_.distance(vf[:, j], vc[:, j]), rel=1e-13)

    @pytest.mark.parametrize("ratio", [1, 2, 8, 64])
    @pytest.mark.parametrize("batch", [(), (6,)])
    def test_matches_union_knot_oracle(self, ratio, batch):
        fine, coarse = FemSpace(4 * ratio, 2.0), FemSpace(4, 2.0)
        gen = substream(22, purpose="test")
        vf = gen.standard_normal((fine.n,) + batch)
        vc = gen.standard_normal((coarse.n,) + batch)
        got = L2Comparer(fine, coarse).distance(vf, vc)
        want = union_knot_distance(fine, coarse, vf, vc)
        assert np.shape(got) == batch
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("ratio", [1, 2, 8, 64])
    def test_equal_fields_are_at_distance_zero(self, ratio):
        # small integers at the coarse nodes interpolate exactly at the
        # dyadic fine nodes, so the fine field equals the coarse one
        fine, coarse = FemSpace(4 * ratio), FemSpace(4)
        vc = np.array([3.0, -1.0, 2.0])
        vf = field_values(coarse, vc, fine.interior)
        cmp_ = L2Comparer(fine, coarse)
        assert cmp_.distance(vf, vc) == 0.0
        assert np.all(cmp_.distance(np.tile(vf[:, None], (1, 3)),
                                    np.tile(vc[:, None], (1, 3))) == 0.0)

    def test_unnested_pairs_and_misshapen_fields_rejected(self):
        for fine, coarse in [(FemSpace(12), FemSpace(8)),   # not nested
                             (FemSpace(4), FemSpace(16)),   # coarse first
                             (FemSpace(16), FemSpace(4, 2.0))]:
            with pytest.raises(ValueError):
                L2Comparer(fine, coarse)
        cmp_ = L2Comparer(FemSpace(8), FemSpace(8))
        for vf, vc in [(np.ones(7), np.ones(1)), (np.ones(1), np.ones(7)),
                       (np.ones(7), np.ones((7, 2)))]:
            with pytest.raises(ValueError, match="interior nodes"):
                cmp_.distance(vf, vc)


class TestMeshes:
    def test_uniform_mesh_properties(self):
        space = FemSpace(8, length=2.0)
        assert space.h == 0.25 and space.length == 2.0 and space.n == 7
        assert np.array_equal(space.nodes, 0.25 * np.arange(9))
        assert np.array_equal(space.interior, space.nodes[1:-1])

    def test_degenerate_meshes_rejected(self):
        for count in (1, 0, -4):
            with pytest.raises(ValueError, match="at least 2 elements"):
                FemSpace(count)
        for count in (True, np.bool_(True), 8.0, 2.5, "8", None):
            with pytest.raises(TypeError):
                FemSpace(count)
        for length in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="length"):
                FemSpace(8, length)

    def test_numpy_integer_counts_accepted(self):
        for count in (np.int64(8), np.int32(8), np.uint8(8)):
            space = FemSpace(count)
            assert space.n == 7 and space.h == 0.125

    def test_field_values_vanish_at_boundary(self):
        space = FemSpace(4)
        v = np.ones(space.n)
        vals = field_values(space, v, np.array([0.0, 1.0, 0.25]))
        assert vals[0] == 0.0 and vals[1] == 0.0 and vals[2] == 1.0
