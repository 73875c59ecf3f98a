"""Bit-identity oracles for the scipy kernels the package calls directly:
pocketfft's DST-I, sparsetools' CSR products, and the numpy mass norm
that stands in for the CSR mass matrix.

scipy is imported only inside the tests: `dst_digests` also runs in a
fresh process that must load the DST before any scipy package.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spdefem import FemSpace, SpectralBasis, load_config
from spdefem import fem
from spdefem.experiments import _CoupledEngine
from spdefem.noise import CovarianceSpec, _JointNoise
from spdefem.rng import substream

ROOT = Path(__file__).resolve().parent.parent


def dst_cases():
    """(layout, array) for every size 1..1023: a vector, C- and
    Fortran-ordered columns, and a view strided in both axes; no two
    share memory, so a DST written over one leaves the others."""
    gen = substream(0, purpose="dst-oracle")
    for n in range(1, 1024):
        base = gen.standard_normal((2 * n, 6))
        yield "1-D", base[:n, 0].copy()
        yield "2-D", base[:n, :3].copy()
        yield "fortran", np.array(base[:n, :3], order="F")
        yield "strided", base[::2, ::2]


def dst_digests(transform):
    """sha256 of ``transform`` (a type-I DST along axis 0) on each case."""
    return [hashlib.sha256(np.ascontiguousarray(transform(a)).tobytes())
            .hexdigest() for _, a in dst_cases()]


# Loads the DST in a fresh process, then imports scipy.fft and loads it
# again; prints which scipy modules the first load left and whether both
# loads give scipy.fft's bits on every case.
_BEFORE_AND_AFTER = """
import json, sys
sys.path.insert(0, sys.argv[1])
from spdefem import fem
from test_kernels import dst_digests

before = dst_digests(fem._dst_in_place)
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
import scipy.fft
fem._scipy_kernel.cache_clear()
after = dst_digests(fem._dst_in_place)
want = dst_digests(lambda a: scipy.fft.dst(a, type=1, axis=0))
print(json.dumps({"loaded": loaded, "before": before == want,
                  "after": after == want}))
"""


class TestDst:
    def test_matches_scipy_fft_loaded_before_and_after_it(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-c", _BEFORE_AND_AFTER, str(ROOT / "tests")],
            capture_output=True, text=True, env=env, timeout=300)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == {"loaded": [], "before": True,
                                          "after": True}

    @pytest.mark.parametrize("layout", ["1-D", "2-D", "fortran", "strided"])
    def test_writes_over_its_input(self, layout):
        from scipy.fft import dst
        a = next(a for name, a in dst_cases() if name == layout)
        want = dst(a, type=1, axis=0)
        assert fem._dst_in_place(a) is a
        assert np.ascontiguousarray(a).tobytes() == want.tobytes()


def _normals(dim, columns):
    shape = (dim,) if columns is None else (dim, columns)
    return substream(1, purpose="product-oracle").standard_normal(shape)


class TestFactorProduct:
    @pytest.fixture(scope="class")
    def nested(self):
        cfg = load_config(ROOT / "configs" / "strong_smooth.yaml")
        return _CoupledEngine(cfg).noise

    @pytest.fixture(scope="class")
    def one_mesh(self):
        return _JointNoise([FemSpace(64)], SpectralBasis(k_max=256),
                           CovarianceSpec.power_decay(2.0, 256), 2.0 ** -8)

    @pytest.mark.parametrize("columns", [None, 1, 7, 100])
    @pytest.mark.parametrize("which", ["nested", "one_mesh"])
    def test_matches_scipy_csr(self, request, which, columns):
        noise = request.getfixturevalue(which)
        normals = _normals(noise.dim, columns)
        got = noise.product(normals)
        want = noise._chol @ normals
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_nested_factor_is_the_strong_smooth_one(self, nested):
        assert nested.dim == 754 and nested._chol.nnz == 3922

    @pytest.mark.parametrize("columns", [None, 1, 5])
    def test_zero_factor(self, columns):
        noise = _JointNoise([FemSpace(16)], SpectralBasis(k_max=64),
                            CovarianceSpec.custom(np.zeros(64)), 0.125)
        assert noise._chol.nnz == 0
        normals = _normals(noise.dim, columns)
        got = noise.product(normals)
        assert got.tobytes() == (noise._chol @ normals).tobytes()
        assert got.tobytes() == np.zeros_like(normals).tobytes()

    def test_misshapen_normals_rejected(self, one_mesh):
        with pytest.raises(ValueError, match="need 63 rows"):
            one_mesh.product(np.zeros((62, 3)))


class TestMassNorm:
    @pytest.mark.parametrize("columns", [None, 1, 9])
    @pytest.mark.parametrize("n_el", [2, 3, 17, 256])
    def test_matches_csr_mass_form(self, n_el, columns):
        space = FemSpace(n_el, length=0.7)
        v = _normals(space.n, columns)
        got = space.l2_norm(v)
        if columns is None:
            want = np.sqrt(v @ space.mass @ v)
            assert isinstance(got, float) and got == want
        else:
            want = np.sqrt(np.einsum("ij,ij->j", v, space.mass @ v))
            assert got.tobytes() == want.tobytes()


class TestLoader:
    def test_leaves_sys_modules_as_it_was(self):
        import scipy.sparse  # noqa: F401 (registers _sparsetools)
        name = "scipy.sparse._sparsetools"
        registered = sys.modules[name]
        fem._scipy_kernel.cache_clear()
        kernel = fem._scipy_kernel(fem._SPARSETOOLS)
        assert sys.modules[name] is registered
        assert hasattr(kernel, "csr_matvecs")

    def test_missing_kernel_names_path_and_version(self, monkeypatch):
        import scipy
        monkeypatch.setattr(fem, "_POCKETFFT", "fft/_pocketfft/no_such_kernel")
        path = os.path.join(os.path.dirname(scipy.__file__), "fft",
                            "_pocketfft", "no_such_kernel")
        with pytest.raises(ImportError) as err:
            FemSpace(8).to_eigen(np.ones(7))
        assert path in str(err.value)
        assert f"scipy {scipy.__version__} " in str(err.value)
