"""Monte-Carlo rate studies: strong, weak, temporal, moment, operator.

Coupled estimation is the load-bearing idea.  All meshes in a study are
driven by the same Wiener path, so per-sample differences measure
discretization error rather than independent noise.  The coupling is
sampled exactly: over a substep of length d the stacked convolution
increments of every mesh form one Gaussian vector whose cross-blocks are
closed-form,

    Cov(G^l_i, G^m_j)
        = (sum_k q_k b^l_ik b^m_jk)
          * (1 - e^{-(lam^l_i + lam^m_j) d}) / (lam^l_i + lam^m_j),

where b^l_ik is the overlap of noise mode k with eigenvector i of mesh l.
Each noise mode overlaps one eigenvector per mesh (its nodal alias).
The meshes nest, so an eigenvector of one mesh meets in each coarser
mesh only its alias there, its ancestor: the matrix is held as one
ancestor array and one entry array per mesh pair, and eliminated on
them mesh by mesh, finest first, with no fill in the Cholesky factor.
One sparse factor at the reference step yields every mesh's exact
increment per step in one draw.  The identity
G_[0,2d] = e^{-Lam d} G_[0,d] + G_[d,2d] aggregates steps without error,
so coarse step sizes see exactly the noise the fine grid saw.

Strong, weak, splitting_dt and moment studies are one computation, run
by one step-and-aggregate loop (`_CoupledEngine`) over a table of rows
(`_Row`): each a mesh, a drift step, a drift and a start state, under a
role that says how a batch reads it.  Strong and weak ``tested`` rows
refine the mesh against a ``reference`` row at dt_ref, splitting_dt
ones share its mesh and coarsen the drift step, and a moment study runs
the full dynamics X and, on the same path, the stochastic convolution Z
(``z`` rows).  In strong and weak studies the first batch also runs two
``probe`` rows at twice dt_ref to bound the drift-splitting time error.

A batch returns per-level sample columns and aborted-sample masks only;
the reduction gathers each level over the batches (`_gather`), and one
builder (`_rate_report`) makes every rate report, Monte-Carlo or operator.

Determinism contract: samples are organized in fixed-size batches, all
randomness is keyed by (seed, batch index, substep index, purpose), and
reduction walks batches in index order.  Worker count therefore cannot
change any digit of a report.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import re
import time
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .dynamics import (OVERFLOW_LIMIT, Integrator, PolynomialDrift,
                       SchemeConfig)
from .fem import (FemSpace, L2Comparer, _check_operator_pair, _dst,
                  operator_error_norm)
from .noise import (CovarianceSpec, _check_nested, _joint_factor,
                    _joint_factor_arrays)
from .rng import substream
from .spectral import SpectralBasis

__all__ = [
    "StudyConfig",
    "RateReport",
    "MomentReport",
    "FitResult",
    "fit_rate",
    "run_study",
    "simulate_trajectory",
    "linear_weak_reference",
    "default_initial_profile",
    "evaluate_functional",
    "validate_functional_id",
    "growth_exponent",
    "envelope_exponent",
    "FUNCTIONALS",
]

STUDY_KINDS = ("strong", "weak", "moments", "operators", "splitting_dt")

NOISE_FLOOR_FACTOR = 4.0

_COS_MODE_PATTERN = re.compile(r"^cos_mode_([1-9][0-9]*)$")

# scipy.special.stdtrit(dof, 0.975) for dof = 1..30, the doubles scipy
# returns: the two-sided 95% Student-t quantiles of `fit_rate`, whose
# scipy.special import would cost an operator study most of its time
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205,
    2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776,
    2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
    2.0930240544083087, 2.085963447265864, 2.0796138447276795,
    2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846,
    2.0484071417952454, 2.045229642132703, 2.0422724563012378,
)


# ---------------------------------------------------------------------------
# test functionals (bounded, with bounded first and second derivatives)

def _sq_l2_norm(space, nodal):
    v = space.l2_norm(nodal)
    return v * v


def _phi_exp_neg_sq(space, basis, nodal):
    """exp(-|x|^2): in C_b^2 since r e^{-r^2} and its slope are bounded."""
    return np.exp(-_sq_l2_norm(space, nodal))


def _phi_cos_mode(space, basis, nodal, mode=1):
    """cos(<x, e_mode>): bounded with all derivatives bounded."""
    index, overlap = space.alias_overlaps(basis)
    pairing = overlap[mode - 1] * space.to_eigen(nodal)[index[mode - 1]]
    return np.cos(pairing)


def _phi_inv_one_plus_sq(space, basis, nodal):
    """1/(1 + |x|^2): bounded, derivatives decay at infinity."""
    return 1.0 / (1.0 + _sq_l2_norm(space, nodal))


FUNCTIONALS = {
    "exp_neg_sq_norm": _phi_exp_neg_sq,
    "inv_one_plus_sq_norm": _phi_inv_one_plus_sq,
}


def validate_functional_id(name: str) -> None:
    if name in FUNCTIONALS or _COS_MODE_PATTERN.match(name):
        return
    raise ValueError(
        f"unknown functional {name!r}; bounded choices are "
        f"{sorted(FUNCTIONALS)} or cos_mode_<k>")


def evaluate_functional(name: str, space, basis, nodal):
    match = _COS_MODE_PATTERN.match(name)
    if match:
        return _phi_cos_mode(space, basis, nodal, mode=int(match.group(1)))
    return FUNCTIONALS[name](space, basis, nodal)


def default_initial_profile(points: np.ndarray, length: float) -> np.ndarray:
    """Smooth, sign-indefinite default initial condition."""
    return (np.sin(np.pi * points / length)
            + 0.5 * np.sin(2.0 * np.pi * points / length))


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class StudyConfig:
    """Frozen description of one study; hashed into every report.

    Every level of a strong or weak study, the reference included, steps
    at dt_ref, so its levels differ only in the mesh width; splitting_dt
    levels step at their ``dt_levels``.

    The meshes of strong, weak and moment studies must nest (sorted, each
    element count divides the next), as `noise._joint_factor` needs.
    ``horizon``, ``length`` and ``dt_ref`` must be positive and finite,
    as must every mesh width and step size.
    The five kind-only fields, ``h_ref``, ``p_order``, ``dt_levels``,
    ``functional`` and ``operator_pairs``, keep their defaults on every
    kind `KIND_FIELDS` does not list for them: a value the study never
    reads is refused, not hashed.  The YAML parser refuses the matching
    key through the same table.  A drift whose closed-form flow overflows
    a float over the longest drift step of a row (`_rows`) is refused.
    """

    KIND_FIELDS = {
        "h_ref": ("strong", "weak"),
        "p_order": ("strong", "splitting_dt"),
        "dt_levels": ("splitting_dt",),
        "functional": ("weak",),
        "operator_pairs": ("operators",),
    }

    kind: str
    covariance: CovarianceSpec
    drift: PolynomialDrift
    levels: tuple[float, ...] = ()
    h_ref: float | None = None
    dt_levels: tuple[float, ...] = ()
    dt_ref: float = 2.0 ** -8
    samples: int = 400
    batch_size: int = 100
    p_order: int = 2
    functional: str = "exp_neg_sq_norm"
    horizon: float = 1.0
    length: float = 1.0
    x0: str = "default"
    seed: int = 0
    operator_pairs: tuple = ((0.0, 2.0, "l2"), (1.0, 2.0, "ritz"),
                             (0.0, 1.0, "l2"))

    def __post_init__(self):
        if self.kind not in STUDY_KINDS:
            raise ValueError(f"unknown study kind {self.kind!r}")
        if self.x0 not in ("default", "zero", "mode1"):
            raise ValueError("x0 must be 'default', 'zero' or 'mode1'")
        for name in ("horizon", "length", "dt_ref"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")
        if self.kind in ("strong", "weak", "moments", "splitting_dt"):
            if self.samples < 100:
                raise ValueError("Monte-Carlo studies need at least 100 "
                                 "samples")
            if not 1 <= self.batch_size <= self.samples:
                raise ValueError("batch_size must lie in [1, samples]")
            _check_grid(self.horizon, self.dt_ref, "dt_ref")
        # before the ordering checks, which NaN would fail under their
        # reason; an infinite width or step fails a tiling check instead
        for h in (*self.levels, *([] if self.h_ref is None else [self.h_ref])):
            if not h > 0:
                raise ValueError("mesh widths must be positive and finite, "
                                 f"got {h!r}")
            _elements(h, self.length)
        for dt in self.dt_levels:
            if not dt > 0:
                raise ValueError("step sizes must be positive and finite, "
                                 f"got {dt!r}")
        if self.kind in ("strong", "weak", "moments", "operators"):
            if len(self.levels) < 3:
                raise ValueError("need at least 3 mesh levels to fit a rate")
            if list(self.levels) != sorted(set(self.levels), reverse=True):
                raise ValueError("mesh levels must be strictly decreasing")
        if self.kind == "operators":
            for pair in self.operator_pairs:
                _check_operator_pair(*pair)
        if self.kind in ("strong", "weak"):
            if self.h_ref is None:
                raise ValueError("coupled studies need a reference width")
            if not self.h_ref < min(self.levels) / 2.0:
                raise ValueError("reference width must be finer than half "
                                 "the smallest tested width")
        if self.kind in ("strong", "weak", "moments"):
            # one joint noise factor drives every mesh (noise._joint_factor)
            widths = (self.levels if self.kind == "moments"
                      else (*self.levels, self.h_ref))
            _check_nested(_elements(h, self.length) for h in widths)
        if self.kind == "splitting_dt":
            if len(self.dt_levels) < 3:
                raise ValueError("need at least 3 step sizes to fit a rate")
            if list(self.dt_levels) != sorted(set(self.dt_levels),
                                              reverse=True):
                raise ValueError("step sizes must be strictly decreasing")
            if not self.dt_ref < min(self.dt_levels) / 2.0:
                raise ValueError("reference step must be finer than half "
                                 "the smallest tested step")
            if len(self.levels) != 1:
                raise ValueError("splitting_dt studies use exactly one mesh")
            for dt in self.dt_levels:
                _check_multiple(dt, self.dt_ref, "tested dt", "dt_ref")
            for ratio in self.step_ratios:
                if round(self.horizon / self.dt_ref) % ratio:
                    raise ValueError(
                        "level step sizes must divide the horizon's "
                        "dt_ref grid evenly")
        if self.kind == "weak":
            validate_functional_id(self.functional)
            match = _COS_MODE_PATTERN.match(self.functional)
            if match and int(match.group(1)) > self.covariance.k_trunc:
                raise ValueError(
                    f"functional {self.functional} pairs with sine mode "
                    f"{match.group(1)}, beyond the noise's k_trunc = "
                    f"{self.covariance.k_trunc}")
        if self.p_order < 1:
            raise ValueError("p_order must be at least 1")
        for name, kinds in self.KIND_FIELDS.items():
            if (self.kind not in kinds and getattr(self, name)
                    != self.__dataclass_fields__[name].default):
                what = "a reference width" if name == "h_ref" else name
                raise ValueError(f"{what} is only meaningful for "
                                 f"{' or '.join(kinds)} studies")
        if self.kind != "operators" and self.drift._has_closed_flow:
            rows, _ = _rows(self, round(self.horizon / self.dt_ref))
            step = self.dt_ref * max(row.ratio for row in rows
                                     if row.drift == self.drift)
            try:
                self.drift.flow(step, 0.0)
            except OverflowError:
                coeffs = list(map(float, self.drift.coeffs))
                raise ValueError(f"drift coefficients {coeffs} overflow a "
                                 f"float over a step of {step!r}") from None

    @property
    def step_ratios(self) -> tuple[int, ...]:
        """Per-level drift-step size as a multiple of dt_ref."""
        if self.kind == "splitting_dt":
            return tuple(round(dt / self.dt_ref) for dt in self.dt_levels)
        return tuple(1 for _ in self.levels)

    @property
    def config_hash(self) -> str:
        payload = {
            "kind": self.kind,
            "covariance": {
                "kind": self.covariance.kind,
                "k_trunc": self.covariance.k_trunc,
                "rho": self.covariance.rho,
                "weights": self.covariance.custom_weights,
            },
            "drift": list(self.drift.coeffs),
            "levels": list(self.levels),
            "h_ref": self.h_ref,
            "dt_levels": list(self.dt_levels),
            "dt_ref": self.dt_ref,
            # the one drift-step policy, kept so existing hashes hold
            "dt_policy": "fixed",
            "samples": self.samples,
            "batch_size": self.batch_size,
            "p_order": self.p_order,
            "functional": self.functional,
            # the one time-stepping scheme, kept so existing hashes hold
            "scheme": "splitting_exact_flow",
            "horizon": self.horizon,
            "length": self.length,
            "x0": self.x0,
            "operator_pairs": [list(p) for p in self.operator_pairs],
        }
        text = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @property
    def provenance(self) -> str:
        from . import __version__
        return f"spdefem-{__version__}+cfg.{self.config_hash}.s{self.seed}"


def _check_grid(horizon, dt, name):
    steps = horizon / dt
    if abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
        raise ValueError(f"{name} must divide the horizon evenly")


def _elements(width, length):
    """Element count of the uniform mesh of ``width``, which must tile."""
    n = round(length / width)
    if n < 2 or abs(length / n - width) > 1e-12 * length:
        raise ValueError(f"mesh width {width:g} does not tile the domain "
                         f"[0, {length:g}]")
    return n


def _check_multiple(coarse, fine, coarse_name, fine_name):
    ratio = coarse / fine
    if (not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9
            or round(ratio) < 2):
        raise ValueError(f"every {coarse_name} must be an integer multiple "
                         f"(at least 2) of {fine_name}")


# ---------------------------------------------------------------------------
# rate fitting

@dataclass(frozen=True)
class FitResult:
    slope: float
    ci_lo: float
    ci_hi: float
    used: tuple[bool, ...]


def _clears_floor(errors, stderrs):
    """The noise-floor rule, elementwise: positive and above 4 stderr."""
    return (errors > 0.0) & (errors > NOISE_FLOOR_FACTOR * stderrs)


def fit_rate(levels) -> FitResult:
    """Weighted log-log regression of error against resolution.

    ``levels`` is a sequence of (h, error, stderr) triples.  A level is
    usable when its error clears the Monte-Carlo noise floor
    (`_clears_floor`: relative standard error below 25%).
    Log-scale weights come from the delta method, sigma_log =
    stderr/error; with all-zero stderr (deterministic errors) the fit
    degrades to ordinary least squares.  The confidence interval uses
    the residual-scaled covariance with a Student-t quantile on n-2
    degrees of freedom.
    """
    hs, errors, stderrs = np.array(levels, dtype=float).reshape(-1, 3).T
    usable = _clears_floor(errors, stderrs)
    if usable.sum() < 3:
        raise ValueError(
            f"insufficient data: only {int(usable.sum())} of {len(levels)} "
            "levels clear the noise floor, need 3 for a rate fit")
    x = np.log(hs[usable])
    y = np.log(errors[usable])
    sigma = stderrs[usable] / errors[usable]
    if np.all(sigma == 0.0):
        weights = np.ones_like(x)
    else:
        weights = 1.0 / np.maximum(sigma, 1e-12) ** 2
    design = np.column_stack([x, np.ones_like(x)])
    wdesign = design * weights[:, None]
    normal = design.T @ wdesign
    coef = np.linalg.solve(normal, wdesign.T @ y)
    resid = y - design @ coef
    dof = x.size - 2
    scale = float(weights @ resid ** 2) / dof if dof > 0 else 0.0
    cov = scale * np.linalg.inv(normal)
    half = _t975(max(dof, 1)) * math.sqrt(max(cov[0, 0], 0.0))
    slope = float(coef[0])
    return FitResult(slope=slope, ci_lo=slope - half, ci_hi=slope + half,
                     used=tuple(bool(u) for u in usable))


def _t975(dof: int) -> float:
    """The 0.975 quantile of Student's t on ``dof`` degrees of freedom."""
    if dof <= len(_T975):
        return _T975[dof - 1]
    from scipy.special import stdtrit
    return float(stdtrit(dof, 0.975))


def growth_exponent(hs, moments) -> float:
    """Slope of log(moment) against log(1/h); zero means h-independent."""
    x = np.log(1.0 / np.asarray(hs, dtype=float))
    y = np.log(np.asarray(moments, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def envelope_exponent(hs, moments) -> float:
    """Slope of log(moment) against log(1 + log(1/h)).

    A moment bounded by C (1 + log(1/h)) has exponent at most one; an
    h-independent moment has exponent near zero.
    """
    x = np.log1p(np.log(1.0 / np.asarray(hs, dtype=float)))
    y = np.log(np.asarray(moments, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


# ---------------------------------------------------------------------------
# reports and their artifacts

def _artifact_csv(config_hash, seed, lines) -> str:
    """The provenance header, then ``lines``: a column line and the rows."""
    from . import __version__
    return "\n".join([f"# config_hash={config_hash}", f"# seed={seed}",
                      f"# version={__version__}", *lines]) + "\n"


def _artifact_json(payload: dict) -> str:
    """``payload`` and the package version, keys sorted."""
    from . import __version__
    return json.dumps({**payload, "version": __version__}, indent=2,
                      sort_keys=True) + "\n"


@dataclass
class LevelResult:
    index: int
    resolution: float
    error: float
    stderr: float
    usable: bool


@dataclass(kw_only=True)
class _Report:
    """The provenance and runtime fields of every study report."""

    kind: str
    config_hash: str
    seed: int
    provenance: str = ""
    aborted_total: int = 0
    noise: dict | None = None
    runtime_seconds: float = 0.0
    timings: dict | None = None
    runtime: dict | None = None
    workers: int = 1
    notes: tuple[str, ...] = ()
    fit_failed = False         # overridden by the reports that fit a rate

    def to_json(self) -> str:
        return _artifact_json(asdict(self))


@dataclass
class RateReport(_Report):
    levels: list
    slope: float
    ci_lo: float
    ci_hi: float
    noise_floor: bool
    monotonic: bool
    probe_ratio: float | None = None
    functional_means: list | None = None

    @property
    def fit_failed(self) -> bool:
        return math.isnan(self.slope)

    def to_csv(self) -> str:
        """Full-precision CSV; identical bytes for identical (config, seed).

        Wall-clock runtime deliberately stays out of this file (the JSON
        summary carries it) so reruns with different worker counts can
        be compared byte for byte.
        """
        return _artifact_csv(self.config_hash, self.seed, [
            "level,h,error,stderr,usable",
            *(f"{lv.index},{lv.resolution:.17g},{lv.error:.17g},"
              f"{lv.stderr:.17g},{'true' if lv.usable else 'false'}"
              for lv in self.levels)])

    def to_json(self) -> str:
        return _artifact_json({**asdict(self), "levels": [
            {"level": lv.index, "h": lv.resolution, "error": lv.error,
             "stderr": lv.stderr, "usable": lv.usable} for lv in self.levels]})

    def summary(self) -> str:
        return (f"{self.kind} study {self.config_hash}: "
                f"slope={self.slope:.4f} "
                f"ci=[{self.ci_lo:.4f}, {self.ci_hi:.4f}] "
                f"levels={len(self.levels)} "
                f"runtime={self.runtime_seconds:.1f}s")


@dataclass
class MomentReport(_Report):
    resolutions: list
    z_sup_moment: list
    z_sup_stderr: list
    z_l2_moment: list
    z_l2_stderr: list
    x_sup_moment: list
    x_sup_stderr: list
    exponents: dict

    def to_csv(self) -> str:
        rows = zip(self.resolutions, self.z_sup_moment, self.z_sup_stderr,
                   self.z_l2_moment, self.z_l2_stderr,
                   self.x_sup_moment, self.x_sup_stderr)
        return _artifact_csv(self.config_hash, self.seed, [
            "level,h,z_sup,z_sup_stderr,z_l2,z_l2_stderr,x_sup,x_sup_stderr",
            *(f"{index}," + ",".join(f"{v:.17g}" for v in row)
              for index, row in enumerate(rows))])

    def summary(self) -> str:
        exponents = ", ".join(f"{k}={v:.3f}"
                              for k, v in sorted(self.exponents.items())
                              if not k.endswith("_envelope"))
        return (f"moments study {self.config_hash}: {exponents} "
                f"runtime={self.runtime_seconds:.1f}s")


class OperatorReport(dict):
    """An operator study: maps each (s, r, which) pair to the `RateReport`
    of its error norms, and writes the study's artifacts."""

    kind = "operators"
    notes = ()
    workers = 1                # operator studies never start a pool

    def __init__(self, fits, cfg, runtime_seconds):
        super().__init__(fits)
        self.config_hash, self.seed = cfg.config_hash, cfg.seed
        self.provenance, self.runtime_seconds = cfg.provenance, runtime_seconds

    @property
    def fit_failed(self) -> bool:
        return any(fit.fit_failed for fit in self.values())

    def to_csv(self) -> str:
        return _artifact_csv(self.config_hash, self.seed, [
            "s,r,which,slope,ci_lo,ci_hi",
            *(f"{s:.17g},{r:.17g},{which},{fit.slope:.17g},"
              f"{fit.ci_lo:.17g},{fit.ci_hi:.17g}"
              for (s, r, which), fit in self.items())])

    def to_json(self) -> str:
        return _artifact_json({
            "fits": [{"s": s, "r": r, "which": which, "slope": fit.slope,
                      "ci_lo": fit.ci_lo, "ci_hi": fit.ci_hi}
                     for (s, r, which), fit in self.items()],
            **{name: getattr(self, name) for name in (
                "kind", "seed", "config_hash", "provenance",
                "runtime_seconds", "workers")}})

    def summary(self) -> str:
        return "\n".join(f"operator ({s:g}, {r:g}, {which}): "
                         f"slope={fit.slope:.4f}"
                         for (s, r, which), fit in self.items())


def _discard_overflow(state, aborted):
    """Abort the columns of ``state`` that overflowed or went non-finite.

    Marks them in ``aborted`` and zeroes them in place, so they step on
    harmlessly until the reduction drops their samples.  Returns each
    column's sup norm, taken before the zeroing as max(max, -min), which
    reads the state without writing |state| and has the bits of
    ``np.abs(state).max(axis=0)`` (NaN propagates; adding 0.0 turns the
    -0.0 of a zero column into +0.0).  The comparison is negated so that
    NaN counts as an overflow.
    """
    sup = np.maximum(state.max(axis=0), -state.min(axis=0))
    sup += 0.0
    bad = ~(sup <= OVERFLOW_LIMIT)
    if bad.any():
        aborted |= bad
        state[:, bad] = 0.0
    return sup


# ---------------------------------------------------------------------------
# the coupled engine (every Monte-Carlo study)

def _mesh_for(width: float, length: float) -> FemSpace:
    return FemSpace(_elements(width, length), length)


def _initial_states(profile, length, spaces, basis):
    """The start state of the `StudyConfig.x0` ``profile`` on each space."""
    if profile == "zero":
        return [np.zeros(s.n) for s in spaces]
    if profile == "mode1":
        unit = np.zeros(basis.k_max)
        unit[0] = 1.0
        return [s.l2_project(basis, unit) for s in spaces]
    return [default_initial_profile(s.interior, length) for s in spaces]


class _JointNoise:
    """Exact sampler of every mesh's convolution increment over a step d.

    Holds the sparse joint factor of `noise._joint_factor_arrays`, rows in
    mesh order, and the slice of each mesh's rows in a draw.  The factor
    is built as numpy CSR arrays and wrapped as a scipy.sparse matrix
    (``_chol``) on first use, so set-up loads no scipy.
    """

    def __init__(self, spaces, basis, covariance, dt):
        self.dt = dt
        self.slices = []
        offset = 0
        for space in spaces:
            self.slices.append(slice(offset, offset + space.n))
            offset += space.n
        self.dim = offset
        self._factor, self.cholesky_jitter = _joint_factor_arrays(
            spaces, basis, covariance, dt)

    @cached_property
    def _chol(self):
        import scipy.sparse as sp
        return sp.csr_matrix(self._factor, shape=(self.dim, self.dim))

    def sample(self, seed, batch_index, substep_index, batch):
        gen = substream(seed, sample=batch_index, step=substep_index,
                        purpose="wiener")
        return self._chol @ gen.standard_normal((self.dim, batch))

    def diagnostics(self) -> dict:
        """Size, sparsity and regularization of the joint factor."""
        return {"joint_dim": self.dim, "factor_nnz": self._factor[0].size,
                "cholesky_jitter": self.cholesky_jitter}


@dataclass(frozen=True)
class _Row:
    """One state of a Monte-Carlo study: it steps on the engine's mesh
    ``mesh`` under ``drift`` from the `StudyConfig.x0` profile ``start``,
    its drift step ``ratio`` reference steps long.  ``role`` says how a
    batch reads it: ``tested``, ``reference``, ``probe`` or ``z``."""

    role: str
    mesh: int
    ratio: int
    drift: PolynomialDrift
    start: str


def _rows(cfg: StudyConfig, n_steps: int):
    """The rows of ``cfg``'s study in stepping order, and its notes.

    - Strong and weak: each tested mesh, then the reference mesh, at
      ratio 1; then the dt-doubling probe, the finest tested mesh and the
      reference at ratio 2 (e(2 dt) - e(dt) estimates a first-order
      temporal error at dt), unless twice dt_ref overruns the horizon.
    - splitting_dt: each tested ratio on the one mesh, then the reference.
    - Moments: X on each mesh (``tested``), then Z on each mesh: no
      drift, from zero, at ratio n_steps, so its one exact step yields
      the stochastic convolution Z(T) on X's path, the decomposition
      X = Z + Y the moment bounds rest on.
    """
    def row(role, mesh, ratio):
        return _Row(role, mesh, ratio, cfg.drift, cfg.x0)

    meshes = range(len(cfg.levels))
    if cfg.kind == "moments":
        zero = PolynomialDrift.zero()
        return (*(row("tested", m, 1) for m in meshes),
                *(_Row("z", m, n_steps, zero, "zero") for m in meshes)), ()
    if cfg.kind == "splitting_dt":
        return (*(row("tested", 0, ratio) for ratio in cfg.step_ratios),
                row("reference", 0, 1)), ()
    ref = len(meshes)
    rows = (*(row("tested", m, 1) for m in meshes), row("reference", ref, 1))
    if n_steps % 2:
        return rows, ("dt-doubling probe skipped: twice dt_ref does not "
                      "divide the horizon",)
    return (*rows, row("probe", ref - 1, 2), row("probe", ref, 2)), ()


class _CoupledEngine:
    """The one step-and-aggregate loop of every Monte-Carlo study.

    A study is a table of rows (`_rows`).  Every reference step draws the
    joint increment of all meshes once, from the one factor at dt_ref; a
    ratio-1 row steps on its mesh's part directly, a coarser row
    aggregates it exactly over its step first.  Each row checks every
    step for overflow and keeps the running sup norm of its state, in
    per-batch buffers: a spare it swaps with and one scratch array.  A
    batch reads its outputs by role: moment statistics from ``tested``
    and ``z``, errors from ``tested`` and ``reference``, the probe from
    ``probe``.
    """

    def __init__(self, cfg: StudyConfig):
        self.cfg = cfg
        self.basis = SpectralBasis(k_max=cfg.covariance.k_trunc,
                                   length=cfg.length)
        self.n_steps = round(cfg.horizon / cfg.dt_ref)
        self.resolutions = list(cfg.dt_levels if cfg.kind == "splitting_dt"
                                else cfg.levels)
        self.rows, self.notes = _rows(cfg, self.n_steps)
        # only strong and weak studies have a reference mesh of their own
        widths = (cfg.levels if cfg.h_ref is None
                  else (*cfg.levels, cfg.h_ref))
        self.spaces = [_mesh_for(w, cfg.length) for w in widths]
        self.noise = _JointNoise(self.spaces, self.basis, cfg.covariance,
                                 cfg.dt_ref)
        self.integrators = {
            row: Integrator(self.spaces[row.mesh], row.drift,
                            SchemeConfig(row.ratio * cfg.dt_ref,
                                         self.n_steps // row.ratio))
            for row in self.rows}
        self.starts = {start: _initial_states(start, cfg.length, self.spaces,
                                              self.basis)
                       for start in {row.start for row in self.rows}}
        # weak studies compare functionals, not fields
        self.comparers = []
        if cfg.kind in ("strong", "splitting_dt"):
            ref, = (row for row in self.rows if row.role == "reference")
            self.comparers = [
                L2Comparer(self.spaces[ref.mesh], self.spaces[row.mesh])
                for row in self.rows if row.role == "tested"]

    def load_kernels(self):
        """Load what the batches compute with: scipy's DST and the joint
        factor as scipy.sparse CSR.  Set-up loads no scipy; `_map_batches`
        calls this before a pool forks, so that the workers inherit them
        instead of each importing scipy."""
        _dst()
        self.noise._chol  # noqa: B018 (first access wraps it)

    def batch_bounds(self, index):
        start = index * self.cfg.batch_size
        return start, min(start + self.cfg.batch_size, self.cfg.samples)

    @property
    def n_batches(self):
        return -(-self.cfg.samples // self.cfg.batch_size)

    def run_batch(self, index):
        cfg = self.cfg
        start, stop = self.batch_bounds(index)
        batch = stop - start
        # a probe row that overflows drops its sample from the probe only
        aborted = np.zeros(batch, dtype=bool)
        probe_aborted = np.zeros(batch, dtype=bool)
        # the probe rows run on the first batch only, on its ordinary draws
        rows = [row for row in self.rows if row.role != "probe" or not index]
        plan = [(self.integrators[row], self.noise.slices[row.mesh], row.ratio,
                 np.exp(-self.spaces[row.mesh].eigenvalues
                        * cfg.dt_ref)[:, None] if row.ratio > 1 else None,
                 probe_aborted if row.role == "probe" else aborted)
                for row in rows]
        states = [np.tile(self.starts[row.start][row.mesh][:, None],
                          (1, batch)) for row in rows]
        spares = [np.empty_like(state) for state in states]
        scratch = [np.empty_like(state) for state in states]
        sups = [np.abs(state).max(axis=0) for state in states]
        acc = [np.zeros_like(state) if row.ratio > 1 else None
               for row, state in zip(rows, states)]
        for step in range(self.n_steps):
            joint = self.noise.sample(cfg.seed, index, step, batch)
            for i, (integrator, part, ratio, decay, guard) in enumerate(plan):
                increment = joint[part]
                if ratio > 1:
                    # exact aggregation to the row's drift step
                    acc[i] *= decay
                    acc[i] += increment
                    if (step + 1) % ratio:
                        continue
                    increment = acc[i]
                integrator.step_with_eigen_noise(
                    states[i], increment, out=spares[i], scratch=scratch[i])
                states[i], spares[i] = spares[i], states[i]
                if ratio > 1:
                    acc[i].fill(0.0)
                np.maximum(sups[i], _discard_overflow(states[i], guard),
                           out=sups[i])
        got = {}
        for row, state, sup in zip(rows, states, sups):
            got.setdefault(row.role, []).append((self.spaces[row.mesh], state,
                                                 sup))
        out = {"aborted": aborted}
        if "z" in got:
            out["x_sup"] = [sup ** 2 for *_, sup in got["tested"]]
            out["z_sup"] = [sup ** 2 for *_, sup in got["z"]]
            out["z_l2"] = [space.l2_norm(z) ** 2 for space, z, _ in got["z"]]
            return out
        probe = got.get("probe")  # the finest tested mesh, the reference
        if probe:
            out["probe_aborted"] = probe_aborted
        if self.comparers:
            (_, ref, _), = got["reference"]
            out["values"] = [cmp_.distance(ref, state) for cmp_, (_, state, _)
                             in zip(self.comparers, got["tested"])]
            if probe:
                (_, fine, _), (_, doubled_ref, _) = probe
                out["probe"] = self.comparers[-1].distance(doubled_ref, fine)
            return out

        def phi(space, state, _):
            return evaluate_functional(cfg.functional, space, self.basis,
                                       state)

        out["phi"] = [phi(*lv) for lv in got["tested"] + got["reference"]]
        out["values"] = [out["phi"][-1] - p for p in out["phi"][:-1]]
        if probe:
            out["probe"] = phi(*probe[1]) - phi(*probe[0])
        return out


class _SplittingDtEngine(_CoupledEngine):
    """Name perfbench patches; goes when it drops _power_iteration_norm."""


# Worker plumbing: the engine is built in the parent before the pool
# forks, so children inherit it read-only through this module global.
_ENGINE = None
_START_METHOD = "fork"


def _os_threads():
    """OS threads of this process, or None where /proc does not list them."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def _set_engine(engine):
    global _ENGINE
    _ENGINE = engine


def _engine_batch(index):
    return _ENGINE.run_batch(index)


def _batch_processes(engine, map_fn, workers):
    """Size of `_map_batches`' pool, or 1 when the batches run in this
    process (serially, or through the caller's ``map_fn``)."""
    return 1 if map_fn is not None else max(1, min(workers, engine.n_batches))


def _map_batches(engine, map_fn, workers):
    engine.load_kernels()
    _set_engine(engine)
    try:
        indices = range(engine.n_batches)
        if map_fn is not None:
            return list(map_fn(_engine_batch, indices))
        processes = _batch_processes(engine, map_fn, workers)
        if processes == 1:
            return [engine.run_batch(i) for i in indices]
        ctx = multiprocessing.get_context(_START_METHOD)
        with ctx.Pool(processes) as pool:
            return pool.map(_engine_batch, indices)
    finally:
        _set_engine(None)


def _gather(results, keys):
    """Each level's kept samples of each per-level batch output in
    ``keys`` (batches in index order), and the aborted sample count."""
    keep = ~np.concatenate([r["aborted"] for r in results])
    return ({key: [np.concatenate(columns)[keep]
                   for columns in zip(*(r[key] for r in results))]
             for key in keys if key in results[0]}, int((~keep).sum()))


def _mean_stderr(values):
    """Sample mean and its standard error, both NaN below 2 samples."""
    if values.size < 2:
        return math.nan, math.nan
    return values.mean(), values.std(ddof=1) / math.sqrt(values.size)


def _level_stats(cfg, values):
    """A level's (error, stderr), NaN below 2 samples: the weak error is
    |mean|; the strong and splitting_dt errors are L^p means, their stderr
    by the delta method (0 when every sample error is 0)."""
    if cfg.kind == "weak":
        mean, stderr = _mean_stderr(values)
        return abs(float(mean)), float(stderr)
    mean_p, se_p = _mean_stderr(values ** cfg.p_order)
    error = mean_p ** (1.0 / cfg.p_order)
    stderr = se_p * error / (cfg.p_order * mean_p) if mean_p > 0 else se_p
    return float(error), float(stderr)


def _aborted_note(aborted_total, samples):
    return (f"{aborted_total} of {samples} samples aborted (overflow or "
            "non-finite state) and were discarded")


def _rate_report(cfg, resolutions, stats, notes, **fields) -> RateReport:
    """The `RateReport` of per-level (error, stderr) ``stats`` and other
    ``fields``: noise floor, fit (NaN and a note when it fails), and the
    monotonicity and aborted notes, appended to the list ``notes``."""
    errors, stderrs = np.array(stats, dtype=float).T
    usable = _clears_floor(errors, stderrs)
    try:
        fit = fit_rate(list(zip(resolutions, errors, stderrs)))
        slope, ci_lo, ci_hi = fit.slope, fit.ci_lo, fit.ci_hi
    except ValueError as exc:
        slope = ci_lo = ci_hi = math.nan
        notes.append(str(exc))
    monotonic = bool(np.all(np.diff(errors[usable]) < 0.0))
    if not monotonic:
        notes.append("usable errors are not monotone in resolution")
    if fields.get("aborted_total"):
        notes.append(_aborted_note(fields["aborted_total"], cfg.samples))
    return RateReport(
        kind=cfg.kind, slope=slope, ci_lo=ci_lo, ci_hi=ci_hi,
        levels=list(map(LevelResult, range(len(errors)), resolutions,
                        errors.tolist(), stderrs.tolist(), usable.tolist())),
        noise_floor=not usable.all(), monotonic=monotonic,
        config_hash=cfg.config_hash, seed=cfg.seed,
        provenance=cfg.provenance, notes=tuple(notes), **fields)


def _reduce_rate_study(engine, results):
    cfg = engine.cfg
    samples, aborted_total = _gather(results, ("values", "phi"))
    notes = list(engine.notes)
    probe_ratio = None
    first = results[0]
    if "probe" in first:
        # compare against the finest level on the probe's own samples
        # (batch 0), so Monte-Carlo scatter cancels and the ratio
        # isolates the temporal part; doubling dt doubles an O(dt)
        # error, so e(2 dt) - e(dt) estimates the error at dt
        probe_keep = ~(first["aborted"] | first["probe_aborted"])
        probe_error, _ = _level_stats(cfg, first["probe"][probe_keep])
        base_error, _ = _level_stats(cfg, first["values"][-1][probe_keep])
        if base_error > 0:
            probe_ratio = abs(probe_error - base_error) / base_error
            if probe_ratio > 0.1:
                notes.append(
                    "dt-doubling probe above 10%: temporal error may "
                    "contaminate the finest level")
    functional_means = [
        {"h": h, "mean": float(mean), "stderr": float(stderr)}
        for h, (mean, stderr) in zip((*engine.resolutions, cfg.h_ref),
                                     map(_mean_stderr, samples["phi"]))
    ] if "phi" in samples else None
    return _rate_report(
        cfg, engine.resolutions,
        [_level_stats(cfg, values) for values in samples["values"]], notes,
        probe_ratio=probe_ratio, aborted_total=aborted_total,
        functional_means=functional_means)


def _reduce_moment_study(engine, results):
    cfg = engine.cfg
    samples, aborted_total = _gather(results, ("z_sup", "z_l2", "x_sup"))
    fields, exponents, notes = {}, {}, []
    for key, levels in samples.items():
        means, stderrs = ([float(x) for x in column] for column
                          in zip(*map(_mean_stderr, levels)))
        fields[key + "_moment"], fields[key + "_stderr"] = means, stderrs
        if all(mean > 0.0 for mean in means):
            exponents[key] = growth_exponent(cfg.levels, means)
            exponents[key + "_envelope"] = envelope_exponent(cfg.levels,
                                                             means)
        else:  # NaN, or a zero moment: no power law to fit
            exponents[key] = exponents[key + "_envelope"] = math.nan
            notes.append(f"{key} moments are not all positive: its "
                         "exponents are NaN")
    if aborted_total:
        notes.append(_aborted_note(aborted_total, cfg.samples))
    return MomentReport(
        kind=cfg.kind, resolutions=list(cfg.levels), exponents=exponents,
        config_hash=cfg.config_hash, seed=cfg.seed,
        provenance=cfg.provenance, aborted_total=aborted_total,
        notes=tuple(notes), **fields)


def _operator_study(cfg, start) -> OperatorReport:
    """Exact projection/Ritz/semigroup error norms and their orders;
    semigroup pairs are evaluated at t = cfg.horizon."""
    finest_n = _elements(min(cfg.levels), cfg.length)
    basis = SpectralBasis(k_max=max(8 * finest_n, 2048), length=cfg.length)
    spaces = [_mesh_for(w, cfg.length) for w in cfg.levels]
    reports = {}
    for s_exp, r_exp, which in cfg.operator_pairs:
        t0 = time.perf_counter()
        t_eval = cfg.horizon if which == "semigroup" else None
        stats = [(operator_error_norm(space, basis, s=s_exp, r=r_exp,
                                      which=which, t=t_eval), 0.0)
                 for space in spaces]
        reports[(s_exp, r_exp, which)] = _rate_report(
            cfg, cfg.levels, stats, [],
            runtime_seconds=time.perf_counter() - t0)
    return OperatorReport(reports, cfg, time.perf_counter() - start)


def run_study(cfg: StudyConfig, map_fn=None, workers: int = 1):
    """Run the study ``cfg`` describes and return its report.

    An operator study is deterministic and runs in this process, ignoring
    ``map_fn`` and ``workers``.  Every other kind runs the coupled
    engine's batches through ``map_fn`` when given, else on ``workers``
    forked processes; the report is the same to the last digit either way.
    Its JSON ``noise`` block, ``workers``, ``timings`` and ``runtime`` are
    filled in here, after the reduction, which reads the samples alone:
    ``timings`` split ``runtime_seconds`` into engine set-up, the batches
    and the reduction; ``runtime`` gives the pool's start method (None when
    the batches run in this process) and this process's OS thread count as
    the batch map starts.
    """
    start = time.perf_counter()
    if cfg.kind == "operators":
        return _operator_study(cfg, start)
    engine = _CoupledEngine(cfg)
    set_up = time.perf_counter()
    processes = _batch_processes(engine, map_fn, workers)
    runtime = {"start_method": _START_METHOD if processes > 1 else None,
               "threads": _os_threads()}
    results = _map_batches(engine, map_fn, workers)
    mapped = time.perf_counter()
    reduce = (_reduce_moment_study if cfg.kind == "moments"
              else _reduce_rate_study)
    report = reduce(engine, results)
    end = time.perf_counter()
    report.noise = {**engine.noise.diagnostics(),
                    "draws": engine.n_batches * engine.n_steps}
    report.workers = processes
    # differences of nearby clock readings are exact, so the three parts
    # add up to runtime_seconds exactly
    report.runtime_seconds = end - start
    report.timings = {"setup_s": set_up - start, "batches_s": mapped - set_up,
                      "reduce_s": end - mapped}
    report.runtime = runtime
    return report


# ---------------------------------------------------------------------------
# single-path simulation (the trajectory command)

def simulate_trajectory(cfg: StudyConfig, seed: int | None = None):
    """One sample path on the finest tested mesh, checkpointed per step.

    Returns (space, times, values) with ``values`` of shape
    (n_steps + 1, n_interior).  Operator studies have no sample path.
    """
    if cfg.kind == "operators":
        raise ValueError("an operator study has no sample path to simulate")
    basis = SpectralBasis(k_max=cfg.covariance.k_trunc, length=cfg.length)
    space = _mesh_for(min(cfg.levels), cfg.length)
    n_steps = round(cfg.horizon / cfg.dt_ref)
    integrator = Integrator(
        space, cfg.drift, SchemeConfig(cfg.dt_ref, n_steps),
        covariance=cfg.covariance, basis=basis)
    x0 = _initial_states(cfg.x0, cfg.length, [space], basis)[0]
    gen = substream(cfg.seed if seed is None else seed, purpose="trajectory")
    _, checkpoints = integrator.run(x0, gen, keep_checkpoints=True)
    times = np.arange(n_steps + 1) * cfg.dt_ref
    return space, times, np.stack(checkpoints)


# ---------------------------------------------------------------------------
# closed-form reference for the linear weak sanity route

def linear_weak_reference(space, basis, covariance, x0_nodal, horizon,
                          mode: int = 1) -> float:
    """E cos(<X(T), e_mode>) for the zero-drift equation, in closed form.

    X(T) is Gaussian: the mean decays the initial state through the
    discrete semigroup, the covariance is the exact convolution
    covariance L L^T over [0, T].  The sine-mode pairing p is then scalar
    Gaussian, with variance s^2 = |L^T p|^2, and
    E cos(N(m, s^2)) = cos(m) exp(-s^2/2).
    """
    if not 1 <= mode <= basis.k_max:
        raise ValueError(f"mode must lie in 1..{basis.k_max}, got {mode}")
    factor, _ = _joint_factor([space], basis, covariance, horizon)
    decay = np.exp(-space.eigenvalues * horizon)
    mean_eigen = decay * space.to_eigen(np.asarray(x0_nodal, float))
    index, overlap = space.alias_overlaps(basis)
    pairing = np.zeros(space.n)
    if index[mode - 1] >= 0:
        pairing[index[mode - 1]] = overlap[mode - 1]
    m = float(pairing @ mean_eigen)
    s_sq = float(np.sum((factor.T @ pairing) ** 2))
    return math.cos(m) * math.exp(-0.5 * s_sq)
