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
Each noise mode overlaps one eigenvector per mesh (its nodal alias), so
the matrix is sparse, and eliminated finest mesh first its Cholesky
factor has no fill.  One sparse factor at the reference step yields
every mesh's exact increment per step in one draw.  The identity
G_[0,2d] = e^{-Lam d} G_[0,d] + G_[d,2d] aggregates steps without error,
so coarse step sizes see exactly the noise the fine grid saw.

Strong, weak, splitting_dt and moment studies are one computation, run
by one step-and-aggregate loop (`_CoupledEngine`): a table of levels,
each mapped to a mesh, a drift, a start state and a drift step.  Strong
and weak levels refine the mesh against a reference level, splitting_dt
levels share the reference's mesh and coarsen the drift step, and a
moment study runs on each mesh the full dynamics X and, on the same
path, the stochastic convolution Z.  In strong and weak studies the
first batch also reruns the finest tested mesh and the reference at
twice their drift steps, on the same draws, to bound the
drift-splitting time error (the dt-doubling probe).

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
import re
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from .dynamics import (OVERFLOW_LIMIT, Integrator, PolynomialDrift,
                       SchemeConfig)
from .fem import FemSpace, L2Comparer, operator_error_norm, uniform_mesh
from .noise import CovarianceSpec, _joint_factor
from .rng import substream
from .spectral import SpectralBasis

__all__ = [
    "StudyConfig",
    "RateReport",
    "MomentReport",
    "FitResult",
    "fit_rate",
    "run_strong_study",
    "run_weak_study",
    "run_splitting_dt_study",
    "run_moment_study",
    "run_operator_study",
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
    "cos_first_mode": _phi_cos_mode,
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

    ``dt_policy`` controls the drift step of tested levels in coupled
    studies: "fixed" steps everything at dt_ref, "h2beta" steps level h
    at max(dt_ref, h^{2 beta}) snapped to the dt_ref grid, the scaling
    the weak theory prescribes.  Weak studies default to "h2beta",
    everything else to "fixed".
    """

    kind: str
    covariance: CovarianceSpec
    drift: PolynomialDrift
    levels: tuple[float, ...] = ()
    h_ref: float | None = None
    dt_levels: tuple[float, ...] = ()
    dt_ref: float = 2.0 ** -8
    dt_policy: str | None = None
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
        if self.dt_policy is None:
            object.__setattr__(self, "dt_policy",
                               "h2beta" if self.kind == "weak" else "fixed")
        if self.x0 not in ("default", "zero", "mode1"):
            raise ValueError("x0 must be 'default', 'zero' or 'mode1'")
        if self.dt_policy not in ("fixed", "h2beta"):
            raise ValueError("dt_policy must be 'fixed' or 'h2beta'")
        if self.horizon <= 0.0 or self.length <= 0.0:
            raise ValueError("horizon and length must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")
        if self.kind in ("strong", "weak", "moments", "splitting_dt"):
            if self.samples < 100:
                raise ValueError("Monte-Carlo studies need at least 100 "
                                 "samples")
            if not 1 <= self.batch_size <= self.samples:
                raise ValueError("batch_size must lie in [1, samples]")
            _check_grid(self.horizon, self.dt_ref, "dt_ref")
        if self.kind in ("strong", "weak", "moments", "operators"):
            if len(self.levels) < 3:
                raise ValueError("need at least 3 mesh levels to fit a rate")
            if any(h <= 0 for h in self.levels):
                raise ValueError("mesh widths must be positive")
            if list(self.levels) != sorted(set(self.levels), reverse=True):
                raise ValueError("mesh levels must be strictly decreasing")
        if self.kind in ("strong", "weak"):
            if self.h_ref is None:
                raise ValueError("coupled studies need a reference width")
            if not self.h_ref < min(self.levels) / 2.0:
                raise ValueError("reference width must be finer than half "
                                 "the smallest tested width")
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
        if self.kind in ("strong", "weak", "splitting_dt"):
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
            if self.drift.degree == 2:
                raise ValueError("weak studies need an odd-degree reaction")
        if self.p_order < 1:
            raise ValueError("p_order must be at least 1")

    @property
    def step_ratios(self) -> tuple[int, ...]:
        """Per-level drift-step size as a multiple of dt_ref."""
        if self.kind == "splitting_dt":
            return tuple(round(dt / self.dt_ref) for dt in self.dt_levels)
        if self.dt_policy == "fixed" or self.kind not in ("strong", "weak"):
            return tuple(1 for _ in self.levels)
        beta = self.covariance.beta
        return tuple(
            max(1, round(h ** (2.0 * beta) / self.dt_ref))
            for h in self.levels)

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
            "dt_policy": self.dt_policy,
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


def _check_multiple(coarse, fine, coarse_name, fine_name):
    ratio = coarse / fine
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 2:
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


def fit_rate(levels) -> FitResult:
    """Weighted log-log regression of error against resolution.

    ``levels`` is a sequence of (h, error, stderr) triples.  A level is
    usable when its error clears the Monte-Carlo noise floor
    (error > 4 stderr, i.e. relative standard error below 25%).
    Log-scale weights come from the delta method, sigma_log =
    stderr/error; with all-zero stderr (deterministic errors) the fit
    degrades to ordinary least squares.  The confidence interval uses
    the residual-scaled covariance with a Student-t quantile on n-2
    degrees of freedom.
    """
    hs = np.array([lv[0] for lv in levels], dtype=float)
    errors = np.array([lv[1] for lv in levels], dtype=float)
    stderrs = np.array([lv[2] for lv in levels], dtype=float)
    usable = (errors > 0.0) & (errors > NOISE_FLOOR_FACTOR * stderrs)
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
    half = float(stdtrit(max(dof, 1), 0.975)) \
        * math.sqrt(max(cov[0, 0], 0.0))
    slope = float(coef[0])
    return FitResult(slope=slope, ci_lo=slope - half, ci_hi=slope + half,
                     used=tuple(bool(u) for u in usable))


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
# reports

@dataclass
class LevelResult:
    index: int
    resolution: float
    error: float
    stderr: float
    usable: bool


@dataclass
class RateReport:
    kind: str
    levels: list
    slope: float
    ci_lo: float
    ci_hi: float
    noise_floor: bool
    monotonic: bool
    config_hash: str
    seed: int
    provenance: str = ""
    probe_ratio: float | None = None
    aborted_total: int = 0
    runtime_seconds: float = 0.0
    workers: int = 1
    functional_means: list | None = None
    noise: dict | None = None
    notes: tuple[str, ...] = ()

    @property
    def fit_failed(self) -> bool:
        return math.isnan(self.slope)

    def to_csv(self) -> str:
        """Full-precision CSV; identical bytes for identical (config, seed).

        Wall-clock runtime deliberately stays out of this file (the JSON
        summary carries it) so reruns with different worker counts can
        be compared byte for byte.
        """
        from . import __version__
        lines = [
            f"# config_hash={self.config_hash}",
            f"# seed={self.seed}",
            f"# version={__version__}",
            "level,h,error,stderr,usable",
        ]
        for lv in self.levels:
            lines.append(
                f"{lv.index},{lv.resolution:.17g},{lv.error:.17g},"
                f"{lv.stderr:.17g},{'true' if lv.usable else 'false'}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        from . import __version__
        payload = {
            "kind": self.kind,
            "slope": self.slope,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "levels": [
                {"level": lv.index, "h": lv.resolution, "error": lv.error,
                 "stderr": lv.stderr, "usable": lv.usable}
                for lv in self.levels
            ],
            "seed": self.seed,
            "config_hash": self.config_hash,
            "provenance": self.provenance,
            "noise_floor": self.noise_floor,
            "monotonic": self.monotonic,
            "probe_ratio": self.probe_ratio,
            "aborted_total": self.aborted_total,
            "runtime_seconds": self.runtime_seconds,
            "workers": self.workers,
            "functional_means": self.functional_means,
            "noise": self.noise,
            "version": __version__,
            "notes": list(self.notes),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@dataclass
class MomentReport:
    kind: str
    resolutions: list
    z_sup_moment: list
    z_sup_stderr: list
    z_l2_moment: list
    z_l2_stderr: list
    x_sup_moment: list
    x_sup_stderr: list
    exponents: dict
    config_hash: str
    seed: int
    provenance: str = ""
    aborted_total: int = 0
    noise: dict | None = None
    runtime_seconds: float = 0.0
    workers: int = 1
    notes: tuple[str, ...] = ()

    def to_json(self) -> str:
        from . import __version__
        payload = {
            "kind": self.kind,
            "resolutions": self.resolutions,
            "z_sup_moment": self.z_sup_moment,
            "z_sup_stderr": self.z_sup_stderr,
            "z_l2_moment": self.z_l2_moment,
            "z_l2_stderr": self.z_l2_stderr,
            "x_sup_moment": self.x_sup_moment,
            "x_sup_stderr": self.x_sup_stderr,
            "exponents": self.exponents,
            "aborted_total": self.aborted_total,
            "noise": self.noise,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "provenance": self.provenance,
            "runtime_seconds": self.runtime_seconds,
            "workers": self.workers,
            "version": __version__,
            "notes": list(self.notes),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _discard_overflow(state, aborted, scratch):
    """Abort the columns of ``state`` that overflowed or went non-finite.

    Marks them in ``aborted`` and zeroes them in place, so they step on
    harmlessly until the reduction drops their samples.  Returns each
    column's sup norm, taken before the zeroing through ``scratch``, a
    work array of state's shape; the comparison is negated so that NaN
    counts as an overflow.
    """
    sup = np.abs(state, out=scratch).max(axis=0)
    bad = ~(sup <= OVERFLOW_LIMIT)
    if bad.any():
        aborted |= bad
        state[:, bad] = 0.0
    return sup


# ---------------------------------------------------------------------------
# the coupled engine (every Monte-Carlo study)

def _mesh_for(width: float, length: float) -> FemSpace:
    n = round(length / width)
    if n < 2 or abs(length / n - width) > 1e-12 * length:
        raise ValueError(f"width {width} does not tile the domain")
    return FemSpace(uniform_mesh(n, length=length))


def _initial_states(cfg, spaces, basis):
    if cfg.x0 == "zero":
        return [np.zeros(s.n) for s in spaces]
    if cfg.x0 == "mode1":
        unit = np.zeros(basis.k_max)
        unit[0] = 1.0
        return [s.l2_project(basis, unit) for s in spaces]
    return [default_initial_profile(s.mesh.interior, cfg.length)
            for s in spaces]


class _JointNoise:
    """Exact sampler of every mesh's convolution increment over a step d.

    Holds the sparse joint factor of `noise._joint_factor`, rows in mesh
    order, and the slice of each mesh's rows in a draw.
    """

    def __init__(self, spaces, basis, covariance, dt):
        self.dt = dt
        self.slices = []
        offset = 0
        for space in spaces:
            self.slices.append(slice(offset, offset + space.n))
            offset += space.n
        self.dim = offset
        self._chol, self.cholesky_jitter = _joint_factor(spaces, basis,
                                                         covariance, dt)

    def sample(self, seed, batch_index, substep_index, batch):
        gen = substream(seed, sample=batch_index, step=substep_index,
                        purpose="wiener")
        return self._chol @ gen.standard_normal((self.dim, batch))

    def diagnostics(self) -> dict:
        """Size, sparsity and regularization of the joint factor."""
        return {"joint_dim": self.dim, "factor_nnz": int(self._chol.nnz),
                "cholesky_jitter": self.cholesky_jitter}


class _CoupledEngine:
    """The one step-and-aggregate loop of every Monte-Carlo study.

    A study is a table of levels.  Level i steps on the mesh
    ``mesh_of[i]`` with its own drift and start state, and its drift step
    is ``ratios[i]`` reference steps long.  Every reference step draws the
    joint increment of all meshes once, from the one factor at dt_ref; a
    ratio-1 level steps on it directly, a coarser level aggregates it
    exactly over its step first.  Every step is checked for overflow, and
    each level keeps the running sup norm of its state.  States are
    stepped in per-batch buffers: each level swaps its state with a spare
    every step and keeps one scratch array.

    - Strong and weak: the tested meshes, then the reference mesh with
      ratio 1 (``ref_index``).
    - splitting_dt: every level on the one mesh, differing only in drift
      step; the reference is the last level.
    - Moments: each mesh twice.  X runs the configured drift from the
      initial profile at ratio 1; Z runs no drift from zero at ratio
      n_steps, so its one exact step over the horizon yields the
      stochastic convolution Z(T) on X's path, the decomposition
      X = Z + Y the moment bounds rest on.

    Strong and weak studies end the table with the dt-doubling probe:
    the finest tested mesh and the reference again, at twice their drift
    steps (``probe_rows``).  Only the first batch runs them, on its
    ordinary draws.  When twice the finest level's step does not divide
    the horizon the probe is left out and ``notes`` says so.
    """

    def __init__(self, cfg: StudyConfig):
        self.cfg = cfg
        self.basis = SpectralBasis(k_max=cfg.covariance.k_trunc,
                                   length=cfg.length)
        self.n_steps = round(cfg.horizon / cfg.dt_ref)
        self.resolutions = list(cfg.levels)
        self.probe_rows = ()
        self.notes = ()
        if cfg.kind == "moments":
            n_meshes = len(cfg.levels)
            widths = list(cfg.levels)
            self.mesh_of = list(range(n_meshes)) * 2
            self.ratios = [1] * n_meshes + [self.n_steps] * n_meshes
            drifts = ([cfg.drift] * n_meshes
                      + [PolynomialDrift.zero()] * n_meshes)
        else:
            if cfg.kind == "splitting_dt":
                self.resolutions = list(cfg.dt_levels)
                widths = list(cfg.levels)
                self.mesh_of = [0] * (len(cfg.dt_levels) + 1)
            else:
                widths = list(cfg.levels) + [cfg.h_ref]
                self.mesh_of = list(range(len(widths)))
            self.ratios = list(cfg.step_ratios) + [1]
            drifts = [cfg.drift] * len(self.mesh_of)
        self.ref_index = len(self.mesh_of) - 1
        if cfg.kind in ("strong", "weak"):
            self._add_probe_rows()
            drifts += [cfg.drift] * len(self.probe_rows)
        self.spaces = [_mesh_for(w, cfg.length) for w in widths]
        self.noise = _JointNoise(self.spaces, self.basis, cfg.covariance,
                                 cfg.dt_ref)
        self.integrators = [
            Integrator(self.spaces[m], drift,
                       SchemeConfig(ratio * cfg.dt_ref, self.n_steps // ratio))
            for m, ratio, drift in zip(self.mesh_of, self.ratios, drifts)
        ]
        ref_decay = [np.exp(-s.eigenvalues * cfg.dt_ref)[:, None]
                     for s in self.spaces]
        self.decay = [ref_decay[m] for m in self.mesh_of]
        starts = _initial_states(cfg, self.spaces, self.basis)
        self.x0 = [starts[m] for m in self.mesh_of]
        if cfg.kind == "moments":
            self.x0[len(self.spaces):] = [np.zeros(s.n) for s in self.spaces]
            return
        ref_space = self.spaces[self.mesh_of[self.ref_index]]
        self.comparers = [L2Comparer(ref_space, self.spaces[m])
                          for m in self.mesh_of[:self.ref_index]]

    def _add_probe_rows(self):
        """Append the finest tested mesh and the reference at twice their
        drift steps; e(2 dt) - e(dt) estimates a first-order temporal
        error at dt."""
        fine = self.ref_index - 1
        doubled = [2 * self.ratios[fine], 2 * self.ratios[self.ref_index]]
        if self.n_steps % doubled[0]:
            self.notes = ("dt-doubling probe skipped: twice the finest "
                          "level's step does not divide the horizon",)
            return
        self.probe_rows = (len(self.mesh_of), len(self.mesh_of) + 1)
        self.mesh_of += [self.mesh_of[fine], self.mesh_of[self.ref_index]]
        self.ratios += doubled

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
        # the probe rows close the table and run on the first batch only
        n_rows = len(self.mesh_of) - (len(self.probe_rows) if index else 0)
        rows = range(n_rows)
        states = [np.tile(x0[:, None], (1, batch)) for x0 in self.x0[:n_rows]]
        spares = [np.empty_like(state) for state in states]
        scratch = [np.empty_like(state) for state in states]
        sups = [np.abs(state).max(axis=0) for state in states]
        acc = [np.zeros_like(state) if self.ratios[i] > 1 else None
               for i, state in enumerate(states)]
        # a probe row that overflows drops its sample from the probe only
        aborted = np.zeros(batch, dtype=bool)
        probe_aborted = np.zeros(batch, dtype=bool)
        guards = [probe_aborted if i in self.probe_rows else aborted
                  for i in rows]
        for step in range(self.n_steps):
            joint = self.noise.sample(cfg.seed, index, step, batch)
            for i in rows:
                ratio = self.ratios[i]
                increment = joint[self.noise.slices[self.mesh_of[i]]]
                if ratio > 1:
                    # exact aggregation to the level's drift step
                    acc[i] *= self.decay[i]
                    acc[i] += increment
                    if (step + 1) % ratio:
                        continue
                    increment = acc[i]
                self.integrators[i].step_with_eigen_noise(
                    states[i], increment, out=spares[i], scratch=scratch[i])
                states[i], spares[i] = spares[i], states[i]
                if ratio > 1:
                    acc[i].fill(0.0)
                np.maximum(sups[i], _discard_overflow(states[i], guards[i],
                                                      scratch[i]),
                           out=sups[i])
        out = {"aborted": aborted, "draws": self.n_steps}
        ref_i = self.ref_index
        fine = ref_i - 1  # the finest tested level
        probe = self.probe_rows if index == 0 else ()
        if probe:
            out["probe_aborted"] = probe_aborted
        if cfg.kind == "moments":
            n_meshes = len(self.spaces)
            out["x_sup"] = [sup ** 2 for sup in sups[:n_meshes]]
            out["z_sup"] = [sup ** 2 for sup in sups[n_meshes:]]
            out["z_l2"] = [space.l2_norm(z) ** 2
                           for space, z in zip(self.spaces, states[n_meshes:])]
        elif cfg.kind == "weak":
            phi = [self._phi(i, states[i]) for i in range(ref_i + 1)]
            out["values"] = [phi[ref_i] - p for p in phi[:ref_i]]
            out["phi"] = phi
            if probe:
                out["probe"] = (self._phi(ref_i, states[probe[1]])
                                - self._phi(fine, states[probe[0]]))
        else:
            out["values"] = [cmp_.distance(states[ref_i], state)
                             for cmp_, state in zip(self.comparers, states)]
            if probe:
                out["probe"] = self.comparers[fine].distance(
                    states[probe[1]], states[probe[0]])
        return out

    def _phi(self, i, nodal):
        return evaluate_functional(self.cfg.functional,
                                   self.spaces[self.mesh_of[i]], self.basis,
                                   nodal)


class _SplittingDtEngine(_CoupledEngine):
    """Name perfbench patches; goes when it drops _power_iteration_norm."""


# Worker plumbing: the engine is built in the parent before the pool
# forks, so children inherit it read-only through this module global.
_ENGINE = None


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
    _set_engine(engine)
    try:
        indices = range(engine.n_batches)
        if map_fn is not None:
            return list(map_fn(_engine_batch, indices))
        processes = _batch_processes(engine, map_fn, workers)
        if processes == 1:
            return [engine.run_batch(i) for i in indices]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes) as pool:
            return pool.map(_engine_batch, indices)
    finally:
        _set_engine(None)


def _strong_level_stats(values, p_order):
    powered = values ** p_order
    mean_p = powered.mean()
    se_p = powered.std(ddof=1) / math.sqrt(powered.size)
    error = mean_p ** (1.0 / p_order)
    stderr = se_p * error / (p_order * mean_p) if mean_p > 0 else 0.0
    return float(error), float(stderr)


def _weak_level_stats(values):
    error = abs(float(values.mean()))
    stderr = float(values.std(ddof=1) / math.sqrt(values.size))
    return error, stderr


def _aborted_note(aborted_total, samples):
    return (f"{aborted_total} of {samples} samples aborted (overflow or "
            "non-finite state) and were discarded")


def _noise_summary(engine, results) -> dict:
    """The JSON noise block: the factor's diagnostics and the draws made."""
    return {**engine.noise.diagnostics(),
            "draws": sum(r["draws"] for r in results)}


def _reduce_rate_study(engine, results, stats_fn, t_start, workers):
    cfg, resolutions = engine.cfg, engine.resolutions
    keep = ~np.concatenate([r["aborted"] for r in results])
    aborted_total = int((~keep).sum())
    levels = []
    for i, res in enumerate(resolutions):
        values = np.concatenate([r["values"][i] for r in results])[keep]
        error, stderr = stats_fn(values)
        usable = error > 0.0 and error > NOISE_FLOOR_FACTOR * stderr
        levels.append(LevelResult(index=i, resolution=res, error=error,
                                  stderr=stderr, usable=usable))
    notes = list(engine.notes)
    probe_ratio = None
    first = results[0]
    if "probe" in first:
        # compare against the finest level on the probe's own samples
        # (batch 0), so Monte-Carlo scatter cancels and the ratio
        # isolates the temporal part; doubling dt doubles an O(dt)
        # error, so e(2 dt) - e(dt) estimates the error at dt
        probe_keep = ~(first["aborted"] | first["probe_aborted"])
        probe_error, _ = stats_fn(first["probe"][probe_keep])
        base_error, _ = stats_fn(first["values"][-1][probe_keep])
        if base_error > 0:
            probe_ratio = abs(probe_error - base_error) / base_error
            if probe_ratio > 0.1:
                notes.append(
                    "dt-doubling probe above 10%: temporal error may "
                    "contaminate the finest level")
    functional_means = None
    if results and "phi" in results[0]:
        functional_means = []
        for i, res in enumerate(list(resolutions) + [cfg.h_ref]):
            phi = np.concatenate([r["phi"][i] for r in results])[keep]
            functional_means.append({
                "h": res,
                "mean": float(phi.mean()),
                "stderr": float(phi.std(ddof=1) / math.sqrt(phi.size)),
            })
    try:
        fit = fit_rate([(lv.resolution, lv.error, lv.stderr)
                        for lv in levels])
        slope, ci_lo, ci_hi = fit.slope, fit.ci_lo, fit.ci_hi
    except ValueError as exc:
        slope = ci_lo = ci_hi = float("nan")
        notes.append(str(exc))
    errs = [lv.error for lv in levels if lv.usable]
    monotonic = all(a > b for a, b in zip(errs, errs[1:]))
    if not monotonic:
        notes.append("usable errors are not monotone in resolution")
    if aborted_total:
        notes.append(_aborted_note(aborted_total, cfg.samples))
    return RateReport(
        kind=cfg.kind, levels=levels, slope=slope, ci_lo=ci_lo, ci_hi=ci_hi,
        noise_floor=not all(lv.usable for lv in levels), monotonic=monotonic,
        config_hash=cfg.config_hash, seed=cfg.seed,
        provenance=cfg.provenance, probe_ratio=probe_ratio,
        aborted_total=aborted_total, functional_means=functional_means,
        noise=_noise_summary(engine, results),
        runtime_seconds=time.perf_counter() - t_start, workers=workers,
        notes=tuple(notes))


def _run_rate_study(cfg, kind, map_fn, workers) -> RateReport:
    """Build the coupled engine, run its batches, reduce them to a rate."""
    if cfg.kind != kind:
        raise ValueError(f"config kind must be {kind!r}")
    t0 = time.perf_counter()
    engine = _CoupledEngine(cfg)
    results = _map_batches(engine, map_fn, workers)
    if kind == "weak":
        stats_fn = _weak_level_stats
    else:
        def stats_fn(values):
            return _strong_level_stats(values, cfg.p_order)
    return _reduce_rate_study(engine, results, stats_fn, t0,
                              _batch_processes(engine, map_fn, workers))


def run_strong_study(cfg: StudyConfig, map_fn=None, workers: int = 1
                     ) -> RateReport:
    """Coupled pathwise L^p error against the reference mesh, per level."""
    return _run_rate_study(cfg, "strong", map_fn, workers)


def run_weak_study(cfg: StudyConfig, map_fn=None, workers: int = 1
                   ) -> RateReport:
    """Coupled difference of a bounded functional's expectations."""
    return _run_rate_study(cfg, "weak", map_fn, workers)


def run_splitting_dt_study(cfg: StudyConfig, map_fn=None, workers: int = 1
                           ) -> RateReport:
    """Strong error of coarse step sizes against a fine-step reference."""
    return _run_rate_study(cfg, "splitting_dt", map_fn, workers)


# ---------------------------------------------------------------------------
# moment study

def run_moment_study(cfg: StudyConfig, map_fn=None, workers: int = 1
                     ) -> MomentReport:
    """Second moments of sup and L2 norms across the mesh hierarchy.

    On each mesh the coupled engine runs the full dynamics X, whose sup
    norm is tracked pathwise over every step of the time grid, and on the
    same path the stochastic convolution Z(T), one exact step to the
    horizon (no temporal error).  Aborted samples are dropped.
    """
    if cfg.kind != "moments":
        raise ValueError("config kind must be 'moments'")
    t0 = time.perf_counter()
    engine = _CoupledEngine(cfg)
    results = _map_batches(engine, map_fn, workers)
    keep = ~np.concatenate([r["aborted"] for r in results])
    series = {"z_sup": ([], []), "z_l2": ([], []), "x_sup": ([], [])}
    for key, (mean_list, se_list) in series.items():
        for lvl in range(len(cfg.levels)):
            vals = np.concatenate([r[key][lvl] for r in results])[keep]
            mean_list.append(float(vals.mean()))
            se_list.append(float(vals.std(ddof=1) / math.sqrt(vals.size)))
    exponents = {}
    for key, (mean_list, _) in series.items():
        exponents[key] = growth_exponent(cfg.levels, mean_list)
        exponents[key + "_envelope"] = envelope_exponent(cfg.levels,
                                                         mean_list)
    aborted_total = int((~keep).sum())
    notes = ()
    if aborted_total:
        notes = (_aborted_note(aborted_total, cfg.samples),)
    return MomentReport(
        kind=cfg.kind, resolutions=list(cfg.levels),
        z_sup_moment=series["z_sup"][0], z_sup_stderr=series["z_sup"][1],
        z_l2_moment=series["z_l2"][0], z_l2_stderr=series["z_l2"][1],
        x_sup_moment=series["x_sup"][0], x_sup_stderr=series["x_sup"][1],
        exponents=exponents, config_hash=cfg.config_hash, seed=cfg.seed,
        provenance=cfg.provenance, aborted_total=aborted_total,
        noise=_noise_summary(engine, results),
        runtime_seconds=time.perf_counter() - t0,
        workers=_batch_processes(engine, map_fn, workers), notes=notes)


# ---------------------------------------------------------------------------
# operator study (deterministic)

def run_operator_study(cfg: StudyConfig, map_fn=None, workers: int = 1
                       ) -> dict:
    """Measured projection/Ritz/semigroup error norms and their orders.

    Semigroup pairs are evaluated at t = cfg.horizon.  The study runs in
    this process; ``map_fn`` and ``workers`` are ignored.
    """
    if cfg.kind != "operators":
        raise ValueError("config kind must be 'operators'")
    finest_n = round(cfg.length / min(cfg.levels))
    basis = SpectralBasis(k_max=max(8 * finest_n, 2048), length=cfg.length)
    spaces = [_mesh_for(w, cfg.length) for w in cfg.levels]
    reports = {}
    for s_exp, r_exp, which in cfg.operator_pairs:
        t0 = time.perf_counter()
        t_eval = cfg.horizon if which == "semigroup" else None
        levels = []
        for i, space in enumerate(spaces):
            norm = operator_error_norm(space, basis, s=s_exp, r=r_exp,
                                       which=which, t=t_eval)
            levels.append(LevelResult(index=i, resolution=cfg.levels[i],
                                      error=float(norm), stderr=0.0,
                                      usable=True))
        fit = fit_rate([(lv.resolution, lv.error, lv.stderr)
                        for lv in levels])
        errs = [lv.error for lv in levels]
        reports[(s_exp, r_exp, which)] = RateReport(
            kind=cfg.kind, levels=levels, slope=fit.slope, ci_lo=fit.ci_lo,
            ci_hi=fit.ci_hi, noise_floor=False,
            monotonic=all(a > b for a, b in zip(errs, errs[1:])),
            config_hash=cfg.config_hash, seed=cfg.seed,
            provenance=cfg.provenance,
            runtime_seconds=time.perf_counter() - t0, workers=1)
    return reports


def run_study(cfg: StudyConfig, map_fn=None, workers: int = 1):
    runner = {
        "strong": run_strong_study,
        "weak": run_weak_study,
        "splitting_dt": run_splitting_dt_study,
        "moments": run_moment_study,
        "operators": run_operator_study,
    }[cfg.kind]
    return runner(cfg, map_fn=map_fn, workers=workers)


# ---------------------------------------------------------------------------
# single-path simulation (the trajectory command)

def simulate_trajectory(cfg: StudyConfig, seed: int | None = None):
    """One sample path on the finest tested mesh, checkpointed per step.

    Returns (space, times, values) with ``values`` of shape
    (n_steps + 1, n_interior).
    """
    basis = SpectralBasis(k_max=cfg.covariance.k_trunc, length=cfg.length)
    space = _mesh_for(min(cfg.levels), cfg.length)
    n_steps = round(cfg.horizon / cfg.dt_ref)
    integrator = Integrator(
        space, cfg.drift, SchemeConfig(cfg.dt_ref, n_steps),
        covariance=cfg.covariance, basis=basis)
    x0 = _initial_states(cfg, [space], basis)[0]
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
