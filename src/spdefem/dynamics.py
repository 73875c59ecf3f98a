"""Polynomial reaction terms, their exact flows, and time stepping.

The reaction f is a polynomial with finite one-sided Lipschitz constant
(sup of f' over the real line).  That restricts the degree to 0, 1, or 3
with a negative cubic coefficient; the default is the bistable cubic
f(x) = x - x^3.

For drifts of the form f(x) = a1 x + a3 x^3 the flow of dx = f(x) dt is
known in closed form,

    Phi_t(x) = x e^{a1 t} / sqrt(1 - a3 x^2 g(t)),
    g(t) = (e^{2 a1 t} - 1) / a1   (g = 2t when a1 = 0),

with derivative Phi_t'(x) = e^{a1 t} (1 - a3 x^2 g)^{-3/2}.  Since
a3 <= 0 and g >= 0 the radicand never drops below 1, so the flow is
globally defined.  Affine drifts integrate elementarily; anything else
falls back to step-doubling RK4 with local error kept under 1e-12.

A single one-step map advances the semidiscrete SPDE, with the nodal
state as columns of a batch: exact-flow Lie splitting, a nodewise exact
flow over dt followed by the semigroup decay plus the exactly sampled
stochastic convolution.  Regularising the drift by its flow this way is
what the weak analysis rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# numpy loads numpy.polynomial lazily, on first attribute access: import
# it with this module, not while a config is parsed
from numpy.polynomial.polynomial import polyder, polyval

from .fem import _dst_in_place, _scale_columns
from .noise import CovarianceSpec, _JointNoise

__all__ = [
    "PolynomialDrift",
    "SchemeConfig",
    "Integrator",
    "IntegrationError",
    "tangent_integrate",
]

OVERFLOW_LIMIT = 1.0e6

_RK4_LOCAL_TOL = 1e-12


class IntegrationError(RuntimeError):
    """A trajectory left the admissible range (overflow or non-finite)."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} at step {step}")
        self.step = step


class PolynomialDrift:
    """Polynomial reaction term with a global upper bound on f'.

    ``coeffs`` are ascending, (a0, a1, ..., aK).  Admissible degrees are
    0 and 1 (f' constant) and 3 with a3 < 0 (f' concave, maximum at the
    vertex).  Even degrees and positive cubics have sup f' = infinity
    and are rejected.
    """

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be a finite 1-d sequence")
        while c.size > 1 and c[-1] == 0.0:
            c = c[:-1]
        degree = c.size - 1
        if degree >= 5:
            raise ValueError("polynomial degree must stay below 5")
        if degree in (2, 4):
            raise ValueError(
                "one-sided Lipschitz violated: even-degree reaction has "
                "unbounded derivative")
        if degree == 3 and c[3] >= 0.0:
            raise ValueError(
                "one-sided Lipschitz violated: cubic coefficient must be "
                "negative")
        self.coeffs = tuple(c.tolist())
        self.degree = degree
        self._deriv_coeffs = tuple(polyder(c).tolist())
        if degree <= 1:
            self.one_sided_constant = float(c[1]) if degree == 1 else 0.0
        else:
            a1, a2, a3 = c[1], c[2], c[3]
            # vertex of the downward parabola f'(x) = 3 a3 x^2 + 2 a2 x + a1
            self.one_sided_constant = float(a1 - a2 ** 2 / (3.0 * a3))

    @classmethod
    def allen_cahn(cls) -> "PolynomialDrift":
        return cls((0.0, 1.0, 0.0, -1.0))

    @classmethod
    def zero(cls) -> "PolynomialDrift":
        return cls((0.0,))

    @classmethod
    def linear(cls, rate: float) -> "PolynomialDrift":
        return cls((0.0, float(rate)))

    def __repr__(self) -> str:
        return f"PolynomialDrift(coeffs={self.coeffs})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolynomialDrift):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __call__(self, x):
        return polyval(x, self.coeffs)

    def derivative(self, x):
        return polyval(x, self._deriv_coeffs)

    @property
    def _has_closed_flow(self) -> bool:
        if self.degree <= 1:
            return True
        return self.coeffs[0] == 0.0 and self.coeffs[2] == 0.0

    def flow(self, t: float, x, out=None, scratch=None):
        """Value of the ODE flow Phi_t(x), elementwise in x.

        With ``out`` (a float array of x's shape, not x itself) the value
        is written there; the closed-form cubic keeps an intermediate in
        ``scratch``, allocated when omitted.  Either way the bits are the
        same.
        """
        return self._flow(t, x, False, out, scratch)[0]

    def flow_with_derivative(self, t: float, x):
        """(Phi_t(x), d/dx Phi_t(x)) as arrays shaped like x."""
        return self._flow(t, x, True)

    def _flow(self, t: float, x, derivative: bool, out=None, scratch=None):
        """(Phi_t(x), its x-derivative or None when not asked for)."""
        if t < 0.0:
            raise ValueError("flow time must be nonnegative")
        x = np.asarray(x, dtype=float)
        if out is None:
            out = np.empty_like(x)
        if t == 0.0:
            np.copyto(out, x)
            return out, np.ones_like(x) if derivative else None
        if not self._has_closed_flow:
            y, d = self._rk4_flow(t, x, derivative)
            np.copyto(out, y)
            return out, d
        if self.degree <= 1:
            a0 = self.coeffs[0]
            a1 = self.coeffs[1] if self.degree == 1 else 0.0
            growth = math.exp(a1 * t)
            shift = a0 * (math.expm1(a1 * t) / a1 if a1 != 0.0 else t)
            np.multiply(x, growth, out=out)
            out += shift
            return out, np.full_like(x, growth) if derivative else None
        a1, a3 = self.coeffs[1], self.coeffs[3]
        g = math.expm1(2.0 * a1 * t) / a1 if a1 != 0.0 else 2.0 * t
        growth = math.exp(a1 * t)
        # 1 - a3 g x^2, then x growth / sqrt of it, in that rounding order
        if scratch is None:
            scratch = np.empty_like(x)
        radicand = np.multiply(x, a3 * g, out=scratch)
        radicand *= x
        np.subtract(1.0, radicand, out=radicand)
        if derivative:
            inv_root = 1.0 / np.sqrt(radicand)
            deriv = growth * inv_root / radicand
        else:
            inv_root = np.sqrt(radicand, out=radicand)
            np.divide(1.0, inv_root, out=inv_root)
            deriv = None
        np.multiply(x, growth, out=out)
        out *= inv_root
        return out, deriv

    def _rk4_flow(self, t: float, x: np.ndarray, derivative: bool):
        """Step-doubling RK4 for the flow and, if asked, its x-derivative.

        Integrates y' = f(y), augmented with d' = f'(y) d when the
        derivative is wanted, with a shared adaptive step across all
        entries; the step control reads y alone, so y is the same either
        way.  The one-sided bound keeps trajectories from escaping, so the
        stepper always lands.
        """
        y = x.astype(float).copy()
        d = np.ones_like(y) if derivative else None
        remaining = float(t)
        scale = 1.0 + abs(self.one_sided_constant) \
            + float(np.abs(self.derivative(y)).max(initial=0.0))
        dt = min(remaining, 0.1 / scale)
        for _ in range(100_000):
            if remaining <= 0.0:
                return y, d
            dt = min(dt, remaining)
            y_full, d_full = self._rk4_step(y, d, dt)
            y_half, d_half = self._rk4_step(y, d, 0.5 * dt)
            y_two, d_two = self._rk4_step(y_half, d_half, 0.5 * dt)
            err_scale = np.maximum(1.0, np.abs(y_two))
            err = float(np.max(np.abs(y_two - y_full) / err_scale))
            if err < _RK4_LOCAL_TOL:
                y = y_two + (y_two - y_full) / 15.0
                if derivative:
                    d = d_two + (d_two - d_full) / 15.0
                remaining -= dt
            factor = 0.9 * (_RK4_LOCAL_TOL / max(err, 1e-300)) ** 0.2
            dt *= min(4.0, max(0.2, factor))
        raise RuntimeError("flow integration failed to converge")

    def _rk4_step(self, y, d, dt):
        """One RK4 step of y' = f(y) and, unless d is None, d' = f'(y) d."""
        k1 = self(y)
        y2 = y + 0.5 * dt * k1
        k2 = self(y2)
        y3 = y + 0.5 * dt * k2
        k3 = self(y3)
        y4 = y + dt * k3
        k4 = self(y4)
        y_new = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if d is None:
            return y_new, None
        l1 = self.derivative(y) * d
        l2 = self.derivative(y2) * (d + 0.5 * dt * l1)
        l3 = self.derivative(y3) * (d + 0.5 * dt * l2)
        l4 = self.derivative(y4) * (d + dt * l3)
        d_new = d + (dt / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
        return y_new, d_new


@dataclass(frozen=True)
class SchemeConfig:
    """The uniform time grid of the splitting scheme."""

    dt: float
    n_steps: int

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")


class Integrator:
    """The splitting one-step map for the semidiscrete equation, batched
    over columns.

    With ``covariance=None`` the dynamics are deterministic.  Otherwise a
    spectral basis must be supplied, and `step` adds the exact stochastic
    convolution increment, drawn as L @ standard normals through a
    one-mesh `noise._JointNoise` (L the factor of the step covariance
    `noise._step_covariances`, diagonal on one mesh).  A step is the flow,
    a DST-I, one scale by the to-eigen scale times the decay, the
    increment, the from-eigen scale and a DST-I back.
    """

    def __init__(self, space, drift: PolynomialDrift, config: SchemeConfig,
                 covariance: CovarianceSpec | None = None, basis=None):
        self.space = space
        self.drift = drift
        self.config = config
        self.dt = config.dt
        self._decay = np.exp(-space.eigenvalues * config.dt)
        self._eigen_side = space._to_eigen_scale * self._decay
        self._noise = None
        if covariance is not None:
            if basis is None:
                raise ValueError("sampling noise requires a spectral basis")
            self._noise = _JointNoise([space], basis, covariance, config.dt)

    def step(self, state: np.ndarray,
             generator: np.random.Generator | None = None) -> np.ndarray:
        """One step, drawing the convolution increment from ``generator``."""
        if self._noise is None:
            return self.step_with_eigen_noise(state, 0.0)
        if generator is None:
            raise ValueError("stochastic step requires a generator")
        return self.step_with_eigen_noise(
            state, self._noise.product(generator.standard_normal(state.shape)))

    def step_with_eigen_noise(self, state: np.ndarray,
                              noise_eigen: np.ndarray, out=None,
                              scratch=None) -> np.ndarray:
        """The nodewise exact flow over dt, then the semigroup decay plus a
        caller-supplied convolution increment.

        ``noise_eigen`` must be the integrated noise for this step in
        discrete eigen coordinates; coupled multi-mesh studies build it
        from one shared amplitude path and pass it in per mesh.  The new
        state is written to ``out`` (a float array of state's shape, not
        state itself) through the work array ``scratch``; both are
        allocated when omitted, with the same bits either way.

        In place after the flow: a DST-I, one pass scaling by the to-eigen
        scale times ``_decay`` (``_eigen_side``, built once), the increment,
        the from-eigen scale, a DST-I back.  This is `FemSpace.to_eigen`,
        the decay and `FemSpace.from_eigen` with the first two scales
        fused, equal to them up to rounding.
        """
        coeffs = _dst_in_place(self.drift.flow(self.dt, state, out=out,
                                               scratch=scratch))
        _scale_columns(self._eigen_side, coeffs, out=coeffs)
        coeffs += noise_eigen
        return _dst_in_place(_scale_columns(self.space._from_eigen_scale,
                                            coeffs, out=coeffs))

    def run(self, x0: np.ndarray,
            generator: np.random.Generator | None = None, *,
            keep_checkpoints: bool = False):
        """Advance x0 over the configured grid, guarding against overflow.

        Returns the final state, or (final, checkpoints) where the
        checkpoint list holds the state after every step, starting with
        a copy of x0.
        """
        state = np.array(x0, dtype=float, copy=True)
        checkpoints = [state.copy()] if keep_checkpoints else None
        for index in range(self.config.n_steps):
            state = self.step(state, generator)
            if not np.all(np.isfinite(state)):
                raise IntegrationError("non-finite state", index)
            if np.abs(state).max(initial=0.0) > OVERFLOW_LIMIT:
                raise IntegrationError("state overflow", index)
            if keep_checkpoints:
                checkpoints.append(state.copy())
        if keep_checkpoints:
            return state, checkpoints
        return state


def tangent_integrate(integrator: Integrator, checkpoints, start_step: int,
                      direction: np.ndarray) -> np.ndarray:
    """Propagate a perturbation along a frozen trajectory.

    ``checkpoints`` must contain the base state at every step (as produced
    by :meth:`Integrator.run` with ``keep_checkpoints=True``); the tangent
    starts at ``direction`` at time ``start_step * dt`` and is pushed
    forward by the exact Jacobian of the splitting step, the flow's
    derivative at the base state followed by the semigroup decay, so a
    finite-difference quotient of two coupled trajectories reproduces it
    to the quotient's own truncation error.
    """
    config = integrator.config
    if len(checkpoints) != config.n_steps + 1:
        raise ValueError("base trajectory must be checkpointed at every "
                         f"step: expected {config.n_steps + 1} states, "
                         f"got {len(checkpoints)}")
    if not 0 <= start_step <= config.n_steps:
        raise ValueError("start step outside the trajectory")
    space, drift, dt = integrator.space, integrator.drift, integrator.dt
    eta = np.array(direction, dtype=float, copy=True)
    for index in range(start_step, config.n_steps):
        jac = drift.flow_with_derivative(dt, checkpoints[index])[1]
        coeffs = space.to_eigen(jac * eta)
        eta = space.from_eigen(_scale_columns(integrator._decay, coeffs))
    return eta
