"""Scaled non-linear sandwich around the optimal linear combiner.

Two affine maps are fitted around a smooth activation so that the
composite  outer(sigma(inner(g(x))))  tracks the linear optimum g(x)
within a requested epsilon at every training point.  The inner map
shrinks g's range into a small interval around 0, where every smooth
activation here has its steepest slope; the outer map is the
first-order expansion of the activation's inverse, so the curvature
term is the only error left.

Construction mirrors the following recipe (floors at 1 keep the bound
conservative; the curvature supremum carries a factor 5):

    m_g    = max(1, 2 * max_i |g(x_i)|)
    m1     = max(1, 5 * sup |tau''(sigma(z))| * ((sigma(z)-y0)/z)^2)
    gamma  = min(gamma0, 2 ** -(ceil(log2(m_g * m1 / eps)) + 1))
    m0     = m_g / gamma

which guarantees  m0 * m1 * gamma^2 < eps.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .activations import Activation, SL  # noqa: F401  (SL preset re-exported)
from .model import residual_loss

_SUPREMUM_SAMPLES = 100_000


class ScaledActivationError(ValueError):
    pass


class CalibrationRangeWarning(UserWarning):
    """Value fed to a wrapper outside the range it was calibrated on."""


@dataclass
class ScaledWrapper:
    """Affine-sigma-affine sandwich calibrated for one combiner's outputs."""

    activation: Activation
    y0: float
    m0: float
    outer_slope: float
    outer_bias: float
    gamma: float
    m1: float
    epsilon: float
    calibrated_abs_max: float

    def error_bound(self) -> float:
        """Guaranteed pointwise bound m0 * m1 * gamma^2 (< epsilon)."""
        return self.m0 * self.m1 * self.gamma * self.gamma


@functools.cache
def curvature_supremum(activation: Activation) -> float:
    """Factor-5 bound on the inverse's second-order term near 0.

    Estimated on a dense grid over (-r, r) with r the activation's
    taylor_radius, plus the analytic z -> 0 limit.
    """
    r = activation.taylor_radius
    z = np.linspace(-r, r, _SUPREMUM_SAMPLES)
    z = z[np.abs(z) > r * 1e-9]
    y0 = float(activation.value(0.0))
    y = activation.value(z)
    quot = (y - y0) / z
    vals = np.abs(activation.inverse_d2(y)) * quot * quot
    # limit point: difference quotient tends to sigma'(0)
    d0 = float(activation.derivative(0.0))
    limit = abs(float(activation.inverse_d2(y0))) * d0 * d0
    return max(1.0, 5.0 * max(float(np.max(vals)), limit))


def construct_wrapper(
    g_star_outputs,
    activation: Activation,
    epsilon: float,
    gamma: float | None = None,
) -> ScaledWrapper:
    """Calibrate a sandwich so |wrapped - g*| < epsilon on every training point.

    ``gamma`` overrides the derived interval half-width (the wide
    logistic recipe uses gamma = 1e-5 * epsilon); it must still satisfy
    the m0 * m1 * gamma^2 < epsilon guarantee or construction fails.
    """
    if not activation.a3_compliant:
        raise ScaledActivationError(f"activation {activation.tag!r} is not smooth enough (A3)")
    if not (0.0 < epsilon <= 1.0):
        raise ScaledActivationError("epsilon must lie in (0, 1]")
    g = np.asarray(g_star_outputs, dtype=float).ravel()
    if g.size == 0 or not np.all(np.isfinite(g)):
        raise ScaledActivationError("combiner outputs must be non-empty and finite")

    d0 = float(activation.derivative(0.0))
    if d0 < 1e-12:
        raise ScaledActivationError("sigma'(0) is numerically zero")
    y0 = float(activation.value(0.0))
    tau1 = float(activation.inverse_d1(y0))

    gamma0 = activation.taylor_radius
    m_g = max(1.0, 2.0 * float(np.max(np.abs(g))))
    m1 = curvature_supremum(activation)

    if gamma is None:
        m_gamma = np.ceil(np.log2(m_g * m1 / epsilon)) + 1.0
        gamma = min(gamma0, float(2.0**-m_gamma))
    else:
        if not (0.0 < gamma <= gamma0):
            raise ScaledActivationError(f"gamma must lie in (0, {gamma0}]")
    m0 = m_g / gamma
    if not m0 * m1 * gamma * gamma < epsilon:
        raise ScaledActivationError(
            f"gamma {gamma} too large: m0*m1*gamma^2 = {m0 * m1 * gamma * gamma} >= {epsilon}"
        )

    wrapper = ScaledWrapper(
        activation=activation,
        y0=y0,
        m0=m0,
        outer_slope=m0 * tau1,
        outer_bias=-m0 * tau1 * y0,
        gamma=gamma,
        m1=m1,
        epsilon=epsilon,
        calibrated_abs_max=float(np.max(np.abs(g))),
    )
    # every training point must land strictly inside (-gamma, gamma)
    if not np.all(np.abs(g / m0) < gamma):
        raise ScaledActivationError("inner map leaves the calibrated interval")
    return wrapper


def apply_wrapper(wrapper: ScaledWrapper, g_star_value):
    """outer_slope * sigma(value / m0) + outer_bias.

    Evaluated in centered form, outer_slope * (sigma(value / m0) - y0),
    which is the same function but keeps precision when value / m0 is tiny.
    """
    value = np.asarray(g_star_value, dtype=float)
    if np.any(np.abs(value) > wrapper.calibrated_abs_max):
        warnings.warn(
            "value outside the range the wrapper was calibrated on",
            CalibrationRangeWarning,
            stacklevel=2,
        )
    if wrapper.activation.tag == "linear":
        # the sandwich collapses to tau'(y0) * value exactly
        out = wrapper.activation.inverse_d1(wrapper.y0) * value
    else:
        out = wrapper.outer_slope * wrapper.activation.centered_value(value / wrapper.m0)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass
class MarginReport:
    ok: bool
    epsilon_needed: float
    m2: float
    reason: str = ""


def margin_epsilon(gap: float, m2: float, n: int) -> float:
    """gap / (4 N (2 M2 + 1)): the largest wrapper epsilon that keeps the
    wrapped combiner below a loss it beats by ``gap``, where
    M2 = max_i |g*(x_i) - y_i| over N points."""
    return gap / (4.0 * n * (2.0 * m2 + 1.0))


def verify_margin(
    wrapper: ScaledWrapper,
    g_star_outputs,
    labels,
    best_component_loss: float,
    g_star_loss: float | None = None,
) -> MarginReport:
    """Epsilon small enough that the wrapped combiner still beats the
    best single component?

    The wrapper qualifies when its epsilon does not exceed
    ``margin_epsilon`` of the gap E(f_best) - E(g*).
    """
    g = np.asarray(g_star_outputs, dtype=float).ravel()
    y = np.asarray(labels, dtype=float).ravel()
    if g.shape != y.shape:
        raise ScaledActivationError("combiner outputs and labels must align")
    m2 = float(np.max(np.abs(g - y)))
    if g_star_loss is None:
        g_star_loss = residual_loss(g, y)
    if not g_star_loss < best_component_loss:
        return MarginReport(
            ok=False,
            epsilon_needed=0.0,
            m2=m2,
            reason=(
                f"combiner loss {g_star_loss} does not beat best component "
                f"loss {best_component_loss}; no margin to spend"
            ),
        )
    epsilon_needed = margin_epsilon(best_component_loss - g_star_loss, m2, y.size)
    ok = wrapper.epsilon <= epsilon_needed
    reason = "" if ok else f"wrapper epsilon {wrapper.epsilon} exceeds {epsilon_needed}"
    return MarginReport(ok=ok, epsilon_needed=float(epsilon_needed), m2=m2, reason=reason)
