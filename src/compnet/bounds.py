"""Monte Carlo verification of the probabilistic performance claims.

Synthetic ensembles are drawn as columns in R^N (a label vector plus
component output vectors near it), the closed-form combiner is applied,
and the observed success rates are compared against the claimed lower
bounds:

  near-orthogonality     random unit vectors are nearly perpendicular
                         to a fixed one with rate >= 1 - 1/sqrt(N);
  strict improvement     an optimal combination strictly beats the best
                         single component with rate >= 1 - (K+1)/sqrt(N);
  two-component gain     a bias-free pair combination strictly beats the
                         better of the two with rate >= 1 - 2/sqrt(N);
  depth compounding      an H-layer chain of combine-and-rescale steps
                         strictly improves at every layer with rate
                         >= (1 - (K+1)/sqrt(N))^H.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .activations import Activation, LOGISTIC
from .linear import (
    SingularGramError,
    build_gram,
    check_a1,
    check_a2,
    component_losses,
    solve_theta_star,
)
from .model import residual_loss
from .scaled import apply_wrapper, construct_wrapper, margin_epsilon

STRICT_SLACK = 1e-12
_SMALL_N = 100


class DegenerateSpecError(RuntimeError):
    """Rejection sampling exceeded its budget: the spec cannot satisfy
    the independence / imperfection assumptions."""


@dataclass
class TrialSpec:
    n: int
    k: int
    trials: int
    seed: int = 0
    component_noise: float = 0.5

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("n must be at least 4")
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if self.trials < 100:
            raise ValueError("trials must be at least 100")
        if self.component_noise <= 0:
            raise ValueError("component_noise must be positive")


@dataclass
class BoundReport:
    claim: str
    empirical_rate: float
    bound: float
    satisfied: bool
    ci95: tuple[float, float]
    trials: int
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "empirical_rate": self.empirical_rate,
            "bound": self.bound,
            "satisfied": self.satisfied,
            "ci95": list(self.ci95),
            "trials": self.trials,
            "details": self.details,
        }


def _report(claim: str, successes: int, trials: int, bound: float, details: dict) -> BoundReport:
    rate = successes / trials
    half_width = 1.96 * np.sqrt(max(rate * (1.0 - rate), 1e-12) / trials)
    ci = (max(0.0, rate - half_width), min(1.0, rate + half_width))
    return BoundReport(
        claim=claim,
        empirical_rate=float(rate),
        bound=float(bound),
        satisfied=bool(rate >= bound - half_width),
        ci95=ci,
        trials=trials,
        details=details,
    )


# -- near-orthogonality ----------------------------------------------------


def near_perpendicular(u, v, eta: float) -> bool:
    """Whether the angle between u and v is within eta of a right angle."""
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    c = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
    angle = float(np.arccos(np.clip(c, -1.0, 1.0)))
    return abs(angle - np.pi / 2.0) <= eta


def _abs_cosines(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """|cos angle(u, v)| for `count` uniform unit vectors v in R^n against a
    fixed u: cos^2 is Beta(1/2, (n-1)/2) distributed."""
    return np.sqrt(rng.beta(0.5, (n - 1) / 2.0, count))


def verify_orthogonality(spec: TrialSpec) -> BoundReport:
    """Estimate the smallest angle-threshold constant on a pilot run,
    then measure the near-perpendicular rate on fresh samples."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    bound = 1.0 - 1.0 / np.sqrt(n)
    grid = np.arange(0.02, 5.0001, 0.02)
    grid = grid[grid <= 2.0 * np.sqrt(n)]

    pilot_count = max(2000, spec.trials // 10)
    pilot = _abs_cosines(rng, n, pilot_count)
    flags = []
    c_star = None
    for c in grid:
        sin_eta = float(np.sqrt(max(0.0, 1.0 - (1.0 - c / np.sqrt(n)) ** 2)))
        if float(np.mean(pilot <= sin_eta)) >= bound:
            c_star = float(c)
            break
    if c_star is None:
        c_star = float(grid[-1])
        flags.append("no grid constant reached the bound on the pilot run")
    eta = float(np.arccos(1.0 - c_star / np.sqrt(n)))
    if n < _SMALL_N:
        flags.append("large N required")

    sin_eta = float(np.sin(eta))
    main = _abs_cosines(rng, n, spec.trials)
    successes = int(np.sum(main <= sin_eta))
    details = {
        "c": c_star,
        "eta": eta,
        "pilot_trials": pilot_count,
        "flags": flags,
    }
    return _report("near-orthogonality", successes, spec.trials, bound, details)


# -- ensemble draws --------------------------------------------------------


def _run_trials(spec: TrialSpec, event) -> tuple[int, int]:
    """Count the trials on which ``event(y, cols, system)`` holds.

    Each trial draws labels y ~ N(0, I_N) and spec.k component columns
    y + component_noise * N(0, I_N), redrawn until A2 and A1 hold;
    ``system`` is the draw's accepted Gram system, bias first.  A system
    over a subset of its columns, with or without the bias, is a
    principal submatrix, so it passes A1 too (eigenvalue interlacing)
    and the event solves it without a check.  Returns (successes,
    resamples).
    """
    rng = np.random.default_rng(spec.seed)
    n, k = spec.n, spec.k
    budget = 100 * spec.trials
    successes = resamples = 0
    for _ in range(spec.trials):
        while True:
            y = rng.standard_normal(n)
            cols = y[:, None] + spec.component_noise * rng.standard_normal((n, k))
            system = build_gram(cols, y)
            if check_a2(cols, y).holds and check_a1(system.gram).holds:
                break
            resamples += 1
            if resamples >= budget:
                raise DegenerateSpecError(
                    "resampling budget exhausted while enforcing A1/A2; "
                    "component_noise is too small or the spec is degenerate"
                )
        if event(y, cols, system):
            successes += 1
    return successes, resamples


def verify_strict_improvement(spec: TrialSpec) -> BoundReport:
    """Rate of E(optimal combination) < min over {bias, components}."""
    n, k = spec.n, spec.k
    bound = 1.0 - (k + 1) / np.sqrt(n)

    def improves(y, cols, system):
        theta = np.linalg.solve(system.gram, system.rhs)
        e_g = residual_loss(theta[0] + cols @ theta[1:], y)
        baseline = residual_loss(np.ones(n), y)  # the bias column alone
        if k:
            baseline = min(baseline, float(np.min(component_losses(cols, y))))
        return e_g < baseline - STRICT_SLACK

    successes, resamples = _run_trials(spec, improves)
    details = {"resamples": resamples, "component_noise": spec.component_noise}
    return _report("strict-improvement", successes, spec.trials, bound, details)


def verify_add_width(spec: TrialSpec) -> BoundReport:
    """Rate at which the optimal bias-free pair combination strictly
    beats the better of the two components; requires k = 2."""
    if spec.k != 2:
        raise ValueError("the width claim is about exactly two components (k = 2)")
    bound = 1.0 - 2.0 / np.sqrt(spec.n)

    def pair_gains(y, cols, system):
        alpha = np.linalg.solve(system.gram[1:, 1:], system.rhs[1:])
        best = float(np.min(component_losses(cols, y)))
        return residual_loss(cols @ alpha, y) < best - STRICT_SLACK

    successes, resamples = _run_trials(spec, pair_gains)
    details = {"resamples": resamples}
    return _report("two-component-gain", successes, spec.trials, bound, details)


def verify_depth_compounding(
    spec: TrialSpec, h: int, activation: Activation = LOGISTIC
) -> BoundReport:
    """Grow an h-layer chain and count trials where the loss strictly
    drops at every layer and ends below the best single component.

    Each layer is an optimal combine followed by the scaled-activation
    rescale.  Layer 1 combines the first k-h+1 components; every deeper
    layer merges the previous chain output with one component not yet
    absorbed (adding depth brings in new information, so each layer's
    improvement event is non-trivial).  With h = 1 this is exactly the
    strict-improvement experiment.
    """
    if h < 1:
        raise ValueError("h must be at least 1")
    if h > spec.k:
        raise ValueError(
            "h must not exceed k: every layer beyond the first absorbs a new component"
        )
    n, k = spec.n, spec.k
    bound = (1.0 - (k + 1) / np.sqrt(n)) ** h
    first_count = k - h + 1

    def compounds(y, cols, system):
        all_losses = component_losses(cols, y)
        bias_loss = residual_loss(np.ones(n), y)
        layer_cols = cols[:, :first_count]
        m = first_count + 1  # the bias and the first layer's columns
        theta = np.linalg.solve(system.gram[:m, :m], system.rhs[:m])
        # layer 1 must strictly beat the components it combines
        loss = min(bias_loss, float(np.min(all_losses[:first_count])))
        for layer in range(h):
            if layer:
                layer_cols = np.column_stack([pred, cols[:, first_count + layer - 1]])
                try:
                    theta = solve_theta_star(build_gram(layer_cols, y))
                except SingularGramError:
                    return False
            lin_pred = theta[0] + layer_cols @ theta[1:]
            m2 = float(np.max(np.abs(lin_pred - y)))
            # a margin at or below STRICT_SLACK also lands below 1e-12 here
            eps = min(1.0, margin_epsilon(loss - residual_loss(lin_pred, y), m2, n))
            if eps < 1e-12:
                return False
            pred = np.asarray(apply_wrapper(construct_wrapper(lin_pred, activation, eps), lin_pred))
            g_loss = residual_loss(pred, y)
            if not g_loss < loss:
                return False
            loss = g_loss
        return loss < min(bias_loss, float(np.min(all_losses)))

    successes, resamples = _run_trials(spec, compounds)
    details = {
        "h": h,
        "activation": activation.tag,
        "first_layer_components": first_count,
        "resamples": resamples,
    }
    return _report("depth-compounding", successes, spec.trials, bound, details)
