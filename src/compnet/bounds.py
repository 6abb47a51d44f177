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
    GramSystem,
    SingularGramError,
    build_gram,
    check_assumptions,
    component_losses,
    solve_theta_star,
)
from .model import residual_loss
from .scaled import apply_wrapper, construct_wrapper

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
    eta_probe: np.ndarray | None = None  # candidate angle-threshold constants

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
    """|cos angle(u, v)| for `count` uniform unit vectors v against a fixed u."""
    out = np.empty(count)
    done = 0
    block = max(1, int(2_000_000 // max(n, 1)))
    while done < count:
        b = min(block, count - done)
        v = rng.standard_normal((b, n))
        # u is the first standard basis vector; the sphere is isotropic
        out[done : done + b] = np.abs(v[:, 0]) / np.linalg.norm(v, axis=1)
        done += b
    return out


def verify_orthogonality(spec: TrialSpec) -> BoundReport:
    """Estimate the smallest angle-threshold constant on a pilot run,
    then measure the near-perpendicular rate on fresh samples."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    bound = 1.0 - 1.0 / np.sqrt(n)
    grid = spec.eta_probe if spec.eta_probe is not None else np.arange(0.02, 5.0001, 0.02)
    grid = np.asarray(grid, dtype=float)
    grid = grid[(grid > 0) & (grid <= 2.0 * np.sqrt(n))]
    if grid.size == 0:
        raise ValueError("eta_probe grid is empty after clipping to (0, 2*sqrt(n)]")

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


def _draw_instance(rng: np.random.Generator, n: int, k: int, noise: float, budget: list):
    """Label vector plus k component columns near it, resampled until the
    independence (A1) and imperfection (A2) checks pass."""
    while True:
        y = rng.standard_normal(n)
        cols = (
            y[:, None] + noise * rng.standard_normal((n, k)) if k else np.empty((n, 0))
        )
        rep = check_assumptions(cols, y)
        if rep.a1.holds and rep.a2.holds:
            return y, cols
        budget[0] -= 1
        if budget[0] <= 0:
            raise DegenerateSpecError(
                "resampling budget exhausted while enforcing A1/A2; "
                "component_noise is too small or the spec is degenerate"
            )


def verify_strict_improvement(spec: TrialSpec) -> BoundReport:
    """Rate of E(optimal combination) < min over {bias, components}."""
    rng = np.random.default_rng(spec.seed)
    n, k = spec.n, spec.k
    bound = 1.0 - (k + 1) / np.sqrt(n)
    budget = [100 * spec.trials]
    successes = 0
    for _ in range(spec.trials):
        while True:
            y, cols = _draw_instance(rng, n, k, spec.component_noise, budget)
            try:
                theta = solve_theta_star(build_gram(cols, y))
                break
            except SingularGramError:
                budget[0] -= 1
        e_g = residual_loss(theta[0] + cols @ theta[1:], y)
        baseline = residual_loss(np.ones(n), y)  # the bias column alone
        if k:
            baseline = min(baseline, float(np.min(component_losses(cols, y))))
        if e_g < baseline - STRICT_SLACK:
            successes += 1
    details = {"resamples": 100 * spec.trials - budget[0], "component_noise": spec.component_noise}
    return _report("strict-improvement", successes, spec.trials, bound, details)


def verify_add_width(spec: TrialSpec) -> BoundReport:
    """Rate at which the optimal bias-free pair combination strictly
    beats the better of the two components; requires k = 2."""
    if spec.k != 2:
        raise ValueError("the width claim is about exactly two components (k = 2)")
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    bound = 1.0 - 2.0 / np.sqrt(n)
    budget = [100 * spec.trials]
    successes = 0
    for _ in range(spec.trials):
        while True:
            y, cols = _draw_instance(rng, n, 2, spec.component_noise, budget)
            # bias-free: k = 1 sizes the 2x2 system over the two columns alone
            system = GramSystem(cols.T @ cols, cols.T @ y, k=1, n=n)
            try:
                alpha = solve_theta_star(system)
                break
            except SingularGramError:
                budget[0] -= 1
        e = residual_loss(cols @ alpha, y)
        best = float(np.min(component_losses(cols, y)))
        if e < best - STRICT_SLACK:
            successes += 1
    details = {"resamples": 100 * spec.trials - budget[0]}
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
    rng = np.random.default_rng(spec.seed)
    n, k = spec.n, spec.k
    bound = (1.0 - (k + 1) / np.sqrt(n)) ** h
    first_count = k - h + 1
    budget = [100 * spec.trials]
    successes = 0
    for _ in range(spec.trials):
        y, cols = _draw_instance(rng, n, k, spec.component_noise, budget)
        all_losses = component_losses(cols, y)
        bias_loss = residual_loss(np.ones(n), y)
        overall_best = min(bias_loss, float(np.min(all_losses)))
        prev_pred = None
        prev_loss = None
        ok = True
        for layer in range(1, h + 1):
            if layer == 1:
                layer_cols = cols[:, :first_count]
                # layer 1 must strictly beat the components it combines
                reference = min(bias_loss, float(np.min(all_losses[:first_count])))
            else:
                new_col = cols[:, first_count + layer - 2]
                layer_cols = np.column_stack([prev_pred, new_col])
                reference = prev_loss
            try:
                theta = solve_theta_star(build_gram(layer_cols, y))
            except SingularGramError:
                ok = False
                break
            lin_pred = theta[0] + layer_cols @ theta[1:]
            lin_loss = residual_loss(lin_pred, y)
            margin = reference - lin_loss
            if margin <= STRICT_SLACK:
                ok = False
                break
            m2 = float(np.max(np.abs(lin_pred - y)))
            eps = min(1.0, margin / (4.0 * n * (2.0 * m2 + 1.0)))
            if eps < 1e-12:
                ok = False
                break
            wrapper = construct_wrapper(lin_pred, activation, eps)
            g_pred = np.asarray(apply_wrapper(wrapper, lin_pred))
            g_loss = residual_loss(g_pred, y)
            if not g_loss < reference:
                ok = False
                break
            prev_pred, prev_loss = g_pred, g_loss
        if ok and not prev_loss < overall_best:
            ok = False
        if ok:
            successes += 1
    details = {
        "h": h,
        "activation": activation.tag,
        "first_layer_components": first_count,
        "resamples": 100 * spec.trials - budget[0],
    }
    return _report("depth-compounding", successes, spec.trials, bound, details)
