"""Closed-form optimal linear combination of component outputs.

The normal-equations system is built from inner products of the
component output columns (index 0 is the all-ones bias column) and
solved by a symmetric positive-definite factorization.  The module
also checks the runtime assumptions the guarantees depend on:

  A1  component output columns (with the bias column) are linearly
      independent,
  A2  no component matches the labels exactly (positive L1 error),
  A4  K < 2*sqrt(N) - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .model import residual_loss

A1_RELATIVE_TOL = 1e-10
_GRAM_COND_TOL = 1e-14


class SolverError(ValueError):
    pass


class SingularGramError(SolverError):
    """The Gram matrix is numerically singular at ridge 0.

    Usually means the component outputs are linearly dependent
    (A1 violated).  A positive ridge makes the solve well posed but
    hides that diagnosis, so it stays opt-in.
    """


@dataclass
class GramSystem:
    """(K+1)x(K+1) inner-product matrix and right-hand side."""

    gram: np.ndarray
    rhs: np.ndarray
    k: int
    n: int


def _as_columns(component_outputs) -> np.ndarray:
    """Accept an (N, K) array or a sequence of K length-N columns."""
    if isinstance(component_outputs, np.ndarray) and component_outputs.ndim == 2:
        cols = np.asarray(component_outputs, dtype=float)
    else:
        seq = [np.asarray(c, dtype=float).ravel() for c in component_outputs]
        if not seq:
            return np.empty((0, 0))
        cols = np.column_stack(seq)
    return cols


def build_gram(component_outputs, labels) -> GramSystem:
    """Assemble the normal-equations system with the bias column prepended."""
    labels = np.asarray(labels, dtype=float).ravel()
    n = labels.size
    if n < 1:
        raise SolverError("labels must be non-empty")
    cols = _as_columns(component_outputs)
    if cols.size == 0:
        cols = np.empty((n, 0))
    if cols.shape[0] != n:
        raise SolverError(f"column length {cols.shape[0]} != label length {n}")
    if not np.all(np.isfinite(cols)) or not np.all(np.isfinite(labels)):
        raise SolverError("non-finite entries in component outputs or labels")
    full = np.column_stack([np.ones(n), cols])
    gram = full.T @ full
    # exact value, free of accumulated rounding
    gram[0, 0] = float(n)
    rhs = full.T @ labels
    return GramSystem(gram=gram, rhs=rhs, k=cols.shape[1], n=n)


def solve_theta_star(system: GramSystem, ridge: float = 0.0) -> np.ndarray:
    """Solve (gram + ridge*I) theta = rhs.

    With ridge = 0 and A1 holding this is the unique least-squares
    minimizer, and its loss never exceeds the best single component's.
    """
    if ridge < 0:
        raise SolverError("ridge must be non-negative")
    a = system.gram + ridge * np.eye(system.k + 1)
    if ridge == 0.0:
        w = np.linalg.eigvalsh(a)
        if w[0] <= 0 or w[0] <= w[-1] * _GRAM_COND_TOL:
            raise SingularGramError(
                "Gram matrix numerically singular: component outputs look linearly "
                "dependent (A1 violated); pass ridge > 0 to regularize explicitly"
            )
    try:
        factor = cho_factor(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded above
        raise SingularGramError(f"factorization failed: {exc}") from exc
    return cho_solve(factor, system.rhs)


def predict(theta: np.ndarray, component_outputs) -> np.ndarray:
    cols = _as_columns(component_outputs)
    theta = np.asarray(theta, dtype=float)
    if cols.size == 0:
        n = 0 if cols.shape == (0, 0) else cols.shape[0]
        return np.full(n, theta[0])
    return theta[0] + cols @ theta[1:]


def combination_loss(theta: np.ndarray, component_outputs, labels) -> float:
    labels = np.asarray(labels, dtype=float).ravel()
    cols = _as_columns(component_outputs)
    if cols.size == 0:
        cols = np.empty((labels.size, 0))
    return residual_loss(predict(theta, cols), labels)


def component_losses(component_outputs, labels) -> np.ndarray:
    """Per-column mean squared error against the labels."""
    labels = np.asarray(labels, dtype=float).ravel()
    cols = _as_columns(component_outputs)
    if cols.size == 0:
        return np.empty(0)
    d = cols - labels[:, None]
    return np.sum(d * d, axis=0) / labels.size


@dataclass
class A1Check:
    holds: bool
    min_singular_value: float


@dataclass
class A2Check:
    holds: bool
    min_l1_error: float


@dataclass
class A4Check:
    holds: bool
    bound: float


@dataclass
class AssumptionReport:
    a1: A1Check
    a2: A2Check
    a4: A4Check

    def to_dict(self) -> dict:
        return {
            "a1": {"holds": self.a1.holds, "min_singular_value": self.a1.min_singular_value},
            "a2": {"holds": self.a2.holds, "min_l1_error": self.a2.min_l1_error},
            "a4": {"holds": self.a4.holds, "bound": self.a4.bound},
        }


def check_assumptions(component_outputs, labels, tol: float = A1_RELATIVE_TOL) -> AssumptionReport:
    """Report on A1/A2/A4; never raises for a violated assumption."""
    labels = np.asarray(labels, dtype=float).ravel()
    n = labels.size
    cols = _as_columns(component_outputs)
    if cols.size == 0:
        cols = np.empty((n, 0))
    if cols.shape[0] != n:
        raise SolverError(f"column length {cols.shape[0]} != label length {n}")
    if not np.all(np.isfinite(cols)) or not np.all(np.isfinite(labels)):
        raise SolverError("non-finite entries in component outputs or labels")
    k = cols.shape[1]

    full = np.column_stack([np.ones(n), cols])
    sv = np.linalg.svd(full, compute_uv=False)
    smin = float(sv[-1])
    a1 = A1Check(holds=bool(sv[0] > 0 and smin / sv[0] > tol), min_singular_value=smin)

    if k == 0:
        a2 = A2Check(holds=True, min_l1_error=float("inf"))
    else:
        l1 = np.sum(np.abs(cols - labels[:, None]), axis=0)
        a2 = A2Check(holds=bool(np.min(l1) > 0.0), min_l1_error=float(np.min(l1)))

    bound = 2.0 * np.sqrt(n) - 1.0
    a4 = A4Check(holds=bool(k < bound), bound=float(bound))
    return AssumptionReport(a1=a1, a2=a2, a4=a4)
