"""Closed-form optimal linear combination of component outputs.

The normal-equations system is built from inner products of the
component output columns (index 0 is the all-ones bias column) and
solved by LU factorization.  The module also checks the runtime
assumptions the guarantees depend on:

  A1  component output columns (with the bias column) are linearly
      independent: the smallest eigenvalue of the Gram matrix is
      positive and exceeds A1_EIGEN_RATIO = 1e-14 times the largest
      (a singular-value ratio of about 1e-7).  ``check_a1`` is this
      one criterion; ``solve_theta_star`` and ``check_assumptions``
      both apply it.  A principal submatrix of a Gram matrix that
      passes also passes, by eigenvalue interlacing.
  A2  no component matches the labels exactly (positive L1 error),
  A4  K < 2*sqrt(N) - 1.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .model import residual_loss

A1_EIGEN_RATIO = 1e-14


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


def _columns(component_outputs, labels) -> tuple[np.ndarray, np.ndarray]:
    """(N, K) float columns and length-N labels, checked for shape and finiteness."""
    cols = np.asarray(component_outputs, dtype=float)
    labels = np.asarray(labels, dtype=float).ravel()
    n = labels.size
    if n < 1:
        raise SolverError("labels must be non-empty")
    if cols.ndim != 2:
        raise SolverError(f"component outputs must be 2-D (N, K), got {cols.ndim}-D")
    if cols.shape[0] != n:
        raise SolverError(f"column length {cols.shape[0]} != label length {n}")
    if not np.all(np.isfinite(cols)) or not np.all(np.isfinite(labels)):
        raise SolverError("non-finite entries in component outputs or labels")
    return cols, labels


def build_gram(component_outputs, labels) -> GramSystem:
    """Assemble the normal-equations system with the bias column prepended."""
    cols, labels = _columns(component_outputs, labels)
    n = labels.size
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
    if not 0.0 <= ridge < np.inf:  # also false for nan
        raise SolverError(f"ridge must be finite and non-negative, got {ridge}")
    a = system.gram + ridge * np.eye(system.k + 1)
    if ridge == 0.0 and not check_a1(a).holds:
        raise SingularGramError(
            "Gram matrix numerically singular: component outputs look linearly "
            "dependent (A1 violated); pass ridge > 0 to regularize explicitly"
        )
    return np.linalg.solve(a, system.rhs)


def solve_min_norm(design, target) -> tuple[np.ndarray, int]:
    """The minimum-norm least-squares solution of design @ x = target, and
    the design's numerical rank.

    Unlike ``solve_theta_star`` it takes the design as given (no bias
    column is prepended) and accepts dependent columns: the SVD solve
    (``np.linalg.lstsq``, default cutoff) drops the directions below its
    cutoff, and the rank says how many it kept.
    """
    design, target = _columns(design, target)
    x, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    return x, int(rank)


def predict(theta: np.ndarray, component_outputs) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    return theta[0] + np.asarray(component_outputs, dtype=float) @ theta[1:]


def combination_loss(theta: np.ndarray, component_outputs, labels) -> float:
    return residual_loss(predict(theta, component_outputs), labels)


def component_losses(component_outputs, labels) -> np.ndarray:
    """Per-column mean squared error against the labels.

    Each column is summed along the contiguous axis, as ``residual_loss``
    sums one column, so the two agree bit for bit.
    """
    labels = np.asarray(labels, dtype=float).ravel()
    d = (np.asarray(component_outputs, dtype=float) - labels[:, None]).T.copy()
    return np.sum(d * d, axis=1) / labels.size


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
        return asdict(self)


def check_a1(gram: np.ndarray) -> A1Check:
    """The one A1 criterion, applied to a Gram matrix.

    The columns' smallest singular value is the square root of the Gram
    matrix's smallest eigenvalue.
    """
    w = np.linalg.eigvalsh(gram)
    return A1Check(
        holds=bool(w[0] > 0 and w[0] > w[-1] * A1_EIGEN_RATIO),
        min_singular_value=float(np.sqrt(max(w[0], 0.0))),
    )


def check_a2(cols: np.ndarray, labels: np.ndarray) -> A2Check:
    """A2 on checked (N, K) columns and length-N labels; vacuous for K = 0."""
    if cols.shape[1] == 0:
        return A2Check(holds=True, min_l1_error=float("inf"))
    l1 = float(np.min(np.sum(np.abs(cols - labels[:, None]), axis=0)))
    return A2Check(holds=l1 > 0.0, min_l1_error=l1)


def check_assumptions(component_outputs, labels) -> AssumptionReport:
    """Report on A1/A2/A4; never raises for a violated assumption."""
    cols, labels = _columns(component_outputs, labels)
    n, k = cols.shape
    bound = 2.0 * np.sqrt(n) - 1.0
    return AssumptionReport(
        a1=check_a1(build_gram(cols, labels).gram),
        a2=check_a2(cols, labels),
        a4=A4Check(holds=bool(k < bound), bound=float(bound)),
    )
