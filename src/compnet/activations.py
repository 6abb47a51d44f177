"""Activation functions for components and composite nodes.

Each activation knows its value and derivative, and -- where a smooth
inverse exists around 0, where each one is steepest -- the first two
derivatives of the inverse map.  The inverse data is what the
scaled-combiner construction consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TAGS = ("linear", "logistic", "scaled-logistic", "tanh", "relu")


class ActivationError(ValueError):
    pass


@dataclass(frozen=True)
class Activation:
    """An elementwise activation, optionally parameterized.

    ``scale`` and ``out_range`` only matter for ``scaled-logistic``,
    which evaluates 2*out_range / (1 + exp(-z/scale)) - out_range.
    """

    tag: str
    scale: float = 1.0
    out_range: float = 1.0

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ActivationError(f"unknown activation tag {self.tag!r}")
        if self.tag == "scaled-logistic" and (self.scale <= 0 or self.out_range <= 0):
            raise ActivationError("scaled-logistic needs positive scale and range")

    @property
    def a3_compliant(self) -> bool:
        """Smooth enough for the scaled-combiner construction.

        relu is excluded: its derivative is discontinuous at 0.
        """
        return self.tag != "relu"

    @property
    def taylor_radius(self) -> float:
        """Half-width of the interval around 0 used when bounding the
        inverse's curvature."""
        if self.tag == "scaled-logistic":
            return self.scale
        return 1.0

    def value(self, z):
        z = np.asarray(z, dtype=float)
        if self.tag == "linear":
            return z
        if self.tag == "logistic":
            return _expit(z)
        if self.tag == "tanh":
            return np.tanh(z)
        if self.tag == "scaled-logistic":
            # 2R*expit(z/s) - R, written via tanh for symmetry about 0
            return self.out_range * np.tanh(z / (2.0 * self.scale))
        return np.maximum(z, 0.0)

    def derivative(self, z):
        z = np.asarray(z, dtype=float)
        return self.backprop(np.ones_like(z), z, self.value(z))

    def backprop(self, d, z, h):
        """``d`` times the slope at ``z``, where ``h = value(z)``: the one
        statement of each activation's slope.  The tanh and logistic slopes
        are functions of ``h``, so they take fewer operations from it."""
        if self.tag == "linear":
            return d
        if self.tag == "logistic":
            return d * (h * (1.0 - h))
        if self.tag == "tanh":
            return d * (1.0 - h * h)
        if self.tag == "scaled-logistic":
            s = _expit(z / self.scale)
            return d * ((2.0 * self.out_range / self.scale) * s * (1.0 - s))
        return d * (z > 0).astype(float)

    def centered_value(self, delta):
        """value(delta) - value(0), computed without cancellation.

        Needed when the scaled combiner drives the activation with tiny
        offsets around 0.
        """
        if self.tag == "logistic":
            return 0.5 * np.tanh(0.5 * np.asarray(delta, dtype=float))
        return self.value(delta)  # value(0) = 0 for every other tag

    # Derivatives of the inverse map tau around value(0).

    def inverse_d1(self, y):
        y = np.asarray(y, dtype=float)
        if self.tag == "linear":
            return np.ones_like(y)
        if self.tag == "logistic":
            return 1.0 / (y * (1.0 - y))
        if self.tag == "tanh":
            return 1.0 / (1.0 - y * y)
        if self.tag == "scaled-logistic":
            r = self.out_range
            return 2.0 * self.scale * r / (r * r - y * y)
        raise ActivationError("relu has no smooth inverse")

    def inverse_d2(self, y):
        y = np.asarray(y, dtype=float)
        if self.tag == "linear":
            return np.zeros_like(y)
        if self.tag == "logistic":
            return 1.0 / (1.0 - y) ** 2 - 1.0 / y**2
        if self.tag == "tanh":
            return 2.0 * y / (1.0 - y * y) ** 2
        if self.tag == "scaled-logistic":
            r = self.out_range
            return 4.0 * self.scale * r * y / (r * r - y * y) ** 2
        raise ActivationError("relu has no smooth inverse")

    @property
    def label(self) -> str:
        """Short label used in construction reports."""
        return {
            "linear": "L",
            "scaled-logistic": "SL",
            "logistic": "Sigm",
            "tanh": "Tanh",
            "relu": "Relu",
        }[self.tag]

    def to_dict(self) -> dict:
        d = {"tag": self.tag}
        if self.tag == "scaled-logistic":
            d["scale"] = float(self.scale)
            d["range"] = float(self.out_range)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Activation":
        if d["tag"] == "scaled-logistic":
            return cls("scaled-logistic", scale=float(d["scale"]), out_range=float(d["range"]))
        return cls(d["tag"])


def _expit(z):
    # exp only ever sees non-positive arguments
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


LINEAR = Activation("linear")
LOGISTIC = Activation("logistic")
TANH = Activation("tanh")
RELU = Activation("relu")

# Fixed wide preset used by the construction experiments:
# S(z) = 2000/(1+exp(-z/500)) - 1000, i.e. slope 1 at the origin.
SL = Activation("scaled-logistic", scale=500.0, out_range=1000.0)


def parse_activation(token: str) -> Activation:
    """Parse a CLI token such as 'linear', 'sl', or 'scaled-logistic:500:1000'."""
    t = token.strip().lower()
    if t in ("l", "linear"):
        return LINEAR
    if t == "sl":
        return SL
    if t in ("logistic", "sigm", "sigmoid"):
        return LOGISTIC
    if t == "tanh":
        return TANH
    if t == "relu":
        return RELU
    if t.startswith("scaled-logistic"):
        parts = t.split(":")
        if len(parts) == 3:
            try:
                scale, out_range = float(parts[1]), float(parts[2])
            except ValueError:
                pass
            else:
                return Activation("scaled-logistic", scale=scale, out_range=out_range)
    raise ActivationError(f"cannot parse activation token {token!r}")
