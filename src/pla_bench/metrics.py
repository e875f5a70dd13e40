"""Confusion counts with the Alice-positive convention, and binomial
standard errors.

The transmitter being authenticated (Alice) is the positive class. A
false alarm is a rejected genuine packet; a missed detection is an
accepted forged one.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

from .errors import UndefinedMetricError

@dataclass
class ConfusionMatrix:
    tp: int = 0
    fn: int = 0
    fp: int = 0
    tn: int = 0

    def __post_init__(self):
        for name in ("tp", "fn", "fp", "tn"):
            v = getattr(self, name)
            if v < 0 or v != int(v):
                raise ValueError(f"{name} must be a nonnegative integer")
            setattr(self, name, int(v))

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            tp=self.tp + other.tp, fn=self.fn + other.fn,
            fp=self.fp + other.fp, tn=self.tn + other.tn,
        )


def binomial_se(p: float, n: int) -> float:
    """Standard error of an empirical proportion from n Bernoulli trials."""
    if n <= 0:
        raise UndefinedMetricError("need at least one trial")
    p = float(p)
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)
