"""Confusion-matrix accounting with the Alice-positive convention.

The transmitter being authenticated (Alice) is the positive class. A
false alarm is a rejected genuine packet; a missed detection is an
accepted forged one. Rates are returned as exact fractions so that
identities like the class-balance invariance of the geometric mean hold
exactly, not merely to rounding.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def p_fa(cm: ConfusionMatrix) -> Fraction:
    """Probability of false alarm: genuine packets rejected."""
    if cm.tp + cm.fn == 0:
        raise UndefinedMetricError("no genuine packets recorded")
    return Fraction(cm.fn, cm.tp + cm.fn)


def p_md(cm: ConfusionMatrix) -> Fraction:
    """Probability of missed detection: forged packets accepted."""
    if cm.fp + cm.tn == 0:
        raise UndefinedMetricError("no forged packets recorded")
    return Fraction(cm.fp, cm.fp + cm.tn)


def accuracy(cm: ConfusionMatrix) -> Fraction:
    if cm.total == 0:
        raise UndefinedMetricError("empty confusion matrix")
    return Fraction(cm.tp + cm.tn, cm.total)


def g_mean(cm: ConfusionMatrix) -> float:
    """sqrt(TPR * TNR); independent of the class mix by construction."""
    tpr = 1 - p_fa(cm)
    tnr = 1 - p_md(cm)
    return math.sqrt(float(tpr * tnr))


def binomial_se(p: float, n: int) -> float:
    """Standard error of an empirical proportion from n Bernoulli trials."""
    if n <= 0:
        raise UndefinedMetricError("need at least one trial")
    p = float(p)
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)
