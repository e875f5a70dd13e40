import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pla_bench.errors import UndefinedMetricError
from pla_bench.metrics import (
    ConfusionMatrix,
    accuracy,
    binomial_se,
    g_mean,
    p_fa,
    p_md,
)


def test_rates_are_exact_fractions():
    cm = ConfusionMatrix(tp=7, fn=3, fp=2, tn=8)
    assert p_fa(cm) == Fraction(3, 10)
    assert p_md(cm) == Fraction(2, 10)
    assert accuracy(cm) == Fraction(15, 20)
    assert isinstance(p_fa(cm), Fraction)


def test_balanced_matrix_gives_half_rates():
    cm = ConfusionMatrix(tp=5, fn=5, fp=5, tn=5)
    assert p_fa(cm) == Fraction(1, 2)
    assert p_md(cm) == Fraction(1, 2)
    assert g_mean(cm) == pytest.approx(0.5)


def test_undefined_rates_raise():
    with pytest.raises(UndefinedMetricError):
        p_fa(ConfusionMatrix(fp=1, tn=1))
    with pytest.raises(UndefinedMetricError):
        p_md(ConfusionMatrix(tp=1, fn=1))
    with pytest.raises(UndefinedMetricError):
        accuracy(ConfusionMatrix())


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        ConfusionMatrix(tp=-1)
    with pytest.raises(ValueError):
        ConfusionMatrix(tn=-3)


def test_merge_adds_counts():
    a = ConfusionMatrix(tp=1, fn=2, fp=3, tn=4)
    b = ConfusionMatrix(tp=10, fn=20, fp=30, tn=40)
    c = a + b
    assert (c.tp, c.fn, c.fp, c.tn) == (11, 22, 33, 44)


counts = st.integers(min_value=0, max_value=10**6)


@given(tp=counts, fn=counts, fp=counts, tn=counts, k=st.integers(min_value=1, max_value=50))
def test_rates_invariant_under_duplication(tp, fn, fp, tn, k):
    """Observing every trial k times must leave all the rates unchanged."""
    cm = ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn)
    big = ConfusionMatrix(tp=k * tp, fn=k * fn, fp=k * fp, tn=k * tn)
    if tp + fn > 0:
        assert p_fa(cm) == p_fa(big)
    if fp + tn > 0:
        assert p_md(cm) == p_md(big)
    if tp + fn + fp + tn > 0:
        assert accuracy(cm) == accuracy(big)


@given(tp=counts, fn=counts, fp=counts, tn=counts)
def test_rate_bounds_and_gmean_identity(tp, fn, fp, tn):
    cm = ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn)
    if tp + fn == 0 or fp + tn == 0:
        return
    fa, md = p_fa(cm), p_md(cm)
    assert 0 <= fa <= 1 and 0 <= md <= 1
    want = math.sqrt(float((1 - fa) * (1 - md)))
    assert g_mean(cm) == pytest.approx(want, abs=1e-12)


@given(
    a=st.tuples(counts, counts, counts, counts),
    b=st.tuples(counts, counts, counts, counts),
)
def test_merge_matches_componentwise_sum(a, b):
    ca = ConfusionMatrix(*a)
    cb = ConfusionMatrix(*b)
    cc = ca + cb
    assert (cc.tp, cc.fn, cc.fp, cc.tn) == tuple(x + y for x, y in zip(a, b))


def test_binomial_se_value_and_validation():
    assert binomial_se(0.5, 100) == pytest.approx(0.05)
    assert binomial_se(0.0, 10) == 0.0
    with pytest.raises(UndefinedMetricError):
        binomial_se(0.5, 0)
