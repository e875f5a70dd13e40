import pytest
from hypothesis import given, strategies as st

from pla_bench.errors import UndefinedMetricError
from pla_bench.metrics import ConfusionMatrix, binomial_se


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
