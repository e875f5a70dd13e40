import numpy as np
import pytest

from pla_bench.rng import Rng


def test_same_seed_same_stream():
    a = Rng(42).standard_normal(64)
    b = Rng(42).standard_normal(64)
    assert np.array_equal(a, b)


def test_standard_exponential_is_deterministic_and_keyed():
    a = Rng(42).derive(1).standard_exponential((3, 64))
    b = Rng(42).derive(1).standard_exponential((3, 64))
    assert np.array_equal(a, b) and np.all(a >= 0)
    assert not np.array_equal(a, Rng(42).derive(2).standard_exponential((3, 64)))
    # the pass-through is the generator's own draw, out= included
    out = np.empty(5)
    Rng(42).standard_exponential(5, out=out)
    gen = Rng(42).gen
    assert np.array_equal(out, gen.standard_exponential(5))


def test_different_seed_different_stream():
    a = Rng(42).standard_normal(64)
    b = Rng(43).standard_normal(64)
    assert not np.array_equal(a, b)


def test_derive_is_path_dependent():
    a = Rng(7).derive(1, 2).standard_normal(32)
    b = Rng(7).derive(2, 1).standard_normal(32)
    assert not np.array_equal(a, b)


def test_chained_derive_equals_tuple_derive():
    a = Rng(7).derive(1).derive(2).standard_normal(32)
    b = Rng(7).derive(1, 2).standard_normal(32)
    assert np.array_equal(a, b)


def test_child_stream_unaffected_by_parent_draws():
    parent = Rng(99)
    before = parent.derive(3).standard_normal(16)
    parent.uniform(size=100)
    after = parent.derive(3).standard_normal(16)
    fresh = Rng(99).derive(3).standard_normal(16)
    assert np.array_equal(before, after)
    assert np.array_equal(before, fresh)


def test_sibling_streams_differ():
    root = Rng(5)
    a = root.derive(0).standard_normal(32)
    b = root.derive(1).standard_normal(32)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("bad", [-1, 2**64])
def test_seed_out_of_range_rejected(bad):
    with pytest.raises(ValueError):
        Rng(bad)


def test_uniform_bounds_and_shape():
    u = Rng(1).uniform(2.0, 5.0, size=(10, 3))
    assert u.shape == (10, 3)
    assert np.all(u >= 2.0) and np.all(u < 5.0)


def test_integers_bounds():
    v = Rng(1).integers(0, 10, size=1000)
    assert v.min() >= 0 and v.max() < 10


def test_choice_draws_from_pool():
    pool = np.array([3, 1, 4, 1, 5])
    picks = Rng(2).choice(pool, size=50)
    assert set(picks.tolist()) <= set(pool.tolist())


def test_permutation_is_a_permutation():
    p = Rng(3).permutation(20)
    assert sorted(p.tolist()) == list(range(20))


def test_repr_mentions_seed_and_key():
    r = Rng(11).derive(4, 2)
    text = repr(r)
    assert "11" in text
    assert "4" in text and "2" in text
