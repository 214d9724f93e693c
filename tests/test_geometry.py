import numpy as np
import pytest

from levygreen.geometry import C11Set, delta, interval_union


def test_delta_single_interval():
    D = interval_union((-1, 1))
    assert delta(D, 0.0) == 1.0
    assert delta(D, 1.5) == 0.0
    assert delta(D, 1.0) == 0.0       # boundary is outside (open intervals)


def test_delta_two_intervals():
    D = interval_union((-1, -0.2), (0.2, 1))
    assert delta(D, 0.5) == pytest.approx(0.3)
    assert delta(D, 0.0) == 0.0


def test_localization_radius():
    assert interval_union((-1, 1)).r0 == 2.0
    D = interval_union((-1, -0.2), (0.2, 1))
    assert D.r0 == pytest.approx(0.4)


def test_validation_rejects_overlap_and_touch():
    with pytest.raises(ValueError):
        C11Set(((-1.0, 0.1), (0.0, 1.0)))
    with pytest.raises(ValueError):
        C11Set(((-1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        C11Set(((0.5, 0.5),))
    with pytest.raises(ValueError):
        C11Set(())


def test_construction_accepts_a_valid_union():
    D = C11Set(((-1.0, -0.2), (0.2, 1.0)))
    assert D.intervals == ((-1.0, -0.2), (0.2, 1.0))


def test_intervals_are_sorted_on_construction():
    D = C11Set(((0.2, 1.0), (-1.0, -0.2)))
    assert D.intervals[0] == (-1.0, -0.2)


def test_delta_is_lipschitz():
    D = interval_union((-2, -0.5), (0.0, 0.7), (1.1, 3.0))
    rng = np.random.default_rng(0)
    x = rng.uniform(-3, 4, 500)
    y = rng.uniform(-3, 4, 500)
    assert np.all(np.abs(delta(D, x) - delta(D, y)) <= np.abs(x - y) + 1e-12)


def test_distortion_at_least_one():
    for D in (interval_union((-1, 1)),
              interval_union((-1, -0.2), (0.2, 1)),
              interval_union((0, 1), (1.5, 2.0), (10.0, 11.0))):
        assert D.diam / D.r0 >= 1.0


def test_contains():
    D = interval_union((-1, -0.2), (0.2, 1))
    assert not D.contains(np.array([0.0, -1.0, 2.0])).any()
    assert D.contains(np.array([-0.5, 0.5])).all()
