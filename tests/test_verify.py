import dataclasses

import pytest

from rieszrep import riesz, verify
from rieszrep.representation import RieszConfig


def _index(name):
    return [n for n, _, _ in verify.PROPERTIES].index(name)


def test_fault_reaches_riesz_transform():
    # order-reconstruction builds its multipliers inside riesz_transform
    index = _index("order-reconstruction")
    clean = verify.check(index)
    faulty = verify.check(index, inject_fault="dc-not-zeroed")
    assert clean.passed and faulty.passed
    assert faulty.measured != clean.measured


def test_check_installs_fault_only_while_measuring(monkeypatch):
    original = riesz.riesz_multiplier
    original_pair = riesz.first_order_multipliers
    seen = []
    memos = []

    def spy(rng):
        seen.append(riesz.riesz_multiplier)
        memos.append(riesz.first_order_multipliers)
        yield 0.0

    def failing(rng):
        yield from spy(rng)
        raise RuntimeError("measure failed")

    monkeypatch.setattr(verify, "PROPERTIES", (("spy", 1.0, spy), ("failing", 1.0, failing)))
    assert verify.check(0, inject_fault="dc-not-zeroed").measured == 0.0
    assert riesz.riesz_multiplier is original
    assert riesz.first_order_multipliers is original_pair
    with pytest.raises(RuntimeError, match="measure failed"):
        verify.check(1, inject_fault="dc-not-zeroed")
    assert riesz.riesz_multiplier is original
    assert riesz.first_order_multipliers is original_pair
    assert verify.check(0).passed
    assert seen == [verify.FAULTS["dc-not-zeroed"]] * 2 + [original]
    # each measurement had its own memo of the real multipliers
    assert len({id(memo) for memo in memos}) == 3
    assert original_pair not in memos


def test_check_memoizes_read_only_multipliers(monkeypatch):
    pairs = []

    def spy(rng):
        pairs.append(riesz.first_order_multipliers(6, 5))
        pairs.append(riesz.first_order_multipliers(6, 5))
        yield 0.0

    monkeypatch.setattr(verify, "PROPERTIES", (("spy", 1.0, spy),))
    verify.check(0)
    first, again = pairs
    assert first is again
    for got, expected in zip(first, riesz.first_order_multipliers(6, 5), strict=True):
        assert not got.flags.writeable
        assert got.tobytes() == expected.tobytes()


def test_unknown_fault_rejected():
    original = riesz.riesz_multiplier
    with pytest.raises(ValueError, match="unknown fault"):
        verify.check(0, inject_fault="no-such-fault")
    assert riesz.riesz_multiplier is original


def test_layer_nonexpansive_catches_dropped_scale_constant(monkeypatch):
    index = _index("layer-nonexpansive")
    assert verify.check(index).measured == pytest.approx(0.25**2 * 7 * 4 / 8 - 1.0)

    def unscaled(**kwargs):
        return dataclasses.replace(RieszConfig(**kwargs), scale_constant=1.0)

    monkeypatch.setattr(verify, "RieszConfig", unscaled)
    result = verify.check(index)
    assert not result.passed
    assert result.measured == pytest.approx(7 * 4 / 8 - 1.0)
