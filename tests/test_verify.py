import dataclasses

import numpy as np
import pytest

from rieszrep import riesz, verify
from rieszrep.representation import RieszConfig, _basis_bank, extract_features, layer_S


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
    original = riesz.first_order_multipliers
    memos = []

    def spy(rng):
        memos.append(riesz.first_order_multipliers)
        yield 0.0

    def failing(rng):
        yield from spy(rng)
        raise RuntimeError("measure failed")

    monkeypatch.setattr(verify, "PROPERTIES", (("spy", 1.0, spy), ("failing", 1.0, failing)))
    assert verify.check(0, inject_fault="dc-not-zeroed").measured == 0.0
    assert riesz.first_order_multipliers is original
    with pytest.raises(RuntimeError, match="measure failed"):
        verify.check(1, inject_fault="dc-not-zeroed")
    assert riesz.first_order_multipliers is original
    assert verify.check(0).passed
    # each measurement had its own memo; the faulty ones leave DC at 1
    assert len({id(memo) for memo in memos}) == 3
    assert original not in memos
    for memo, dc in zip(memos, (1.0, 1.0, 0.0), strict=True):
        assert [m[0, 0] for m in memo(6, 5)] == [dc, dc]


def _consumer_bytes(f):
    # the engine's two entry points and a steered operator, all built
    # from the first-order pair
    cfg = RieszConfig(depth=2, angles=4)
    return (
        extract_features(f, cfg).tobytes(),
        np.stack(layer_S(f, cfg)).tobytes(),
        riesz.hilbert_steered(f, 0.3).tobytes(),
    )


def _nonzero_mean_image():
    return np.random.default_rng(7).standard_normal((17, 12)) + 0.5


def test_fault_reaches_every_consumer(monkeypatch):
    f = _nonzero_mean_image()
    clean = _consumer_bytes(f)  # and the 17x12 bank is cached
    during = []

    def spy(rng):
        during.extend(_consumer_bytes(f))
        yield 0.0

    monkeypatch.setattr(verify, "PROPERTIES", (("spy", 1.0, spy),))
    verify.check(0, inject_fault="dc-not-zeroed")
    for name, faulty, expected in zip(
        ("extract_features", "layer_S", "hilbert_steered"), during, clean, strict=True
    ):
        assert faulty != expected, name


def test_no_fault_outlives_its_measurement(monkeypatch):
    f = _nonzero_mean_image()
    clean = _consumer_bytes(f)
    original, original_pair = riesz.riesz_multiplier, riesz.first_order_multipliers

    def builds(rng):
        assert riesz.riesz_multiplier is original
        # the measurement builds, and reads, the faulty 17x12 bank
        assert _consumer_bytes(f)[:2] != clean[:2]
        assert _basis_bank.cache_info().entries > 0
        yield 0.0

    def failing(rng):
        yield from builds(rng)
        raise RuntimeError("measure failed")

    monkeypatch.setattr(verify, "PROPERTIES", (("builds", 1.0, builds), ("failing", 1.0, failing)))
    verify.check(0, inject_fault="dc-not-zeroed")
    assert _basis_bank.cache_info().entries == 0
    assert _consumer_bytes(f) == clean
    assert riesz.first_order_multipliers is original_pair
    with pytest.raises(RuntimeError, match="measure failed"):
        verify.check(1, inject_fault="dc-not-zeroed")
    assert _basis_bank.cache_info().entries == 0
    assert _consumer_bytes(f) == clean
    assert riesz.first_order_multipliers is original_pair
    assert riesz.riesz_multiplier is original


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
    original = riesz.first_order_multipliers
    with pytest.raises(ValueError, match="unknown fault"):
        verify.check(0, inject_fault="no-such-fault")
    assert riesz.first_order_multipliers is original


def test_layer_nonexpansive_catches_dropped_scale_constant(monkeypatch):
    index = _index("layer-nonexpansive")
    assert verify.check(index).measured == pytest.approx(0.25**2 * 7 * 4 / 8 - 1.0)

    def unscaled(**kwargs):
        return dataclasses.replace(RieszConfig(**kwargs), scale_constant=1.0)

    monkeypatch.setattr(verify, "RieszConfig", unscaled)
    result = verify.check(index)
    assert not result.passed
    assert result.measured == pytest.approx(7 * 4 / 8 - 1.0)
