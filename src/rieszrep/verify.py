"""Executable property suite over seeded random inputs.

``PROPERTIES`` is the one registry of the numerical contract: a tuple
of ``(name, tolerance, measure)`` entries.  ``measure(rng)`` yields
every deviation it computes; ``check`` records the largest, and the
property holds when that value is at most the tolerance.  ``riesz
verify`` and the acceptance tests both run this tuple, so each
property has a single implementation, at a single size and case count.

Each property draws from its own generator, seeded with
``(seed, position in PROPERTIES)``, so one property measured alone
(``check``) gives the same value as in a full ``run_all``.

``FAULTS`` maps a fault name to a transform of the first-order pair
(m1, m2).  For one measurement ``check`` binds a fresh function of the
real pair, through the fault if one is named, with read-only arrays,
memoized in the engine's shape memo, on
``riesz.first_order_multipliers``: the one seam that every Riesz
multiplier and the engine's ``_basis_bank`` read.  It clears the shape
memo (pairs, banks, DFT matrices and steering weights) on install and
on restore, so no bank outlives the pair it came from.

``dft-round-trip`` and ``dft-parseval`` measure the 2d transform the
engine runs: its width seam (``_width_transforms``) and numpy's FFT
along the height, on widths the seam multiplies by DFT matrices and on
widths it leaves to pocketfft.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import riesz
from .image_core import freq_coords
from .representation import RieszConfig, _shape_memo, _width_transforms, extract_features, layer_S


@dataclass(frozen=True)
class PropertyResult:
    name: str
    tolerance: float
    measured: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance


def _random_image(rng, height=32, width=32, mean_free=False):
    f = rng.standard_normal((height, width))
    if mean_free:
        f -= f.mean()
    return f


_first_order_multipliers = riesz.first_order_multipliers  # the real one, past any memo


def _memoized_multipliers(fault):
    """A new function of the real pair, through ``fault`` if given, its arrays
    read-only, memoized in the shape memo under its own key."""

    @_shape_memo
    def first_order_multipliers(height, width):
        pair = _first_order_multipliers(height, width)
        pair = fault(*pair) if fault else pair
        for m in pair:
            m.flags.writeable = False
        return pair

    return first_order_multipliers


def _dc_not_zeroed(m1, m2):
    # DC left at the raw formula value instead of 0 (division by |u|=1 stub)
    m1, m2 = m1.copy(), m2.copy()
    m1[0, 0] = m2[0, 0] = 1.0
    return m1, m2


FAULTS = {"dc-not-zeroed": _dc_not_zeroed}

# shifts for the translation properties, wrapping past the 32x32 grid
_SHIFTS = ((1, 0), (5, 9), (7, 13), (31, 31))

# (height, width): widths the seam multiplies by DFT matrices (17, 66,
# 67 and 251), then widths it leaves to pocketfft (105 and 128)
_DFT_SHAPES = ((8, 17), (31, 66), (16, 67), (9, 251), (33, 105), (64, 128))


def _engine_spectrum(f):
    """The engine's half spectrum of f: the width seam, then the height FFT."""
    spec = np.empty((f.shape[0], f.shape[1] // 2 + 1), dtype=np.complex128)
    _width_transforms(f.shape[1])[0](f, spec)
    return np.fft.fft(spec, axis=0, out=spec)


def _dft_round_trip(rng):
    for h, w in _DFT_SHAPES:
        f = _random_image(rng, h, w)
        back = np.empty_like(f)
        _width_transforms(w)[1](np.fft.ifft(_engine_spectrum(f), axis=0), back)
        yield np.linalg.norm(back - f) / np.linalg.norm(f)


def _dft_parseval(rng):
    for h, w in _DFT_SHAPES:
        f = _random_image(rng, h, w)
        # the half spectrum stands for every bin but DC and Nyquist twice
        twice = np.full(w // 2 + 1, 2.0)
        twice[0] = 1.0
        if w % 2 == 0:
            twice[-1] = 1.0
        energy = np.sum(np.abs(_engine_spectrum(f)) ** 2 * twice) / f.size
        yield abs(np.sum(f**2) - energy) / np.sum(f**2)


def _energy_identity(rng):
    # the identity holds on the DC-free part, hence mean-free images
    for _ in range(20):
        f = _random_image(rng, 64, 64, mean_free=True)
        for n_total in (1, 2):
            lhs, rhs = riesz.energy_identity(f, n_total)
            yield abs(lhs - rhs) / rhs


def _order_reconstruction(rng):
    for _ in range(20):
        f = _random_image(rng, 64, 64, mean_free=True)
        for n_total in (1, 2):
            comps = [
                (order, riesz.riesz_transform(f, order))
                for order in riesz.enumerate_orders(n_total)
            ]
            rec = riesz.reconstruct_from_order(comps)
            yield np.linalg.norm(rec - f) / np.linalg.norm(f)


def _all_pass(rng):
    # unit energy of the first-order pair off DC, zero at DC
    m1 = riesz.riesz_multiplier((1, 0), 64, 64)
    m2 = riesz.riesz_multiplier((0, 1), 64, 64)
    energy = np.abs(m1) ** 2 + np.abs(m2) ** 2
    expected = np.ones_like(energy)
    expected[0, 0] = 0.0
    yield np.abs(energy - expected).max()


def _zero_integral(rng):
    # DC of both parts of the base-filter impulse response at the angles
    # k*pi/4 (second- and first-order steered Hilbert), and of R1
    for h, w in ((33, 33), (64, 64)):
        impulse = np.zeros((h, w))
        impulse[0, 0] = 1.0
        for phi in np.arange(4) * np.pi / 4:
            yield abs(riesz.hilbert2_steered(impulse, phi).sum())
            yield abs(riesz.hilbert_steered(impulse, phi).sum())
        yield abs(riesz.riesz_multiplier((1, 0), h, w)[0, 0])


def _steered_norm_bound(rng):
    for phi in rng.uniform(0, 2 * np.pi, size=8):
        for _ in range(20):
            f = _random_image(rng, 32, 32, mean_free=True)
            e = np.sum(f**2)
            pair = np.sum(riesz.hilbert_steered(f, phi) ** 2) + np.sum(
                riesz.hilbert_steered(f, phi + np.pi / 2) ** 2
            )
            yield pair / e - 1.0
            yield np.sum(riesz.hilbert2_steered(f, phi) ** 2) / e - 1.0


def _contraction(rng):
    f = _random_image(rng, 32, 32)
    for n_total in (1, 2, 3):
        for order in riesz.enumerate_orders(n_total):
            yield np.linalg.norm(riesz.riesz_transform(f, order)) / np.linalg.norm(f) - 1.0


def _translation_equivariance(rng):
    f = _random_image(rng, 32, 32)
    for order in ((1, 0), (0, 1), (1, 1), (2, 0)):
        ref = riesz.riesz_transform(f, order)
        for shift in _SHIFTS:
            moved = riesz.riesz_transform(np.roll(f, shift, axis=(0, 1)), order)
            err = np.linalg.norm(moved - np.roll(ref, shift, axis=(0, 1)))
            yield err / np.linalg.norm(f)


def _shift_invariant_features(rng):
    f = _random_image(rng, 32, 32)
    cfg = RieszConfig(depth=2, angles=4)
    pf = extract_features(f, cfg)
    for shift in _SHIFTS:
        pg = extract_features(np.roll(f, shift, axis=(0, 1)), cfg)
        yield np.abs(pf - pg).max() / np.abs(pf).max()


def _layer_nonexpansive(rng):
    # with C = 1/M one layer is nonexpansive.  Random pairs pass even at
    # C = 1; a plane wave against g = 0 gives exactly C^2 * 7M/8 (the sum
    # of cos^2 + cos^4 over the M angles), so a layer that drops C fails.
    cfg = RieszConfig(depth=1, angles=4, scale_constant=0.25)
    pairs = [(_random_image(rng, 16, 16), _random_image(rng, 16, 16)) for _ in range(100)]
    rows, cols = np.mgrid[:16, :16] / 16
    for k1, k2 in ((3, 0), (2, 3)):
        pairs.append((np.cos(2 * np.pi * (k1 * rows + k2 * cols)), np.zeros((16, 16))))
    for f, g in pairs:
        num = sum(np.sum((a - b) ** 2) for a, b in zip(layer_S(f, cfg), layer_S(g, cfg)))
        yield num / np.sum((f - g) ** 2) - 1.0


def _scale_equivariance(rng):
    # approximate: 2x2 block averaging commutes with R and with the
    # K=3/M=4 features up to the low-pass family's aliasing
    cfg = RieszConfig(depth=3, angles=4)
    for _ in range(3):
        f = lowpass_image(rng, 128, 128, cutoff=0.1)
        coarse = block_average(f)
        for order in ((1, 0), (0, 1)):
            a = riesz.riesz_transform(coarse, order)
            b = block_average(riesz.riesz_transform(f, order))
            yield np.linalg.norm(a - b) / np.linalg.norm(b)
        pa = extract_features(coarse, cfg)
        pb = extract_features(f, cfg)
        yield np.abs(pa - pb).max() / np.abs(pb).max()


PROPERTIES = (
    ("dft-round-trip", 1e-10, _dft_round_trip),
    ("dft-parseval", 1e-10, _dft_parseval),
    ("energy-identity", 1e-8, _energy_identity),
    ("order-reconstruction", 1e-8, _order_reconstruction),
    ("all-pass", 1e-12, _all_pass),
    ("zero-integral", 1e-8, _zero_integral),
    ("steered-norm-bound", 1e-10, _steered_norm_bound),
    ("contraction", 1e-10, _contraction),
    ("translation-equivariance", 1e-10, _translation_equivariance),
    ("shift-invariant-features", 1e-10, _shift_invariant_features),
    ("layer-nonexpansive", 1e-10, _layer_nonexpansive),
    ("scale-equivariance", 0.05, _scale_equivariance),
)


def check(index: int, seed: int = 0, inject_fault: str | None = None):
    """Measure ``PROPERTIES[index]`` on its own generator; a PropertyResult."""
    if inject_fault is not None and inject_fault not in FAULTS:
        raise ValueError(f"unknown fault {inject_fault!r}")
    name, tolerance, measure = PROPERTIES[index]
    rng = np.random.default_rng([seed, index])
    original = riesz.first_order_multipliers
    riesz.first_order_multipliers = _memoized_multipliers(FAULTS.get(inject_fault))
    _shape_memo.cache_clear()
    try:
        measured = float(max(measure(rng)))
    finally:
        _shape_memo.cache_clear()
        riesz.first_order_multipliers = original
    return PropertyResult(name, tolerance, measured)


def run_all(seed: int = 0, inject_fault: str | None = None):
    """Run every property in registry order; returns a list of PropertyResult."""
    return [check(index, seed, inject_fault) for index in range(len(PROPERTIES))]


def lowpass_image(rng, height, width, cutoff=0.1):
    """Unit-norm random image with spectrum supported in |u| < cutoff."""
    spec = rng.standard_normal((height, width)) + 1j * rng.standard_normal(
        (height, width)
    )
    u1, u2 = freq_coords(height, width)
    spec = np.where(np.hypot(u1, u2) < cutoff, spec, 0)
    f = np.fft.ifft2(spec).real
    return f / np.linalg.norm(f)


def block_average(f: np.ndarray) -> np.ndarray:
    """Downscale by 2 with non-overlapping 2x2 block means."""
    h, w = f.shape
    return f[: h - h % 2, : w - w % 2].reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
