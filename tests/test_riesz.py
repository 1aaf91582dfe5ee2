import numpy as np
import pytest
from numpy.testing import assert_allclose

from rieszrep.riesz import (
    energy_identity,
    enumerate_orders,
    first_order_multipliers,
    hilbert2_steered,
    hilbert_steered,
    multinomial_weight,
    reconstruct_from_order,
    riesz_multiplier,
    riesz_transform,
)


def test_multiplier_axis_value():
    # u = (0.25, 0) sits at index (H/4, 0); there u1/|u| = 1
    m = riesz_multiplier((1, 0), 16, 16)
    assert m[4, 0] == pytest.approx(-1j, abs=1e-15)
    m2 = riesz_multiplier((2, 0), 16, 16)
    assert m2[4, 0] == pytest.approx(-1.0, abs=1e-15)


def test_multiplier_dc_zero():
    for order in [(1, 0), (0, 1), (1, 1), (2, 0)]:
        assert riesz_multiplier(order, 8, 8)[0, 0] == 0


def test_multiplier_hermitian_exhaustive():
    h = w = 16
    for order in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
        m = riesz_multiplier(order, h, w)
        for p in range(h):
            for q in range(w):
                assert m[(-p) % h, (-q) % w] == pytest.approx(
                    np.conj(m[p, q]), abs=1e-14
                )


def test_multiplier_nyquist_real():
    m1, m2 = first_order_multipliers(8, 8)
    assert np.abs(m1[4, :].imag).max() == 0
    assert np.abs(m2[:, 4].imag).max() == 0


def test_invalid_order():
    with pytest.raises(ValueError):
        riesz_multiplier((0, 0), 8, 8)
    with pytest.raises(ValueError):
        riesz_multiplier((-1, 2), 8, 8)


def test_transform_constant_is_zero():
    out = riesz_transform(np.full((12, 12), 2.0), (1, 0))
    assert np.abs(out).max() <= 1e-12


def test_transform_cosine_stripe():
    # single horizontal frequency: closed-form multiplier action gives a
    # quarter-period phase shift (cos -> sin under this axis convention)
    h = w = 32
    x1 = np.arange(h)[:, None] + np.zeros((1, w))
    f = np.cos(2 * np.pi * 4 * x1 / h)
    g = riesz_transform(f, (1, 0))
    target = np.sin(2 * np.pi * 4 * x1 / h)
    corr = np.sum(g * target) / (np.linalg.norm(g) * np.linalg.norm(target))
    assert abs(corr) >= 0.999
    assert_allclose(np.abs(g), np.abs(target), atol=1e-12)


def test_transform_on_a_row(rng):
    # on a 1 x N grid u1 = 0, so R1 vanishes and R2 is the 1-d Hilbert transform
    f = rng.standard_normal((1, 5))
    assert np.abs(riesz_transform(f, (1, 0))).max() == 0
    hilbert = np.fft.ifft(-1j * np.sign(np.fft.fftfreq(5)) * np.fft.fft(f[0])).real
    assert_allclose(riesz_transform(f, (0, 1))[0], hilbert, atol=1e-15)
    assert_allclose(riesz_transform(f, (0, 2)), f.mean() - f, atol=1e-15)


def test_transform_output_mean_free(rng):
    f = rng.standard_normal((16, 16))
    out = riesz_transform(f, (1, 1))
    assert abs(out.mean()) <= 1e-10 * np.linalg.norm(f)


def test_first_order_energy_split(rng):
    f = rng.standard_normal((32, 32))
    lhs = np.sum(riesz_transform(f, (1, 0)) ** 2) + np.sum(
        riesz_transform(f, (0, 1)) ** 2
    )
    rhs = np.sum((f - f.mean()) ** 2)
    assert abs(lhs - rhs) / rhs <= 1e-8


def test_hilbert_steered_basis_cases(rng):
    f = rng.standard_normal((16, 16))
    assert_allclose(hilbert_steered(f, 0), riesz_transform(f, (1, 0)), atol=1e-12)
    assert_allclose(
        hilbert_steered(f, np.pi / 2), riesz_transform(f, (0, 1)), atol=1e-12
    )


def test_hilbert_steered_diagonal(rng):
    f = rng.standard_normal((16, 16))
    expected = (riesz_transform(f, (1, 0)) + riesz_transform(f, (0, 1))) / np.sqrt(2)
    assert_allclose(hilbert_steered(f, np.pi / 4), expected, atol=1e-12)


def test_hilbert2_basis_case(rng):
    f = rng.standard_normal((16, 16))
    assert_allclose(hilbert2_steered(f, 0), riesz_transform(f, (2, 0)), atol=1e-12)


def test_hilbert2_is_composition(rng):
    f = rng.standard_normal((16, 16))
    for phi in (0.3, 1.1, 2.9):
        composed = hilbert_steered(hilbert_steered(f, phi), phi)
        assert_allclose(hilbert2_steered(f, phi), composed, atol=1e-10)


def test_hilbert2_constant_zero():
    assert np.abs(hilbert2_steered(np.full((8, 8), 3.0), 0.7)).max() <= 1e-12


@pytest.mark.parametrize("n_total", [1, 2])
def test_reconstruction(rng, n_total):
    f = rng.standard_normal((32, 32))
    f -= f.mean()
    comps = [
        (order, riesz_transform(f, order)) for order in enumerate_orders(n_total)
    ]
    rec = reconstruct_from_order(comps)
    assert np.linalg.norm(rec - f) / np.linalg.norm(f) <= 1e-8


def test_reconstruction_weights_n2():
    assert [multinomial_weight(o) for o in enumerate_orders(2)] == [1, 2, 1]


def test_reconstruction_zero_image():
    comps = [(o, np.zeros((8, 8))) for o in enumerate_orders(1)]
    assert np.abs(reconstruct_from_order(comps)).max() == 0


def test_reconstruction_incomplete_set(rng):
    f = rng.standard_normal((8, 8))
    with pytest.raises(ValueError, match="enumerate"):
        reconstruct_from_order([((1, 0), f)])


@pytest.mark.parametrize("n_total", [1, 2])
def test_energy_identity(rng, n_total):
    f = rng.standard_normal((32, 32))
    lhs, rhs = energy_identity(f, n_total)
    assert abs(lhs - rhs) / rhs <= 1e-8


def test_energy_identity_constant():
    lhs, rhs = energy_identity(np.full((8, 8), 5.0), 1)
    assert lhs == pytest.approx(0, abs=1e-20)
    assert rhs == pytest.approx(0, abs=1e-20)


def test_energy_identity_invalid_order(rng):
    with pytest.raises(ValueError):
        energy_identity(rng.standard_normal((8, 8)), 0)


def test_translation_equivariance(rng):
    f = rng.standard_normal((24, 20))
    for order in [(1, 0), (1, 1), (2, 1)]:
        ref = riesz_transform(f, order)
        for shift in [(1, 0), (5, 7), (23, 19)]:
            moved = riesz_transform(np.roll(f, shift, axis=(0, 1)), order)
            err = np.linalg.norm(moved - np.roll(ref, shift, axis=(0, 1)))
            assert err <= 1e-10 * np.linalg.norm(f)


def test_contraction(rng):
    f = rng.standard_normal((16, 16))
    norm = np.linalg.norm(f)
    for n_total in (1, 2, 3):
        for order in enumerate_orders(n_total):
            assert np.linalg.norm(riesz_transform(f, order)) <= norm * (1 + 1e-12)


def test_nonexpansiveness(rng):
    f = rng.standard_normal((16, 16))
    g = rng.standard_normal((16, 16))
    for order in [(1, 0), (1, 1), (0, 2)]:
        diff = np.linalg.norm(riesz_transform(f, order) - riesz_transform(g, order))
        assert diff <= np.linalg.norm(f - g) * (1 + 1e-12)


def test_steered_norm_lemma(rng):
    for _ in range(8):
        phi = rng.uniform(0, 2 * np.pi)
        f = rng.standard_normal((16, 16))
        f -= f.mean()
        e = np.sum(f**2)
        pair = np.sum(hilbert_steered(f, phi) ** 2) + np.sum(
            hilbert_steered(f, phi + np.pi / 2) ** 2
        )
        assert pair <= e * (1 + 1e-10)
        assert np.sum(hilbert2_steered(f, phi) ** 2) <= e * (1 + 1e-10)
