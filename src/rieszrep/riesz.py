"""Frequency-domain Riesz transforms, their steered forms and identities.

First-order multipliers follow -i * u_j / |u| on the signed DFT grid,
with two discretization fixes that keep outputs exactly real:

* DC is hard-zeroed (the continuous transform is undefined at u = 0),
  so outputs are mean-free.
* On even-sized axes the Nyquist line is self-conjugate under index
  negation, where a purely imaginary multiplier would break Hermitian
  symmetry.  There the multiplier is rotated onto the real axis with
  its magnitude kept (value |u_j| / |u|).  Keeping the magnitude,
  rather than zeroing, preserves the all-pass property and the exact
  energy/reconstruction identities on even grids.

Higher-order transforms are products of the first-order multipliers,
so each transform here costs one forward and one inverse FFT (the
feature hierarchy in ``representation`` computes R1, R2, R11, R12 and
R22 once per map and steers them).
"""

from __future__ import annotations

import math

import numpy as np

from .image_core import as_image, fft2, freq_coords, ifft2


def first_order_multipliers(height: int, width: int):
    """The pair (m1, m2) of first-order Riesz multipliers, built per call.

    Every multiplier here and the feature engine's basis bank look this
    name up when called, so it is the one seam ``verify.check`` rebinds.
    """
    u1, u2 = freq_coords(height, width)
    mag = np.hypot(u1, u2)
    mag[0, 0] = 1.0  # avoid division at DC; value overwritten below
    m1 = -1j * u1 / mag
    m2 = -1j * u2 / mag
    if height % 2 == 0:
        m1[height // 2, :] = np.abs(u1[height // 2, 0]) / mag[height // 2, :]
    if width % 2 == 0:
        m2[:, width // 2] = np.abs(u2[0, width // 2]) / mag[:, width // 2]
    m1[0, 0] = 0.0
    m2[0, 0] = 0.0
    return m1, m2


def riesz_multiplier(order, height: int, width: int) -> np.ndarray:
    """Composite multiplier for the Riesz transform of a given order.

    ``order`` is a pair (n1, n2) of non-negative integers with
    n1 + n2 >= 1.
    """
    n1, n2 = order
    if n1 < 0 or n2 < 0 or n1 + n2 < 1:
        raise ValueError(f"invalid Riesz order {order}")
    m1, m2 = first_order_multipliers(height, width)
    return m1**n1 * m2**n2


def riesz_transform(f: np.ndarray, order) -> np.ndarray:
    """Apply the Riesz transform of the given order in the frequency domain."""
    spec = fft2(f)
    return ifft2(riesz_multiplier(order, *spec.shape) * spec)


def adjoint_riesz_transform(f: np.ndarray, order) -> np.ndarray:
    """Adjoint of the Riesz transform (conjugated multiplier)."""
    spec = fft2(f)
    return ifft2(np.conj(riesz_multiplier(order, *spec.shape)) * spec)


def _steered_multiplier(phi: float, height: int, width: int) -> np.ndarray:
    """Fused first-order multiplier of the direction (cos phi, sin phi)."""
    m1, m2 = first_order_multipliers(height, width)
    return math.cos(phi) * m1 + math.sin(phi) * m2


def hilbert_steered(f: np.ndarray, phi: float) -> np.ndarray:
    """Directional Hilbert transform cos(phi)*R1 f + sin(phi)*R2 f."""
    spec = fft2(f)
    return ifft2(_steered_multiplier(phi, *spec.shape) * spec)


def hilbert2_steered(f: np.ndarray, phi: float) -> np.ndarray:
    """Second-order directional Hilbert transform (squared steered multiplier)."""
    spec = fft2(f)
    m = _steered_multiplier(phi, *spec.shape)
    return ifft2(m * m * spec)


def enumerate_orders(order_total: int):
    """All multi-indices (n1, n2) with n1 + n2 = N, in n1-descending order."""
    if order_total < 1:
        raise ValueError("transform order must be >= 1")
    return [(order_total - n2, n2) for n2 in range(order_total + 1)]


def multinomial_weight(order) -> float:
    """N! / (n1! * n2!) for a multi-index of order N."""
    n1, n2 = order
    return float(math.comb(n1 + n2, n1))


def reconstruct_from_order(components) -> np.ndarray:
    """Reassemble the DC-free signal from all order-N Riesz components.

    ``components`` pairs each multi-index (n1, n2) with the map R^n f;
    the set must enumerate all indices of one order N.  Returns
    sum over |n| = N of (N!/n!) * adjoint(R^n)(R^n f).
    """
    orders = [tuple(order) for order, _ in components]
    if not orders:
        raise ValueError("empty component list")
    order_total = sum(orders[0])
    if sorted(orders) != sorted(enumerate_orders(order_total)):
        raise ValueError(
            f"components must enumerate all multi-indices of order {order_total}"
        )
    total = None
    for order, g in components:
        term = multinomial_weight(order) * adjoint_riesz_transform(g, order)
        total = term if total is None else total + term
    return total


def energy_identity(f: np.ndarray, order_total: int):
    """Both sides of the order-N energy identity.

    Returns (lhs, rhs) with lhs = sum (N!/n!) ||R^n f||^2 and
    rhs = ||f - mean(f)||^2.
    """
    f = as_image(f)
    lhs = 0.0
    for order in enumerate_orders(order_total):
        lhs += multinomial_weight(order) * float(
            np.sum(riesz_transform(f, order) ** 2)
        )
    rhs = float(np.sum((f - f.mean()) ** 2))
    return lhs, rhs
