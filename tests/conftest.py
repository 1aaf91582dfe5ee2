import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def synthetic_digit(size=112):
    """Smooth stroke-like blob standing in for a handwritten digit."""
    y, x = np.mgrid[0:size, 0:size] / size
    img = np.exp(-((x - 0.45) ** 2 + (y - 0.5) ** 2) / 0.004)
    img += np.exp(-((x - 0.55) ** 2 + (y - 0.35) ** 2) / 0.003)
    img += 0.8 * np.exp(-((x - 0.5) ** 2 * 4 + (y - 0.65) ** 2) / 0.006)
    return img / img.max()
