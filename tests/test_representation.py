import csv
import dataclasses
import hashlib
import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import rieszrep.representation as representation
from rieszrep import riesz
from rieszrep.image_core import NonFiniteImageError, fft2, freq_coords, ifft2
from rieszrep.representation import (
    RieszConfig,
    Workspace,
    extract_features,
    feature_count,
    feature_paths,
    layer_S,
    parse_path_label,
    path_label,
    read_features_csv,
    write_features_csv,
)
from rieszrep.riesz import first_order_multipliers, hilbert2_steered, hilbert_steered


def test_config_validation():
    with pytest.raises(ValueError):
        RieszConfig(angles=6)
    with pytest.raises(ValueError):
        RieszConfig(depth=-1)
    with pytest.raises(ValueError):
        RieszConfig(scale_constant=0)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            RieszConfig(scale_constant=value)
    # a float depth or angle count would fail deep inside numpy when
    # features are extracted; a numpy integer is integral
    for key in ("depth", "angles"):
        with pytest.raises(ValueError, match=f"{key} must be an integer, got 4.0"):
            RieszConfig(**{key: 4.0})
        assert RieszConfig(**{key: np.int64(8)}) == RieszConfig(**{key: 8})


def test_config_holds_only_the_papers_parameters():
    # depth K, angle count M and scale constant C set the representation
    fields = [field.name for field in dataclasses.fields(RieszConfig)]
    assert fields == ["depth", "angles", "scale_constant"]
    assert not hasattr(representation, "POOLINGS")
    assert not hasattr(representation, "gaussian_presmooth")


@pytest.mark.parametrize("depth", range(5))
@pytest.mark.parametrize("angles", [4, 8])
def test_feature_count_formula(depth, angles):
    expected = sum(angles**k for k in range(depth + 1))
    assert feature_count(depth, angles) == expected
    assert len(feature_paths(depth, angles)) == expected


def test_feature_paths_order():
    paths = feature_paths(2, 4)
    assert paths[0] == ()
    assert paths[1:5] == [(0,), (1,), (2,), (3,)]
    assert paths[5] == (0, 0)
    assert paths[-1] == (3, 3)


def test_path_labels_round_trip():
    for path in [(), (0,), (2, 1, 3)]:
        assert parse_path_label(path_label(path)) == path
    assert path_label((2, 1, 3)) == "[2,1,3]"


def test_base_response_constant():
    # the base filter's real and imaginary parts (second- and first-order
    # steered Hilbert responses) and the layer built on them vanish on a constant
    constant = np.full((8, 8), 3.0)
    assert np.abs(hilbert2_steered(constant, 0.0)).max() <= 1e-12
    assert np.abs(hilbert_steered(constant, 0.0)).max() <= 1e-12
    for out in layer_S(constant, RieszConfig()):
        assert np.abs(out).max() <= 1e-12


def test_layer_zero_image():
    for out in layer_S(np.zeros((8, 8)), RieszConfig()):
        assert np.abs(out).max() == 0


def test_layer_homogeneous_in_C(rng):
    # the maps at C are C times those at C = 1, bit for bit
    for shape in [(16, 16), (97, 70)]:
        f = rng.standard_normal(shape)
        for angles in (4, 8):
            once = layer_S(f, RieszConfig(angles=angles, scale_constant=1.0))
            for c in (0.7, 2.0, 3.0):
                scaled = layer_S(f, RieszConfig(angles=angles, scale_constant=c))
                assert len(scaled) == len(once) == angles
                for a, b in zip(once, scaled):
                    assert_array_equal(b, c * a)
                    assert np.all(a >= 0)


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (1, 5), (3, 1), (5, 1)])
@pytest.mark.parametrize("angles", [4, 8])
def test_layer_matches_steered_definition_on_tiny_grids(rng, shape, angles):
    # one rule for every grid size: C * |hilbert2_steered + i * hilbert_steered|
    cfg = RieszConfig(depth=1, angles=angles, scale_constant=1.7)
    f = rng.standard_normal(shape)
    expected = [
        1.7 * np.abs(hilbert2_steered(f, phi) + 1j * hilbert_steered(f, phi))
        for phi in np.arange(angles) * np.pi / angles
    ]
    assert_allclose(layer_S(f, cfg), expected, rtol=0, atol=1e-15 * max(1.0, np.abs(f).max()))


def test_layer_nonexpansive_with_small_C(rng):
    cfg = RieszConfig(scale_constant=0.25)
    for _ in range(20):
        f = rng.standard_normal((12, 12))
        g = rng.standard_normal((12, 12))
        total = sum(
            np.sum((a - b) ** 2) for a, b in zip(layer_S(f, cfg), layer_S(g, cfg))
        )
        assert total <= np.sum((f - g) ** 2) * (1 + 1e-10)


def _two_inverse_features(f, cfg):
    """Frozen copy of the original per-map algorithm: two inverse FFTs per angle."""
    m1, m2 = first_order_multipliers(*f.shape)
    phis = [k * math.pi / cfg.angles for k in range(cfg.angles)]
    bank = [math.cos(phi) * m1 + math.sin(phi) * m2 for phi in phis]
    values = [np.mean(f)]
    level = [f]
    for _ in range(cfg.depth):
        nxt = []
        for g in level:
            spec = np.fft.fft2(g)
            for m in bank:
                imag_part = np.fft.ifft2(m * spec).real
                real_part = np.fft.ifft2(m * m * spec).real
                nxt.append(cfg.scale_constant * np.hypot(real_part, imag_part))
        values.extend(np.mean(g) for g in nxt)
        level = nxt
    return np.array(values)


def _presmoothed(f, sigma=1.5):
    """Periodic Gaussian smoothing in the frequency domain: a smooth input."""
    u1, u2 = freq_coords(*f.shape)
    return ifft2(np.exp(-2 * np.pi**2 * sigma**2 * (u1**2 + u2**2)) * fft2(f))


def _test_image(rng, shape, name):
    # a "-presmooth" case feeds the engine a Gaussian-smoothed image, whose
    # spectrum decays fast and whose deep maps are small
    f = rng.standard_normal(shape)
    return _presmoothed(f) if name.endswith("-presmooth") else f


_ENGINE_CONFIGS = {
    "K3M4": RieszConfig(depth=3, angles=4),
    "K2M8": RieszConfig(depth=2, angles=8),
    "C0.7": RieszConfig(depth=2, angles=4, scale_constant=0.7),
    "C0.7-presmooth": RieszConfig(depth=2, angles=4, scale_constant=0.7),
    "depth0": RieszConfig(depth=0),
    "K1M16": RieszConfig(depth=1, angles=16),
}


@pytest.mark.parametrize("name", list(_ENGINE_CONFIGS))
@pytest.mark.parametrize(
    "shape",
    [(1, 1), (1, 7), (7, 1), (2, 2), (3, 5), (17, 13), (31, 64), (64, 64), (19, 67), (12, 66),
     (53, 34), (97, 70)],
)
def test_engine_matches_two_inverse_algorithm(rng, shape, name):
    cfg = _ENGINE_CONFIGS[name]
    f = _test_image(rng, shape, name)
    expected = _two_inverse_features(f, cfg)
    got = extract_features(f, cfg)
    # the 2x2 grid has structurally zero features that differ at 1e-17
    assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


_GROUPING_CONFIGS = {
    "K3M4-mean": RieszConfig(depth=3, angles=4),
    "K2M8": RieszConfig(depth=2, angles=8),
    "K1": RieszConfig(depth=1),
    "K0": RieszConfig(depth=0),
    "C2.5": RieszConfig(depth=2, angles=4, scale_constant=2.5),
}


@pytest.mark.parametrize("name", list(_GROUPING_CONFIGS))
@pytest.mark.parametrize(
    "shape",
    [(1, 1), (1, 9), (2, 2), (13, 10), (25, 7), (26, 18), (49, 35), (128, 128), (19, 67), (12, 66),
     (53, 34), (97, 70)],
)
def test_engine_outputs_independent_of_group_size(monkeypatch, rng, shape, name):
    # a budget of 1 byte gives one parent per group, 1 << 40 one group per
    # level, three banks a partial last group on levels of 4 or more parents
    cfg = _GROUPING_CONFIGS[name]
    f = rng.standard_normal(shape)
    three_banks = 3 * cfg.angles * f.size * 16
    results = []
    for budget in (1, representation._BATCH_BYTES, 1 << 40, three_banks):
        monkeypatch.setattr(representation, "_BATCH_BYTES", budget)
        results.append((extract_features(f, cfg), layer_S(f, cfg)))
    for features, layer in results[1:]:
        assert_array_equal(features, results[0][0])
        assert_array_equal(np.array(layer), np.array(results[0][1]))


@pytest.mark.parametrize("depth, angles", [(2, 8), (3, 4)], ids=["K2M8", "K3M4"])
@pytest.mark.parametrize(
    "shape, transposed",
    [((16, 12), False), ((15, 13), False), ((29, 12), True), ((1, 9), False)],
    ids=["even", "odd", "transposed", "1xN"],
)
def test_angle_chunks_give_bit_identical_maps(monkeypatch, rng, depth, angles, shape, transposed):
    # a budget of `chunk` angles of one map gives one parent per group,
    # steered and taken the amplitude of `chunk` angles at a time
    cfg = RieszConfig(depth=depth, angles=angles)
    f = rng.standard_normal(shape)
    results = {}
    for chunk in (1, 2, angles):
        monkeypatch.setattr(representation, "_BATCH_BYTES", 16 * chunk * f.size)
        workspace = Workspace()
        chunks = representation._level_chunks(f[None], cfg, workspace, transposed)
        results[chunk] = np.concatenate([c.copy() for c in chunks])
        assert workspace._key[-2:] == (1, chunk)
    assert results[1].shape == (feature_count(depth, angles) - 1, *shape[:: -1 if transposed else 1])
    for maps in results.values():
        assert maps.tobytes() == results[angles].tobytes()


def _chunk_sizes_and_digest(chunks):
    """Map counts of the engine's chunks, and SHA-256 of their maps in yield order."""
    sizes, digest = [], hashlib.sha256()
    for c in chunks:
        sizes.append(len(c))
        digest.update(c.tobytes())
    return sizes, digest.hexdigest()


def test_short_final_angle_chunk_gives_bit_identical_maps(monkeypatch, rng):
    # 96x96 with M=28 is steered 3 angles at a time at the default budget,
    # so each parent's last chunk holds the one angle left over
    cfg = RieszConfig(depth=2, angles=28)
    f = rng.standard_normal((96, 96))
    parents = 1 + cfg.angles
    workspace = Workspace()
    sizes, chunked = _chunk_sizes_and_digest(representation._level_chunks(f[None], cfg, workspace))
    assert workspace._key[-2:] == (1, 3)
    assert sizes == ([3] * 9 + [1]) * parents
    row = extract_features(f, cfg)
    # a budget of one parent's M maps steers all M angles at once
    monkeypatch.setattr(representation, "_BATCH_BYTES", 16 * cfg.angles * f.size)
    workspace = Workspace()
    sizes, whole = _chunk_sizes_and_digest(representation._level_chunks(f[None], cfg, workspace))
    assert workspace._key[-2:] == (1, cfg.angles)
    assert sizes == [cfg.angles] * parents
    assert whole == chunked
    assert extract_features(f, cfg).tobytes() == row.tobytes()


def test_layer_collects_every_angle_chunk_of_a_large_map(rng):
    # a 128x128 map with M=8 is steered 2 angles at a time: 4 chunks
    cfg = RieszConfig(depth=1, angles=8, scale_constant=1.7)
    f = rng.standard_normal((128, 128))
    assert [len(c) for c in representation._level_chunks(f[None], cfg)] == [2] * 4
    expected = [
        1.7 * np.abs(hilbert2_steered(f, phi) + 1j * hilbert_steered(f, phi))
        for phi in np.arange(cfg.angles) * np.pi / cfg.angles
    ]
    got = layer_S(f, cfg)
    assert len(got) == cfg.angles
    assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(f).max())


def _maps_by_level(chunks, images, depth, angles):
    """(n, M^k, H, W) maps of levels 1..K from the engine's chunks of an n-image stack."""
    maps = np.concatenate([c.copy() for c in chunks])
    sizes = np.cumsum([images * angles**k for k in range(1, depth)])
    return [m.reshape(images, -1, *m.shape[1:]) for m in np.split(maps, sizes)]


@pytest.mark.parametrize("budget", ["default", "three-maps"])
@pytest.mark.parametrize("depth, angles", [(2, 8), (3, 4)], ids=["K2M8", "K3M4"])
@pytest.mark.parametrize(
    "shape", [(16, 12), (15, 13), (53, 34), (1, 9)], ids=["even", "odd", "transposed", "1xN"]
)
def test_stack_maps_equal_single_image_maps(monkeypatch, rng, budget, depth, angles, shape):
    # groups span images: at the default budget most of a level of these
    # small maps, with three maps per group a group straddles two images
    # wherever an image's M^(k-1) parents are not a multiple of three
    cfg = RieszConfig(depth=depth, angles=angles)
    stack = rng.standard_normal((3, *shape))
    if budget == "three-maps":
        monkeypatch.setattr(representation, "_BATCH_BYTES", 3 * angles * stack[0].size * 16)
    transposed = representation._transposes(*shape)
    assert transposed == (shape == (53, 34))
    workspace = Workspace()
    got = _maps_by_level(representation._level_chunks(stack, cfg, workspace, transposed), 3, depth, angles)
    assert workspace._key[0] == 3
    for i, f in enumerate(stack):
        chunks = representation._level_chunks(f[None], cfg, transposed=transposed)
        for level, alone in zip(got, _maps_by_level(chunks, 1, depth, angles)):
            assert level[i].tobytes() == alone[0].tobytes()


def test_features_of_a_stack_are_its_images_features(rng):
    cfg = RieszConfig(depth=2, angles=4)
    stack = rng.standard_normal((4, 13, 10))
    matrix = extract_features(stack, cfg)
    assert matrix.shape == (4, feature_count(2, 4))
    for f, row in zip(stack, matrix):
        assert row.tobytes() == extract_features(f, cfg).tobytes()
    assert extract_features(stack[:1], cfg).shape == (1, feature_count(2, 4))
    for bad in (np.ones(5), np.ones((0, 4, 4)), np.ones((2, 0, 4)), np.ones((1, 2, 3, 4))):
        with pytest.raises(ValueError, match="expected a 2d image grid"):
            extract_features(bad, cfg)
    stack[2, 3, 4] = np.nan
    with pytest.raises(NonFiniteImageError):
        extract_features(stack, cfg)


def _largest_prime_factor(n):
    largest, p = 1, 2
    while n > 1:
        while n % p == 0:
            n, largest = n // p, p
        p += 1
    return largest


def test_real_dft_matrices_match_numpy_and_route_by_width(rng):
    # the inverse gets non-Hermitian half spectra with large imaginary
    # DC and Nyquist parts: irfft ignores them, and so must the matrix
    for width in range(1, 301):
        pair = representation._real_dft(width)
        assert (pair is None) == (width > 256 or (width >= 64 and _largest_prime_factor(width) <= 7))
        if pair is None:
            continue
        forward, inverse = pair
        assert not forward.flags.writeable and not inverse.flags.writeable
        x = rng.standard_normal((3, width))
        expected = np.fft.rfft(x)
        got = (x @ forward).view(np.complex128)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
        spec = rng.standard_normal((3, width // 2 + 1, 2))
        spec[:, 0, 1] *= 1e8
        if width % 2 == 0:
            spec[:, -1, 1] *= 1e8
        expected = np.fft.irfft(spec.view(np.complex128)[..., 0], n=width)
        got = spec.reshape(3, -1) @ inverse
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def _transposed_path_order(depth, angles):
    """Feature indices that map features of f.T to those of f.

    Transposing swaps u1 and u2, so the angle k*pi/M of f.T is
    (M/2 - k)*pi/M of f, mod pi: path (k1, k2, ...) of f.T is path
    ((M/2 - k1) mod M, ...) of f, and ``features_of_f = features_of_fT[order]``.
    """
    paths = feature_paths(depth, angles)
    index = {path: i for i, path in enumerate(paths)}
    return np.array([index[tuple((angles // 2 - k) % angles for k in p)] for p in paths])


def test_transpose_routes_by_height_and_order_is_an_involution():
    for height in range(1, 301):
        for width in (1, 9, 23, 29, 46, 64, 67, 70, 97, 256):
            awkward = _largest_prime_factor(height) > max(23, _largest_prime_factor(width))
            assert representation._transposes(height, width) == (height <= 256 and awkward)
    # angle k of f.T is angle (M/2 - k) mod M of f: [0] <-> [2], [1] and [3] stay
    assert list(_transposed_path_order(1, 4)) == [0, 3, 2, 1, 4]
    for depth, angles in [(0, 4), (1, 4), (3, 4), (2, 8), (1, 16)]:
        order = _transposed_path_order(depth, angles)
        assert_array_equal(order[order], np.arange(feature_count(depth, angles)))
        # slot k of the transposed weights is slot (M/2 - k) mod M of the untransposed ones
        weights = representation._steering(angles, True)
        assert not weights.flags.writeable
        slots = _transposed_path_order(1, angles)[1:] - 1
        assert_array_equal(weights, representation._steering(angles, False)[slots])


@pytest.mark.parametrize("name", ["K3M4", "K2M8", "C0.7", "C0.7-presmooth"])
@pytest.mark.parametrize(
    "shape", [(97, 70), (70, 97), (53, 34), (31, 18), (46, 31), (257, 3), (1, 29), (29, 1), (2, 2)]
)
def test_features_of_transposed_image_are_permuted(rng, shape, name):
    # shapes on both sides of the routing rule: height 46 = 2*23 is not
    # transposed, 31 is, and 257 is above the cap
    cfg = _ENGINE_CONFIGS[name]
    f = _test_image(rng, shape, name)
    expected = extract_features(f, cfg)
    got = extract_features(f.T, cfg)[_transposed_path_order(cfg.depth, cfg.angles)]
    assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("depth, angles", [(3, 4), (2, 8)])
@pytest.mark.parametrize("shape", [(97, 70), (53, 34)])
def test_transposed_engine_yields_transposed_maps_in_path_order(rng, shape, depth, angles):
    cfg = RieszConfig(depth=depth, angles=angles)
    f = rng.standard_normal(shape)
    # the deepest level's chunks share one buffer: copy each as it comes
    expected = [c.copy() for c in representation._level_chunks(f[None], cfg)]
    got = [c.copy() for c in representation._level_chunks(f[None], cfg, transposed=True)]
    assert len(got) == len(expected)
    for chunk, straight in zip(got, expected):
        assert_allclose(
            chunk, straight.transpose(0, 2, 1), rtol=1e-12, atol=1e-12 * np.abs(straight).max()
        )


def test_engine_outputs_do_not_alias_reused_buffers(monkeypatch, rng):
    # 16 x 12 with M=4 has a 12 KiB bank; 3 parents per group leaves a
    # partial last group on the 16 parents of level 3
    f, g = rng.standard_normal((2, 16, 12))
    cfg = RieszConfig(depth=3, angles=4)
    for parents_per_group in (1, 3, 16):
        budget = parents_per_group * 4 * 16 * 12 * 16
        monkeypatch.setattr(representation, "_BATCH_BYTES", budget)
        layer = layer_S(f, cfg)
        saved_layer = [m.copy() for m in layer]
        extract_features(g, cfg), layer_S(g, cfg)
        for a, b in zip(layer, saved_layer):
            assert_array_equal(a, b)
        layer[2][:] = -1.0
        for a, b in zip(layer_S(f, cfg), saved_layer):
            assert_array_equal(a, b)
        # the second same-shape call keeps the buffers, the third reuses them
        workspace = Workspace()
        features = [extract_features(x, cfg, workspace=workspace) for x in (f, g, f)]
        saved_features = [v.copy() for v in features]
        extract_features(g, cfg, workspace=workspace)
        assert workspace._buffers is not None
        for a, b in zip(features, saved_features):
            assert_array_equal(a, b)


_SEQUENCE_CONFIGS = {
    "K3M4": RieszConfig(depth=3, angles=4),
    "K2M8": RieszConfig(depth=2, angles=8),
    "C0.7": RieszConfig(depth=2, angles=4, scale_constant=0.7),
    "C0.7-presmooth": RieszConfig(depth=2, angles=4, scale_constant=0.7),
    "K1": RieszConfig(depth=1),
}


@pytest.mark.parametrize("name", list(_SEQUENCE_CONFIGS))
def test_workspace_sequence_matches_independent_calls(rng, name):
    # shapes A A A B A A B B, the second A overflowing: buffers are kept
    # from the second consecutive image of a shape until the shape changes
    cfg = _SEQUENCE_CONFIGS[name]
    shapes = [(24, 20), (24, 20), (24, 20), (17, 31), (24, 20), (24, 20), (17, 31), (17, 31)]
    images = [_test_image(rng, shape, name) for shape in shapes]
    images[1] = np.full(shapes[1], 1e308)
    workspace = Workspace()
    kept = []
    for i, f in enumerate(images):
        if i == 1:
            with np.errstate(all="ignore"), pytest.raises(NonFiniteImageError):
                extract_features(f, cfg, workspace=workspace)
        else:
            got = extract_features(f, cfg, workspace=workspace)
            assert_array_equal(got, extract_features(f, cfg))
        kept.append(workspace._buffers)
    assert [b is not None for b in kept] == [False, True, True, False, False, True, False, True]
    assert kept[2] is kept[1]


def test_workspace_buffers_prefilled_with_nan(rng):
    cfg = RieszConfig(depth=3, angles=4)
    f, g = rng.standard_normal((2, 19, 22))
    workspace = Workspace()
    extract_features(f, cfg, workspace=workspace)
    extract_features(f, cfg, workspace=workspace)
    spec, basis_spec, basis, steered, levels = workspace._buffers
    for buffer in (spec, basis_spec, basis, steered, *levels):
        buffer.fill(np.nan)
    assert_array_equal(extract_features(g, cfg, workspace=workspace), extract_features(g, cfg))


def test_workspace_keeps_scratch_within_its_lifetime_bound(rng):
    # spec and basis share one buffer, basis_spec and steered the other;
    # level 1 is kept whole and level K as one group's angle chunk
    cfg = RieszConfig(depth=2, angles=8)
    height, width = 128, 128
    f = rng.standard_normal((height, width))
    workspace = Workspace()
    extract_features(f, cfg, workspace=workspace)
    extract_features(f, cfg, workspace=workspace)
    group, chunk = workspace._key[-2:]
    assert (group, chunk) == (1, 2)
    spec = 16 * group * height * (width // 2 + 1)
    basis = 8 * group * 5 * height * width
    basis_spec = 16 * group * 5 * height * (width // 2 + 1)
    steered = 16 * group * chunk * height * width
    level1 = 8 * cfg.angles * height * width
    deepest = 8 * group * chunk * height * width
    bound = max(spec, basis) + max(basis_spec, steered) + level1 + deepest
    assert bound == 2_631_680
    *scratch, levels = workspace._buffers
    bases = {}
    for array in (*scratch, *levels):
        while array.base is not None:
            array = array.base
        bases[id(array)] = array
    assert sum(a.nbytes for a in bases.values()) <= bound


def test_workspace_follows_batch_budget_changes(monkeypatch, rng):
    # the group size is part of the key: buffers kept for one parent per
    # group must not be lent to a call that groups a whole level
    cfg = RieszConfig(depth=3, angles=4)
    images = rng.standard_normal((8, 16, 12))
    three_banks = 3 * cfg.angles * 16 * 12 * 16
    budgets = (1, 1, 1 << 40, 1 << 40, 1 << 40, three_banks, three_banks, 1)
    workspace = Workspace()
    for f, budget in zip(images, budgets):
        monkeypatch.setattr(representation, "_BATCH_BYTES", budget)
        assert_array_equal(extract_features(f, cfg, workspace=workspace), extract_features(f, cfg))


def test_non_hermitian_multiplier_rejected_at_bank_build(monkeypatch, rng):
    # i*m1 and i*m2 are anti-Hermitian while their squares and product
    # stay Hermitian, so the check must be on the pair itself
    def rotated(height, width):
        m1, m2 = first_order_multipliers(height, width)
        return 1j * m1, 1j * m2

    monkeypatch.setattr(riesz, "first_order_multipliers", rotated)
    representation._basis_bank.cache_clear()
    try:
        with pytest.raises(ValueError, match="not Hermitian"):
            extract_features(rng.standard_normal((9, 11)), RieszConfig(depth=1))
    finally:
        representation._basis_bank.cache_clear()


def test_depth_zero_builds_no_bank(rng):
    before = representation._basis_bank.cache_info().misses
    extract_features(rng.standard_normal((37, 41)), RieszConfig(depth=0))
    assert representation._basis_bank.cache_info().misses == before


@pytest.fixture
def shape_memo():
    """The engine's shape memo, emptied before and after the test."""
    representation._basis_bank.cache_clear()
    yield representation._basis_bank
    representation._basis_bank.cache_clear()


def test_shape_memo_is_bounded_in_bytes(rng, shape_memo):
    # a height of 60 is never transposed, so every shape builds its own
    # bank, and every width below 64 its own DFT matrices: 80 builds,
    # 1.6 times the budget
    cfg, budget = RieszConfig(depth=1), representation.SHAPE_CACHE_BYTES
    first = shape_memo(60, 8)
    for i in range(40):
        extract_features(rng.standard_normal((60, 8 + i)), cfg)
        assert shape_memo.cache_info().bytes <= budget
        assert shape_memo(60, 8) is first  # each hit makes it the newest
    assert shape_memo.cache_info().misses == 80
    assert shape_memo.cache_info().entries < 80
    newest = shape_memo(60, 47)
    extract_features(rng.standard_normal((60, 47)), cfg)
    assert shape_memo(60, 47) is newest
    # a bank above the budget is kept, with only the entry used before it
    big = shape_memo(256, 256)
    assert big.nbytes > budget
    assert shape_memo.cache_info()[2:] == (2, big.nbytes + newest.nbytes)
    extract_features(rng.standard_normal((256, 256)), cfg)  # pocketfft: no DFT entry
    assert shape_memo(256, 256) is big
    assert shape_memo.cache_info().misses == 82
    # one engine call's bank and DFT matrices stay together, however large
    pair = shape_memo(256, 255), representation._real_dft(255)
    assert shape_memo.cache_info()[2:] == (2, pair[0].nbytes + sum(m.nbytes for m in pair[1]))
    extract_features(rng.standard_normal((256, 255)), cfg)
    assert shape_memo.cache_info().misses == 84
    shape_memo.cache_clear()
    assert shape_memo.cache_info() == (0, 0, 0, 0)


def test_shape_memo_shared_by_two_threads(monkeypatch, shape_memo):
    # both threads build the shared 12x10 bank at once, outside the lock:
    # the first one stored is the one both get, its bytes counted once
    expected = representation._basis_bank.__wrapped__(12, 10)
    start, building = threading.Barrier(2), threading.Barrier(2)
    real = riesz.first_order_multipliers

    def slow(height, width):
        if (height, width) == (12, 10):
            building.wait(timeout=10)
        return real(height, width)

    monkeypatch.setattr(riesz, "first_order_multipliers", slow)
    got = {}

    def work(own):
        start.wait(timeout=10)
        got[own] = shape_memo(12, 10), shape_memo(*own)

    threads = [threading.Thread(target=work, args=(own,)) for own in ((9, 7), (11, 13))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    (shared, _), (other, _) = got.values()
    assert shared is other
    assert_array_equal(shared, expected)
    info = shape_memo.cache_info()
    assert (info.misses, info.entries) == (4, 3)
    held = [shape_memo(*shape) for shape in ((12, 10), (9, 7), (11, 13))]
    assert info.bytes == sum(bank.nbytes for bank in held)


def test_byte_memo_keeps_its_count_under_thread_stress():
    # eight threads on a short switch interval share a fresh memo of
    # cheap arrays that evicts on most builds: every lookup counts once,
    # and the bytes it counts are the bytes of the arrays it holds
    memo = representation._ByteMemo(4000)

    @memo
    def zeros(n):
        time.sleep(0)  # lets the other threads run mid-build
        return np.zeros(n)

    sizes = list(range(50, 110, 5))
    start, done = threading.Barrier(8), []

    def work(seed):
        order = np.random.default_rng(seed).integers(len(sizes), size=5000)
        start.wait(timeout=10)
        for i in order:
            assert zeros(sizes[i]).shape == (sizes[i],)
        done.append(seed)

    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(done) == list(range(8))
    info = memo.cache_info()
    assert info.hits + info.misses == 8 * 5000
    assert info.misses > len(sizes)
    assert info.bytes == sum(value.nbytes for value, _ in memo._entries.values())
    assert info.bytes <= memo.budget


@pytest.mark.parametrize("kind", ["1e308", "normal*1e307"])
def test_overflowing_image_rejected(rng, kind):
    if kind == "1e308":
        f = np.full((8, 8), 1e308)
    else:
        f = rng.standard_normal((8, 8)) * 1e307
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteImageError, match="feature maps or their means are not finite"):
            extract_features(f, RieszConfig())


# both width paths: DFT matrices (below 64, and 67 and 97, 97x67 running
# transposed) and pocketfft (64 and 128); 1x9 and 8x8 are the smallest
_OVERFLOW_SHAPES = [(25, 17), (128, 128), (97, 67), (8, 8), (1, 9), (33, 64), (70, 97)]
_OVERFLOW_CASES = [
    pytest.param(shape, depth, angles, id=f"{shape[0]}x{shape[1]}-K{depth}-M{angles}")
    for shape in _OVERFLOW_SHAPES
    for depth in range(4)
    for angles in (4, 8)
    # K=3, M=8 takes 0.6-1.2 s on each of the three large shapes
    if not (depth == 3 and angles == 8 and shape[0] * shape[1] > 4096)
]
# uniform images in [0, 1) times the scale, or with the signs of a
# checkerboard: their means stay finite while the maps overflow
_OVERFLOW_SCALES = np.array([1.7e308, 1.0, 1e300, 1e306, 1e307, 1.7e308])
_CHECKERED = np.array([False, True, False, True, True, True])


def overflow_stack(rng, shape):
    """Six finite images scaled from 1 to 1.7e308; see ``_OVERFLOW_SCALES``."""
    stack = rng.random((len(_OVERFLOW_SCALES), *shape)) * _OVERFLOW_SCALES[:, None, None]
    stack[_CHECKERED] *= (-1.0) ** np.add.outer(*map(np.arange, shape))
    return stack


@pytest.mark.parametrize("shape, depth, angles", _OVERFLOW_CASES)
def test_stack_rows_are_finite_exactly_where_the_image_alone_is(rng, shape, depth, angles):
    # a stack returns every row: those of images whose own call returns
    # are byte-equal to it, those of images whose own call raises are not
    # finite, whatever the other images of the stack
    cfg = RieszConfig(depth=depth, angles=angles)
    stack = overflow_stack(rng, shape)
    alone = []
    with np.errstate(all="ignore"):
        rows = extract_features(stack, cfg)
        for f in stack:
            try:
                alone.append(extract_features(f, cfg))
            except NonFiniteImageError:
                alone.append(None)
    raised = [vector is None for vector in alone]
    assert [not np.isfinite(row).all() for row in rows] == raised
    assert 0 < sum(raised) < len(stack)
    for row, vector in zip(rows, alone):
        if vector is not None:
            assert row.tobytes() == vector.tobytes()


def test_features_constant_image():
    vec = extract_features(np.full((16, 16), 0.7), RieszConfig(depth=3, angles=4))
    assert len(vec) == 85
    assert vec[0] == pytest.approx(0.7)
    assert np.abs(vec[1:]).max() <= 1e-12


def test_features_shift_invariance(rng):
    f = rng.standard_normal((16, 16))
    cfg = RieszConfig(depth=2, angles=4)
    a = extract_features(f, cfg)
    b = extract_features(np.roll(f, (3, 7), axis=(0, 1)), cfg)
    assert np.abs(a - b).max() <= 1e-10 * np.abs(a).max()


def test_features_homogeneity_in_C(rng):
    # the features at C are C^depth times those at C = 1, bit for bit: of
    # one image, of a stack and of an image the engine runs transposed
    images = [rng.standard_normal((16, 16)), rng.standard_normal((3, 25, 17)),
              rng.standard_normal((97, 70))]
    assert representation._transposes(97, 70)
    for depth, angles in [(3, 4), (2, 8), (0, 4)]:
        depths = np.array([len(p) for p in feature_paths(depth, angles)])
        for f in images:
            base = extract_features(f, RieszConfig(depth, angles, scale_constant=1.0))
            for c in (0.7, 3.0):
                scaled = extract_features(f, RieszConfig(depth, angles, scale_constant=c))
                assert_array_equal(scaled, base * c**depths)
    # the steering weights do not depend on C: no cache entry per value
    f = rng.standard_normal((8, 8))
    extract_features(f, RieszConfig(depth=1))
    cached = representation._steering.cache_info().currsize
    for c in np.linspace(0.5, 2.5, 20):
        extract_features(f, RieszConfig(depth=1, scale_constant=c))
    assert representation._steering.cache_info().currsize == cached
    # the finiteness check reads the scaled row: at C = 1e200 the depth-2
    # means overflow, though every map at C = 1 is finite
    huge = RieszConfig(depth=2, scale_constant=1e200)
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteImageError):
            extract_features(f, huge)
        rows = extract_features(np.stack([f, f]), huge)
    assert np.isfinite(rows[:, :5]).all() and np.isinf(rows[:, 5:]).all()


def _awkward_matrix(rng, rows, cols):
    """Values whose text form is hard to round-trip, and a flagged NaN row."""
    matrix = rng.standard_normal((rows, cols)) * np.logspace(-300, 300, cols)
    matrix[1] = np.nan
    matrix[0, :3] = [0.0, -0.0, 5e-324]
    return matrix


def test_features_csv_round_trip(tmp_path, rng):
    cfg = RieszConfig(depth=2, angles=4)
    paths = feature_paths(cfg.depth, cfg.angles)
    matrix = _awkward_matrix(rng, 3, len(paths))
    labels = [0, 2, 1]
    out = tmp_path / "features.csv"
    write_features_csv(out, matrix, paths, labels)
    assert '"[0,1]"' in out.read_text().splitlines()[0]  # quoted, holds a comma
    back, back_paths, back_labels = read_features_csv(out)
    assert back_paths == list(paths)
    assert back_labels.dtype == np.int64 and list(back_labels) == labels
    assert back.tobytes() == matrix.tobytes()  # bit-exact via %.17g


def test_features_csv_no_labels(tmp_path, rng):
    paths = feature_paths(1, 4)
    out = tmp_path / "f.csv"
    matrix = _awkward_matrix(rng, 2, len(paths))
    write_features_csv(out, matrix, paths)
    back, _, labels = read_features_csv(out)
    assert labels is None
    assert back.tobytes() == matrix.tobytes()


def test_features_csv_header_only(tmp_path):
    out = tmp_path / "f.csv"
    write_features_csv(out, np.empty((0, 1)), feature_paths(0, 4), labels=[])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no data rows"):
            read_features_csv(out)


def _csv_module_writer(path, matrix, paths, labels=None):
    """The writer the feature CSV format was defined by: csv.writer on
    format(v, ".17g") fields."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow([path_label(p) for p in paths] + (["label"] if labels is not None else []))
        for i, row in enumerate(matrix):
            out = [format(v, ".17g") for v in row]
            if labels is not None:
                out.append(str(int(labels[i])))
            writer.writerow(out)


_EXTREMES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1]


@pytest.mark.parametrize("rows", [0, 1, 4])
@pytest.mark.parametrize("labelled", [True, False], ids=["labels", "no-labels"])
def test_features_csv_bytes_match_csv_module_writer(tmp_path, rows, labelled):
    paths = feature_paths(1, 8)[:7]
    matrix = np.array([np.roll(_EXTREMES, i) for i in range(rows)]).reshape(rows, 7)
    labels = [3, 0, 12, 7][:rows] if labelled else None
    write_features_csv(tmp_path / "a.csv", matrix, paths, labels)
    _csv_module_writer(tmp_path / "b.csv", matrix, paths, labels)
    written = (tmp_path / "a.csv").read_bytes()
    assert written == (tmp_path / "b.csv").read_bytes()
    assert written.count(b"\r\n") == rows + 1


def test_features_csv_without_feature_columns_names_the_file(tmp_path):
    out = tmp_path / "f.csv"
    out.write_text("label\r\n0\r\n1\r\n", encoding="ascii")
    with pytest.raises(ValueError, match="no feature columns") as caught:
        read_features_csv(out)
    assert str(out) in str(caught.value)


@pytest.mark.parametrize(
    "rows, message",
    [
        (["1.0,0", "2.0,1.5"], "not an integer"),
        (["1.0,0", "2.0,nan"], "not an integer"),
        (["1.0,0", "2.0"], "number of columns"),
        (["1.0,0", "2.0,x"], "could not convert"),
        (["1.0,2.0,0", "1.0,2.0,1"], "header"),
    ],
    ids=["fractional-label", "nan-label", "ragged", "text", "width"],
)
def test_features_csv_malformed_rows(tmp_path, rows, message):
    out = tmp_path / "f.csv"
    out.write_text("\r\n".join(['"[]"' + ",label", *rows]) + "\r\n", encoding="ascii")
    with pytest.raises(ValueError, match=message):
        read_features_csv(out)


def test_readme_example_and_public_names():
    import types
    from pathlib import Path

    import rieszrep

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = [b.split("\n", 1)[1] for b in readme.split("```")[1::2] if b.startswith("python\n")]
    scope = {}
    exec(block, scope)
    assert scope["vec"].shape == (85,)
    assert scope["rows"].shape == (16, 85)
    public = {
        name
        for name, value in vars(rieszrep).items()
        if not isinstance(value, types.ModuleType) and (name == "__version__" or name[0] != "_")
    }
    assert public == {"RieszConfig", "extract_features", "__version__"}
