import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import rieszrep.representation as representation
from rieszrep.image_core import NonFiniteImageError
from rieszrep.representation import (
    RieszConfig,
    Workspace,
    build_hierarchy,
    extract_features,
    feature_count,
    feature_paths,
    gaussian_presmooth,
    layer_S,
    parse_path_label,
    path_label,
    read_features_csv,
    write_features_csv,
)
from rieszrep.riesz import first_order_multipliers, hilbert2_steered, hilbert_steered
from rieszrep.verify import block_average, lowpass_image


def test_config_validation():
    with pytest.raises(ValueError):
        RieszConfig(angles=6)
    with pytest.raises(ValueError):
        RieszConfig(depth=-1)
    with pytest.raises(ValueError):
        RieszConfig(scale_constant=0)
    with pytest.raises(ValueError):
        RieszConfig(pooling="median")


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
    f = rng.standard_normal((16, 16))
    once = layer_S(f, RieszConfig(scale_constant=1.0))
    twice = layer_S(f, RieszConfig(scale_constant=2.0))
    for a, b in zip(once, twice):
        assert_allclose(b, 2 * a, rtol=0, atol=1e-14)
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


def test_hierarchy_depth_zero(rng):
    f = rng.standard_normal((8, 8))
    maps = build_hierarchy(f, RieszConfig(depth=0))
    assert list(maps) == [()]
    assert_allclose(maps[()], f)


def test_hierarchy_map_counts(rng):
    f = rng.standard_normal((8, 8))
    assert len(build_hierarchy(f, RieszConfig(depth=3, angles=4))) == 85
    assert len(build_hierarchy(f, RieszConfig(depth=2, angles=8))) == 73


def _two_inverse_features(f, cfg):
    """Frozen copy of the original per-map algorithm: two inverse FFTs per angle."""
    if cfg.presmooth_sigma is not None:
        f = gaussian_presmooth(f, cfg.presmooth_sigma)
    m1, m2 = first_order_multipliers(*f.shape)
    phis = [k * math.pi / cfg.angles for k in range(cfg.angles)]
    bank = [math.cos(phi) * m1 + math.sin(phi) * m2 for phi in phis]
    pool = np.mean if cfg.pooling == "mean" else np.max
    values = [pool(f)]
    level = [f]
    for _ in range(cfg.depth):
        nxt = []
        for g in level:
            spec = np.fft.fft2(g)
            for m in bank:
                imag_part = np.fft.ifft2(m * spec).real
                real_part = np.fft.ifft2(m * m * spec).real
                nxt.append(cfg.scale_constant * np.hypot(real_part, imag_part))
        values.extend(pool(g) for g in nxt)
        level = nxt
    return np.array(values)


_ENGINE_CONFIGS = {
    "K3M4": RieszConfig(depth=3, angles=4),
    "K2M8": RieszConfig(depth=2, angles=8),
    "max": RieszConfig(depth=2, angles=4, pooling="max"),
    "C0.7-presmooth": RieszConfig(
        depth=2, angles=4, scale_constant=0.7, presmooth_sigma=1.5
    ),
    "depth0": RieszConfig(depth=0),
    "K1M16": RieszConfig(depth=1, angles=16),
}


@pytest.mark.parametrize("name", list(_ENGINE_CONFIGS))
@pytest.mark.parametrize(
    "shape",
    [(1, 1), (1, 7), (7, 1), (2, 2), (3, 5), (17, 13), (31, 64), (64, 64), (19, 67), (12, 66)],
)
def test_engine_matches_two_inverse_algorithm(rng, shape, name):
    cfg = _ENGINE_CONFIGS[name]
    f = rng.standard_normal(shape)
    expected = _two_inverse_features(f, cfg)
    got = extract_features(f, cfg)
    # the 2x2 grid has structurally zero features that differ at 1e-17
    assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
    maps = build_hierarchy(f, cfg)
    pool = np.mean if cfg.pooling == "mean" else np.max
    pooled = [pool(maps[p]) for p in feature_paths(cfg.depth, cfg.angles)]
    assert_allclose(pooled, got, rtol=1e-12, atol=0)


_GROUPING_CONFIGS = {
    "K3M4-mean": RieszConfig(depth=3, angles=4),
    "K2M8-max": RieszConfig(depth=2, angles=8, pooling="max"),
    "K1": RieszConfig(depth=1),
    "K0": RieszConfig(depth=0),
    "C2.5": RieszConfig(depth=2, angles=4, scale_constant=2.5),
}


@pytest.mark.parametrize("name", list(_GROUPING_CONFIGS))
@pytest.mark.parametrize(
    "shape",
    [(1, 1), (1, 9), (2, 2), (13, 10), (25, 7), (26, 18), (49, 35), (128, 128), (19, 67), (12, 66)],
)
def test_engine_outputs_independent_of_group_size(monkeypatch, rng, shape, name):
    # a budget of 1 byte gives one parent per group, 1 << 40 one group per
    # level, three banks a partial last group on levels of 4 or more parents
    cfg = _GROUPING_CONFIGS[name]
    f = rng.standard_normal(shape)
    pool = np.mean if cfg.pooling == "mean" else np.max
    three_banks = 3 * cfg.angles * f.size * 16
    results = []
    for budget in (1, representation._BATCH_BYTES, 1 << 40, three_banks):
        monkeypatch.setattr(representation, "_BATCH_BYTES", budget)
        maps = build_hierarchy(f, cfg)
        pooled = [pool(maps[p]) for p in feature_paths(cfg.depth, cfg.angles)]
        results.append((extract_features(f, cfg), np.array(pooled), layer_S(f, cfg)))
    for features, pooled, layer in results[1:]:
        assert_array_equal(features, results[0][0])
        assert_array_equal(pooled, results[0][1])
        assert_array_equal(np.array(layer), np.array(results[0][2]))


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


def test_engine_outputs_do_not_alias_reused_buffers(monkeypatch, rng):
    # 16 x 12 with M=4 has a 12 KiB bank; 3 parents per group leaves a
    # partial last group on the 16 parents of level 3
    f, g = rng.standard_normal((2, 16, 12))
    cfg = RieszConfig(depth=3, angles=4)
    for parents_per_group in (1, 3, 16):
        budget = parents_per_group * 4 * 16 * 12 * 16
        monkeypatch.setattr(representation, "_BATCH_BYTES", budget)
        maps, layer = build_hierarchy(f, cfg), layer_S(f, cfg)
        saved_maps = {p: m.copy() for p, m in maps.items()}
        saved_layer = [m.copy() for m in layer]
        extract_features(g, cfg), build_hierarchy(g, cfg), layer_S(g, cfg)
        for p, m in maps.items():
            assert_array_equal(m, saved_maps[p])
        for a, b in zip(layer, saved_layer):
            assert_array_equal(a, b)
        maps[(3, 1)][:] = -1.0
        maps[(0, 2, 1)][:] = -1.0
        layer[2][:] = -1.0
        for p, m in build_hierarchy(f, cfg).items():
            assert_array_equal(m, saved_maps[p])
        for a, b in zip(layer_S(f, cfg), saved_layer):
            assert_array_equal(a, b)
        # the second same-shape call keeps the buffers, the third reuses them
        workspace = Workspace()
        features = [extract_features(x, cfg, workspace=workspace) for x in (f, g, f)]
        saved_features = [v.copy() for v in features]
        maps = build_hierarchy(f, cfg)
        extract_features(g, cfg, workspace=workspace)
        assert workspace._buffers is not None
        for p, m in maps.items():
            assert_array_equal(m, saved_maps[p])
        for a, b in zip(features, saved_features):
            assert_array_equal(a, b)


_SEQUENCE_CONFIGS = {
    "K3M4": RieszConfig(depth=3, angles=4),
    "K2M8-max": RieszConfig(depth=2, angles=8, pooling="max"),
    "C0.7-presmooth": RieszConfig(depth=2, angles=4, scale_constant=0.7, presmooth_sigma=1.5),
    "K1": RieszConfig(depth=1),
}


@pytest.mark.parametrize("name", list(_SEQUENCE_CONFIGS))
def test_workspace_sequence_matches_independent_calls(rng, name):
    # shapes A A A B A A B B, the second A overflowing: buffers are kept
    # from the second consecutive image of a shape until the shape changes
    cfg = _SEQUENCE_CONFIGS[name]
    shapes = [(24, 20), (24, 20), (24, 20), (17, 31), (24, 20), (24, 20), (17, 31), (17, 31)]
    images = [rng.standard_normal(shape) for shape in shapes]
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
    # stay Hermitian, so only a check of all five multipliers catches it
    def rotated(height, width):
        m1, m2 = first_order_multipliers(height, width)
        return 1j * m1, 1j * m2

    monkeypatch.setattr(representation, "first_order_multipliers", rotated)
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


def test_shape_caches_are_bounded(rng):
    cfg = RieszConfig(depth=1)
    for i in range(40):
        extract_features(rng.standard_normal((8 + i, 9)), cfg)
    bank = representation._basis_bank(47, 9)
    extract_features(rng.standard_normal((47, 9)), cfg)
    assert representation._basis_bank(47, 9) is bank
    assert representation._basis_bank.cache_info().currsize <= 32


@pytest.mark.parametrize("kind", ["1e308", "normal*1e307"])
def test_overflowing_image_rejected(rng, kind):
    if kind == "1e308":
        f = np.full((8, 8), 1e308)
    else:
        f = rng.standard_normal((8, 8)) * 1e307
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteImageError, match="non-finite samples"):
            extract_features(f, RieszConfig())


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
    f = rng.standard_normal((16, 16))
    base = extract_features(f, RieszConfig(depth=2, scale_constant=1.0))
    doubled = extract_features(f, RieszConfig(depth=2, scale_constant=2.0))
    depths = np.array([len(p) for p in feature_paths(2, 4)])
    assert_allclose(doubled, base * 2.0**depths, rtol=1e-10, atol=1e-14)


def test_energy_decay_across_depth(rng):
    f = rng.standard_normal((16, 16))
    cfg = RieszConfig(depth=3, angles=4, scale_constant=0.25)
    maps = build_hierarchy(f, cfg)
    mean_norm = []
    for k in range(4):
        level = [np.linalg.norm(m) for p, m in maps.items() if len(p) == k]
        mean_norm.append(np.mean(level))
    assert all(a >= b - 1e-12 for a, b in zip(mean_norm, mean_norm[1:]))


def test_features_scale_robustness(rng):
    # frozen tolerance from the calibration on the low-pass family
    worst = 0.0
    cfg = RieszConfig(depth=3, angles=4)
    for _ in range(3):
        f = lowpass_image(rng, 128, 128, cutoff=0.1)
        a = extract_features(block_average(f), cfg)
        b = extract_features(f, cfg)
        worst = max(worst, np.abs(a - b).max() / np.abs(b).max())
    assert worst <= 0.05


def test_presmooth_near_identity(rng):
    f = rng.standard_normal((16, 16))
    out = gaussian_presmooth(f, 0.01)
    assert np.linalg.norm(out - f) / np.linalg.norm(f) <= 1e-3


def test_presmooth_constant_unchanged():
    f = np.full((8, 8), 1.5)
    assert_allclose(gaussian_presmooth(f, 2.0), f, atol=1e-12)


def test_presmooth_energy_nonincreasing(rng):
    f = rng.standard_normal((16, 16))
    assert np.linalg.norm(gaussian_presmooth(f, 1.0)) <= np.linalg.norm(f)


def test_presmooth_applied_in_extraction(rng):
    f = rng.standard_normal((16, 16))
    direct = extract_features(
        gaussian_presmooth(f, 1.0), RieszConfig(depth=1, angles=4)
    )
    configured = extract_features(
        f, RieszConfig(depth=1, angles=4, presmooth_sigma=1.0)
    )
    assert_allclose(direct, configured, atol=1e-14)


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
    public = {
        name
        for name, value in vars(rieszrep).items()
        if not isinstance(value, types.ModuleType) and (name == "__version__" or name[0] != "_")
    }
    assert public == {"RieszConfig", "extract_features", "__version__"}
