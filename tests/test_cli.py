import argparse
import struct
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from rieszrep.cli import build_parser, data_path, load_config_file, main, resolve_config
from rieszrep.verify import FAULTS

from conftest import synthetic_digit


def _write_idx_pair(directory, images, labels, stem="set"):
    images = np.asarray(images)
    data = np.clip(np.rint(images * 255), 0, 255).astype(np.uint8)
    ipath = directory / f"{stem}-images.idx"
    lpath = directory / f"{stem}-labels.idx"
    with open(ipath, "wb") as fh:
        fh.write(struct.pack(">iiii", 0x803, *data.shape))
        fh.write(data.tobytes())
    with open(lpath, "wb") as fh:
        fh.write(struct.pack(">ii", 0x801, len(labels)))
        fh.write(bytes(labels))
    return ipath, lpath


def _default_config(**overrides):
    return dict(resolve_config(argparse.Namespace(config=None)), **overrides)


def _two_class_images(rng, per_class=12, size=16):
    """Smooth blobs vs. checkerboard texture; easy to separate."""
    images, labels = [], []
    x = np.arange(size)
    checker = (x[:, None] + x[None, :]) % 2
    for _ in range(per_class):
        smooth = np.exp(
            -((x[:, None] - rng.uniform(6, 10)) ** 2 + (x[None, :] - rng.uniform(6, 10)) ** 2)
            / 20.0
        )
        images.append(smooth)
        labels.append(0)
        images.append(0.5 + 0.4 * checker + rng.random((size, size)) * 0.1)
        labels.append(1)
    return np.array(images), labels


def test_verify_all_pass(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) == 12
    assert out.splitlines()[-1] == "12/12 properties passed"


def test_verify_fault_injection(capsys):
    # each fault must fail exactly these properties and no others
    expected = {"dc-not-zeroed": {"all-pass", "zero-integral"}}
    assert set(expected) == set(FAULTS)
    for fault, failing in expected.items():
        assert main(["verify", "--inject-fault", fault]) == 1
        out = capsys.readouterr().out
        failed = {l.split()[1].rstrip(":") for l in out.splitlines() if l.startswith("FAIL")}
        assert failed == failing


_COMMON = {
    (("-h", "--help"), "help", None, None, None),
    (("--config",), "config", None, None, None),
    (("--print-config",), "print_config", None, True, None),
    (("--seed",), "seed", None, None, int),
}
_RIESZ = {
    (("--depth",), "depth", None, None, int),
    (("--angles",), "angles", None, None, int),
    (("--scale-constant",), "scale_constant", None, None, float),
    (("--pooling",), "pooling", ("mean", "max"), None, None),
    (("--presmooth-sigma",), "presmooth_sigma", None, None, float),
}
_BBOX = {
    (("--bbox",), "bbox", None, True, None),
    (("--pad",), "pad", None, None, int),
    (("--threshold",), "threshold", None, None, float),
    (("--enlarge",), "enlarge", None, None, float),
}
_LIMIT = (("--limit",), "limit", None, None, int)
_OUTPUT = (("--output",), "output", None, None, None)
_FEATURES = (("--features",), "features", None, None, None)
_INPUT = {
    (("--images",), "images", None, None, None),
    (("--labels",), "labels", None, None, None),
    (("--image-dir",), "image_dir", None, None, None),
    _LIMIT,
}
_OPTION_TABLE = {
    "extract": _COMMON | _RIESZ | _INPUT | _BBOX | {_OUTPUT},
    "bbox": _COMMON | _INPUT | _BBOX | {(("--out-dir",), "out_dir", None, None, None)},
    "train": _COMMON | {
        _FEATURES,
        (("--classifier",), "classifier", ("pca", "svm"), None, None),
        (("--components",), "components", None, None, int),
        (("--reg",), "reg", None, None, float),
        (("--epochs",), "epochs", None, None, int),
        _OUTPUT,
    },
    "eval": _COMMON | _RIESZ | _BBOX | {
        _FEATURES,
        (("--manifest",), "manifest", None, None, None),
        _LIMIT,
        (("--model",), "model", None, None, None),
        _OUTPUT,
    },
    "verify": _COMMON | {
        (("--inject-fault",), "inject_fault", ("dc-not-zeroed",), None, None),
    },
    "bench": _COMMON | _RIESZ,
}


def test_subcommand_option_table():
    # (option strings, dest, choices, const, type) of every subcommand;
    # argparse treats type=str as no conversion, so str is read as None
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == set(_OPTION_TABLE)
    for name, parser in sub.choices.items():
        table = {
            (
                tuple(a.option_strings),
                a.dest,
                None if a.choices is None else tuple(a.choices),
                a.const,
                None if a.type is str else a.type,
            )
            for a in parser._actions
        }
        assert table == _OPTION_TABLE[name], name


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "riesz.cfg"
    cfg.write_text("depht = 3\n")
    assert main(["verify", "--config", str(cfg)]) == 2


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "riesz.cfg"
    cfg.write_text("# comment\ndepth = 2\nangles = 8\npooling = max  # inline\n")
    values = load_config_file(cfg)
    assert values == {"depth": 2, "angles": 8, "pooling": "max"}


@pytest.mark.parametrize("value, expected", [("1", True), ("Yes", True), ("TRUE", True),
                                             ("0", False), ("no", False), ("False", False)])
def test_config_file_bbox_switch(tmp_path, value, expected):
    cfg = tmp_path / "riesz.cfg"
    cfg.write_text(f"bbox = {value}\n")
    assert load_config_file(cfg) == {"bbox": expected}


@pytest.mark.parametrize("value", ["on", "maybe"])
def test_config_file_bad_bbox_switch(tmp_path, caplog, value):
    cfg = tmp_path / "riesz.cfg"
    cfg.write_text(f"bbox = {value}\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "bad value for bbox" in caplog.text and repr(value) in caplog.text


def test_config_file_bad_line(tmp_path):
    cfg = tmp_path / "riesz.cfg"
    cfg.write_text("depth 2\n")
    assert main(["verify", "--config", str(cfg)]) == 2


def test_print_config(tmp_path, capsys):
    cfg = tmp_path / "riesz.cfg"
    cfg.write_text("depth = 2\n")
    # flag overrides file; the config is printed before train stops at
    # its missing inputs, so no property suite runs
    assert main(["train", "--config", str(cfg), "--print-config", "--seed", "5"]) == 2
    out = capsys.readouterr().out
    assert "depth = 2" in out
    assert "seed = 5" in out


def test_missing_required_option():
    assert main(["extract"]) == 2  # no input source
    assert main(["train"]) == 2  # no features/output
    assert main(["eval"]) == 2  # no model


def test_invalid_riesz_config(tmp_path, rng):
    ipath, lpath = _write_idx_pair(tmp_path, rng.random((2, 8, 8)), [0, 1])
    out = tmp_path / "f.csv"
    code = main(
        ["extract", "--images", str(ipath), "--labels", str(lpath),
         "--angles", "6", "--output", str(out)]
    )
    assert code == 2


def test_extract_idx_end_to_end(tmp_path, rng):
    from rieszrep.representation import read_features_csv

    images, labels = _two_class_images(rng, per_class=3)
    ipath, lpath = _write_idx_pair(tmp_path, images, labels)
    out = tmp_path / "features.csv"
    code = main(
        ["extract", "--images", str(ipath), "--labels", str(lpath),
         "--depth", "1", "--output", str(out)]
    )
    assert code == 0
    matrix, paths, got_labels = read_features_csv(out)
    assert matrix.shape == (6, 5)
    assert list(got_labels) == labels
    assert not np.isnan(matrix).any()


def test_extract_deterministic_bytes(tmp_path, rng):
    images, labels = _two_class_images(rng, per_class=2)
    ipath, lpath = _write_idx_pair(tmp_path, images, labels)
    args = ["extract", "--images", str(ipath), "--labels", str(lpath), "--depth", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_extract_batch_matches_single_image_bytes(tmp_path, rng):
    # a same-shape IDX stack lends the engine's buffers from image to
    # image; each row must equal the CSV of that image extracted alone
    images = rng.random((6, 20, 16))
    labels = [0, 1, 2, 0, 1, 2]
    riesz = ["--depth", "2", "--angles", "8"]
    ipath, lpath = _write_idx_pair(tmp_path, images, labels)
    batch = tmp_path / "batch.csv"
    assert main(["extract", "--images", str(ipath), "--labels", str(lpath), *riesz,
                 "--output", str(batch)]) == 0
    expected = []
    for i in range(len(images)):
        ipath, lpath = _write_idx_pair(tmp_path, images[i : i + 1], labels[i : i + 1], stem=f"one{i}")
        single = tmp_path / f"one{i}.csv"
        assert main(["extract", "--images", str(ipath), "--labels", str(lpath), *riesz,
                     "--output", str(single)]) == 0
        header, row = single.read_bytes().splitlines(keepends=True)
        expected += [header] * (i == 0) + [row]
    assert batch.read_bytes() == b"".join(expected)


def test_extract_matrix_shape_sequence_matches_single_calls(rng):
    # shapes A A A B A A B B with an overflowing image inside the first A run
    from rieszrep.cli import extract_matrix
    from rieszrep.representation import RieszConfig, extract_features

    config = _default_config(depth=2, angles=4)
    shapes = [(24, 20), (24, 20), (24, 20), (17, 31), (24, 20), (24, 20), (17, 31), (17, 31)]
    images = [rng.random(shape) for shape in shapes]
    images[1] = np.full(shapes[1], 1e308)
    with np.errstate(all="ignore"):
        matrix = extract_matrix(images, config)
    cfg = RieszConfig(depth=2, angles=4)
    assert matrix.shape == (8, 21)
    assert np.isnan(matrix[1]).all()
    for i in (0, 2, 3, 4, 5, 6, 7):
        assert_array_equal(matrix[i], extract_features(images[i], cfg))


def test_extract_matrix_of_no_images_has_feature_width():
    from rieszrep.cli import extract_matrix

    assert extract_matrix([], _default_config()).shape == (0, 85)
    assert extract_matrix(np.empty((0, 8, 8)), _default_config(depth=2, angles=8)).shape == (0, 73)


@pytest.mark.parametrize("trigger", ["empty-idx", "limit-0"])
def test_extract_without_images_is_config_error(tmp_path, rng, caplog, trigger):
    if trigger == "empty-idx":
        ipath, lpath = _write_idx_pair(tmp_path, np.empty((0, 8, 8)), [])
        extra = []
    else:
        ipath, lpath = _write_idx_pair(tmp_path, rng.random((2, 8, 8)), [0, 1])
        extra = ["--limit", "0"]
    out = tmp_path / "f.csv"
    code = main(["extract", "--images", str(ipath), "--labels", str(lpath), *extra,
                 "--output", str(out)])
    assert code == 2
    assert f"no input images to extract from {ipath}" in caplog.text
    assert not out.exists()


def test_extract_image_dir(tmp_path, rng):
    from rieszrep.image_core import save_gray_pgm
    from rieszrep.representation import read_features_csv

    d = tmp_path / "imgs"
    d.mkdir()
    for i in range(3):
        save_gray_pgm(d / f"img_{i}.pgm", rng.random((8, 8)))
    out = tmp_path / "f.csv"
    assert main(["extract", "--image-dir", str(d), "--depth", "0", "--output", str(out)]) == 0
    matrix, _, labels = read_features_csv(out)
    assert matrix.shape == (3, 1)
    assert labels is None


def test_extract_limit(tmp_path, rng):
    from rieszrep.representation import read_features_csv

    images, labels = _two_class_images(rng, per_class=3)
    ipath, lpath = _write_idx_pair(tmp_path, images, labels)
    out = tmp_path / "f.csv"
    main(["extract", "--images", str(ipath), "--labels", str(lpath),
          "--depth", "0", "--limit", "2", "--output", str(out)])
    matrix, _, _ = read_features_csv(out)
    assert matrix.shape[0] == 2


def test_extract_blank_image_flagged(tmp_path, rng):
    from rieszrep.representation import read_features_csv

    images = np.stack([np.zeros((12, 12)), synthetic_digit(12)])
    ipath, lpath = _write_idx_pair(tmp_path, images, [7, 3])
    out = tmp_path / "f.csv"
    code = main(
        ["extract", "--images", str(ipath), "--labels", str(lpath),
         "--depth", "1", "--bbox", "--output", str(out)]
    )
    assert code == 0  # run continues past the blank image
    matrix, _, labels = read_features_csv(out)
    assert np.isnan(matrix[0]).all()
    assert not np.isnan(matrix[1]).any()
    assert list(labels) == [7, 3]


def write_matrix(path, img):
    rows = [" ".join(format(v, ".17g") for v in row) for row in img]
    path.write_text(f"{img.shape[0]} {img.shape[1]}\n" + "\n".join(rows) + "\n")


def test_extract_non_finite_image_flagged(tmp_path, rng, caplog):
    from rieszrep.representation import read_features_csv

    d = tmp_path / "imgs"
    d.mkdir()
    write_matrix(d / "a.txt", rng.random((8, 8)))
    write_matrix(d / "c.txt", rng.random((8, 8)))
    clean = tmp_path / "clean.csv"
    assert main(["extract", "--image-dir", str(d), "--output", str(clean)]) == 0
    write_matrix(d / "b.txt", np.full((8, 8), 1e308))  # the FFT overflows
    out = tmp_path / "f.csv"
    with np.errstate(all="ignore"):
        assert main(["extract", "--image-dir", str(d), "--output", str(out)]) == 0
    matrix, _, _ = read_features_csv(out)
    expected, _, _ = read_features_csv(clean)
    assert np.isnan(matrix[1]).all()
    assert_array_equal(matrix[[0, 2]], expected)
    assert "image 1 flagged: image contains non-finite samples" in caplog.text


def test_extract_nan_matrix_text_flagged(tmp_path, rng, caplog):
    from rieszrep.representation import read_features_csv

    d = tmp_path / "imgs"
    d.mkdir()
    write_matrix(d / "a.txt", rng.random((8, 8)))
    clean = tmp_path / "clean.csv"
    assert main(["extract", "--image-dir", str(d), "--output", str(clean)]) == 0
    (d / "b.txt").write_text("2 2\nnan 1\n0 1\n")
    out = tmp_path / "f.csv"
    assert main(["extract", "--image-dir", str(d), "--output", str(out)]) == 0
    matrix, _, _ = read_features_csv(out)
    expected, _, _ = read_features_csv(clean)
    assert matrix.shape == (2, expected.shape[1])
    assert np.isnan(matrix[1]).all()
    assert_array_equal(matrix[[0]], expected)
    assert "image 1 flagged: image contains non-finite samples" in caplog.text


def test_flagged_image_logs_once_without_warnings(tmp_path, caplog):
    d = tmp_path / "imgs"
    d.mkdir()
    write_matrix(d / "a.txt", np.full((8, 8), 1e308))  # the FFT overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["extract", "--image-dir", str(d), "--output", str(tmp_path / "f.csv")])
    assert code == 0
    flagged = [r for r in caplog.records if "flagged" in r.getMessage()]
    assert [r.getMessage() for r in flagged] == [
        "image 0 flagged: image contains non-finite samples"
    ]


@pytest.mark.parametrize(
    "shape, depth, reason",
    [
        ((19, 67), 3, "image contains non-finite samples"),  # width on the DFT-matrix path
        ((8, 8), 0, "pooled features are not finite"),  # only the mean overflows
    ],
    ids=["dft-matrix-width", "depth-0"],
)
def test_overflowing_image_flagged_once(tmp_path, caplog, shape, depth, reason):
    from rieszrep.representation import feature_count, read_features_csv

    d = tmp_path / "imgs"
    d.mkdir()
    write_matrix(d / "a.txt", np.full(shape, 1e308))
    out = tmp_path / "f.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["extract", "--image-dir", str(d), "--depth", str(depth), "--output", str(out)])
    assert code == 0
    flagged = [r.getMessage() for r in caplog.records if "flagged" in r.getMessage()]
    assert flagged == [f"image 0 flagged: {reason}"]
    matrix, _, _ = read_features_csv(out)
    assert matrix.shape == (1, feature_count(depth, 4)) and np.isnan(matrix).all()


@pytest.mark.parametrize(
    "argv, config_line, key",
    [
        (["extract", "--limit", "-1"], None, "limit"),
        (["extract", "--bbox", "--pad", "-3"], None, "pad"),
        (["extract", "--bbox", "--enlarge", "-1"], None, "enlarge"),
        (["extract"], "enlarge = -1.5", "enlarge"),
        (["bbox", "--limit", "-2"], None, "limit"),
    ],
    ids=["limit", "pad", "enlarge", "config-file-enlarge", "bbox-limit"],
)
def test_out_of_range_values_exit_2_before_any_image_is_read(
    tmp_path, caplog, argv, config_line, key
):
    # the input files do not exist: reading one would exit 1
    out = "--output" if argv[0] == "extract" else "--out-dir"
    argv = [*argv, "--images", str(tmp_path / "x.idx"), "--labels", str(tmp_path / "y.idx"),
            out, str(tmp_path / "out")]
    if config_line:
        cfg = tmp_path / "riesz.cfg"
        cfg.write_text(config_line + "\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error.startswith(f"config error: {key} must be")


def test_extract_malformed_graymap_stops_the_run(tmp_path, caplog):
    d = tmp_path / "imgs"
    d.mkdir()
    (d / "a.pgm").write_text("P2\n2 2\n255\n0 255 255 0\n")
    (d / "b.pgm").write_text("P2\n2 2\n0\n0 0 0 0\n")
    out = tmp_path / "f.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["extract", "--image-dir", str(d), "--output", str(out)]) == 1
    (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert str(d / "b.pgm") in error and "maxval 0" in error
    assert not out.exists()


@pytest.mark.parametrize("verbose", [False, True])
def test_runtime_error_traceback_only_when_verbose(tmp_path, caplog, verbose):
    argv = ["train", "--features", str(tmp_path / "missing.csv"), "--output", "m.txt"]
    assert main(["-v"] * verbose + argv) == 1
    (record,) = [r for r in caplog.records if r.levelname == "ERROR"]
    assert "missing.csv" in record.getMessage()
    assert bool(record.exc_info) == verbose
    assert ("Traceback" in caplog.text) == verbose


def test_data_dir_resolution(tmp_path, monkeypatch):
    monkeypatch.setenv("RIESZ_DATA_DIR", str(tmp_path))
    assert data_path("sub/file.idx") == tmp_path / "sub" / "file.idx"
    assert data_path("/abs/file.idx") == __import__("pathlib").Path("/abs/file.idx")
    monkeypatch.delenv("RIESZ_DATA_DIR")
    assert data_path("sub/file.idx") == __import__("pathlib").Path("sub/file.idx")


def test_bbox_command(tmp_path, rng):
    from rieszrep.image_core import load_gray_image

    images = np.stack([synthetic_digit(32), np.zeros((32, 32)), synthetic_digit(32)])
    ipath, lpath = _write_idx_pair(tmp_path, images, [0, 0, 0])
    out_dir = tmp_path / "crops"
    code = main(
        ["bbox", "--images", str(ipath), "--labels", str(lpath),
         "--out-dir", str(out_dir)]
    )
    assert code == 0
    written = sorted(p.name for p in out_dir.iterdir())
    assert written == ["crop_00000.pgm", "crop_00002.pgm"]  # blank skipped
    crop = load_gray_image(out_dir / "crop_00000.pgm")
    assert crop.max() > 0.5


def test_bbox_command_skips_non_finite_image(tmp_path, caplog):
    d = tmp_path / "imgs"
    d.mkdir()
    write_matrix(d / "a.txt", synthetic_digit(32))
    (d / "b.txt").write_text("2 2\nnan 1\n0 1\n")
    out_dir = tmp_path / "crops"
    assert main(["bbox", "--image-dir", str(d), "--out-dir", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["crop_00000.pgm"]
    assert "image 1 skipped: image contains non-finite samples" in caplog.text


def test_train_eval_round_trip(tmp_path, rng, capsys):
    images, labels = _two_class_images(rng, per_class=12)
    ipath, lpath = _write_idx_pair(tmp_path, images, labels)
    features = tmp_path / "features.csv"
    model = tmp_path / "model.txt"
    report = tmp_path / "report.csv"
    assert main(["extract", "--images", str(ipath), "--labels", str(lpath),
                 "--depth", "1", "--output", str(features)]) == 0
    assert main(["train", "--features", str(features), "--classifier", "svm",
                 "--output", str(model)]) == 0
    capsys.readouterr()
    assert main(["eval", "--features", str(features), "--model", str(model),
                 "--output", str(report)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("scale,accuracy\n")
    acc = float(out.splitlines()[1].split(",")[1])
    assert acc >= 0.9
    assert report.read_text().startswith("scale,accuracy\n")


def test_train_pca_and_eval(tmp_path, rng, capsys):
    images, labels = _two_class_images(rng, per_class=10)
    ipath, lpath = _write_idx_pair(tmp_path, images, labels)
    features = tmp_path / "features.csv"
    model = tmp_path / "model.txt"
    main(["extract", "--images", str(ipath), "--labels", str(lpath),
          "--depth", "1", "--output", str(features)])
    assert main(["train", "--features", str(features), "--classifier", "pca",
                 "--components", "2", "--output", str(model)]) == 0
    capsys.readouterr()
    assert main(["eval", "--features", str(features), "--model", str(model)]) == 0
    acc = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
    assert acc >= 0.9


def test_train_deterministic_model_bytes(tmp_path, rng):
    images, labels = _two_class_images(rng, per_class=6)
    ipath, lpath = _write_idx_pair(tmp_path, images, labels)
    features = tmp_path / "features.csv"
    main(["extract", "--images", str(ipath), "--labels", str(lpath),
          "--depth", "1", "--output", str(features)])
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["train", "--features", str(features), "--seed", "3", "--output", str(a)])
    main(["train", "--features", str(features), "--seed", "3", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def _write_labelled_features(path, matrix, labels):
    from rieszrep.representation import feature_paths, write_features_csv

    write_features_csv(path, matrix, feature_paths(1, 4)[: matrix.shape[1]], labels)


@pytest.mark.parametrize(
    "extra, labels",
    [
        (["--reg=-0.01"], [0, 1] * 5),
        (["--reg", "nan"], [0, 1] * 5),
        (["--epochs", "0"], [0, 1] * 5),
        ([], [-1] + [0, 1] * 4 + [1]),
    ],
    ids=["negative-reg", "nan-reg", "zero-epochs", "negative-label"],
)
def test_train_rejects_bad_inputs_as_config_error(tmp_path, rng, caplog, extra, labels):
    features = tmp_path / "f.csv"
    _write_labelled_features(features, rng.standard_normal((10, 3)), labels)
    model = tmp_path / "m.txt"
    assert main(["train", "--features", str(features), "--output", str(model), *extra]) == 2
    assert "config error" in caplog.text
    assert not model.exists()


def test_train_drops_non_finite_rows(tmp_path, rng, caplog):
    matrix = rng.standard_normal((12, 3))
    labels = [0, 1] * 6
    clean, dirty = tmp_path / "clean.csv", tmp_path / "dirty.csv"
    _write_labelled_features(clean, matrix, labels)
    matrix = np.vstack([matrix, [[np.inf, 0.0, 1.0], [np.nan, 1.0, 0.0]]])
    _write_labelled_features(dirty, matrix, labels + [0, 1])
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["train", "--features", str(clean), "--output", str(a)]) == 0
    caplog.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--features", str(dirty), "--output", str(b)]) == 0
    dropped = [r.getMessage() for r in caplog.records if "dropping" in r.getMessage()]
    assert dropped == ["dropping 2 non-finite rows"]
    assert a.read_bytes() == b.read_bytes()


def test_eval_drops_non_finite_rows(tmp_path, rng, capsys, caplog):
    matrix = np.array([[2.0, 0.1, 0.0], [-2.0, 0.0, 0.1], [1.5, 0.2, 0.1], [-1.5, 0.1, 0.2]])
    labels = [1, 0, 1, 0]
    features, model = tmp_path / "f.csv", tmp_path / "m.txt"
    _write_labelled_features(features, np.vstack([matrix] * 4), labels * 4)
    assert main(["train", "--features", str(features), "--reg", "0.01",
                 "--output", str(model)]) == 0
    matrix[2, 1] = np.inf
    _write_labelled_features(features, matrix, labels)
    caplog.clear()
    capsys.readouterr()
    assert main(["eval", "--features", str(features), "--model", str(model)]) == 0
    out = capsys.readouterr().out
    confusion = [[int(v) for v in line.split()] for line in out.splitlines()[-2:]]
    assert np.sum(confusion) == 3
    dropped = [r.getMessage() for r in caplog.records if "dropping" in r.getMessage()]
    assert dropped == ["dropping 1 non-finite rows"]


def test_eval_features_all_non_finite_names_the_file(tmp_path, capsys, caplog):
    # an empty set is reported like an empty manifest shard, not as a
    # classifier error with no header
    matrix = np.array([[2.0, 0.1, 0.0], [-2.0, 0.0, 0.1]])
    features, model = tmp_path / "f.csv", tmp_path / "m.txt"
    _write_labelled_features(features, np.vstack([matrix] * 4), [1, 0] * 4)
    assert main(["train", "--features", str(features), "--reg", "0.01",
                 "--output", str(model)]) == 0
    _write_labelled_features(features, np.full((2, 3), np.nan), [1, 0])
    caplog.clear()
    capsys.readouterr()
    assert main(["eval", "--features", str(features), "--model", str(model)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and str(features) in errors[0]
    assert capsys.readouterr().out.splitlines() == ["scale,accuracy"]


def _train_small_model(features, model):
    matrix = np.array([[2.0, 0.1, 0.0], [-2.0, 0.0, 0.1]])
    _write_labelled_features(features, np.vstack([matrix] * 4), [1, 0] * 4)
    assert main(["train", "--features", str(features), "--reg", "0.01",
                 "--output", str(model)]) == 0


def test_relative_model_path_round_trip(tmp_path, monkeypatch, capsys):
    # a model is a program output, like --output: the relative path that
    # train wrote is the one eval reads, whatever RIESZ_DATA_DIR says
    (tmp_path / "data").mkdir()
    monkeypatch.setenv("RIESZ_DATA_DIR", str(tmp_path / "data"))
    monkeypatch.chdir(tmp_path)
    _train_small_model("f.csv", "model.txt")
    assert (tmp_path / "model.txt").is_file()
    capsys.readouterr()
    assert main(["eval", "--features", "f.csv", "--model", "model.txt"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "all,1.0000"


def test_eval_manifest_bad_scale_names_the_line(tmp_path, caplog):
    model = tmp_path / "m.txt"
    _train_small_model(tmp_path / "f.csv", model)
    manifest = tmp_path / "manifest.txt"
    # the first shard's files do not exist: the whole manifest is parsed first
    manifest.write_text(
        "scale 1 images a.idx labels b.idx\n# next\nscale abc images a.idx labels b.idx\n"
    )
    caplog.clear()
    assert main(["eval", "--manifest", str(manifest), "--model", str(model)]) == 2
    (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert f"{manifest}:3: bad scale" in error and "'abc'" in error


def test_eval_width_mismatch_names_model_and_widths(tmp_path, caplog):
    model = tmp_path / "m.txt"
    _train_small_model(tmp_path / "f.csv", model)  # 3 features per row
    # the shard files do not exist: the widths are compared before any read
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("scale 1 images a.idx labels b.idx\n")
    features = tmp_path / "wide.csv"
    _write_labelled_features(features, np.zeros((2, 4)), [0, 1])
    for flag, path, width in ("--manifest", manifest, 85), ("--features", features, 4):
        caplog.clear()
        assert main(["eval", flag, str(path), "--model", str(model)]) == 2
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert f"model {model} takes 3 features" in error and error.endswith(f" {width}")


def test_eval_truncated_model_names_the_line(tmp_path, caplog):
    features = tmp_path / "f.csv"
    model = tmp_path / "m.txt"
    _train_small_model(features, model)
    model.write_text("\n".join(model.read_text().splitlines()[:3]) + "\n")
    caplog.clear()
    assert main(["eval", "--features", str(features), "--model", str(model)]) == 1
    (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error == f"{model}: truncated, line 4 is missing"


def test_eval_manifest(tmp_path, rng, capsys, monkeypatch):
    images, labels = _two_class_images(rng, per_class=8)
    _write_idx_pair(tmp_path, images, labels, stem="s1")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        "# one shard\nscale 1 images s1-images.idx labels s1-labels.idx\n"
    )
    features = tmp_path / "features.csv"
    model = tmp_path / "model.txt"
    monkeypatch.setenv("RIESZ_DATA_DIR", str(tmp_path))
    main(["extract", "--images", "s1-images.idx", "--labels", "s1-labels.idx",
          "--depth", "1", "--output", str(features)])
    main(["train", "--features", str(features), "--output", str(model)])
    capsys.readouterr()
    code = main(["eval", "--manifest", "manifest.txt", "--model", str(model),
                 "--depth", "1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "scale,accuracy"
    scale, acc = lines[1].split(",")
    assert scale == "1"
    assert float(acc) >= 0.9


def test_eval_manifest_reports_empty_shard(tmp_path, rng, capsys, caplog, monkeypatch):
    # scale 2 has no images: it is named, the scale-1 shard is still
    # reported and written, and the exit status is 1
    images, labels = _two_class_images(rng, per_class=8)
    _write_idx_pair(tmp_path, images, labels, stem="s1")
    _write_idx_pair(tmp_path, np.empty((0, 16, 16)), [], stem="s2")
    (tmp_path / "manifest.txt").write_text(
        "scale 1 images s1-images.idx labels s1-labels.idx\n"
        "scale 2 images s2-images.idx labels s2-labels.idx\n"
    )
    monkeypatch.setenv("RIESZ_DATA_DIR", str(tmp_path))
    features, model, report = tmp_path / "f.csv", tmp_path / "m.txt", tmp_path / "acc.csv"
    main(["extract", "--images", "s1-images.idx", "--labels", "s1-labels.idx",
          "--depth", "1", "--output", str(features)])
    main(["train", "--features", str(features), "--output", str(model)])
    capsys.readouterr()
    caplog.clear()
    code = main(["eval", "--manifest", "manifest.txt", "--model", str(model),
                 "--depth", "1", "--output", str(report)])
    assert code == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    assert "scale 2" in errors[0] and "s2-images.idx" in errors[0]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "scale,accuracy" and lines[1].startswith("1,")
    assert not any(line.startswith("2,") for line in lines)
    written = report.read_text().splitlines()
    assert written[0] == "scale,accuracy" and len(written) == 2
    assert float(written[1].split(",")[1]) >= 0.9


def test_eval_manifest_malformed(tmp_path):
    manifest = tmp_path / "m.txt"
    manifest.write_text("scale 1 imgs a labels b\n")
    model = tmp_path / "model.txt"
    model.write_text("riesz-model v1\nkind svm\n")
    assert main(["eval", "--manifest", str(manifest), "--model", str(model)]) in (1, 2)


def test_bench_output(capsys):
    from rieszrep.cli import cmd_bench, resolve_config

    class Args:
        config = None

    config = resolve_config(Args())
    config["depth"] = 1
    assert cmd_bench(config, sizes=(16,), train_rows=40) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "size,stage,seconds_per_image"
    assert [line.rsplit(",", 1)[0] for line in lines[1:]] == ["16,features", "40x85,train"]
    assert all(float(line.rsplit(",", 1)[1]) > 0 for line in lines[1:])


def test_bench_features_row_runs_images_through_one_workspace(capsys, monkeypatch):
    import rieszrep.cli as cli

    workspaces = []
    original = cli.extract_features

    def spy(f, cfg, *, workspace=None):
        workspaces.append(workspace)
        return original(f, cfg, workspace=workspace)

    monkeypatch.setattr(cli, "extract_features", spy)
    config = _default_config(depth=1, bbox=True)  # bench times fixed sizes, never crops
    assert cli.cmd_bench(config, sizes=(16,), train_rows=40) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("16,features,")
    assert float(lines[1].split(",")[2]) > 0
    timed = workspaces[1:]  # the first call warms the caches
    assert len(timed) == 4 and timed[0] is not None
    assert all(w is timed[0] for w in timed)
    assert timed[0]._buffers is not None


def test_pipeline_scale_commutation_smoke(tmp_path):
    """Features of a digit and its 2x upscale agree after bbox cropping."""
    from rieszrep.preprocess import bbox_extract, rescale
    from rieszrep.representation import RieszConfig, extract_features

    img = synthetic_digit(112)
    cfg = RieszConfig(depth=3, angles=4)
    a = extract_features(bbox_extract(img), cfg)
    b = extract_features(bbox_extract(rescale(img, 2, "bilinear")), cfg)
    assert np.abs(a - b).max() / np.abs(a).max() <= 0.05
