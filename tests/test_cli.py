import inspect
import struct
import threading
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from rieszrep.cli import build_parser, data_path, load_config_file, main, resolve_config
from rieszrep.representation import feature_count
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


def _default_config(command, **overrides):
    """The config ``command`` resolves with no flags and no file."""
    return dict(resolve_config(build_parser().parse_args([command])), **overrides)


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
}
# only the commands that read the seed take the flag
_SEED = (("--seed",), "seed", None, None, int)
_RIESZ = {
    (("--depth",), "depth", None, None, int),
    (("--angles",), "angles", None, None, int),
}
_BBOX = (("--bbox",), "bbox", None, True, None)
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
    "extract": _COMMON | _RIESZ | _INPUT | {_BBOX, _OUTPUT},
    "bbox": _COMMON | _INPUT | {(("--out-dir",), "out_dir", None, None, None)},
    "train": _COMMON | {
        _FEATURES,
        (("--classifier",), "classifier", ("pca", "svm"), None, None),
        (("--components",), "components", None, None, int),
        (("--reg",), "reg", None, None, float),
        (("--epochs",), "epochs", None, None, int),
        _SEED,
        _OUTPUT,
    },
    "eval": _COMMON | _RIESZ | {
        _BBOX,
        _FEATURES,
        (("--manifest",), "manifest", None, None, None),
        _LIMIT,
        (("--model",), "model", None, None, None),
        _OUTPUT,
    },
    "verify": _COMMON | {
        _SEED,
        (("--inject-fault",), "inject_fault", ("dc-not-zeroed",), None, None),
    },
    "bench": _COMMON | _RIESZ | {_SEED},
}
_IDX_OR_DIR = (("images", "labels"), ("image_dir",))
# (required keys, input-source alternatives) that main checks before
# each handler runs
_INPUT_TABLE = {
    "extract": (("output",), _IDX_OR_DIR),
    "bbox": (("out_dir",), _IDX_OR_DIR),
    "train": (("features", "output"), ()),
    "eval": (("model",), (("features",), ("manifest",))),
    "verify": ((), ()),
    "bench": ((), ()),
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
        declared = (parser.get_default("requires"), parser.get_default("sources"))
        assert declared == _INPUT_TABLE[name], name
        # every declared key is one the command takes as a flag, and its
        # keys are exactly its flags
        dests = {a.dest for a in parser._actions}
        assert {*declared[0], *(key for keys in declared[1] for key in keys)} <= dests, name
        flags = dests - {"help", "config", "print_config", "inject_fault"}
        assert set(parser.get_default("keys")) == flags, name


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_parses_like_a_fresh_one(tmp_path, rng):
    # a flag given in one call must not carry over to the next
    images, labels = _two_class_images(rng, per_class=2)
    ipath, lpath = _write_idx_pair(tmp_path, images, labels)
    args = ["extract", "--images", str(ipath), "--labels", str(lpath), "--depth", "1", "--output"]
    cropped, after, fresh = (tmp_path / name for name in ("cropped.csv", "after.csv", "fresh.csv"))
    assert main([*args, str(cropped), "--bbox"]) == 0
    assert main([*args, str(after)]) == 0
    build_parser.cache_clear()
    assert main([*args, str(fresh)]) == 0
    assert after.read_bytes() == fresh.read_bytes()
    assert cropped.read_bytes() != fresh.read_bytes()


def test_reused_parser_drops_the_injected_fault(capsys):
    assert main(["verify", "--inject-fault", "dc-not-zeroed"]) == 1
    capsys.readouterr()
    assert main(["verify"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "12/12 properties passed"


def test_reused_parser_drops_print_config(capsys):
    assert main(["train", "--print-config"]) == 2
    assert "seed = " in capsys.readouterr().out
    assert main(["train"]) == 2
    assert capsys.readouterr().out == ""


def test_reused_parser_drops_verbose(tmp_path, caplog):
    # -v belongs to the top-level parser, whose defaults a shared
    # namespace would not reset
    argv = ["train", "--features", str(tmp_path / "missing.csv"), "--output", "m.txt"]
    assert main(["-v", *argv]) == 1
    assert main(argv) == 1
    first, second = [r for r in caplog.records if r.levelname == "ERROR"]
    assert first.exc_info and not second.exc_info


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "riesz.cfg"
    cfg.write_text("depht = 3\n")
    assert main(["verify", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("command", ["verify", "extract"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_config_file_exits_2_naming_it(tmp_path, caplog, command, kind):
    # like one that does not parse; an unreadable manifest or dataset
    # file stays a runtime error
    cfg = tmp_path / "riesz.cfg"
    if kind == "directory":
        cfg.mkdir()
    assert main([command, "--config", str(cfg)]) == 2
    assert f"config error: {cfg}: " in caplog.text


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "riesz.cfg"
    cfg.write_text("# comment\ndepth = 2\nangles = 8\nreg = 0.5  # inline\n")
    values = load_config_file(cfg)
    assert values == {"depth": 2, "angles": 8, "reg": 0.5}


def test_config_file_repeated_key_exits_2_naming_both_lines(tmp_path, capsys, caplog):
    # the second value is refused, not silently taken, before the config
    # is printed or train's missing feature file (exit 1) is read; a flag
    # still overrides the file's one value (test_print_config)
    cfg = tmp_path / "riesz.cfg"
    cfg.write_text("seed = 1\n# a comment\nseed = 2\n")
    argv = ["train", "--config", str(cfg), "--print-config",
            "--features", str(tmp_path / "missing.csv"), "--output", str(tmp_path / "m.txt")]
    assert main(argv) == 2
    assert capsys.readouterr().out == ""
    (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error == f"config error: {cfg}:3: seed is already set on line 1"


@pytest.mark.parametrize("flag", [["--pooling", "max"], ["--presmooth-sigma", "1"], ["--pad", "3"],
                                  ["--threshold", "0.5"], ["--enlarge", "0.4"], ["--bbox"],
                                  ["--scale-constant", "0.5"]])
def test_removed_riesz_flags_exit_2(capsys, flag):
    # the command line sets the representation by depth and angles
    # alone (the scale constant stays 1), a crop by find_crops'
    # defaults, and riesz bbox always crops
    commands = {"--bbox": ["bbox"], "--scale-constant": ["extract", "eval", "bench"]}
    for command in commands.get(flag[0], ["extract", "eval", "bbox"]):
        with pytest.raises(SystemExit) as exc:
            main([command, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["pooling = mean", "presmooth_sigma = 1.5", "pad = 3",
                                  "threshold = 0.5", "enlarge = 0.4", "scale_constant = 0.5"])
def test_removed_riesz_keys_are_unknown(tmp_path, caplog, line):
    cfg = tmp_path / "riesz.cfg"
    cfg.write_text(line + "\n")
    assert main(["extract", "--config", str(cfg), "--output", "f.csv"]) == 2
    key = line.split()[0]
    assert f"{cfg}:1: unknown key {key!r}" in caplog.text


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


def test_print_config(tmp_path, capsys, caplog):
    cfg = tmp_path / "riesz.cfg"
    cfg.write_text("depth = 2\nepochs = 7\nseed = 3\n")
    # flag overrides file; the config is printed before train stops at
    # its missing inputs, and holds train's keys alone: the file's depth
    # is another command's key, parsed and ignored
    assert main(["train", "--config", str(cfg), "--print-config", "--seed", "5"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out == ["classifier = svm", "components = 20", "epochs = 7", "features = None",
                   "output = None", "reg = 0.0001", "seed = 5"]
    (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error == "config error: train requires 'features' and 'output'"


def test_print_config_of_bbox_holds_only_its_keys(tmp_path, capsys):
    # riesz bbox always crops: a file's bbox switch, seed and classifier
    # are other commands' keys, which it neither prints nor reads
    images = np.stack([synthetic_digit(32), synthetic_digit(32)])
    ipath, lpath = _write_idx_pair(tmp_path, images, [0, 0])
    cfg = tmp_path / "riesz.cfg"
    cfg.write_text("bbox = 0\nseed = 4\nclassifier = pca\nlimit = 1\n")
    out_dir = tmp_path / "crops"
    argv = ["bbox", "--config", str(cfg), "--print-config", "--images", str(ipath),
            "--labels", str(lpath), "--out-dir", str(out_dir)]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "image_dir = None", f"images = {ipath}", f"labels = {lpath}", "limit = 1",
        f"out_dir = {out_dir}"]
    assert [p.name for p in out_dir.iterdir()] == ["crop_00000.pgm"]


_IMAGE_SOURCES = "'images'+'labels' or 'image_dir'"


@pytest.mark.parametrize(
    "argv, config_line, message",
    [
        (["extract", "--images", "i.idx", "--labels", "l.idx"], None, "extract requires 'output'"),
        (["extract", "--image-dir", "d"], None, "extract requires 'output'"),
        (["extract", "--output", "out"], None, f"extract requires {_IMAGE_SOURCES}"),
        (["extract", "--images", "i.idx", "--output", "out"], None,
         f"extract requires {_IMAGE_SOURCES}"),
        (["extract", "--labels", "l.idx", "--output", "out"], None,
         f"extract requires {_IMAGE_SOURCES}"),
        (["extract", "--output", "out"], "images = i.idx", f"extract requires {_IMAGE_SOURCES}"),
        (["bbox", "--images", "i.idx", "--labels", "l.idx"], None, "bbox requires 'out_dir'"),
        (["bbox", "--out-dir", "out"], None, f"bbox requires {_IMAGE_SOURCES}"),
        (["bbox", "--images", "i.idx", "--out-dir", "out"], None,
         f"bbox requires {_IMAGE_SOURCES}"),
        (["bbox", "--labels", "l.idx", "--out-dir", "out"], None,
         f"bbox requires {_IMAGE_SOURCES}"),
        (["train", "--features", "f.csv"], None, "train requires 'features' and 'output'"),
        (["train", "--output", "out"], None, "train requires 'features' and 'output'"),
        (["train"], "features = f.csv", "train requires 'features' and 'output'"),
        (["eval", "--features", "f.csv"], None, "eval requires 'model'"),
        (["eval", "--manifest", "m.txt"], None, "eval requires 'model'"),
        (["eval", "--model", "m.txt"], None, "eval requires 'features' or 'manifest'"),
        # a config file's image directory is no source for eval
        (["eval", "--model", "m.txt"], "image_dir = d", "eval requires 'features' or 'manifest'"),
    ],
    ids=["extract-no-output-idx", "extract-no-output-dir", "extract-no-source",
         "extract-images-without-labels", "extract-labels-without-images",
         "extract-config-file-images-without-labels", "bbox-no-out-dir", "bbox-no-source",
         "bbox-images-without-labels", "bbox-labels-without-images", "train-no-output",
         "train-no-features", "train-config-file-no-output", "eval-features-no-model",
         "eval-manifest-no-model", "eval-model-no-source", "eval-config-file-dir-no-source"],
)
def test_missing_required_option(tmp_path, monkeypatch, caplog, argv, config_line, message):
    # no input file exists, the model included: reading one would exit 1
    monkeypatch.chdir(tmp_path)
    if config_line:
        (tmp_path / "riesz.cfg").write_text(config_line + "\n")
        argv = [*argv, "--config", "riesz.cfg"]
    assert main(argv) == 2
    (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error == f"config error: {message}"
    assert not (tmp_path / "out").exists()


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


def _no_images(tmp_path, rng, trigger):
    """An IDX pair and flags that give no images: an empty file, or --limit 0."""
    if trigger == "empty-idx":
        ipath, lpath = _write_idx_pair(tmp_path, np.empty((0, 8, 8)), [])
        return ipath, ["--images", str(ipath), "--labels", str(lpath)]
    ipath, lpath = _write_idx_pair(tmp_path, rng.random((2, 8, 8)), [0, 1])
    return ipath, ["--images", str(ipath), "--labels", str(lpath), "--limit", "0"]


@pytest.mark.parametrize("trigger", ["empty-idx", "limit-0"])
def test_extract_without_images_is_config_error(tmp_path, rng, caplog, trigger):
    ipath, args = _no_images(tmp_path, rng, trigger)
    out = tmp_path / "f.csv"
    code = main(["extract", *args, "--output", str(out)])
    assert code == 2
    assert f"no input images to extract from {ipath}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("trigger", ["empty-idx", "limit-0"])
def test_bbox_without_images_is_config_error(tmp_path, rng, caplog, trigger):
    ipath, args = _no_images(tmp_path, rng, trigger)
    out_dir = tmp_path / "crops"
    assert main(["bbox", *args, "--out-dir", str(out_dir)]) == 2
    assert f"no input images to crop from {ipath}" in caplog.text
    assert not out_dir.exists()


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


def test_extract_limit_reads_only_the_first_files(tmp_path, rng):
    from rieszrep.image_core import save_gray_pgm
    from rieszrep.representation import read_features_csv

    d = tmp_path / "imgs"
    d.mkdir()
    save_gray_pgm(d / "a.pgm", rng.random((8, 8)))
    # sorted after a.pgm, so --limit 1 never reads it
    (d / "b.pgm").write_bytes(b"P5\n8 8\n0\n")
    out = tmp_path / "f.csv"
    assert main(["extract", "--image-dir", str(d), "--depth", "0", "--limit", "1",
                 "--output", str(out)]) == 0
    matrix, _, _ = read_features_csv(out)
    assert matrix.shape == (1, 1)
    assert main(["extract", "--image-dir", str(d), "--depth", "0", "--limit", "2",
                 "--output", str(out)]) == 1


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
    assert "image 1 flagged: feature maps or their means are not finite" in caplog.text


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
        "image 0 flagged: feature maps or their means are not finite"
    ]


@pytest.mark.parametrize(
    "shape, depth",
    [
        ((19, 67), 3),  # width on the DFT-matrix path
        ((8, 8), 0),  # only the mean overflows
    ],
    ids=["dft-matrix-width", "depth-0"],
)
def test_overflowing_image_flagged_once(tmp_path, caplog, shape, depth):
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
    assert flagged == ["image 0 flagged: feature maps or their means are not finite"]
    matrix, _, _ = read_features_csv(out)
    assert matrix.shape == (1, feature_count(depth, 4)) and np.isnan(matrix).all()


@pytest.mark.parametrize(
    "argv, config_line, key",
    [
        (["extract", "--limit", "-1"], None, "limit"),
        (["bbox", "--limit", "-2"], None, "limit"),
        (["extract", "--angles", "3"], None, "angles"),
        (["extract", "--depth", "-1"], None, "depth"),
        (["extract"], "angles = 6", "angles"),
    ],
    ids=["limit", "bbox-limit", "angles", "depth", "config-file-angles"],
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


@pytest.mark.parametrize(
    "argv, config_line",
    [
        (["train", "--seed", "-1"], None),
        (["train"], "seed = -3"),
        (["verify", "--seed", "-1"], None),
        (["bench", "--seed", "-1"], None),
        (["bench"], "seed = -2"),
    ],
    ids=["train", "train-config-file", "verify", "bench", "bench-config-file"],
)
def test_negative_seed_exits_2_before_any_file_is_read(tmp_path, caplog, argv, config_line):
    # train's feature file does not exist: reading it would exit 1
    if argv[0] == "train":
        argv = [*argv, "--features", str(tmp_path / "f.csv"), "--output", str(tmp_path / "m")]
    if config_line:
        cfg = tmp_path / "riesz.cfg"
        cfg.write_text(config_line + "\n")
        argv = [*argv, "--config", str(cfg)]
    assert main(argv) == 2
    (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error.startswith("config error: seed must be >= 0")


@pytest.mark.parametrize(
    "argv, config_line, message",
    [
        (["--epochs", "-1"], None, "epochs must be >= 1, got -1"),
        (["--epochs", "0"], None, "epochs must be >= 1, got 0"),
        ([], "epochs = -2", "epochs must be >= 1, got -2"),
        (["--components", "0"], None, "components must be >= 1, got 0"),
        ([], "components = -1", "components must be >= 1, got -1"),
        (["--reg", "nan"], None, "reg must be finite and >= 0, got nan"),
        (["--reg", "-0.5"], None, "reg must be finite and >= 0, got -0.5"),
        ([], "reg = inf", "reg must be finite and >= 0, got inf"),
        ([], "classifier = foo", "unknown classifier 'foo'"),
    ],
    ids=["epochs-negative", "epochs-zero", "config-file-epochs", "components-zero",
         "config-file-components", "reg-nan", "reg-negative", "config-file-reg-inf",
         "config-file-classifier"],
)
@pytest.mark.parametrize("csv", ["missing", "existing"])
def test_train_settings_exit_2_before_any_file_is_read(tmp_path, caplog, argv, config_line, message, csv):
    # the same exit and message whether or not the feature file exists:
    # reading a missing one would exit 1
    features = tmp_path / "f.csv"
    if csv == "existing":
        features.write_text("[0],label\n0.5,0\n0.25,1\n")
    argv = ["train", *argv, "--features", str(features), "--output", str(tmp_path / "m")]
    if config_line:
        cfg = tmp_path / "riesz.cfg"
        cfg.write_text(config_line + "\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error == f"config error: {message}"
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize(
    "argv, config_line, keys",
    [
        (["extract", "--image-dir", "d", "--labels", "l.idx"], None, ("labels", "image_dir")),
        (["extract", "--images", "i.idx", "--labels", "l.idx", "--image-dir", "d"], None,
         ("images", "image_dir")),
        (["extract", "--labels", "l.idx"], "image_dir = d", ("labels", "image_dir")),
        (["extract", "--images", "i.idx", "--image-dir", "d"], None, ("images", "image_dir")),
        (["bbox", "--images", "i.idx", "--labels", "l.idx"], "image_dir = d",
         ("images", "image_dir")),
        (["bbox", "--image-dir", "d", "--labels", "l.idx"], None, ("labels", "image_dir")),
        (["bbox", "--images", "i.idx", "--image-dir", "d"], None, ("images", "image_dir")),
        (["eval", "--features", "f.csv", "--manifest", "m.txt"], None, ("features", "manifest")),
        (["eval", "--features", "f.csv"], "manifest = m.txt", ("features", "manifest")),
    ],
    ids=["dir-labels", "idx-dir", "config-file-dir", "images-dir", "bbox-config-file-dir",
         "bbox-dir-labels", "bbox-images-dir", "features-manifest", "config-file-manifest"],
)
def test_conflicting_input_sources_exit_2_before_any_read(
    tmp_path, monkeypatch, caplog, argv, config_line, keys
):
    # no input file exists: reading one would exit 1
    monkeypatch.chdir(tmp_path)
    out = {"extract": "--output", "bbox": "--out-dir", "eval": "--model"}[argv[0]]
    argv = [*argv, out, "out"]
    if config_line:
        (tmp_path / "riesz.cfg").write_text(config_line + "\n")
        argv += ["--config", "riesz.cfg"]
    assert main(argv) == 2
    (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error.startswith(f"config error: '{keys[0]}' and '{keys[1]}' cannot both be given")
    assert not (tmp_path / "out").exists()


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
    # finite, but max - min overflows: it cannot be normalized
    (d / "c.txt").write_text("2 2\n-1e308 1\n0 1e308\n")
    out_dir = tmp_path / "crops"
    assert main(["bbox", "--image-dir", str(d), "--out-dir", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["crop_00000.pgm"]
    assert "image 1 skipped: image contains non-finite samples" in caplog.text
    assert "image 2 skipped: sample range overflows float64" in caplog.text


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


def test_finite_rows_returns_finite_inputs_themselves(rng, caplog):
    from rieszrep.cli import _finite_rows

    matrix, labels = rng.standard_normal((6, 3)), np.arange(6) % 2
    kept_matrix, kept_labels = _finite_rows(matrix, labels)
    assert kept_matrix is matrix and kept_labels is labels
    assert "dropping" not in caplog.text
    matrix[4, 1] = -np.inf
    kept_matrix, kept_labels = _finite_rows(matrix, labels)
    assert_array_equal(kept_matrix, np.delete(matrix, 4, axis=0))
    assert_array_equal(kept_labels, [0, 1, 0, 1, 1])


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


def test_train_features_all_non_finite_names_the_file(tmp_path, caplog):
    # every training image blank or flagged is a data condition, as in
    # eval: an error naming the file, no model, exit 1
    features, model = tmp_path / "f.csv", tmp_path / "m.txt"
    _write_labelled_features(features, np.full((2, 1), np.nan), [1, 0])
    caplog.clear()
    assert main(["train", "--features", str(features), "--output", str(model)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and str(features) in errors[0]
    assert "config error" not in caplog.text
    assert not model.exists()


@pytest.mark.parametrize("classifier", ["svm", "pca"])
def test_train_features_without_feature_columns_names_the_file(tmp_path, caplog, classifier):
    # a model of dim 0 would only be refused later, by eval
    features, model = tmp_path / "f.csv", tmp_path / "m.txt"
    features.write_text("label\r\n0\r\n1\r\n", encoding="ascii")
    caplog.clear()
    argv = ["train", "--features", str(features), "--classifier", classifier, "--output", str(model)]
    assert main(argv) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and str(features) in errors[0] and "no feature columns" in errors[0]
    assert not model.exists()


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


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-2"])
def test_eval_manifest_scale_not_finite_and_positive_names_the_line(tmp_path, caplog, scale):
    model = tmp_path / "m.txt"
    _train_small_model(tmp_path / "f.csv", model)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        f"scale 1 images a.idx labels b.idx\nscale {scale} images a.idx labels b.idx\n"
    )
    caplog.clear()
    assert main(["eval", "--manifest", str(manifest), "--model", str(model)]) == 2
    (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert f"{manifest}:2: bad scale {scale!r}: not finite and positive" in error


@pytest.mark.parametrize("kind", ["idx-header", "p2-sample", "model-dim", "config-bytes"])
def test_reader_errors_reach_the_cli_naming_the_file(tmp_path, rng, caplog, kind):
    # exit 1 with the reader's message (exit 2 for a config file), never an empty one
    ipath, lpath = _write_idx_pair(tmp_path, rng.random((2, 8, 8)), [0, 1])
    out = tmp_path / "f.csv"
    argv = ["extract", "--images", str(ipath), "--labels", str(lpath), "--output", str(out)]
    code, bad = 1, ipath
    if kind == "idx-header":
        ipath.write_bytes(struct.pack(">iiii", 0x803, 48, 33554432, 50343217) + bytes(27))
    elif kind == "p2-sample":
        bad = tmp_path / "imgs" / "a.pgm"
        bad.parent.mkdir()
        bad.write_text("P2\n2 1\n255\n300 0\n")
        argv = ["extract", "--image-dir", str(bad.parent), "--output", str(out)]
    elif kind == "model-dim":
        bad = tmp_path / "model.txt"
        bad.write_text("riesz-model v1\nkind svm\nclasses 2 dim 999999999995\n"
                       "hyper reg 0.1 epochs 1 seed 0\nnormalized 0\n1 2\n3 4\n0 0\n")
        argv = ["eval", "--features", str(out), "--model", str(bad)]
    else:
        bad = tmp_path / "riesz.cfg"
        bad.write_bytes(b"depth = 2\n\xff\n")
        argv += ["--config", str(bad)]
        code = 2
    caplog.clear()
    assert main(argv) == code
    (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert str(bad) in error
    assert not out.exists()


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


def test_eval_model_with_trailing_line_fails(tmp_path, caplog):
    features = tmp_path / "f.csv"
    model = tmp_path / "m.txt"
    _train_small_model(features, model)
    n_lines = len(model.read_text().splitlines())
    with open(model, "a", encoding="ascii") as fh:
        fh.write("riesz-model v1\n")
    caplog.clear()
    assert main(["eval", "--features", str(features), "--model", str(model)]) == 1
    (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error.startswith(f"{model}: bad line {n_lines + 1} 'riesz-model v1'")


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
    # eval reads no image directory, so one in a shared config file is no second source
    shared = tmp_path / "shared.cfg"
    shared.write_text("image_dir = crops\n")
    code = main(["eval", "--manifest", "manifest.txt", "--model", str(model),
                 "--depth", "1", "--config", str(shared)])
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
    from rieszrep.cli import cmd_bench

    config = _default_config("bench", depth=1)
    # the scale-4 crop shape in both orientations and 16 scale-1 crops
    # close the default size list
    crops = inspect.signature(cmd_bench).parameters["sizes"].default[-3:]
    assert crops == ((97, 67), (67, 97), (25, 17, 16))
    assert cmd_bench(config, sizes=(16, *crops), train_rows=40) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "size,stage,seconds_per_image"
    rows = [line.rsplit(",", 1)[0] for line in lines[1:]]
    assert rows == ["16,features", "97x67,features", "67x97,features", "25x17*16,features", "40x85,train"]
    assert all(float(line.rsplit(",", 1)[1]) > 0 for line in lines[1:])


@pytest.mark.parametrize("cpus", [1, 2])
def test_bench_features_row_runs_images_through_one_workspace_per_thread(capsys, monkeypatch, cpus):
    import rieszrep.cli as cli
    import rieszrep.extraction as extraction

    monkeypatch.setattr(extraction.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    calls = []
    original = extraction.extract_features

    def spy(f, cfg, *, workspace=None):
        calls.append((threading.get_ident(), workspace, len(f) if np.ndim(f) == 3 else 1))
        return original(f, cfg, workspace=workspace)

    monkeypatch.setattr(extraction, "extract_features", spy)
    config = _default_config("bench", depth=1, bbox=True)  # bench times fixed sizes, never crops
    assert cli.cmd_bench(config, sizes=(16,), train_rows=40) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("16,features,")
    assert float(lines[1].split(",")[2]) > 0
    timed = calls[1:]  # the first run, of one image, warms the caches
    # the four images, counted as stack members
    assert sum(n for _, _, n in timed) == 4 and all(w is not None for _, w, _ in timed)
    # one workspace per thread, never shared between threads
    per_thread = {}
    for ident, workspace, _ in timed:
        per_thread.setdefault(ident, []).append(workspace)
    assert 1 <= len(per_thread) <= cpus
    owners = [ws[0] for ws in per_thread.values()]
    assert len({id(w) for w in owners}) == len(owners)
    for ws in per_thread.values():
        assert all(w is ws[0] for w in ws)
        # a second call with the same stack shape keeps the buffers it allocates
        assert (ws[0]._buffers is not None) == (len(ws) > 1)
    if cpus == 1:
        assert len(per_thread) == 1


def test_pipeline_scale_commutation_smoke(tmp_path):
    """Features of a digit and its 2x rendering agree after bbox cropping."""
    from rieszrep.preprocess import bbox_compute
    from rieszrep.representation import RieszConfig, extract_features

    cfg = RieszConfig(depth=3, angles=4)
    a = extract_features(bbox_compute(synthetic_digit(112))[0], cfg)
    b = extract_features(bbox_compute(synthetic_digit(224))[0], cfg)
    assert np.abs(a - b).max() / np.abs(a).max() <= 0.05
