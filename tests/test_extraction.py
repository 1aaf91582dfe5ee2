"""The extraction run as a library call: flags come back as data."""

import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import rieszrep
import rieszrep.extraction as extraction
from rieszrep.cli import main
from rieszrep.image_core import IdxImages, load_idx
from rieszrep.preprocess import Crop
from rieszrep.representation import NON_FINITE_FEATURES, RieszConfig, extract_features, group_size

CFG = RieszConfig(depth=1, angles=4)
CROP = {"pad": 50, "threshold": 0.5, "enlarge": 0.4}  # the CLI's defaults
BLANK = "no foreground pixels above threshold"
NON_FINITE_SAMPLES = "image contains non-finite samples"
OVERFLOWING_RANGE = "sample range overflows float64"


def _idx_input(tmp_path, rng):
    """Ten 12x10 IDX images, one all zeros and one constant; the CLI
    arguments that read them and, with and without crops, their flags."""
    pixels = rng.integers(0, 256, (10, 12, 10), dtype=np.uint8)
    pixels[3] = 0
    pixels[6] = 200
    ipath, lpath = tmp_path / "images.idx", tmp_path / "labels.idx"
    ipath.write_bytes(struct.pack(">iiii", 0x803, *pixels.shape) + pixels.tobytes())
    lpath.write_bytes(struct.pack(">ii", 0x801, len(pixels)) + bytes(len(pixels)))
    images, _ = load_idx(ipath, lpath)
    args = ["--images", str(ipath), "--labels", str(lpath)]
    return images, args, {"bbox": {3: BLANK, 6: BLANK}, "whole": {}}


def _list_input(tmp_path, rng):
    """Ten 12x10 float images, among them a blank, a nan, one whose range
    overflows and one whose features overflow; the CLI arguments that
    read them as matrix text and, with and without crops, their flags."""
    images = [rng.random((12, 10)) for _ in range(10)]
    images[1] = np.zeros((12, 10))
    images[8][5, 5] = np.nan  # flagged when taken, before 4 and 7 are
    images[4] = rng.random((12, 10)) * 1.7e308
    images[4][0, 0] = -1.7e308
    images[7] = np.full((12, 10), 1e308)
    directory = tmp_path / "images"
    directory.mkdir()
    for i, img in enumerate(images):
        rows = "\n".join(" ".join(format(v, ".17g") for v in row) for row in img)
        (directory / f"{i:02d}.txt").write_text(f"12 10\n{rows}\n")
    flags = {
        "bbox": {1: BLANK, 4: OVERFLOWING_RANGE, 7: BLANK, 8: NON_FINITE_SAMPLES},
        "whole": {4: NON_FINITE_FEATURES, 7: NON_FINITE_FEATURES, 8: NON_FINITE_SAMPLES},
    }
    return images, ["--image-dir", str(directory)], flags


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("make_input", [_idx_input, _list_input], ids=["idx", "list"])
def test_flags_are_returned_as_data(tmp_path, rng, monkeypatch, caplog, cpus, make_input):
    # each flagged index maps to its reason, in index order, and the
    # flag lines of `riesz extract` on the same images are that dict
    monkeypatch.setattr(extraction.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    images, args, expected = make_input(tmp_path, rng)
    for mode, crop, flag in (("whole", None, []), ("bbox", CROP, ["--bbox"])):
        matrix, flagged = extraction.extract_matrix(images, CFG, crop)
        assert flagged == expected[mode]
        assert list(flagged) == sorted(flagged)
        nan_rows = np.isnan(matrix).all(axis=1)
        assert nan_rows.tolist() == [i in flagged for i in range(len(images))]
        assert np.isfinite(matrix[~nan_rows]).all()
        caplog.clear()
        argv = ["extract", *args, "--depth", "1", *flag, "--output", str(tmp_path / "f.csv")]
        assert main(argv) == 0
        lines = [r.getMessage() for r in caplog.records if " flagged: " in r.getMessage()]
        assert lines == [f"image {i} flagged: {reason}" for i, reason in flagged.items()]


def test_importing_extraction_leaves_the_cli_unimported():
    # in a fresh interpreter, so that no other test's import counts
    code = (
        "import sys, rieszrep.extraction\n"
        "print(rieszrep.extraction.__file__)\n"
        "print('rieszrep.cli' in sys.modules)\n"
    )
    src = Path(rieszrep.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    path, imported = out.stdout.splitlines()
    assert Path(path).resolve() == Path(extraction.__file__).resolve()
    assert imported == "False"


def test_extract_matrix_shape_sequence_matches_single_calls(rng):
    # shapes A A A B A A B B with an overflowing image inside the first A run
    cfg = RieszConfig(depth=2, angles=4)
    shapes = [(24, 20), (24, 20), (24, 20), (17, 31), (24, 20), (24, 20), (17, 31), (17, 31)]
    images = [rng.random(shape) for shape in shapes]
    images[1] = np.full(shapes[1], 1e308)
    with np.errstate(all="ignore"):
        matrix, flagged = extraction.extract_matrix(images, cfg)
    assert matrix.shape == (8, 21)
    assert np.isnan(matrix[1]).all()
    assert flagged == {1: NON_FINITE_FEATURES}
    for i in (0, 2, 3, 4, 5, 6, 7):
        assert_array_equal(matrix[i], extract_features(images[i], cfg))


def test_extract_matrix_of_no_images_has_feature_width():
    matrix, flagged = extraction.extract_matrix([], RieszConfig(), CROP)
    assert matrix.shape == (0, 85) and flagged == {}
    matrix, flagged = extraction.extract_matrix(np.empty((0, 8, 8)), RieszConfig(depth=2, angles=8))
    assert matrix.shape == (0, 73) and flagged == {}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("crop", [None, dict(CROP, pad=0, enlarge=0.0)], ids=["whole", "bbox"])
def test_extract_matrix_holds_at_most_one_batch_per_worker(monkeypatch, rng, cpus, crop):
    # 150 20x20 IDX images in batches of group_size(20, 20, 4) = 20, or
    # cropped to squares of eight sizes, each size one batch; the images
    # converted (IdxImages.__getitem__) or cut (Crop.cut) and not yet
    # extracted never number more than one batch per worker, and reach
    # one batch
    monkeypatch.setattr(extraction.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    lock = threading.Lock()
    count = {"taken": 0, "done": 0}
    held, stacks = [], []

    def counted(method):
        def taken(*args):
            image = method(*args)
            with lock:
                count["taken"] += 1
                held.append(count["taken"] - count["done"])
            return image
        return taken

    monkeypatch.setattr(IdxImages, "__getitem__", counted(IdxImages.__getitem__))
    monkeypatch.setattr(Crop, "cut", counted(Crop.cut))
    original = extraction.extract_features

    def spy(f, cfg, *, workspace=None):
        features = original(f, cfg, workspace=workspace)
        with lock:
            stacks.append(len(f))
            count["done"] += len(f)
        return features

    monkeypatch.setattr(extraction, "extract_features", spy)
    pixels = np.zeros((150, 20, 20), dtype=np.uint8)
    for i, img in enumerate(pixels):
        size = 4 + i % 8
        # every pixel of the square is foreground, so its crop is the square
        img[2 : 2 + size, 3 : 3 + size] = rng.integers(128, 256, (size, size))
    pixels[5] = 0  # blank: flagged with crops, before any cut
    matrix, flagged = extraction.extract_matrix(IdxImages(pixels), RieszConfig(depth=1, angles=4), crop)
    assert group_size(20, 20, 4) == 20
    assert sorted(stacks, reverse=True)[:cpus] == ([19] if crop else [20]) * cpus
    assert count == dict.fromkeys(["taken", "done"], 150 - len(flagged))
    assert max(held) <= cpus * max(stacks)
    if cpus == 1:
        assert max(held) == max(stacks)
    assert np.isnan(matrix).all(axis=1).tolist() == [i in flagged for i in range(150)]


@pytest.mark.parametrize("count, helper", [(16, False), (20, True)])
def test_extract_matrix_starts_the_helper_only_for_two_batches(monkeypatch, rng, count, helper):
    # 19 25x17 images fill a stack at M=4: riesz bench's 25x17*16 row is
    # one batch, which the calling thread extracts alone
    monkeypatch.setattr(extraction.os, "sched_getaffinity", lambda pid: {0, 1})
    original = extraction.extract_features
    threads = []

    def spy(f, cfg, *, workspace=None):
        threads.append(threading.active_count())
        return original(f, cfg, workspace=workspace)

    monkeypatch.setattr(extraction, "extract_features", spy)
    assert group_size(25, 17, 4) == 19
    before = threading.active_count()
    matrix, _ = extraction.extract_matrix(rng.random((count, 25, 17)), RieszConfig(depth=1, angles=4))
    assert len(threads) == 1 + helper and set(threads) == {before + helper}
    assert threading.active_count() == before and np.isfinite(matrix).all()
