"""The extraction run as a library call: flags come back as data."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rieszrep
import rieszrep.extraction as extraction
from rieszrep.cli import main
from rieszrep.image_core import load_idx
from rieszrep.representation import NON_FINITE_FEATURES, RieszConfig

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
