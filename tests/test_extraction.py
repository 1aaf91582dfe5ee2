"""The extraction run as a library call: flags come back as data."""

import os
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import rieszrep
import rieszrep.extraction as extraction
from rieszrep.cli import main
from rieszrep.image_core import IdxImages, NonFiniteImageError, as_image, load_idx
from rieszrep.preprocess import BlankImageError, Crop, bbox_compute
from rieszrep.representation import (
    NON_FINITE_FEATURES, RieszConfig, extract_features, feature_count, group_size
)

from conftest import synthetic_digit

CFG = RieszConfig(depth=1, angles=4)
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
    images[8][5, 5] = np.nan  # flagged while planning, before 4 and 7 are
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
    for mode, bbox, flag in (("whole", False, []), ("bbox", True, ["--bbox"])):
        matrix, flagged = extraction.extract_matrix(images, CFG, bbox)
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


@pytest.mark.parametrize("cpus", [1, 2])
def test_list_images_are_checked_once(tmp_path, rng, monkeypatch, cpus):
    # planning runs as_image on each list image; its batch only converts.
    # Nested lists and integers convert as as_image converts them
    monkeypatch.setattr(extraction.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    images, _, expected = _list_input(tmp_path, rng)
    images += [rng.random((12, 10)).tolist(), rng.integers(0, 9, (12, 10))]
    calls = []

    def counted(a, stack=False):
        calls.append(stack)
        return as_image(a, stack)

    monkeypatch.setattr(extraction, "as_image", counted)
    matrix, flagged = extraction.extract_matrix(images, CFG)
    assert calls == [False] * len(images)
    assert flagged == expected["whole"]
    for index in (10, 11):
        want = extract_features(as_image(images[index]), CFG)
        assert matrix[index].tobytes() == want.tobytes()


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
    matrix, flagged = extraction.extract_matrix([], RieszConfig(), bbox=True)
    assert matrix.shape == (0, 85) and flagged == {}
    matrix, flagged = extraction.extract_matrix(np.empty((0, 8, 8)), RieszConfig(depth=2, angles=8))
    assert matrix.shape == (0, 73) and flagged == {}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("bbox", [False, True], ids=["whole", "bbox"])
def test_extract_matrix_holds_at_most_one_batch_per_worker(monkeypatch, rng, cpus, bbox):
    # 150 20x20 IDX images in batches of group_size(20, 20, 4) = 20, or
    # cropped to eight sizes, each size one batch; the images
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

    def spy(f, cfg):
        features = original(f, cfg)
        with lock:
            stacks.append(len(f))
            count["done"] += len(f)
        return features

    monkeypatch.setattr(extraction, "extract_features", spy)
    pixels = np.zeros((150, 20, 20), dtype=np.uint8)
    for i, img in enumerate(pixels):
        size = 4 + i % 8
        # every pixel of the square is foreground, so its size sets the crop's
        img[2 : 2 + size, 3 : 3 + size] = rng.integers(128, 256, (size, size))
    pixels[5] = 0  # blank: flagged with crops, before any cut
    matrix, flagged = extraction.extract_matrix(IdxImages(pixels), RieszConfig(depth=1, angles=4), bbox)
    assert group_size(20, 20, 4) == 20
    assert sorted(stacks, reverse=True)[:cpus] == ([19] if bbox else [20]) * cpus
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

    def spy(f, cfg):
        threads.append(threading.active_count())
        return original(f, cfg)

    monkeypatch.setattr(extraction, "extract_features", spy)
    assert group_size(25, 17, 4) == 19
    before = threading.active_count()
    matrix, _ = extraction.extract_matrix(rng.random((count, 25, 17)), RieszConfig(depth=1, angles=4))
    assert len(threads) == 1 + helper and set(threads) == {before + helper}
    assert threading.active_count() == before and np.isfinite(matrix).all()


def _mixed_images(rng):
    """Two crop sizes, a blank, a nan image and 128x128 noise, repeated."""
    noise = rng.random((128, 128))
    noise[[0, -1], :] = noise[:, [0, -1]] = 1.0  # its tight box is the whole image
    images = [
        synthetic_digit(48),
        np.zeros((30, 30)),
        synthetic_digit(96),
        np.full((20, 20), np.nan),
        noise,
        synthetic_digit(48),
        synthetic_digit(96),
        np.zeros((12, 12)),
        synthetic_digit(48)[::-1],
    ]
    return images, {1: "no foreground pixels above threshold",
                    3: "image contains non-finite samples",
                    7: "no foreground pixels above threshold"}


@pytest.mark.parametrize("cpus", [1, 2])
def test_extract_matrix_threads_match_serial_rows(monkeypatch, rng, cpus):
    # rows stored by index on either thread equal one-image-at-a-time
    # extraction byte for byte; flags come once each, in index order
    monkeypatch.setattr(extraction.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert extraction._thread_count() == cpus
    images, flagged = _mixed_images(rng)
    cfg = RieszConfig(depth=2, angles=8)
    before = threading.active_count()
    matrix, returned = extraction.extract_matrix(images, cfg, bbox=True)
    assert threading.active_count() == before
    assert matrix.shape == (len(images), 73)
    # the noise image's crop, its whole 128x128 enlarged, fills an engine group alone
    assert bbox_compute(images[4])[0].shape == (180, 180) and group_size(180, 180, 8) == 1
    for i, img in enumerate(images):
        if i in flagged:
            assert np.isnan(matrix[i]).all()
        else:
            expected = extract_features(bbox_compute(img)[0], cfg)
            assert matrix[i].tobytes() == expected.tobytes()
    assert list(returned.items()) == sorted(flagged.items())


def test_extract_matrix_takes_each_index_once_under_fast_switching(monkeypatch):
    # image i is constant i, so its mean feature names it; a thread
    # switch every microsecond would show a lost or doubled index, in
    # the batches of any of the three shapes
    monkeypatch.setattr(extraction.os, "sched_getaffinity", lambda pid: {0, 1})
    original = extraction.extract_features
    seen = []

    def spy(f, cfg):
        seen.extend(int(image[0, 0]) for image in np.reshape(f, (-1, *np.shape(f)[-2:])))
        return original(f, cfg)

    monkeypatch.setattr(extraction, "extract_features", spy)
    images = [np.full((6, 5 + i % 3), float(i)) for i in range(300)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        matrix, _ = extraction.extract_matrix(images, RieszConfig(depth=1))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(seen) == list(range(300))
    assert_array_equal(matrix[:, 0], np.arange(300.0))


def _check_a_raise_stops_the_other_worker(monkeypatch, rng, raiser, exc):
    """Run two workers over four shapes, so four batches.  Each worker's
    first batch waits for the other's; then the raiser's raises ``exc``
    and the other's returns once the raiser has had time to stop the run.
    ``exc`` itself must come out of ``extract_matrix``, every thread
    started must be gone, and the other worker must start no batch after
    its first."""
    monkeypatch.setattr(extraction.os, "sched_getaffinity", lambda pid: {0, 1})
    original = extraction.extract_features
    both_started = threading.Barrier(2, timeout=30)
    raised = threading.Event()
    starts = {}

    def spy(f, cfg):
        ident = threading.get_ident()
        starts[ident] = starts.get(ident, 0) + 1
        if starts[ident] == 1:
            both_started.wait()
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller == (raiser == "caller"):
            raised.set()
            raise exc
        features = original(f, cfg)
        assert raised.wait(30)
        time.sleep(0.1)
        return features

    monkeypatch.setattr(extraction, "extract_features", spy)
    images = [rng.random((16, 16 + i % 4)) for i in range(16)]
    before = threading.active_count()
    with pytest.raises(type(exc)) as caught:
        extraction.extract_matrix(images, RieszConfig(depth=1))
    assert caught.value is exc
    assert threading.active_count() == before
    assert sorted(starts.values()) == [1, 1]


@pytest.mark.parametrize("raiser", ["helper", "caller"])
def test_extract_matrix_error_on_either_thread_propagates(monkeypatch, rng, raiser):
    _check_a_raise_stops_the_other_worker(monkeypatch, rng, raiser, RuntimeError(f"boom on the {raiser}"))


def test_extract_matrix_keyboard_interrupt_on_the_caller_stops_the_helper(monkeypatch, rng):
    # Ctrl-C reaches the calling thread, which is a worker
    _check_a_raise_stops_the_other_worker(monkeypatch, rng, "caller", KeyboardInterrupt())


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("bbox", [False, True], ids=["whole", "bbox"])
def test_extract_matrix_batches_match_single_images(monkeypatch, rng, cpus, depth, bbox):
    # same-shape batches holding a nan and a 1e308 image, blanks (all-zero
    # images, blank under --bbox) and a 128x128 image that goes alone; each
    # row must equal that image's own extract_features byte for byte, and
    # only the bad images be flagged, each with its own reason
    monkeypatch.setattr(extraction.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    original = extraction.extract_features
    stacks = []

    def spy(f, cfg):
        stacks.append(len(f) if np.ndim(f) == 3 else 1)
        return original(f, cfg)

    monkeypatch.setattr(extraction, "extract_features", spy)

    def framed(shape):
        img = rng.random(shape)
        img[[0, -1], :] = img[:, [0, -1]] = 1.0  # its tight box is the whole image
        return img

    images = [framed((25, 17)) for _ in range(7)] + [framed((40, 40)) for _ in range(3)]
    images[2][3, 4] = np.nan
    images[5] = np.full((25, 17), 1e308)
    images += [np.zeros((25, 17)), framed((128, 128)), np.zeros((40, 40)), framed((13, 10))]
    images = [images[i] for i in (0, 8, 1, 10, 2, 3, 11, 9, 4, 12, 5, 6, 13, 7)]
    cfg = RieszConfig(depth=depth, angles=8)
    expected, reasons = [], {}
    for i, img in enumerate(images):
        try:
            with np.errstate(all="ignore"):
                expected.append(original(bbox_compute(img)[0] if bbox else img, cfg))
        except (BlankImageError, NonFiniteImageError) as exc:
            expected.append(np.full(feature_count(depth, 8), np.nan))
            reasons[i] = str(exc)
    assert len(reasons) == (4 if bbox else 2)
    matrix, flagged = extraction.extract_matrix(images, cfg, bbox)
    assert matrix.tobytes() == np.array(expected).tobytes()
    assert max(stacks) > 1
    assert flagged == reasons


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("limit", [None, 9])
def test_extract_matrix_on_idx_bytes_matches_its_float_images(monkeypatch, rng, cpus, limit):
    # an IDX input's crops, found from its bytes before the workers start,
    # give the rows and flags of the same images taken as floats, each
    # cropped as a stack of one; blank and constant images included.  A
    # box clamped at the padded frame is too large for these images at
    # the one crop setting; test_preprocess.py's
    # test_stack_search_equals_per_image_crop covers it from IDX bytes
    monkeypatch.setattr(extraction.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    pixels = np.zeros((14, 28, 28), dtype=np.uint8)
    for i, img in enumerate(pixels):
        size = 6 + 3 * (i % 4)  # four crop shapes
        img[4 : 4 + size, 5 : 5 + size] = rng.integers(0, 256, (size, size))
    pixels[3] = 0
    pixels[8] = 200
    pixels[12, 0, :] = 255  # foreground on the top border of the image
    images = IdxImages(pixels)[:limit]
    floats = [images[i] for i in range(len(images))]
    cfg = RieszConfig(depth=2, angles=4)
    runs = []
    for source in (images, floats):
        matrix, flagged = extraction.extract_matrix(source, cfg, bbox=True)
        runs.append((matrix.tobytes(), flagged))
    assert runs[0] == runs[1]
    assert runs[0][1] == {i: "no foreground pixels above threshold" for i in (3, 8)}


@pytest.mark.parametrize("cpus", [1, 2])
def test_extract_matrix_flags_the_overflowing_rows_of_a_stack(monkeypatch, rng, cpus):
    # each batch goes as one stack, and a row is flagged exactly when its
    # image's own call raises, with that call's reason.  Two inputs:
    # finite and overflowing images of three shapes, the 25x17 and 8x8
    # ones in stacks of 8 and the 70x97 ones alone; and forty 25x17
    # images with a nan at 3 and an inf at 30, which are flagged while
    # the batches are planned, so the other 38 fill two stacks of 19
    monkeypatch.setattr(extraction.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    original = extraction.extract_features
    stacks = []

    def spy(f, cfg):
        stacks.append(np.shape(f))
        return original(f, cfg)

    monkeypatch.setattr(extraction, "extract_features", spy)
    scales = [1.0, 1.7e308, 1e300, 1e307, 1.0, 1e306, 1.7e308, 1e300]
    overflowing = []
    for i in range(24):
        shape = [(25, 17), (8, 8), (70, 97)][i % 3]
        img = rng.random(shape) * scales[i % len(scales)]
        if i % 2:  # a finite mean, while the maps may overflow
            img *= (-1.0) ** np.add.outer(*map(np.arange, shape))
        overflowing.append(img)
    non_finite = [rng.random((25, 17)) for _ in range(40)]
    non_finite[3][4, 5] = np.nan
    non_finite[30][20, 1] = np.inf
    cfg = RieszConfig(depth=2, angles=4)
    for images, shapes, reason in (
        (overflowing, [(1, 70, 97)] * 8 + [(8, 8, 8), (8, 25, 17)], NON_FINITE_FEATURES),
        (non_finite, [(19, 25, 17)] * 2, NON_FINITE_SAMPLES),
    ):
        stacks.clear()
        expected, flagged = [], {}
        for i, img in enumerate(images):
            try:
                with np.errstate(all="ignore"):
                    expected.append(original(img, cfg))
            except NonFiniteImageError as exc:
                expected.append(np.full(21, np.nan))
                flagged[i] = str(exc)
        assert 0 < len(flagged) < len(images) and set(flagged.values()) == {reason}
        matrix, returned = extraction.extract_matrix(images, cfg)
        assert matrix.tobytes() == np.array(expected).tobytes()
        assert sorted(stacks) == shapes
        assert returned == flagged
    assert flagged == dict.fromkeys([3, 30], NON_FINITE_SAMPLES)


@pytest.mark.parametrize("cpus, threads", [(None, 1), (1, 1), (2, 2), (8, 2)])
def test_thread_count_without_affinity_mask_counts_cpus(monkeypatch, rng, cpus, threads):
    # macOS and Windows have no os.sched_getaffinity
    monkeypatch.delattr(extraction.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(extraction.os, "cpu_count", lambda: cpus)
    assert extraction._thread_count() == threads
    images = [rng.random((12, 10)) for _ in range(3)]
    assert extraction.extract_matrix(images, RieszConfig(depth=1))[0].shape == (3, 5)
