"""The extraction run: the feature matrix of a sequence of images.

``extract_matrix`` takes a ``RieszConfig`` and whether to crop each
image to its bounding box; it reads no command-line configuration and
logs nothing.  The images it cannot extract are returned as data, each
index with its reason, and their rows stay NaN.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .image_core import IdxImages, NonFiniteImageError, as_image
from .preprocess import BlankImageError, find_crops
from .representation import (
    NON_FINITE_FEATURES, RieszConfig, Workspace, extract_features, feature_count, group_size
)


def _thread_count() -> int:
    """Threads ``extract_matrix`` runs: the CPUs this process may use, at most 2.

    Capped at two because the peak memory of two workspaces is what was
    measured to stay within budget.  Where the affinity mask cannot be
    read (macOS, Windows), every CPU counts.
    """
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)


def extract_matrix(images, config: RieszConfig, bbox=False):
    """(feature matrix, flagged) of a sequence of images.

    Row i of the matrix is the features of ``images[i]``; no images give
    a (0, feature count) matrix.  ``flagged`` maps the index of each
    image that gives no row to its reason, in index order: a blank crop
    (no bounding box), or samples, a sample range, feature maps or means
    that are not finite.  A flagged row is all-NaN, and the run goes on
    past it.  With ``bbox`` each image is cropped, every crop found first
    by one ``find_crops`` call.

    The batches are planned first, deciding every flag but the features'
    own, from each image's shape as extracted: an ``IdxImages``'s byte
    shape (its bytes are always finite) or crop box, any other image's
    crop box or its shape as ``as_image`` converts it.  Each shape's
    indices, in order of first appearance, are cut into
    ``extract_features`` stacks of ``group_size`` (one level-1 engine
    group), at most 64.  The calling thread and, when there are two
    batches and ``_thread_count`` allows, one helper, each with its own
    ``Workspace``, take whole batches from one shared iterator and cut
    or convert a batch's images only then, so each holds at most one
    batch.  Rows are written by index, each equal to its image's own
    ``extract_features``, so the matrix is byte-identical whatever the
    thread count.  An exception, ``KeyboardInterrupt`` included,
    stops the other worker after its current batch and is raised here.
    """
    matrix = np.full((len(images), feature_count(config.depth, config.angles)), np.nan)
    flagged = {}
    crops = find_crops(images) if bbox else None

    def shape_of(index):
        """The shape of image ``index`` as extracted; raises its flag."""
        if bbox:
            found = crops[index]
            if found.box is None:
                found.cut()  # raises why the image has no box
            return found.box.height, found.box.width
        if isinstance(images, IdxImages):
            return images.pixels.shape[1:]
        # raises for a nan or inf sample, and the ValueError of a shape
        # that is no image
        return as_image(images[index]).shape

    groups = {}  # shape -> its indices, in order of first appearance
    for index in range(len(images)):
        try:
            groups.setdefault(shape_of(index), []).append(index)
        except (BlankImageError, NonFiniteImageError) as exc:
            # the message only: a kept exception's traceback holds this
            # frame, and so the crops, in a cycle until the next garbage
            # collection
            flagged[index] = str(exc)
    batches = []
    for shape, indices in groups.items():
        size = min(group_size(*shape, config.angles), 64)
        batches += (indices[start : start + size] for start in range(0, len(indices), size))
    # next() on a list iterator is atomic under the GIL, so the workers
    # share it without a lock and each batch is taken once
    planned = iter(batches)
    stop = False  # set when a worker raises

    def extract(batch, workspace):
        """Fill a batch's rows from one stack; flag those not finite."""
        # planning checked every list image's shape and samples, so a
        # batch only converts
        pixels = [
            crops[index].cut() if bbox else np.asarray(images[index], dtype=np.float64)
            for index in batch
        ]
        # a lone image goes as a view, not a copy
        stack = pixels[0][None] if len(pixels) == 1 else np.stack(pixels)
        features = extract_features(stack, config, workspace=workspace)
        for index, row in zip(batch, features):
            if np.isfinite(row).all():
                matrix[index] = row
            else:
                flagged[index] = NON_FINITE_FEATURES

    def work():
        nonlocal stop
        workspace = Workspace()
        try:
            # an overflowing image is flagged once, above, not also by
            # numpy's floating-point warnings
            with np.errstate(over="ignore", invalid="ignore"):
                for batch in planned:
                    if stop:
                        return
                    extract(batch, workspace)
        except BaseException:
            stop = True
            raise

    # the calling thread stays a worker, so that Ctrl-C reaches the loop
    with ThreadPoolExecutor(1, thread_name_prefix="extract-helper") as pool:
        helper = pool.submit(work) if len(batches) > 1 and _thread_count() > 1 else None
        work()
        if helper is not None:
            helper.result()
    return matrix, dict(sorted(flagged.items()))
