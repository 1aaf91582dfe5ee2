"""The extraction run: the feature matrix of a sequence of images.

``extract_matrix`` takes a ``RieszConfig`` and, for bounding-box
cropping, the crop settings; it reads no command-line configuration and
logs nothing.  The images it cannot extract are returned as data, each
index with its reason, and their rows stay NaN.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .image_core import NonFiniteImageError, as_image
from .preprocess import BlankImageError, crop_finder
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


# The most images ``extract_matrix`` holds waiting for their shape's
# batch to fill; a batch is extracted once it holds half of it, or
# fewer when fewer fill an engine group.
_LOOKAHEAD = 128


def extract_matrix(images, config: RieszConfig, crop=None):
    """(feature matrix, flagged) of a sequence of images.

    Row i of the matrix is the features of ``images[i]``.  ``flagged``
    maps the index of each image that gives no row to its reason, in
    index order: a blank crop (no bounding box), or samples, a sample
    range, feature maps or means that are not finite.  A flagged row is
    all-NaN, and the run goes on past it.

    ``crop`` is None, or the ``pad``, ``threshold`` and ``enlarge`` of
    ``preprocess.crop_finder``, which crops each image first: an
    ``IdxImages`` input's crop boxes are all found before the workers
    start, in one pass over its bytes, and a worker cuts each crop from
    the bytes when it takes the index; any other image is cropped as a
    stack of one when taken.  Each image is put in its shape's batch,
    extracted as one stack once it fills a level-1 engine group
    (``group_size``, at most half of ``_LOOKAHEAD``; one image for
    128x128 at M=8 or a scale-4 digit crop).  When ``_LOOKAHEAD`` images
    wait, and once the input is used up, the fullest batch goes as it
    is: at most ``_LOOKAHEAD`` images wait, and each worker extracts at
    most one batch on top of them (no ``pipebench`` extraction holds
    more than 102 images).  Each batch is one ``extract_features``
    stack, one image included; a row that is not finite stays NaN and
    its image is flagged.

    The workers, the calling thread and (when ``_thread_count`` allows
    two) one helper, each loop over one shared iterator of indices: crop
    outside the lock, batch under it, extract with the worker's own
    ``Workspace``.  numpy releases the GIL in the engine's FFTs, products
    and elementwise passes.  Rows are written by index, each equal to its
    image's own ``extract_features``, so the matrix is byte-identical
    whatever the thread count or batching.  Any other exception,
    ``KeyboardInterrupt`` included, stops the other worker after its
    current batch and is raised here.  No images give a (0, feature
    count) matrix.
    """
    crop_at = crop_finder(images, **crop) if crop is not None else None
    matrix = np.full((len(images), feature_count(config.depth, config.angles)), np.nan)
    flagged = {}
    # next() on a range iterator is atomic under the GIL, so the workers
    # share it without the lock and each index is taken once
    indices = iter(range(len(images)))
    lock = threading.Lock()
    held = {}  # shape -> [(index, image)] waiting for its batch to fill
    waiting = 0  # images in held
    stop = False  # set when a worker raises

    def fullest():
        return max(held, key=lambda shape: len(held[shape]))

    def extract(batch, workspace):
        """Fill a batch's finite rows from one stack; flag the others."""
        # a lone crop goes as a view, not a copy
        crops = batch[0][1][None] if len(batch) == 1 else np.stack([img for _, img in batch])
        features = extract_features(crops, config, workspace=workspace)
        for (index, _), row in zip(batch, features):
            if np.isfinite(row).all():
                matrix[index] = row
            else:
                flagged[index] = NON_FINITE_FEATURES

    def work():
        nonlocal waiting, stop
        workspace = Workspace()
        try:
            # an overflowing image is flagged once, above, not also by
            # numpy's floating-point warnings
            with np.errstate(over="ignore", invalid="ignore"):
                for index in indices:
                    try:
                        img = crop_at(index).cut() if crop_at else as_image(images[index])
                    except (BlankImageError, NonFiniteImageError) as exc:
                        # the message only: a kept exception's traceback
                        # holds this frame, and so the crops, in a cycle
                        # until the next garbage collection
                        flagged[index] = str(exc)
                        continue
                    with lock:
                        if stop:
                            return
                        batch = held.setdefault(img.shape, [])
                        batch.append((index, img))
                        waiting += 1
                        if len(batch) == min(group_size(*img.shape, config.angles), _LOOKAHEAD // 2):
                            shape = img.shape
                        elif waiting == _LOOKAHEAD:
                            shape = fullest()
                        else:
                            continue
                        batch = held.pop(shape)
                        waiting -= len(batch)
                    extract(batch, workspace)
                while True:
                    with lock:
                        if stop or not held:
                            return
                        batch = held.pop(fullest())
                        waiting -= len(batch)
                    extract(batch, workspace)
        except BaseException:
            stop = True
            raise

    # the calling thread stays a worker, so that Ctrl-C reaches the loop
    with ThreadPoolExecutor(1, thread_name_prefix="extract-helper") as pool:
        helper = pool.submit(work) if min(_thread_count(), len(images)) > 1 else None
        work()
        if helper is not None:
            helper.result()
    return matrix, dict(sorted(flagged.items()))
