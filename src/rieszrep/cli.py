"""Command-line entry point: extract, bbox, train, eval, verify, bench.

Configuration is a flat ``key = value`` text file; command-line flags
override file values.  ``--print-config`` emits the command's resolved
keys.  Relative dataset paths (IDX files, image directories,
manifests and the shards they name) are resolved against the
``RIESZ_DATA_DIR`` environment variable when it is set; feature CSVs,
models and outputs, which the program writes, are taken as given.

Exit codes: 0 success, 1 property/eval failure or runtime error,
2 configuration error (an unreadable ``--config`` file too).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import logging
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import classify, verify
from .extraction import extract_matrix
from .image_core import NonFiniteImageError, load_gray_image, load_idx, save_gray_pgm
from .preprocess import BlankImageError, find_crops
from .representation import (
    RieszConfig,
    feature_count,
    feature_paths,
    read_features_csv,
    write_features_csv,
)

log = logging.getLogger("riesz")


def _parse_bool(value):
    """A config-file switch: 1/true/yes or 0/false/no, in any case."""
    if value.lower() in ("1", "true", "yes"):
        return True
    if value.lower() in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/true/yes or 0/false/no, got {value!r}")


# the keys that build a RieszConfig, with their parsers; their defaults
# are RieszConfig's, and its scale constant stays at 1
_RIESZ = {"depth": int, "angles": int}

# key -> (parser, default); config files and flags share this schema
_SCHEMA = {
    **{key: (parse, getattr(RieszConfig, key)) for key, parse in _RIESZ.items()},
    "seed": (int, 0),
    "images": (str, None),
    "labels": (str, None),
    "image_dir": (str, None),
    "manifest": (str, None),
    "limit": (int, None),
    "bbox": (_parse_bool, False),
    "classifier": (str, "svm"),
    "components": (int, 20),
    "reg": (float, 1e-4),
    "epochs": (int, 50),
    "features": (str, None),
    "model": (str, None),
    "output": (str, None),
    "out_dir": (str, None),
}

_CLASSIFIERS = ("pca", "svm")

# key -> (test, rule) of the other numeric keys whose range
# ``resolve_config`` checks; ``RieszConfig`` checks the Riesz keys
_RANGES = {
    "limit": (lambda v: v is None or v >= 0, ">= 0"),
    "seed": (lambda v: v >= 0, ">= 0"),
    "components": (lambda v: v >= 1, ">= 1"),
    "epochs": (lambda v: v >= 1, ">= 1"),
    "reg": (lambda v: 0 <= v < math.inf, "finite and >= 0"),
}


class ConfigError(ValueError):
    pass


def _text_lines(path):
    """(number, line without its comment) of each non-blank line of a UTF-8 file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raws = list(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 text file: {exc}") from exc
    for lineno, raw in enumerate(raws, 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def load_config_file(path) -> dict:
    """The values of a flat ``key = value`` file; a file that cannot be
    read or parsed, or that sets a key twice, raises ConfigError naming
    its path."""
    try:
        lines = list(_text_lines(path))
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    values, set_on = {}, {}  # key -> its value, and the line that set it
    for lineno, line in lines:
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: {key} is already set on line {set_on[key]}")
        set_on[key] = lineno
        parser = _SCHEMA[key][0]
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return values


def resolve_config(args) -> dict:
    """Each of the command's keys: its flag, else the ``--config`` file's value, else the default."""
    values = load_config_file(args.config) if args.config else {}
    config = {}
    for key in args.keys:
        flag = getattr(args, key)
        config[key] = values.get(key, _SCHEMA[key][1]) if flag is None else flag
    # checked here, before any command reads a file
    for key, (test, rule) in _RANGES.items():
        if key in config and not test(config[key]):
            raise ConfigError(f"{key} must be {rule}, got {config[key]}")
    if "classifier" in config and config["classifier"] not in _CLASSIFIERS:
        raise ConfigError(f"unknown classifier {config['classifier']!r}")
    if "depth" in config:
        riesz_config(config)
    return config


def data_path(value) -> Path:
    path = Path(value)
    root = os.environ.get("RIESZ_DATA_DIR")
    if root and not path.is_absolute():
        return Path(root) / path
    return path


def riesz_config(config) -> RieszConfig:
    try:
        return RieszConfig(**{key: config[key] for key in _RIESZ})
    except ValueError as exc:
        raise ConfigError(str(exc))


def check_inputs(config, args):
    """Raise ConfigError unless ``config`` gives every key of ``args.requires``
    and, of the ``args.sources`` alternatives, one whole and no key of another,
    and gives ``labels`` only with ``images``.  ``main`` calls this before the
    handler, so no input file is read first."""
    if not all(config[key] for key in args.requires):
        raise ConfigError(f"{args.command} requires " + " and ".join(f"'{k}'" for k in args.requires))
    for first, second in itertools.combinations(args.sources, 2):
        for a, b in itertools.product(first, second):
            if config[a] and config[b]:
                raise ConfigError(f"'{a}' and '{b}' cannot both be given; choose one input source")
    if args.sources and not any(all(config[key] for key in keys) for keys in args.sources):
        sources = " or ".join("+".join(f"'{k}'" for k in keys) for keys in args.sources)
        raise ConfigError(f"{args.command} requires {sources}")
    # bbox takes IDX images without labels; a directory never has them
    if config.get("labels") and config.get("image_dir"):
        raise ConfigError("'labels' and 'image_dir' cannot both be given; choose one input source")


def load_input_images(config):
    """Images and labels from the IDX file and its labels, else images from the
    directory; ``check_inputs`` (or a manifest shard's pair) has made sure
    one is given.  Labels are None where no labels file is given."""
    limit = config["limit"]
    if config["images"]:
        labels_path = data_path(config["labels"]) if config["labels"] else None
        images, labels = load_idx(data_path(config["images"]), labels_path)
        return images[:limit], None if labels is None else labels[:limit]
    directory = data_path(config["image_dir"])
    suffixes = (".pgm", ".pnm", ".txt")
    # a subdirectory named like an image is no image
    files = sorted(p for p in directory.iterdir() if p.suffix.lower() in suffixes and p.is_file())
    if not files:
        raise ConfigError(f"no graymap or matrix files in {directory}")
    # files past the limit are never read
    return [load_gray_image(p) for p in files[:limit]], None


def _nonempty_input_images(config, verb):
    """``load_input_images``, for a command that would ``verb`` them: no
    images (an empty IDX file, or ``limit`` 0) is a configuration error."""
    images, labels = load_input_images(config)
    if len(images) == 0:
        source = config["images"] or config["image_dir"]
        limit = "" if config["limit"] is None else f" after limit {config['limit']}"
        raise ConfigError(f"no input images to {verb} from {source}{limit}")
    return images, labels


def _extract_matrix(images, config):
    """``extraction.extract_matrix`` of ``images`` under ``config``, cropped when
    its ``bbox`` key is set; each flagged image is logged, in index order."""
    matrix, flagged = extract_matrix(images, riesz_config(config), config["bbox"])
    for index, reason in flagged.items():
        log.warning("image %d flagged: %s", index, reason)
    return matrix


def cmd_extract(config, args) -> int:
    """Write the feature CSV of the input images to ``output``."""
    images, labels = _nonempty_input_images(config, "extract")
    matrix = _extract_matrix(images, config)
    write_features_csv(config["output"], matrix, feature_paths(config["depth"], config["angles"]), labels)
    log.info("wrote %d rows x %d features to %s", *matrix.shape, config["output"])
    return 0


def cmd_bbox(config, args) -> int:
    """Write each input image's crop to ``out_dir``; blank ones are skipped."""
    images, _ = _nonempty_input_images(config, "crop")
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, found in enumerate(find_crops(images)):
        try:
            crop = found.cut()
        except (BlankImageError, NonFiniteImageError) as exc:
            log.warning("image %d skipped: %s", i, exc)
            continue
        save_gray_pgm(out_dir / f"crop_{i:05d}.pgm", crop)
        log.info(
            "image %d: tight %dx%d, enlarged %dx%d",
            i,
            found.tight.height,
            found.tight.width,
            found.box.height,
            found.box.width,
        )
    return 0


def _train_model(matrix, labels, config):
    """Fit the configured classifier; rejected inputs are config errors."""
    try:
        if config["classifier"] == "pca":
            return classify.pca_fit(matrix, labels, config["components"])
        normalizer = classify.maxabs_fit(matrix)
        return classify.svm_fit(
            matrix,
            labels,
            reg=config["reg"],
            epochs=config["epochs"],
            seed=config["seed"],
            normalizer=normalizer,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def _finite_rows(matrix, labels):
    """The rows of ``matrix`` (and their labels) that hold no NaN or inf.

    When every row is finite, the very arrays given are returned, not copies.
    """
    keep = np.isfinite(matrix).all(axis=1)
    if keep.all():
        return matrix, labels
    log.warning("dropping %d non-finite rows", int((~keep).sum()))
    return matrix[keep], labels[keep]


def cmd_train(config, args) -> int:
    """Fit the classifier to the finite rows of ``features``; save it to ``output``."""
    matrix, _, labels = read_features_csv(config["features"])
    if labels is None:
        raise ConfigError("training features must carry a label column")
    matrix, labels = _finite_rows(matrix, labels)
    if len(matrix) == 0:
        log.error("no rows left to train on in %s (none, or all blank or flagged)", config["features"])
        return 1
    model = _train_model(matrix, labels, config)
    classify.save_model(model, config["output"])
    log.info("wrote model to %s", config["output"])
    return 0


def _parse_manifest(path):
    shards = []
    for lineno, line in _text_lines(path):
        tokens = line.split()
        if len(tokens) != 6 or tokens[0] != "scale" or tokens[2] != "images" or tokens[4] != "labels":
            raise ConfigError(
                f"{path}:{lineno}: expected 'scale <float> images <path> labels <path>'"
            )
        try:
            scale = float(tokens[1])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad scale: {exc}")
        if not 0 < scale < np.inf:
            raise ConfigError(f"{path}:{lineno}: bad scale {tokens[1]!r}: not finite and positive")
        shards.append((scale, tokens[3], tokens[5]))
    if not shards:
        raise ConfigError(f"{path}: empty manifest")
    return shards


def _eval_sets(config, model_width):
    """Yield (name, source, feature matrix, labels) of each set to evaluate.

    A manifest gives one set per shard, named by its scale and extracted
    when reached; a feature CSV gives the one set ``all``.  A feature
    width other than ``model_width`` is a configuration error, for a
    manifest raised before any image is read.
    """

    def check_width(width, source):
        if width != model_width:
            raise ConfigError(f"model {config['model']} takes {model_width} features, {source} {width}")

    if config["manifest"]:
        shards = _parse_manifest(data_path(config["manifest"]))
        depth, angles = config["depth"], config["angles"]
        check_width(feature_count(depth, angles), f"depth {depth} and angles {angles} give")
        for scale, images_path, labels_path in shards:
            shard = dict(config, images=images_path, labels=labels_path)
            images, labels = load_input_images(shard)
            yield f"{scale:g}", images_path, _extract_matrix(images, config), labels
    else:
        matrix, _, labels = read_features_csv(config["features"])
        if labels is None:
            raise ConfigError("evaluation features must carry a label column")
        check_width(matrix.shape[1], f"{config['features']} has")
        yield "all", config["features"], matrix, labels


def cmd_eval(config, args) -> int:
    """Report the accuracy of ``model`` on each set of ``_eval_sets``, also to ``output``."""
    model = classify.load_model(config["model"])
    fitted = model.means if isinstance(model, classify.PcaClassModel) else model.weights
    report_rows = []
    empty_sets = 0
    for name, source, matrix, labels in _eval_sets(config, fitted.shape[1]):
        matrix, labels = _finite_rows(matrix, labels)
        if len(matrix) == 0:
            # the other sets are still evaluated and reported
            log.error(
                "scale %s: no rows left to evaluate in %s (none, or all blank or flagged)",
                name,
                source,
            )
            empty_sets += 1
            continue
        acc, confusion = classify.evaluate(model, matrix, labels)
        report_rows.append((name, acc, confusion))

    print("scale,accuracy")
    for name, acc, _ in report_rows:
        print(f"{name},{acc:.4f}")
    for name, acc, confusion in report_rows:
        print(f"\n[{name}] accuracy {acc:.4f}, confusion matrix (rows = true):")
        for row in confusion:
            print("  " + " ".join(f"{v:5d}" for v in row))
    if config["output"]:
        with open(config["output"], "w", encoding="ascii") as fh:
            fh.write("scale,accuracy\n")
            for name, acc, _ in report_rows:
                fh.write(f"{name},{acc:.6f}\n")
    return 1 if empty_sets else 0


def cmd_verify(config, args) -> int:
    results = verify.run_all(seed=config["seed"], inject_fault=args.inject_fault)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: measured {r.measured:.3e} (tolerance {r.tolerance:g})")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return 1 if failed else 0


def cmd_bench(
    config,
    args=None,
    sizes=(24, 64, 128, 256, (97, 67), (67, 97), (25, 17, 16)),
    train_rows=2000,
) -> int:
    """Seconds per image for ``features`` at each size, then seconds per
    ``svm_fit`` (reg 0.01, 50 epochs) on a seeded ``train_rows`` x 85,
    10-class synthetic set, on the row ``<rows>x85,train``.

    A size is a square's side or a (height, width) pair, printed as
    ``<height>x<width>``, each timed on 4 images, or a (height, width,
    count) triple, printed as ``<height>x<width>*<count>``.  97x67 is
    the shape of a scale-4 digit crop: both axes prime.
    ``extract_features`` transforms it as 67x97, with the larger prime
    on the engine's DFT-matrix (width) path, so the two rows should time
    alike.  25x17 is the shape of a scale-1 crop; 16 of them fit one
    engine group at K=3, M=4, so that row times the batched path.

    ``features`` is the mean over the size's same-shape images, run through
    ``extraction.extract_matrix`` uncropped, after the filter caches are warmed.
    """
    rng = np.random.default_rng(config["seed"])
    print("size,stage,seconds_per_image")
    for size in sizes:
        if isinstance(size, int):
            height, width, count, name = size, size, 4, size
        else:
            height, width, count = (*size, 4)[:3]
            name = f"{height}x{width}" + (f"*{count}" if len(size) == 3 else "")
        stack = rng.standard_normal((count, height, width))
        extract_matrix(stack[:1], riesz_config(config))  # warm the filter caches
        start = time.perf_counter()
        extract_matrix(stack, riesz_config(config))
        print(f"{name},features,{(time.perf_counter() - start) / len(stack):.6f}")
    centers = rng.standard_normal((10, 85))
    labels = np.arange(train_rows) % 10
    X = centers[labels] + rng.standard_normal((train_rows, 85))
    start = time.perf_counter()
    classify.svm_fit(X, labels, reg=0.01, epochs=50, seed=config["seed"])
    print(f"{train_rows}x85,train,{time.perf_counter() - start:.6f}")
    return 0


@functools.cache
def build_parser():
    """The ``riesz`` parser, built on the first call and then reused.

    Its handlers and ``--inject-fault`` choices are fixed at import, and
    ``parse_args`` returns a new namespace on every call, so ``main``
    parses each argv as a freshly built parser would, without paying
    for the build again in the same process.
    """
    parser = argparse.ArgumentParser(
        prog="riesz",
        description="Hierarchical Riesz feature extraction and classification",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    riesz = tuple(_RIESZ)
    inputs = ("images", "labels", "image_dir", "limit")
    idx_or_dir = (("images", "labels"), ("image_dir",))
    # name, handler, help, the schema keys it reads (its flags, and the
    # config resolve_config gives it), the keys it requires, and its input
    # sources: alternatives of keys given together (see check_inputs);
    # each flag is the key with '-' for '_', so its dest is the key
    commands = (
        ("extract", cmd_extract, "write a feature CSV",
         (*riesz, *inputs, "bbox", "output"), ("output",), idx_or_dir),
        ("bbox", cmd_bbox, "write cropped graymaps",
         (*inputs, "out_dir"), ("out_dir",), (("images",), ("image_dir",))),
        ("train", cmd_train, "train a classifier from a feature CSV",
         ("features", "classifier", "components", "reg", "epochs", "seed", "output"),
         ("features", "output"), ()),
        ("eval", cmd_eval, "evaluate a model",
         (*riesz, "bbox", "features", "manifest", "limit", "model", "output"),
         ("model",), (("features",), ("manifest",))),
        ("verify", cmd_verify, "run the numerical property suite", ("seed",), (), ()),
        ("bench", cmd_bench, "time the pipeline stages", (*riesz, "seed"), (), ()),
    )
    for name, handler, help_text, keys, requires, sources in commands:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, keys=keys, requires=requires, sources=sources)
        p.add_argument("--config", help="flat 'key = value' configuration file")
        p.add_argument("--print-config", action="store_true")
        for key in keys:
            flag = "--" + key.replace("_", "-")
            if key == "bbox":
                p.add_argument(flag, action="store_const", const=True)
            else:
                choices = _CLASSIFIERS if key == "classifier" else None
                p.add_argument(flag, type=_SCHEMA[key][0], choices=choices)
    sub.choices["verify"].add_argument("--inject-fault", choices=tuple(verify.FAULTS))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    try:
        config = resolve_config(args)
        if getattr(args, "print_config", False):
            for key in sorted(config):
                print(f"{key} = {config[key]}")
        check_inputs(config, args)
        return args.handler(config, args)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.error("%s", exc, exc_info=args.verbose)
        return 1


if __name__ == "__main__":
    sys.exit(main())
