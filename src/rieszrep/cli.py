"""Command-line entry point: extract, bbox, train, eval, verify, bench.

Configuration is a flat ``key = value`` text file; command-line flags
override file values.  ``--print-config`` emits the fully resolved
configuration.  Relative dataset paths (IDX files, image directories,
manifests and the shards they name) are resolved against the
``RIESZ_DATA_DIR`` environment variable when it is set; feature CSVs,
models and outputs, which the program writes, are taken as given.

Exit codes: 0 success, 1 property/eval failure or runtime error,
2 configuration error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import classify, verify
from .image_core import NonFiniteImageError, load_gray_image, load_idx, save_gray_pgm
from .preprocess import BlankImageError, bbox_compute, bbox_extract
from .representation import (
    RieszConfig,
    Workspace,
    extract_features,
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


# key -> (parser, default); config files and flags share this schema
_SCHEMA = {
    "depth": (int, 3),
    "angles": (int, 4),
    "scale_constant": (float, 1.0),
    "pooling": (str, "mean"),
    "presmooth_sigma": (float, None),
    "seed": (int, 0),
    "images": (str, None),
    "labels": (str, None),
    "image_dir": (str, None),
    "manifest": (str, None),
    "limit": (int, None),
    "bbox": (_parse_bool, False),
    "pad": (int, 50),
    "threshold": (float, 0.5),
    "enlarge": (float, 0.4),
    "classifier": (str, "svm"),
    "components": (int, 20),
    "reg": (float, 1e-4),
    "epochs": (int, 50),
    "features": (str, None),
    "model": (str, None),
    "output": (str, None),
    "out_dir": (str, None),
}

# keys whose flag accepts only these values
_CHOICES = {"pooling": ("mean", "max"), "classifier": ("pca", "svm")}


class ConfigError(ValueError):
    pass


def load_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            parser = _SCHEMA[key][0]
            try:
                values[key] = parser(value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return values


def resolve_config(args) -> dict:
    config = {key: default for key, (_, default) in _SCHEMA.items()}
    if getattr(args, "config", None):
        config.update(load_config_file(args.config))
    for key in _SCHEMA:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    # checked here, before any command reads an image
    if config["limit"] is not None and config["limit"] < 0:
        raise ConfigError(f"limit must be >= 0, got {config['limit']}")
    if config["pad"] < 0:
        raise ConfigError(f"pad must be >= 0, got {config['pad']}")
    if not config["enlarge"] > -1:
        raise ConfigError(f"enlarge must be > -1, got {config['enlarge']}")
    return config


def data_path(value) -> Path:
    path = Path(value)
    root = os.environ.get("RIESZ_DATA_DIR")
    if root and not path.is_absolute():
        return Path(root) / path
    return path


def riesz_config(config) -> RieszConfig:
    try:
        return RieszConfig(
            depth=config["depth"],
            angles=config["angles"],
            scale_constant=config["scale_constant"],
            pooling=config["pooling"],
            presmooth_sigma=config["presmooth_sigma"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def load_input_images(config):
    """Images plus optional labels from an IDX pair or an image directory."""
    if config["images"]:
        if not config["labels"]:
            raise ConfigError("'images' requires 'labels' (IDX pair)")
        images, labels = load_idx(data_path(config["images"]), data_path(config["labels"]))
    elif config["image_dir"]:
        directory = data_path(config["image_dir"])
        files = sorted(
            p
            for p in directory.iterdir()
            if p.suffix.lower() in (".pgm", ".pnm", ".txt")
        )
        if not files:
            raise ConfigError(f"no graymap or matrix files in {directory}")
        images = [load_gray_image(p) for p in files]
        labels = None
    else:
        raise ConfigError("either 'images'+'labels' or 'image_dir' is required")
    limit = config["limit"]
    if limit is not None:
        images = images[:limit]
        labels = labels[:limit] if labels is not None else None
    return images, labels


def extract_matrix(images, config):
    """Feature matrix for a list of images; flagged rows are all-NaN.

    Blank images (no bounding box) and images whose samples or feature
    maps are not finite are logged with the image index and the run
    continues.  One ``Workspace`` lends the engine's buffers from each
    image to the next while the shape repeats.  No images give a
    (0, feature count) matrix.
    """
    cfg = riesz_config(config)
    width = feature_count(cfg.depth, cfg.angles)
    workspace = Workspace()
    rows = []
    for index, img in enumerate(images):
        try:
            # an overflowing image is flagged once, below, not also by
            # numpy's floating-point warnings
            with np.errstate(over="ignore", invalid="ignore"):
                if config["bbox"]:
                    img = bbox_extract(
                        img,
                        pad=config["pad"],
                        threshold=config["threshold"],
                        enlarge=config["enlarge"],
                    )
                rows.append(extract_features(img, cfg, workspace=workspace))
        except (BlankImageError, NonFiniteImageError) as exc:
            log.warning("image %d flagged: %s", index, exc)
            rows.append(np.full(width, np.nan))
    return np.array(rows).reshape(len(rows), width)


def cmd_extract(config, args) -> int:
    if not config["output"]:
        raise ConfigError("extract requires 'output'")
    images, labels = load_input_images(config)
    if len(images) == 0:
        source = config["images"] or config["image_dir"]
        limit = "" if config["limit"] is None else f" after limit {config['limit']}"
        raise ConfigError(f"no input images to extract from {source}{limit}")
    matrix = extract_matrix(images, config)
    cfg = riesz_config(config)
    write_features_csv(
        config["output"], matrix, feature_paths(cfg.depth, cfg.angles), labels
    )
    log.info("wrote %d rows x %d features to %s", *matrix.shape, config["output"])
    return 0


def cmd_bbox(config, args) -> int:
    if not config["out_dir"]:
        raise ConfigError("bbox requires 'out_dir'")
    images, _ = load_input_images(config)
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, img in enumerate(images):
        try:
            padded, tight, box = bbox_compute(
                img,
                pad=config["pad"],
                threshold=config["threshold"],
                enlarge=config["enlarge"],
            )
        except (BlankImageError, NonFiniteImageError) as exc:
            log.warning("image %d skipped: %s", i, exc)
            continue
        crop = padded[box.row0 : box.row1, box.col0 : box.col1]
        save_gray_pgm(out_dir / f"crop_{i:05d}.pgm", crop)
        log.info(
            "image %d: tight %dx%d, enlarged %dx%d",
            i,
            tight.height,
            tight.width,
            box.height,
            box.width,
        )
    return 0


def _train_model(matrix, labels, config):
    """Fit the configured classifier; rejected inputs are config errors."""
    try:
        if config["classifier"] == "pca":
            return classify.pca_fit(matrix, labels, config["components"])
        if config["classifier"] == "svm":
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
    raise ConfigError(f"unknown classifier {config['classifier']!r}")


def _finite_rows(matrix, labels):
    """The rows of ``matrix`` (and their labels) that hold no NaN or inf."""
    keep = np.isfinite(matrix).all(axis=1)
    if not keep.all():
        log.warning("dropping %d non-finite rows", int((~keep).sum()))
    return matrix[keep], labels[keep]


def cmd_train(config, args) -> int:
    if not config["features"] or not config["output"]:
        raise ConfigError("train requires 'features' and 'output'")
    matrix, _, labels = read_features_csv(config["features"])
    if labels is None:
        raise ConfigError("training features must carry a label column")
    matrix, labels = _finite_rows(matrix, labels)
    model = _train_model(matrix, labels, config)
    classify.save_model(model, config["output"])
    log.info("wrote model to %s", config["output"])
    return 0


def _parse_manifest(path):
    shards = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) != 6 or tokens[0] != "scale" or tokens[2] != "images" or tokens[4] != "labels":
                raise ConfigError(
                    f"{path}:{lineno}: expected 'scale <float> images <path> labels <path>'"
                )
            try:
                scale = float(tokens[1])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad scale: {exc}")
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
        cfg = riesz_config(config)
        width = feature_count(cfg.depth, cfg.angles)
        check_width(width, f"depth {cfg.depth} and angles {cfg.angles} give")
        for scale, images_path, labels_path in shards:
            shard = dict(config, images=images_path, labels=labels_path)
            images, labels = load_input_images(shard)
            yield f"{scale:g}", images_path, extract_matrix(images, config), labels
    elif config["features"]:
        matrix, _, labels = read_features_csv(config["features"])
        if labels is None:
            raise ConfigError("evaluation features must carry a label column")
        check_width(matrix.shape[1], f"{config['features']} has")
        yield "all", config["features"], matrix, labels
    else:
        raise ConfigError("eval requires 'features' or 'manifest'")


def cmd_eval(config, args) -> int:
    if not config["model"]:
        raise ConfigError("eval requires 'model'")
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
    config, args=None, sizes=(24, 64, 128, 256, (97, 67)), train_rows=2000
) -> int:
    """Seconds per image for ``features`` at each size, then seconds per
    ``svm_fit`` (reg 0.01, 50 epochs) on a seeded ``train_rows`` x 85,
    10-class synthetic set, on the row ``<rows>x85,train``.

    A size is a square's side or a (height, width) pair, printed as
    ``<height>x<width>``.  97x67 is the shape of a scale-4 digit crop:
    both axes prime, its width on the engine's DFT-matrix path.

    ``features`` is the mean over 4 consecutive images of the size run
    through ``extract_matrix`` without bbox cropping, as ``extract`` runs
    them, so the engine's buffers are lent from image to image; the
    filter caches are warmed first.
    """
    cfg = riesz_config(config)
    run = dict(config, bbox=False)
    rng = np.random.default_rng(config["seed"])
    print("size,stage,seconds_per_image")
    for size in sizes:
        square = isinstance(size, int)
        height, width = (size, size) if square else size
        name = size if square else f"{height}x{width}"
        stack = rng.standard_normal((4, height, width))
        extract_features(stack[0], cfg)  # warm the filter caches
        start = time.perf_counter()
        extract_matrix(stack, run)
        print(f"{name},features,{(time.perf_counter() - start) / len(stack):.6f}")
    centers = rng.standard_normal((10, 85))
    labels = np.arange(train_rows) % 10
    X = centers[labels] + rng.standard_normal((train_rows, 85))
    start = time.perf_counter()
    classify.svm_fit(X, labels, reg=0.01, epochs=50, seed=config["seed"])
    print(f"{train_rows}x85,train,{time.perf_counter() - start:.6f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="riesz",
        description="Hierarchical Riesz feature extraction and classification",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    riesz = ("depth", "angles", "scale_constant", "pooling", "presmooth_sigma")
    inputs = ("images", "labels", "image_dir", "limit")
    bbox = ("bbox", "pad", "threshold", "enlarge")
    # name, handler, help, and the schema keys it takes as flags; each
    # flag is the key with '-' for '_', so its dest is the key
    commands = (
        ("extract", cmd_extract, "write a feature CSV", (*riesz, *inputs, *bbox, "output")),
        ("bbox", cmd_bbox, "write cropped graymaps", (*inputs, *bbox, "out_dir")),
        ("train", cmd_train, "train a classifier from a feature CSV",
         ("features", "classifier", "components", "reg", "epochs", "output")),
        ("eval", cmd_eval, "evaluate a model",
         (*riesz, *bbox, "features", "manifest", "limit", "model", "output")),
        ("verify", cmd_verify, "run the numerical property suite", ()),
        ("bench", cmd_bench, "time the pipeline stages", riesz),
    )
    for name, handler, help_text, keys in commands:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="flat 'key = value' configuration file")
        p.add_argument("--print-config", action="store_true")
        for key in ("seed", *keys):
            flag = "--" + key.replace("_", "-")
            if key == "bbox":
                p.add_argument(flag, action="store_const", const=True)
            else:
                p.add_argument(flag, type=_SCHEMA[key][0], choices=_CHOICES.get(key))
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
        return args.handler(config, args)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.error("%s", exc, exc_info=args.verbose)
        return 1


if __name__ == "__main__":
    sys.exit(main())
