import numpy as np
import pytest
from numpy.testing import assert_allclose

from rieszrep.classify import (
    MaxAbsNormalizer,
    evaluate,
    load_model,
    maxabs_fit,
    pca_fit,
    pca_predict,
    pca_residuals,
    save_model,
    svm_fit,
    svm_predict,
    svm_scores,
)


def test_maxabs_single_vector():
    norm = maxabs_fit([[2.0, -4.0]])
    assert_allclose(norm.scales, [2.0, 4.0])


def test_maxabs_zero_coordinate():
    norm = maxabs_fit([[0.0, 3.0], [0.0, -1.0]])
    assert norm.scales[0] == 1.0
    assert_allclose(norm.apply([[0.0, 3.0]]), [[0.0, 1.0]])


def test_maxabs_training_range(rng):
    X = rng.standard_normal((20, 7)) * rng.uniform(0.1, 50, size=7)
    out = maxabs_fit(X).apply(X)
    assert out.min() >= -1 and out.max() <= 1


def test_maxabs_cancels_coordinate_rescaling(rng):
    X = rng.standard_normal((10, 5))
    scales = rng.uniform(0.5, 10, size=5)
    a = maxabs_fit(X).apply(X)
    b = maxabs_fit(X * scales).apply(X * scales)
    assert_allclose(a, b, atol=1e-12)


def test_maxabs_dimension_mismatch():
    norm = MaxAbsNormalizer(scales=np.ones(3))
    with pytest.raises(ValueError):
        norm.apply(np.ones((2, 4)))


def test_pca_two_point_class():
    X = np.array([[0.0, 0.0], [2.0, 2.0], [5.0, 0.0], [5.0, 1.0]])
    y = np.array([0, 0, 1, 1])
    model = pca_fit(X, y, 1)
    res = pca_residuals(model, X)
    assert res[0, 0] == pytest.approx(0, abs=1e-8)
    assert res[1, 0] == pytest.approx(0, abs=1e-8)
    # basis direction along the difference vector
    assert abs(abs(model.bases[0][:, 0]) @ np.array([1, 1]) / np.sqrt(2) - 1) <= 1e-10


def test_pca_full_rank_zero_residual(rng):
    X = rng.standard_normal((12, 4))
    y = np.repeat([0, 1], 6)
    model = pca_fit(X, y, 4)
    res = pca_residuals(model, X)
    assert res[np.arange(12), y].max() <= 1e-8


def test_pca_rank_truncation_warns(rng):
    X = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 0.0], [4.0, 0.0]])
    y = np.array([0, 0, 1, 1])
    with pytest.warns(UserWarning, match="rank"):
        model = pca_fit(X, y, 2)
    assert model.bases[0].shape[1] == 1


def test_pca_duplicated_samples_same_projector(rng):
    X = rng.standard_normal((6, 4))
    y = np.zeros(6, dtype=int)
    y2 = np.zeros(12, dtype=int)
    # pca_fit needs >= 2 classes only for svm; single class is fine here
    m1 = pca_fit(X, y, 2)
    m2 = pca_fit(np.vstack([X, X]), y2, 2)
    p1 = m1.bases[0] @ m1.bases[0].T
    p2 = m2.bases[0] @ m2.bases[0].T
    assert_allclose(p1, p2, atol=1e-10)


def test_pca_small_class_rejected():
    with pytest.raises(ValueError, match="fewer than 2"):
        pca_fit(np.ones((3, 2)), np.array([0, 0, 1]), 1)


def test_pca_predict_mean_is_own_class(rng):
    X = rng.standard_normal((20, 6))
    y = np.repeat([0, 1], 10)
    model = pca_fit(X, y, 2)
    assert pca_predict(model, model.means)[0] == 0
    assert pca_predict(model, model.means)[1] == 1


def test_pca_residual_monotone_in_d(rng):
    X = rng.standard_normal((15, 8))
    y = np.zeros(15, dtype=int)
    probe = rng.standard_normal((1, 8))
    prev = None
    for d in range(1, 6):
        res = pca_residuals(pca_fit(X, y, d), probe)[0, 0]
        if prev is not None:
            assert res <= prev + 1e-12
        prev = res


def test_pca_rotation_invariance(rng):
    X = rng.standard_normal((20, 5))
    y = np.repeat([0, 1], 10)
    probe = rng.standard_normal((4, 5))
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    res_a = pca_residuals(pca_fit(X, y, 2), probe)
    res_b = pca_residuals(pca_fit(X @ q, y, 2), probe @ q)
    assert_allclose(res_a, res_b, atol=1e-9)


def test_pca_synthetic_clusters(rng):
    # each class: a distinct center plus strong variance along its own axis
    train_X, train_y, test_X, test_y = [], [], [], []
    for c in range(3):
        center = 8 * np.eye(6)[2 * c]
        spread = np.outer(rng.standard_normal(140), np.eye(6)[2 * c + 1]) * 2
        pts = center + spread + rng.standard_normal((140, 6)) * 0.2
        train_X.append(pts[:40])
        train_y += [c] * 40
        test_X.append(pts[40:])
        test_y += [c] * 100
    model = pca_fit(np.vstack(train_X), np.array(train_y), 1)
    acc, _ = evaluate(model, np.vstack(test_X), np.array(test_y))
    assert acc >= 0.99


def test_svm_separable(rng):
    X = np.vstack(
        [rng.standard_normal((30, 2)) + [4, 4], rng.standard_normal((30, 2)) - [4, 4]]
    )
    y = np.repeat([0, 1], 30)
    model = svm_fit(X, y, reg=1e-4, epochs=50, seed=0)
    acc, confusion = evaluate(model, X, y)
    assert acc == 1.0
    # every sample on the correct side, checked against the raw scores
    scores = svm_scores(model, X)
    assert np.all(np.argmax(scores, axis=1) == y)


def test_svm_deterministic(rng):
    X = rng.standard_normal((40, 3))
    y = rng.integers(0, 3, size=40)
    y[:3] = [0, 1, 2]
    a = svm_fit(X, y, seed=7)
    b = svm_fit(X, y, seed=7)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.biases, b.biases)


def test_svm_label_permutation_symmetry(rng):
    X = rng.standard_normal((30, 4))
    y = rng.integers(0, 3, size=30)
    y[:3] = [0, 1, 2]
    perm = np.array([2, 0, 1])
    base = svm_predict(svm_fit(X, y, seed=1), X)
    permuted = svm_predict(svm_fit(X, perm[y], seed=1), X)
    assert np.array_equal(permuted, perm[base])


# Fixed 30x4 problem for the frozen Pegasos trajectory below.
_FROZEN_X = np.array(
    [
        [1.719, 0.194, 2.493, 0.576],
        [-0.223, 0.565, -0.098, 0.046],
        [-1.479, 1.354, -1.136, -0.721],
        [1.892, -0.758, 0.639, -0.079],
        [1.043, -0.581, 1.207, -0.18],
        [1.14, -1.521, -0.259, 0.402],
        [0.964, 1.921, 1.307, -1.437],
        [-0.038, -0.723, 1.731, 0.688],
        [3.569, -0.309, -1.51, 1.277],
        [-0.127, -0.111, -1.128, 0.359],
        [-0.88, -0.547, 0.083, 0.712],
        [-1.902, 2.04, 0.04, -0.374],
        [1.66, -1.826, -0.636, 1.079],
        [-0.496, 0.438, -1.212, 0.686],
        [-2.318, -0.025, 0.158, -1.161],
        [-0.075, -0.724, -0.535, 0.435],
        [0.574, 0.134, -1.036, -0.053],
        [2.398, 0.451, 1.094, -0.625],
        [-1.656, -1.047, 0.358, 0.249],
        [1.232, -0.297, 0.349, 0.052],
        [-0.995, -1.622, 0.825, 0.49],
        [-2.582, -0.357, 0.792, -1.336],
        [2.206, -0.332, 1.278, 0.544],
        [0.211, -0.37, 0.229, 1.256],
        [-0.379, -0.436, -0.605, 0.098],
        [2.126, -0.47, -0.767, 0.125],
        [0.579, 0.067, 0.991, -0.858],
        [0.937, 0.723, 0.21, 1.492],
        [1.151, -1.516, -1.411, 0.133],
        [-0.643, 1.094, -0.054, 0.277],
    ]
)

# (labels, reg) -> (weights, biases) of svm_fit(_FROZEN_X, labels, reg,
# epochs=7, seed=5), recorded from the original per-step Pegasos loop
_FROZEN_SVM = {
    "three": (
        np.arange(30) % 3,
        0.01,
        [
            [-0.8290322580645154, -0.43838709677419413, 0.6183870967741936, 0.20645161290322483],
            [0.2700000000000009, -0.22193548387096762, -1.3654838709677426, -0.0019354838709669808],
            [0.30290322580644957, 1.092903225806452, 0.5761290322580646, -0.11838709677419386],
        ],
        [-1.1468074680706497, -0.9402179950257865, -1.1286021383024063],
    ),
    "two": (
        np.arange(30) % 2,
        0.01,
        [
            [-0.7325806451612925, -1.8335483870967744, 0.1525806451612905, -1.7400000000000002],
            [0.7325806451612925, 1.8335483870967744, -0.1525806451612905, 1.7400000000000002],
        ],
        [-0.1319992678170373, 0.1319992678170373],
    ),
    "noreg": (
        np.arange(30) % 3,
        0.0,
        [
            [-3.0959999999999983, 0.03899999999999837, 0.514999999999999, -0.1640000000000029],
            [-0.19800000000000084, -1.3230000000000017, -4.238999999999998, -0.08999999999999864],
            [-1.5189999999999988, 1.860000000000001, 1.56, -0.5919999999999993],
        ],
        [-2.0, -1.0, -2.0],
    ),
}


@pytest.mark.parametrize("case", sorted(_FROZEN_SVM))
def test_svm_fit_frozen_trajectory(case):
    """The seeded Pegasos trajectory itself, not only its behaviour."""
    labels, reg, weights, biases = _FROZEN_SVM[case]
    model = svm_fit(_FROZEN_X, labels, reg=reg, epochs=7, seed=5)
    weights = np.array(weights)
    assert np.array_equal(model.biases, biases)
    err = np.abs(model.weights - weights).max()
    assert err <= 1e-12 * np.abs(weights).max()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"reg": -0.01}, "reg"),
        ({"reg": float("nan")}, "reg"),
        ({"reg": float("inf")}, "reg"),
        ({"epochs": 0}, "epochs"),
    ],
)
def test_svm_rejects_bad_hyperparameters(kwargs, message):
    with pytest.raises(ValueError, match=message):
        svm_fit(_FROZEN_X, np.arange(30) % 3, **kwargs)


@pytest.mark.parametrize("fit", [svm_fit, lambda X, y: pca_fit(X, y, 1)], ids=["svm", "pca"])
@pytest.mark.parametrize(
    "labels, message",
    [
        (np.where(np.arange(30) < 3, -1, np.arange(30) % 3), "non-negative"),
        (np.where(np.arange(30) == 4, 1.5, np.arange(30) % 3), "integers"),
        (np.where(np.arange(30) == 4, np.nan, np.arange(30) % 3), "integers"),
        (np.arange(29) % 3, "30 labels"),
        ((np.arange(30) % 3).astype(str), "integers"),
    ],
    ids=["negative", "fractional", "nan", "count", "text"],
)
def test_fit_rejects_bad_labels(fit, labels, message):
    with pytest.raises(ValueError, match=message):
        fit(_FROZEN_X, labels)


def test_fit_accepts_integral_float_labels():
    labels = np.arange(30) % 3
    a = svm_fit(_FROZEN_X, labels.astype(float), reg=0.01, epochs=2)
    b = svm_fit(_FROZEN_X, labels, reg=0.01, epochs=2)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.biases, b.biases)


def test_svm_single_class_rejected():
    with pytest.raises(ValueError):
        svm_fit(np.ones((4, 2)), np.zeros(4, dtype=int))


def test_svm_predict_tie_break():
    from rieszrep.classify import SvmModel

    model = SvmModel(
        weights=np.zeros((3, 2)), biases=np.zeros(3), reg=1e-4, epochs=1, seed=0
    )
    assert svm_predict(model, np.zeros((1, 2)))[0] == 0


def test_svm_argmax_matches_bruteforce(rng):
    from rieszrep.classify import SvmModel

    model = SvmModel(
        weights=rng.standard_normal((5, 6)),
        biases=rng.standard_normal(5),
        reg=1e-4,
        epochs=1,
        seed=0,
    )
    X = rng.standard_normal((20, 6))
    pred = svm_predict(model, X)
    for i, x in enumerate(X):
        scores = [w @ x + b for w, b in zip(model.weights, model.biases)]
        assert pred[i] == int(np.argmax(scores))


def test_svm_handles_shifted_data(rng):
    # a constant offset of all features is absorbed by the bias terms
    X = np.vstack(
        [rng.standard_normal((40, 2)) + [3, 0], rng.standard_normal((40, 2)) - [3, 0]]
    )
    y = np.repeat([0, 1], 40)
    shift = np.array([10.0, -4.0])
    acc_base, _ = evaluate(svm_fit(X, y, epochs=200, seed=0), X, y)
    model = svm_fit(X + shift, y, epochs=200, seed=0)
    acc_shift, _ = evaluate(model, X + shift, y)
    assert acc_base >= 0.99
    assert acc_shift >= acc_base - 0.02


def test_evaluate_perfect_and_constant(rng):
    X = rng.standard_normal((20, 2))
    y = np.repeat(np.arange(10), 2)

    class Stub:
        pass

    # perfect predictor via PCA on separable one-hot-ish data
    onehot = np.eye(10)[y] * 10 + rng.standard_normal((20, 10)) * 0.01
    model = pca_fit(onehot, y, 1)
    acc, confusion = evaluate(model, onehot, y)
    assert acc == 1.0
    assert np.all(confusion == np.diag(np.full(10, 2)))


def test_evaluate_hand_counted():
    from rieszrep.classify import SvmModel

    # scores = x -> class argmax(x)
    model = SvmModel(
        weights=np.eye(2), biases=np.zeros(2), reg=1e-4, epochs=1, seed=0
    )
    X = np.array(
        [[1, 0], [1, 0], [0, 1], [0, 1], [1, 0], [0, 1], [1, 0], [0, 1], [1, 0], [0, 1]],
        dtype=float,
    )
    y = np.array([0, 0, 1, 1, 1, 0, 0, 1, 0, 0])
    acc, confusion = evaluate(model, X, y)
    assert acc == pytest.approx(0.7)
    assert confusion.sum() == 10
    assert confusion[0].sum() == 6 and confusion[1].sum() == 4


def test_evaluate_empty_rejected():
    with pytest.raises(ValueError):
        evaluate(None, np.zeros((1, 2)), np.array([], dtype=int))


def test_evaluate_rejects_negative_label():
    from rieszrep.classify import SvmModel

    model = SvmModel(weights=np.eye(2), biases=np.zeros(2), reg=1e-4, epochs=1, seed=0)
    # numpy indexing would count label -1 in the last confusion row
    with pytest.raises(ValueError, match="non-negative"):
        evaluate(model, np.eye(2), np.array([-1, 1]))


def test_model_round_trip_svm(tmp_path, rng):
    X = rng.standard_normal((20, 5))
    y = rng.integers(0, 3, size=20)
    y[:3] = [0, 1, 2]
    model = svm_fit(X, y, seed=3, normalizer=maxabs_fit(X))
    path = tmp_path / "model.txt"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.weights, model.weights)
    assert np.array_equal(back.biases, model.biases)
    assert np.array_equal(back.normalizer.scales, model.normalizer.scales)
    assert (back.reg, back.epochs, back.seed) == (model.reg, model.epochs, model.seed)


def test_model_round_trip_pca(tmp_path, rng):
    X = rng.standard_normal((20, 6))
    y = np.repeat([0, 1], 10)
    model = pca_fit(X, y, 3)
    path = tmp_path / "model.txt"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.means, model.means)
    for a, b in zip(back.bases, model.bases):
        assert np.array_equal(a, b)


def test_model_bad_version(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not-a-model\n")
    with pytest.raises(ValueError, match="format"):
        load_model(path)


@pytest.mark.parametrize(
    "text, reason",
    [
        ("riesz-model v1\n", "truncated, line 2 is missing"),
        ("riesz-model v1\nkind svm\nclasses 2 dim 1\n", "truncated, line 4 is missing"),
        ("riesz-model v1\nkind svm\nclasses two dim 1\n", "bad line 3 'classes two dim 1'"),
        ("riesz-model v1\nkind pca\nclasses 1 dim 2\ncomponents 1\nclass 0 retained 1\n"
         "0 1\n0 x\n", "bad line 7 '0 x'"),
        ("riesz-model v1\nkind svm\nclasses 2 dim 2\nhyper reg 0.1 epochs 1 seed 0\n"
         "normalized 0\n1 2\n3 4\n0\n", "bad line 8 '0': expected 2 values, found 1"),
        ("riesz-model v1\nkind svm\nclasses 2 dim 2\nhyper reg 0.1 epochs 1 seed 0\n"
         "normalized 2\n1 2\n3 4\n5 6\n", "bad line 5 'normalized 2'"),
    ],
    ids=[
        "version-only",
        "no-hyper-line",
        "bad-class-count",
        "bad-sample",
        "short-biases",
        "bad-normalized-flag",
    ],
)
def test_load_model_malformed_names_path_and_line(tmp_path, text, reason):
    path = tmp_path / "model.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_model(path)
    assert str(info.value).startswith(f"{path}: {reason}")


def test_pca_basis_orthonormal(rng):
    X = rng.standard_normal((30, 10))
    y = np.repeat([0, 1, 2], 10)
    model = pca_fit(X, y, 4)
    for basis in model.bases:
        assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-8)
