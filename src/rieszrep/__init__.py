"""Scale- and translation-equivariant hierarchical Riesz features."""

from .classify import (
    MaxAbsNormalizer,
    PcaClassModel,
    SvmModel,
    evaluate,
    load_model,
    maxabs_fit,
    pca_fit,
    pca_predict,
    save_model,
    svm_fit,
    svm_predict,
)
from .image_core import (
    FormatError,
    NonFiniteImageError,
    fft2,
    ifft2,
    load_gray_image,
    load_idx,
    minmax_normalize,
)
from .preprocess import BlankImageError, bbox_extract, rescale
from .representation import (
    RieszConfig,
    Workspace,
    build_hierarchy,
    extract_features,
    feature_count,
    feature_paths,
    gaussian_presmooth,
    layer_S,
)
from .riesz import (
    MonogenicSignal,
    energy_identity,
    hilbert2_steered,
    hilbert_steered,
    local_amplitude,
    local_orientation,
    local_phase,
    monogenic,
    reconstruct_from_order,
    riesz_multiplier,
    riesz_transform,
)

__version__ = "0.1.0"
