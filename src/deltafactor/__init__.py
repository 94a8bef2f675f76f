"""Factored weight-delta adapters for linear and conv2d layers.

Three adapter families share one interface: low-rank products (lora),
Hadamard products of two low-rank branches (loha), and Kronecker products
with a factored right block (lokr), each with an optional Tucker form on
convolutions. The package adds exact-gradient training utilities, merge
and fit tools for dense deltas, diversity and style metrics, and a binary
weight container with a CLI front end.
"""

from .adapters import (
    ALGORITHMS,
    Adapter,
    AdapterModel,
    InvariantError,
    LayerShape,
    LohaAdapter,
    LokrAdapter,
    LoraAdapter,
    MergeScale,
    ModelMeta,
    forward_conv,
    forward_linear,
    init_adapter,
    init_model,
    lokr_factor_dims,
    max_rank_bound,
    merge,
    nkp_fit_lokr,
    param_count,
    random_adapter,
    reconstruct,
    scale_factors,
    svd_fit_lora,
)
from .tensor_core import NumericalError, ShapeError
from .weightfile import (
    BadMagicError,
    MalformedHeaderError,
    OffsetOverlapError,
    TruncatedPayloadError,
    WeightFileError,
    load_dense,
    load_weights,
    save_dense,
    save_weights,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "Adapter",
    "AdapterModel",
    "InvariantError",
    "LayerShape",
    "LohaAdapter",
    "LokrAdapter",
    "LoraAdapter",
    "MergeScale",
    "ModelMeta",
    "NumericalError",
    "ShapeError",
    "forward_conv",
    "forward_linear",
    "init_adapter",
    "init_model",
    "lokr_factor_dims",
    "max_rank_bound",
    "merge",
    "nkp_fit_lokr",
    "param_count",
    "random_adapter",
    "reconstruct",
    "scale_factors",
    "svd_fit_lora",
    "BadMagicError",
    "MalformedHeaderError",
    "OffsetOverlapError",
    "TruncatedPayloadError",
    "WeightFileError",
    "load_dense",
    "load_weights",
    "save_dense",
    "save_weights",
    "__version__",
]
