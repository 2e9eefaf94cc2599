"""numpy neural-network framework (the TensorFlow/Keras substitute).

Layers with explicit backprop, Keras-default initializers/optimizers,
the six DonkeyCar model architectures, a Keras-style training loop, and
``.npz`` model serialization.
"""

from repro.ml import initializers, layers, losses, metrics, optimizers
from repro.ml.models import (
    MODEL_NAMES,
    CategoricalModel,
    Conv3DModel,
    DonkeyModel,
    InferredModel,
    LinearModel,
    MemoryModel,
    RNNModel,
    create_model,
    register_model,
)
from repro.ml.network import Sequential
from repro.ml.optimizers import SGD, Adam, RMSProp, get_optimizer
from repro.ml.plan import InferencePlan
from repro.ml.serialize import (
    load_model,
    load_model_bytes,
    save_model,
    save_model_bytes,
)
from repro.ml.training import (
    EarlyStopping,
    History,
    Trainer,
    estimate_flops_per_sample,
)

__all__ = [
    "initializers",
    "layers",
    "losses",
    "metrics",
    "optimizers",
    "Sequential",
    "InferencePlan",
    "SGD",
    "Adam",
    "RMSProp",
    "get_optimizer",
    "Trainer",
    "History",
    "EarlyStopping",
    "estimate_flops_per_sample",
    "DonkeyModel",
    "LinearModel",
    "CategoricalModel",
    "InferredModel",
    "MemoryModel",
    "Conv3DModel",
    "RNNModel",
    "MODEL_NAMES",
    "create_model",
    "register_model",
    "save_model",
    "load_model",
    "save_model_bytes",
    "load_model_bytes",
]
