"""Federated god-class code-smell detection on tabular code metrics."""

from .config import ExperimentConfig, parse_config
from .data import (Dataset, FEATURE_NAMES, NormalizationStats, apply_normalizer,
                   fit_normalizer, load_csv, partition_chunks, rebalance, split_train_test,
                   synth_generate)
from .errors import ConfigError, DataError, FedsmellError, NumericError
from .federation import (ClientNode, FederationTopology, ModelUpdate, RoundConfig,
                         RoundLog, client_update, combiner_aggregate, iter_rounds,
                         reducer_reduce, sample_clients)
from .metrics import (ConfusionMatrix, MetricReport, accuracy, cohen_kappa, evaluate_model,
                      interpret_kappa, interpret_roc, roc_auc)
from .nn import (Hyperparams, ModelParams, PARAM_COUNT, init_params, load_weights, save_weights,
                 unflatten_params)

__version__ = "0.1.0"
