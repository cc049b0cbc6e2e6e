"""The library's error contract as one table: each refused call raises exactly its row's
error class with its whole one-line message, raises no warning, and leaves every array it
was given, and every file beside it, as they were."""

import dataclasses
import errno
import os
import struct
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest

from fedsmell.config import ExperimentConfig, parse_config
from fedsmell.data import (FEATURE_NAMES, LABEL_COLUMN, NUM_FEATURES, REBALANCE_MODES, Dataset,
                           concat_datasets, load_csv, partition_chunks, rebalance, save_csv,
                           split_train_test, synth_generate)
from fedsmell.errors import ConfigError, DataError, NumericError, field_types
from fedsmell.experiments import prepare_source, run_centralized
from fedsmell.federation import (REDUCER_MODES, ClientNode, FederationTopology, ModelUpdate,
                                 RoundConfig, client_update, combiner_aggregate, reducer_reduce,
                                 sample_clients, weights_checksum)
from fedsmell.metrics import (ConfusionMatrix, evaluate_model, interpret_kappa, interpret_roc,
                              roc_auc)
from fedsmell.nn import PARAM_COUNT, Hyperparams, load_weights, save_weights, unflatten_params
from test_cli_errors import MINIMAL, tree
from util import CHECKED_CLASSES, huge_column, make_dataset, random_dataset, run_rounds


class Row(NamedTuple):
    call: Callable  # the public function or record that refuses
    args: Callable  # tmp_path, the working directory -> the call's (args, kwargs)
    error: type
    message: str  # the whole str(exc)


def fixed(*args, **kwargs):
    """Arguments that need no file."""
    return lambda tmp_path: (args, kwargs)


def in_file(name, content, *args, **kwargs):
    """A file `name` holding `content` (text, bytes or a Dataset), passed first."""
    def build(tmp_path):
        if isinstance(content, Dataset):
            save_csv(content, tmp_path / name)
        else:
            (tmp_path / name).write_bytes(content.encode() if isinstance(content, str) else content)
        return (name, *args), kwargs
    return build


def a_directory(name):
    def build(tmp_path):
        (tmp_path / name).mkdir()
        return (name,), {}
    return build


def replaced(cls, base, **changes):
    """dataclasses.replace's arguments: a `cls` built from `base`, and the changes."""
    return lambda tmp_path: ((cls(**base),), changes)


def csv_of(*rows, header=(*FEATURE_NAMES, LABEL_COLUMN)):
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


def config_row(text, message, name="c.ini", **kwargs):
    return Row(parse_config, in_file(name, text, **kwargs), ConfigError,
               f"config {name}: {message}")


def client(client_id=0, combiner_id=0):
    return ClientNode(client_id, random_dataset(20, 10, seed=client_id), Hyperparams(), combiner_id)


def shown(value) -> str:
    """A refused value as its message shows it: the repr, cut after 200 characters."""
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


FEDERATED = "[experiment]\nkind = federated\ndatasets = a.csv, b.csv\n[data]\n"
ROW = "row {}: feature cells must be finite and the label 0 or 1"
MISSING = f"cannot read: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{{}}'"
SHORT = f"parameter vector must have length {PARAM_COUNT}, got shape "
ALPHA = random_dataset(40, 20, seed=0, name="alpha")
GRID = make_dataset(np.arange(3 * NUM_FEATURES).reshape(3, NUM_FEATURES), [0, 1, 0])
WEIGHTS = np.zeros(PARAM_COUNT)
CENTRALIZED = {"kind": "centralized", "datasets": ("a.csv",)}
# A wrong-typed value of a checked field, and why it is refused.
BAD_VALUES = [
    ("datasets", "abc", "expected a list of str"), ("rounds", "3", "expected int"),
    ("seed", True, "expected int"), ("batch_size", 32.0, "expected int"),
    ("chunks", ["a"], "expected int"), ("out_dir", 5, "expected str"),
    ("test_fraction", None, "expected float"), ("batch_size", 2.5, "expected int"),
    ("datasets", ("a\0.csv",), "contains a NUL character"),
    ("out_dir", "o\0ut", "contains a NUL character"),
    ("rounds", 2.5, "expected int"), ("seed", 1.5, "expected int"),
    ("batch_size", True, "expected int"), ("client_fraction", True, "expected float"),
    ("local_epochs", np.int64(1), "expected int"),
    # The records a library caller builds for a federation and its scores.
    ("combiner_id", True, "expected int"), ("combiner_id", 0.0, "expected int"),
    ("sample_count", True, "expected int"), ("sample_count", 2.5, "expected int"),
    ("weights", [0.0] * PARAM_COUNT, "expected ndarray"), ("local_data", "x", "expected Dataset"),
    ("hyper", None, "expected Hyperparams"), ("clients", ("x",), "expected ClientNode"),
    ("combiners", range(1), "expected a list of int"), ("tp", 1.5, "expected int"),
]

LIBRARY_ERRORS = {
    "load-csv-missing-column": Row(load_csv, in_file("x.csv", csv_of(
        [1] * 15 + [0], header=[n for n in (*FEATURE_NAMES, LABEL_COLUMN) if n != "LCOM"])),
        DataError, "missing required column 'LCOM'"),
    # Read from the last copy, a file's labels would come out flipped.
    "load-csv-label-column-twice": Row(load_csv, in_file("x.csv", csv_of(
        [1] * 16 + [1, 0], header=(*FEATURE_NAMES, LABEL_COLUMN, "IS_GOD_CLASS"))), DataError,
        "required column 'is_god_class' is repeated"),
    "load-csv-feature-column-twice": Row(load_csv, in_file("x.csv", csv_of(
        [5] + [1] * 16 + [1], header=(" noc ", *FEATURE_NAMES, LABEL_COLUMN))), DataError,
        "required column 'NOC' is repeated"),
    "load-csv-non-numeric-cell": Row(load_csv, in_file("x.csv", csv_of(
        [1] * 16 + [0], ["oops"] + [1] * 15 + [0])), DataError,
        "row 3: non-numeric cell (could not convert string to float: 'oops')"),
    "load-csv-empty": Row(load_csv, in_file("x.csv", ""), DataError, "empty file"),
    "load-csv-missing": Row(load_csv, fixed("x.csv"), DataError, MISSING.format("x.csv")),
    "load-csv-directory": Row(load_csv, a_directory("x.csv"), DataError,
                              "cannot read: x.csv is not a regular file"),
    "load-csv-nul-in-path": Row(load_csv, fixed("a\0b.csv"), DataError,
                                "cannot read: embedded null byte"),
    **{f"load-csv-label-{label}": Row(load_csv, in_file("x.csv", csv_of(
        [1] * 16 + [1], [1] * 16 + [label])), DataError, ROW.format(3))
       for label in ("2", "0.7", "1.9", "-1", "nan")},
    **{f"load-csv-feature-{cell}": Row(load_csv, in_file("x.csv", csv_of(
        [1] * 16 + [0], [1] * 16 + [1], [1] * 15 + [cell, 0])), DataError, ROW.format(4))
       for cell in ("nan", "inf", "-inf")},
    # Of several bad rows the first is named: here a nan before a non-numeric cell.
    "load-csv-first-bad-row": Row(load_csv, in_file("x.csv", csv_of(
        [1] * 16 + [0], [1] * 15 + ["nan", 1], [1] * 16 + [1], [1] * 15 + ["x", 0])),
        DataError, ROW.format(3)),
    # The forward and backward passes trust these invariants and check none of them.
    **{f"dataset-{value}-feature": Row(Dataset, fixed(
        "x", np.where(np.arange(32).reshape(2, 16) == 19, value, 0.0), [0, 1]), NumericError,
        "dataset 'x' contains non-finite features") for value in (np.nan, np.inf, -np.inf)},
    **{f"dataset-{width}-features": Row(Dataset, fixed("x", np.ones((1, width)), [0]),
                                        DataError, f"features must be (n, 16), got (1, {width})")
       for width in (5, NUM_FEATURES - 1)},
    **{f"dataset-{case}": Row(Dataset, fixed("x", np.zeros((rows, NUM_FEATURES)), labels),
                              DataError, "labels must align 1:1 with feature rows")
       for case, rows, labels in (("row-without-label", 3, [0, 1]),
                                  ("label-without-row", 1, [1, 0]), ("2d-labels", 2, [[0], [1]]))},
    # Checked before the int64 cast, which would truncate 0.7 to 0 and has no value for nan.
    **{f"dataset-label-{label}": Row(Dataset, fixed("x", np.zeros((2, NUM_FEATURES)), [0, label]),
                                     DataError, "dataset 'x' labels must be 0 or 1")
       for label in (2, -1, 0.7, 1.5, -0.2, np.nan, np.inf, -np.inf)},
    "dataset-empty": Row(Dataset, fixed("x", np.zeros((0, NUM_FEATURES)), np.zeros(0, int)),
                         DataError, "dataset must contain at least one sample"),
    # An int cast would read a mask as rows 1, 0, 1 and 1.9 as row 1; -1 would pick the
    # last row, and 3 would raise a bare IndexError.
    **{f"subset-{case}": Row(Dataset.subset, fixed(GRID, indices), DataError, message)
       for case, indices, message in (
           ("bool-list", [True, False, True], "subset indices must be integers"),
           ("bool-array", np.array([True, False, True]), "subset indices must be integers"),
           ("float-list", [1.9], "subset indices must be integers"),
           ("float-array", np.array([1.0]), "subset indices must be integers"),
           ("negative", [-1], "subset indices must be in [0, 3)"),
           ("past-the-end", [0, 3], "subset indices must be in [0, 3)"),
           ("past-the-end-uint8", np.array([2, 3], np.uint8), "subset indices must be in [0, 3)"),
           ("empty", [], "dataset must contain at least one sample"))},
    "concat-zero-datasets": Row(concat_datasets, fixed("none", []), DataError,
                                "cannot concatenate zero datasets"),
    "split-class-of-one": Row(split_train_test, fixed(make_dataset(
        np.zeros((3, NUM_FEATURES)), [0, 0, 1]), 0.3, 0), DataError,
        "dataset 'fixture': class 1 has fewer than 2 samples, cannot stratify"),
    "split-fraction-1": Row(split_train_test, fixed(ALPHA, 1.0, 0), DataError,
                            "test_fraction must be in (0, 1)"),
    **{f"split-empties-{side}": Row(split_train_test, fixed(ALPHA, fraction, 0), DataError,
                                    f"dataset 'alpha': test_fraction {fraction} leaves the "
                                    f"{side} split empty")
       for fraction, side in ((0.01, "test"), (0.99, "training"))},
    "partition-more-chunks-than-rows": Row(partition_chunks, fixed(ALPHA, 41, 0), DataError,
                                           "cannot split 40 samples into 41 chunks"),
    "partition-zero-chunks": Row(partition_chunks, fixed(ALPHA, 0, 0), DataError,
                                 "chunk count must be >= 1"),
    "rebalance-single-class": Row(rebalance, fixed(make_dataset(
        np.zeros((5, NUM_FEATURES)), [1] * 5), "oversample", 0), DataError,
        "dataset 'fixture' has a single class, cannot rebalance"),
    "rebalance-unknown-mode": Row(rebalance, fixed(ALPHA, "smote", 0), DataError,
                                  "unknown rebalance mode 'smote'"),
    "synth-too-few-samples": Row(synth_generate, fixed(5, 0.5, 0.0, seed=0), DataError,
                                 "synthetic datasets need at least 10 samples"),
    "synth-positive-rate-1": Row(synth_generate, fixed(100, 1.0, 0.0, seed=0), DataError,
                                 "positive_rate must be in (0, 1)"),
    # Under numpy's default float settings a stage stops the call with its dataset named.
    "prepare-source-std-overflows": Row(prepare_source, in_file(
        "huge.csv", huge_column(synth_generate(120, 0.5, 0.0, seed=4)), ExperimentConfig(
            kind="centralized", datasets=("huge.csv",)), 0), NumericError,
        "dataset huge.csv: overflow encountered in square"),
    "run-centralized-missing-dataset": Row(run_centralized, fixed(ExperimentConfig(
        kind="centralized", datasets=("x.csv",))), DataError,
        "dataset x.csv: " + MISSING.format("x.csv")),
    "parse-config-unknown-section": config_row(MINIMAL + "[cluster]\nnodes = 3\n",
                                               "unknown section 'cluster'"),
    "parse-config-no-kind": config_row("[experiment]\ndatasets = x.csv\n",
                                       "missing mandatory key 'kind'"),
    "parse-config-no-datasets": config_row("[experiment]\nkind = centralized\n",
                                           "missing mandatory key 'datasets'"),
    "parse-config-empty-datasets": config_row("[experiment]\nkind = centralized\ndatasets =\n",
                                              "datasets must list between 1 and 3 entries"),
    "parse-config-json-datasets-false": config_row(
        '{"kind": "centralized", "datasets": false}',
        "bad value for datasets: False (expected a list of str)", "bad.json"),
    "parse-config-json-kind-null": config_row('{"kind": null, "datasets": ["a.csv"]}',
                                              "bad value for kind: None (expected str)",
                                              "bad.json"),
    "parse-config-kind-mismatch": config_row(
        MINIMAL, "kind 'centralized' does not match requested 'federated'", kind="federated"),
    "parse-config-combiner-clients-sum": config_row(
        FEDERATED + "chunks = 2, 2\n[topology]\ncombiner_clients = 3, 2\n",
        "combiner_clients sums to 5 but chunks imply 4 clients"),
    "parse-config-chunks-per-dataset": config_row(FEDERATED + "chunks = 2\n",
                                                  "chunks must list one entry per dataset"),
    "parse-config-zero-chunks": config_row(FEDERATED + "chunks = 0, 2\n",
                                           "every chunk count must be >= 1"),
    "parse-config-combiner-without-clients": config_row(
        FEDERATED + "chunks = 2, 2\n[topology]\ncombiner_clients = 4, 0\n",
        "every combiner must be assigned at least one client"),
    "parse-config-cross-eval-two-datasets": config_row(
        "[experiment]\nkind = cross_eval\ndatasets = a.csv, b.csv\n",
        "cross_eval requires exactly 3 datasets"),
    "parse-config-four-datasets": config_row(MINIMAL.replace("a.csv", "a, b, c, d"),
                                             "datasets must list between 1 and 3 entries"),
    **{f"parse-config-{key}-{value}": config_row(
        MINIMAL + f"[{section}]\n{key} = {value}\n", message)
       for section, key, value, message in (
           ("data", "test_fraction", 1.5, "test_fraction must be in (0, 1)"),
           ("federation", "client_fraction", 0, "client_fraction must be in (0, 1]"),
           ("data", "rebalance", "smote", f"rebalance must be one of {REBALANCE_MODES}"),
           ("synth", "samples", 9, "synth samples must be >= 10"),
           ("synth", "positive_rate", 1, "synth positive_rate must be in (0, 1)"))},
    "parse-config-synth-shifts-per-dataset": config_row(
        "[experiment]\nkind = synth\ndatasets = a, b\n[synth]\nshifts = 1.0\n",
        "synth shifts must list one entry per dataset"),
    "parse-config-json-unknown-key": config_row(
        '{"kind": "centralized", "datasets": ["a.csv"], "nonsense": 1}', "unknown key 'nonsense'",
        "bad.json"),
    "parse-config-json-list": config_row('[{"kind": "centralized", "datasets": ["a.csv"]}]',
                                         "top level must be an object", "bad.json"),
    "experiment-config-bogus-kind": Row(ExperimentConfig, fixed(kind="bogus", datasets=("a",)),
                                        ConfigError, "kind must be one of ('centralized', "
                                        "'cross_eval', 'federated', 'synth')"),
    # Zero rounds would score the untrained initial weights as a result.
    "experiment-config-zero-rounds": Row(ExperimentConfig, fixed(**CENTRALIZED, rounds=0),
                                         ConfigError, "rounds must be >= 1"),
    "replace-negative-seed": Row(dataclasses.replace, replaced(ExperimentConfig, CENTRALIZED,
                                                               seed=-1),
                                 ConfigError, "seed must be >= 0"),
    **{f"{cls.__name__}-{name}-{value}": Row(cls, fixed(**{name: value}), ConfigError, message)
       for cls, name, value, message in (
           (RoundConfig, "rounds", 0, "rounds must be >= 1"),
           (RoundConfig, "client_fraction", 2, "client_fraction must be in (0, 1]"),
           (RoundConfig, "reducer_mode", "odd", f"reducer_mode must be one of {REDUCER_MODES}"),
           (RoundConfig, "seed", -1, "seed must be >= 0"),
           (Hyperparams, "learning_rate", -1.0, "learning_rate must be finite and >= 0"),
           (Hyperparams, "batch_size", 0, "batch_size must be >= 1"),
           (Hyperparams, "local_epochs", 0, "local_epochs must be >= 1"))},
    # Every checked class with the field refuses the value, built or replaced, with the
    # same message and its own error class.
    **{f"{cls.__name__}-{how}-{name}-{ascii(value)[:24]}": Row(
        call, build, error, f"bad value for {name}: {shown(value)} ({reason})")
       for name, value, reason in BAD_VALUES for cls, error, base in CHECKED_CLASSES
       if name in field_types(cls)
       for how, call, build in (("built", cls, fixed(**{**base, name: value})),
                                ("replaced", dataclasses.replace,
                                 replaced(cls, base, **{name: value})))},
    # A (2, 4958) array would otherwise hash like the flat zero vector.
    "weights-checksum-2d": Row(weights_checksum, fixed(WEIGHTS.reshape(2, -1)), DataError,
                               SHORT + "(2, 4958)"),
    "weights-checksum-short": Row(weights_checksum, fixed(WEIGHTS[:-1]), DataError,
                                  SHORT + "(9915,)"),
    "client-update-short-weights": Row(client_update, fixed(client(), np.zeros(10), 0),
                                       DataError, SHORT + "(10,)"),
    "combiner-no-updates": Row(combiner_aggregate, fixed([]), DataError,
                               "cannot average zero weight vectors"),
    "combiner-lengths-differ": Row(combiner_aggregate, fixed(
        [ModelUpdate(0, np.zeros(4), 1), ModelUpdate(1, np.zeros(5), 1)]), DataError,
        "all weight vectors must share one length"),
    "model-update-no-samples": Row(ModelUpdate, fixed(0, np.zeros(4), 0), DataError,
                                   "sample_count must be positive"),
    "reducer-no-models": Row(reducer_reduce, fixed([], np.zeros(3), t=1), DataError,
                             "cannot average zero weight vectors"),
    "reducer-round-0": Row(reducer_reduce, fixed([np.zeros(3)], np.zeros(3), t=0), DataError,
                           "round index t must be >= 1"),
    "reducer-unknown-mode": Row(reducer_reduce, fixed([np.zeros(3)], np.zeros(3), 1, "magic"),
                                DataError, "unknown reducer mode 'magic'"),
    "reducer-previous-length": Row(reducer_reduce, fixed([np.zeros(3)], np.zeros(4), 2,
                                                         "smoothed"),
                                   DataError, "previous global weights must match model length"),
    "sample-clients-fraction-0": Row(sample_clients, fixed(
        FederationTopology((0,), (client(),)), 0.0, 0), DataError, "fraction must be in (0, 1]"),
    **{f"topology-{case}": Row(FederationTopology, fixed(combiners, clients), DataError, message)
       for case, combiners, clients, message in (
           ("empty", (), (), "topology needs at least one combiner and one client"),
           ("client-ids-repeated", (0,), (client(), client()), "client ids must be unique"),
           ("unknown-combiner", (0,), (client(0, 9),), "client 0 maps to unknown combiner 9"),
           ("combiner-without-clients", (0, 1), (client(),),
            "every combiner must have at least one client"),
           ("combiner-ids-repeated", (0, 0), (client(),), "combiner ids must be unique"))},
    # A float id would replay the shuffle stream of the int it rounds to, since derive_seed
    # calls int() on each part. The type falls to the field rule, the sign to ClientNode's own.
    **{f"client-id-{case}": Row(ClientNode, fixed(client_id, ALPHA, Hyperparams(), 0),
                                DataError, message)
       for case, client_id, message in (
           ("float", 1.5, "bad value for id: 1.5 (expected int)"),
           ("bool", True, "bad value for id: True (expected int)"),
           ("str", "1", "bad value for id: '1' (expected int)"),
           ("numpy-int", np.int64(1), f"bad value for id: {shown(np.int64(1))} (expected int)"),
           ("negative", -1, "client ids must be non-negative ints, not -1"))},
    "iter-rounds-unscorable-test-set": Row(run_rounds, fixed(
        FederationTopology((0, 1), (client(0, 0), client(1, 1))), RoundConfig(rounds=1, seed=0),
        make_dataset(ALPHA.features, [0] * 40, name="test")), DataError,
        "round 1: ROC needs at least one sample of each class"),
    "confusion-matrix-empty": Row(ConfusionMatrix, fixed(0, 0, 0, 0), DataError,
                                  "confusion matrix is empty"),
    "confusion-cell-negative": Row(ConfusionMatrix, fixed(tp=2, tn=1, fp=-1, fn=0), DataError,
                                   "confusion cell fp must be non-negative"),
    "roc-single-class": Row(roc_auc, fixed([0.5, 0.6], [1, 1]), DataError,
                            "ROC needs at least one sample of each class"),
    "roc-lengths-differ": Row(roc_auc, fixed([0.5, 0.6, 0.7], [0, 1]), DataError,
                              "scores and labels must be matching 1-D arrays"),
    **{f"roc-score-{score}": Row(roc_auc, fixed([0.5, score], [0, 1]), NumericError,
                                 "prediction scores contain non-finite values")
       for score in (np.nan, np.inf)},
    # An int cast before the check would give 2.0 for [0, 1, 2] and 1.0 for the others.
    **{f"roc-labels-{labels}": Row(roc_auc, fixed([0.1, 0.9, 0.5], labels), DataError,
                                   "labels must be 0 or 1")
       for labels in ([0, 1, 2], [0, 1, 0.5], [0, 1.7, 0], [0, 1, np.nan])},
    "kappa-band-1.5": Row(interpret_kappa, fixed(1.5), DataError,
                          "kappa must be in [-1, 1], got 1.5"),
    "roc-band-negative": Row(interpret_roc, fixed(-0.1), DataError,
                             "ROC area must be in [0, 1], got -0.1"),
    "evaluate-single-class": Row(evaluate_model, fixed(
        WEIGHTS, make_dataset(ALPHA.features, [0] * 40)), DataError,
        "ROC needs at least one sample of each class"),
    "unflatten-short": Row(unflatten_params, fixed(WEIGHTS[:-1]), DataError, SHORT + "(9915,)"),
    "load-weights-one-value-short": Row(load_weights, in_file(
        "w.fwv", struct.pack("<I", PARAM_COUNT) + bytes(8 * (PARAM_COUNT - 1))), DataError,
        f"checkpoint declares {PARAM_COUNT} values but holds {PARAM_COUNT - 1}"),
    "load-weights-shorter-than-the-count": Row(load_weights, in_file("w.fwv", b"\x02\x00\x00"),
                                               DataError, "checkpoint file is truncated"),
    "load-weights-five-values": Row(load_weights, in_file(
        "w.fwv", struct.pack("<I", 5) + bytes(40)), DataError, SHORT + "(5,)"),
    "load-weights-missing": Row(load_weights, fixed("w.fwv"), DataError, MISSING.format("w.fwv")),
    "load-weights-directory": Row(load_weights, a_directory("w.fwv"), DataError,
                                  "cannot read: w.fwv is not a regular file"),
    "load-weights-nul-in-path": Row(load_weights, fixed("a\0b.fwv"), DataError,
                                    "cannot read: embedded null byte"),
    # Only the canonical vector is a .fwv; nothing is written for any other.
    **{f"save-weights-{shape}": Row(save_weights, fixed("w.fwv", np.zeros(shape)), DataError,
                                    SHORT + str(shape))
       for shape in ((2, PARAM_COUNT // 2), (5,), (PARAM_COUNT + 1,))},
}


def arrays(value):
    """Every ndarray in an argument, through lists, tuples, dicts and dataclass fields."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from arrays(item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            yield from arrays(getattr(value, field.name))


@pytest.mark.parametrize("row", [pytest.param(row, id=case)
                                 for case, row in LIBRARY_ERRORS.items()])
def test_library_error(tmp_path, monkeypatch, row):
    monkeypatch.chdir(tmp_path)
    args, kwargs = row.args(tmp_path)
    given = list(arrays([args, kwargs]))
    before = tree(tmp_path), [(array.tobytes(), array.flags.writeable) for array in given]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(Exception) as raised:
            row.call(*args, **kwargs)
    message = str(raised.value)
    assert (type(raised.value), caught) == (row.error, []), message
    assert "\n" not in message
    assert message == row.message
    assert (tree(tmp_path), [(a.tobytes(), a.flags.writeable) for a in given]) == before
