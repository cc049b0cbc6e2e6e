"""Dataset ingestion, normalization, splitting, chunking, rebalancing, synthesis."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedsmell.data import (CLASS_AXIS, CONTEXT_AXIS, FEATURE_NAMES, LABEL_COLUMN,
                           NUM_FEATURES, apply_normalizer, concat_datasets, domain_shift,
                           extract_chunks, fit_normalizer, load_csv, partition_chunks,
                           rebalance, save_csv, split_train_test, synth_generate)
from fedsmell.errors import (DataError, NumericError, ParseError, SchemaError,
                             StructuralError)
from util import make_dataset, random_dataset, rows_multiset


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def full_header(extra=()):
    return list(FEATURE_NAMES) + [LABEL_COLUMN] + list(extra)


# ----------------------------------------------------------------- load_csv

def test_load_csv_reads_rows_in_order(tmp_path):
    path = tmp_path / "three.csv"
    rows = [list(range(16)) + [1],
            [x * 0.5 for x in range(16)] + [0],
            [-1.0] * 16 + [0]]
    write_csv(path, full_header(), rows)
    d = load_csv(path)
    assert d.name == "three"
    assert len(d) == 3
    assert np.array_equal(d.features[0], np.arange(16.0))
    assert list(d.labels) == [1, 0, 0]


def test_load_csv_missing_column_names_it(tmp_path):
    path = tmp_path / "broken.csv"
    header = [name for name in full_header() if name != "LCOM"]
    write_csv(path, header, [[1] * 15 + [0]])
    with pytest.raises(SchemaError, match="LCOM"):
        load_csv(path)


def test_load_csv_ignores_extra_columns_and_matches_case_insensitively(tmp_path):
    path = tmp_path / "extra.csv"
    header = [name.lower() for name in FEATURE_NAMES] + ["project", LABEL_COLUMN.upper()]
    write_csv(path, header, [[float(i) for i in range(16)] + ["ant", 1]])
    d = load_csv(path)
    assert len(d) == 1
    assert d.labels[0] == 1


def test_load_csv_nonnumeric_cell_reports_row_number(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, full_header(), [[1] * 16 + [0], ["oops"] + [1] * 15 + [0]])
    with pytest.raises(ParseError, match="row 3"):
        load_csv(path)


def test_load_csv_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(StructuralError):
        load_csv(path)


def test_load_csv_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        load_csv(tmp_path / "nope.csv")


def test_load_csv_bad_label_rejected(tmp_path):
    path = tmp_path / "label.csv"
    for label in ("2", "0.7", "1.9", "-1", "nan"):
        write_csv(path, full_header(), [[1] * 16 + [1], [1] * 16 + [label]])
        with pytest.raises(ParseError, match="row 3"):
            load_csv(path)
    write_csv(path, full_header(), [[1] * 16 + ["1.0"], [1] * 16 + ["0.0"]])
    assert list(load_csv(path).labels) == [1, 0]


def test_load_csv_nonfinite_feature_reports_row_number(tmp_path):
    path = tmp_path / "nonfinite.csv"
    for cell in ("nan", "inf", "-inf"):
        rows = [[1] * 16 + [0], [1] * 16 + [1], [1] * 15 + [cell] + [0]]
        write_csv(path, full_header(), rows)
        with pytest.raises(ParseError, match="row 4"):
            load_csv(path)


def test_save_load_roundtrip(tmp_path):
    d = random_dataset(20, 6, seed=1, name="round")
    path = tmp_path / "round.csv"
    save_csv(d, path)
    loaded = load_csv(path)
    assert rows_multiset(loaded) == rows_multiset(d)


# ------------------------------------------------------------ normalization

def test_normalizer_zero_mean_unit_std_on_fit_set():
    d = random_dataset(200, 60, seed=3)
    stats = fit_normalizer(d)
    normalized = apply_normalizer(d, stats)
    assert np.all(np.abs(normalized.features.mean(axis=0)) <= 1e-9)
    assert np.all(np.abs(normalized.features.std(axis=0) - 1.0) <= 1e-9)


def test_normalizer_constant_feature_maps_to_zero():
    features = np.random.default_rng(0).standard_normal((50, NUM_FEATURES))
    features[:, 4] = 3.25
    d = make_dataset(features, [0, 1] * 25)
    normalized = apply_normalizer(d, fit_normalizer(d))
    assert np.all(normalized.features[:, 4] == 0.0)


# -------------------------------------------------------------------- split

def test_split_stratified_counts():
    d = random_dataset(100, 10, seed=5)
    train, test = split_train_test(d, 0.3, seed=0)
    assert test.class_counts() == (27, 3)
    assert train.class_counts() == (63, 7)


def test_split_deterministic_and_partitioning():
    d = random_dataset(120, 30, seed=2)
    a_train, a_test = split_train_test(d, 0.3, seed=11)
    b_train, b_test = split_train_test(d, 0.3, seed=11)
    assert rows_multiset(a_train) == rows_multiset(b_train)
    assert np.array_equal(a_test.features, b_test.features)
    combined = rows_multiset(concat_datasets("all", [a_train, a_test]))
    assert combined == rows_multiset(d)


def test_split_rejects_tiny_class():
    d = make_dataset(np.zeros((3, NUM_FEATURES)), [0, 0, 1])
    with pytest.raises(StructuralError):
        split_train_test(d, 0.3, seed=0)


def test_split_rejects_bad_fraction():
    d = random_dataset(20, 10, seed=0)
    with pytest.raises(StructuralError):
        split_train_test(d, 1.0, seed=0)


# ---------------------------------------------------------------- chunking

def test_partition_sizes_near_equal():
    d = random_dataset(12587, 485, seed=0)
    chunks = partition_chunks(d, 4, seed=1)
    assert sorted(len(c) for c in chunks) == [3146, 3147, 3147, 3147]

    d5 = random_dataset(18441, 96, seed=0)
    chunks5 = partition_chunks(d5, 5, seed=1)
    assert sorted(len(c) for c in chunks5) == [3688, 3688, 3688, 3688, 3689]


def test_partition_single_chunk_is_identity():
    d = random_dataset(40, 10, seed=4)
    chunks = partition_chunks(d, 1, seed=9)
    assert len(chunks) == 1 and np.array_equal(chunks[0], np.arange(40))
    [chunk] = extract_chunks(d, chunks)
    assert np.array_equal(chunk.features, d.features)


def test_partition_rejects_too_many_chunks():
    d = random_dataset(10, 4, seed=0)
    with pytest.raises(StructuralError):
        partition_chunks(d, 11, seed=0)


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=10 ** 6))
def test_partition_disjoint_exhaustive_balanced(n, k, seed):
    if k > n:
        n = k
    d = random_dataset(n + 2, 1, seed=0)
    chunks = partition_chunks(d, k, seed=seed)
    flat = [i for chunk in chunks for i in chunk]
    assert sorted(flat) == list(range(len(d)))
    sizes = [len(c) for c in chunks]
    assert max(sizes) - min(sizes) <= 1


# --------------------------------------------------------------- rebalance

def test_oversample_equalizes_classes():
    d = random_dataset(100, 10, seed=7)
    balanced = rebalance(d, "oversample", seed=1)
    assert balanced.class_counts() == (90, 90)


def test_undersample_equalizes_classes():
    d = random_dataset(100, 10, seed=7)
    balanced = rebalance(d, "undersample", seed=1)
    assert balanced.class_counts() == (10, 10)


def test_rebalance_balanced_input_is_fixed_point():
    d = random_dataset(40, 20, seed=8)
    for mode in ("oversample", "undersample", "none"):
        assert rows_multiset(rebalance(d, mode, seed=3)) == rows_multiset(d)


def test_oversample_only_duplicates_existing_minority_rows():
    d = random_dataset(60, 12, seed=10)
    balanced = rebalance(d, "oversample", seed=4)
    original = rows_multiset(d)
    extras = list(rows_multiset(balanced))
    for row in original:
        extras.remove(row)  # original multiset is preserved intact
    minority_rows = {tuple(d.features[i]) + (1,) for i in np.flatnonzero(d.labels == 1)}
    assert all(row in minority_rows for row in extras)


def test_rebalance_single_class_rejected():
    d = make_dataset(np.zeros((5, NUM_FEATURES)), [1] * 5)
    with pytest.raises(StructuralError):
        rebalance(d, "oversample", seed=0)


def test_rebalance_unknown_mode_rejected():
    d = random_dataset(20, 10, seed=0)
    with pytest.raises(StructuralError):
        rebalance(d, "smote", seed=0)


# ------------------------------------------------------------------- synth

def test_synth_deterministic():
    a = synth_generate(200, 0.4, 0.0, seed=21)
    b = synth_generate(200, 0.4, 0.0, seed=21)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_synth_label_rate_concentrates():
    n = 4000
    d = synth_generate(n, 0.3, 0.0, seed=5)
    assert abs(d.labels.mean() - 0.3) <= 2.0 / np.sqrt(n)


def test_synth_shift_translates_population():
    shift = domain_shift(3.0)
    plain = synth_generate(5000, 0.5, 0.0, seed=12)
    shifted = synth_generate(5000, 0.5, shift, seed=12)
    assert np.allclose(shifted.features - plain.features, shift)


def test_synth_axes_are_orthonormal():
    assert abs(np.dot(CLASS_AXIS, CLASS_AXIS) - 1.0) <= 1e-12
    assert abs(np.dot(CONTEXT_AXIS, CONTEXT_AXIS) - 1.0) <= 1e-12
    assert abs(np.dot(CLASS_AXIS, CONTEXT_AXIS)) <= 1e-12
    assert abs(np.linalg.norm(domain_shift(3.0)) - 3.0) <= 1e-12


def test_synth_rejects_bad_arguments():
    with pytest.raises(StructuralError):
        synth_generate(5, 0.5, 0.0, seed=0)
    with pytest.raises(StructuralError):
        synth_generate(100, 1.0, 0.0, seed=0)


def test_dataset_rejects_nonfinite_features():
    features = np.zeros((4, NUM_FEATURES))
    features[2, 3] = np.inf
    with pytest.raises(NumericError):
        make_dataset(features, [0, 1, 0, 1])


# The forward and backward passes trust these invariants and check none of them.

def test_dataset_rejects_wrong_feature_width_and_nan():
    with pytest.raises(StructuralError):
        make_dataset(np.ones((1, 5)), [0])
    features = np.ones((1, NUM_FEATURES))
    features[0, 3] = np.nan
    with pytest.raises(NumericError):
        make_dataset(features, [0])


def test_dataset_rejects_one_feature_column_short():
    with pytest.raises(StructuralError):
        make_dataset(np.ones((1, NUM_FEATURES - 1)), [0])


def test_dataset_rejects_labels_other_than_0_and_1():
    for label in (2, -1):
        with pytest.raises(StructuralError):
            make_dataset(np.zeros((2, NUM_FEATURES)), [0, label])


def test_dataset_rejects_empty_batch():
    with pytest.raises(StructuralError):
        make_dataset(np.zeros((0, NUM_FEATURES)), np.zeros(0, dtype=int))
