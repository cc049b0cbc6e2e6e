"""Dataset ingestion, normalization, splitting, chunking, rebalancing, synthesis."""

import builtins
import csv
import io
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedsmell import data as datamod
from fedsmell.data import (CLASS_AXIS, CONTEXT_AXIS, FEATURE_NAMES, LABEL_COLUMN,
                           NUM_FEATURES, apply_normalizer, concat_datasets, domain_shift,
                           extract_chunks, fit_normalizer, load_csv, partition_chunks,
                           rebalance, save_csv, split_train_test, synth_generate)
from fedsmell.errors import DataError, FedsmellError, NumericError
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
    with pytest.raises(DataError, match="LCOM"):
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
    with pytest.raises(DataError, match="row 3"):
        load_csv(path)


def test_load_csv_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError):
        load_csv(path)


def test_load_csv_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        load_csv(tmp_path / "nope.csv")


def test_load_csv_bad_label_rejected(tmp_path):
    path = tmp_path / "label.csv"
    for label in ("2", "0.7", "1.9", "-1", "nan"):
        write_csv(path, full_header(), [[1] * 16 + [1], [1] * 16 + [label]])
        with pytest.raises(DataError, match="row 3"):
            load_csv(path)
    write_csv(path, full_header(), [[1] * 16 + ["1.0"], [1] * 16 + ["0.0"]])
    assert list(load_csv(path).labels) == [1, 0]


def test_load_csv_nonfinite_feature_reports_row_number(tmp_path):
    path = tmp_path / "nonfinite.csv"
    for cell in ("nan", "inf", "-inf"):
        rows = [[1] * 16 + [0], [1] * 16 + [1], [1] * 15 + [cell] + [0]]
        write_csv(path, full_header(), rows)
        with pytest.raises(DataError, match="row 4"):
            load_csv(path)


def test_save_load_roundtrip(tmp_path):
    d = random_dataset(20, 6, seed=1, name="round")
    path = tmp_path / "round.csv"
    save_csv(d, path)
    loaded = load_csv(path)
    assert rows_multiset(loaded) == rows_multiset(d)


# The cell-by-cell reader is load_csv's oracle: on every input, load_csv
# returns its table bit for bit or raises its exception and message.

COLUMNS = list(FEATURE_NAMES) + [LABEL_COLUMN]
GOOD_ROWS = [[f"{0.25 * (i + j)!r}" for j in range(16)] + [str(i % 2)] for i in range(3)]
# Cells that numpy's reader and float() may disagree on, or both reject.
ODD_CELLS = ["1_0", " 2 ", "\t3", "\u0663", "nan", "1e500", "0x1", "#", "", '"4"',
             '" 5 "', '"6\n"', '"7"8', "-0", "+1e-3", "inf", "\xa09", "1\x00"]
EXTRA_CELLS = ["ant", "", "#", '"a,b"', '"multi\nline"', '"cr\r\nlf"', '"q""uote"',
               'x"y', "\u0663", "1_0"]


def read_outcome(reader, path):
    """A reader's dataset as exact bytes, or its error's type and message."""
    try:
        d = reader(path)
    except FedsmellError as exc:
        return type(exc), str(exc)
    return d.name, d.features.shape, d.features.tobytes(), d.labels.tobytes()


def assert_reads_like_cell_reader(path):
    outcome = read_outcome(load_csv, path)
    assert outcome == read_outcome(datamod._load_csv_by_cell, path)
    return outcome


def csv_text(rows, end="\n", bom=False):
    return ("\ufeff" if bom else "") + "".join(",".join(row) + end for row in rows)


def with_cell(row_index, column, cell, rows=GOOD_ROWS):
    rows = [list(row) for row in rows]
    rows[row_index][column] = cell
    return rows


HUGE = 140_000  # over the csv module's default field limit of 131,072 characters
EDGE_CASES = {
    "lf": csv_text([COLUMNS] + GOOD_ROWS),
    "crlf": csv_text([COLUMNS] + GOOD_ROWS, end="\r\n"),
    "cr": csv_text([COLUMNS] + GOOD_ROWS, end="\r"),
    "bom_crlf": csv_text([COLUMNS] + GOOD_ROWS, end="\r\n", bom=True),
    "no_final_newline": csv_text([COLUMNS] + GOOD_ROWS)[:-1],
    "leading_blank_lines": "\n\r\n" + csv_text([COLUMNS] + GOOD_ROWS),
    "leading_comma_line": ",,,,\n" + csv_text([COLUMNS] + GOOD_ROWS),
    "blank_rows": csv_text([COLUMNS, GOOD_ROWS[0], [""], GOOD_ROWS[1], [""]]),
    "whitespace_row": csv_text([COLUMNS, GOOD_ROWS[0], ["   "], GOOD_ROWS[1]]),
    "commas_row": csv_text([COLUMNS, GOOD_ROWS[0], [",,,,"], GOOD_ROWS[1]]),
    "quoted_cells": csv_text([[f'"{c}"' for c in COLUMNS]]
                             + [[f'"{c}"' for c in row] for row in GOOD_ROWS]),
    "multiline_extra_cell": csv_text([COLUMNS + ["comment"]]
                                     + [row + ['"two\nlines"'] for row in GOOD_ROWS]),
    "multiline_header_cell": csv_text([COLUMNS + ['"a\nb"']] + GOOD_ROWS),
    "reordered_extra_columns": csv_text(
        [["project"] + COLUMNS[::-1]] + [["ant"] + row[::-1] for row in GOOD_ROWS]),
    "duplicate_column": csv_text([COLUMNS + ["tloc"]] + [row + ["9"] for row in GOOD_ROWS]),
    "missing_column": csv_text([COLUMNS[1:]] + [row[1:] for row in GOOD_ROWS]),
    "short_row": csv_text([COLUMNS, GOOD_ROWS[0], GOOD_ROWS[1][:10]]),
    "long_row": csv_text([COLUMNS] + [row + ["1", "2"] for row in GOOD_ROWS]),
    "header_only": csv_text([COLUMNS]),
    "empty": "",
    "huge_extra_cell": csv_text([COLUMNS + ["comment"]]
                                + [row + ["x" * HUGE] for row in GOOD_ROWS]),
    "huge_finite_cell": csv_text([COLUMNS] + with_cell(1, 0, "0" * HUGE)),
    # Lines within the limit, but one quoted cell over it.
    "huge_quoted_lines": csv_text([COLUMNS + ["comment"]]
                                  + [row + ['"' + "x\n" * HUGE + '"'] for row in GOOD_ROWS]),
}
for _cell in ODD_CELLS:
    EDGE_CASES[f"feature {_cell!r}"] = csv_text([COLUMNS] + with_cell(1, 3, _cell))
    EDGE_CASES[f"label {_cell!r}"] = csv_text([COLUMNS] + with_cell(2, 16, _cell))


@pytest.mark.parametrize("text", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_load_csv_matches_cell_reader_on_edge_cases(tmp_path, text):
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_reads_like_cell_reader(path)


def test_load_csv_reads_canonical_and_quoted_files_without_the_cell_reader(
        tmp_path, monkeypatch):
    save_csv(random_dataset(50, 20, seed=4), tmp_path / "fast.csv")
    save_csv(random_dataset(600, 200, seed=5), tmp_path / "big.csv")
    assert (tmp_path / "big.csv").stat().st_size > csv.field_size_limit()
    quoted = csv_text([[f'"{c}"' for c in COLUMNS + ["comment"]]]
                      + [[f'"{c}"' for c in row] + ['"a,\nb"'] for row in GOOD_ROWS],
                      end="\r", bom=True)
    (tmp_path / "quoted.csv").write_bytes(quoted.encode("utf-8"))
    paths = [tmp_path / "fast.csv", tmp_path / "big.csv", tmp_path / "quoted.csv"]
    expected = [read_outcome(datamod._load_csv_by_cell, path) for path in paths]

    def refuse(path):
        raise AssertionError(f"{path} fell back to the cell-by-cell reader")

    monkeypatch.setattr(datamod, "_load_csv_by_cell", refuse)
    assert [read_outcome(load_csv, path) for path in paths] == expected


def test_load_csv_opens_a_canonical_file_once(tmp_path, monkeypatch):
    path = tmp_path / "big.csv"
    save_csv(random_dataset(600, 200, seed=5), path)
    opened = []

    def counting_open(file, *args, real_open=open, **kwargs):
        opened.append(Path(file) == path)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    assert len(load_csv(path)) == 600
    assert opened.count(True) == 1


@st.composite
def csv_texts(draw):
    """Dataset CSV texts built from the pieces that load_csv's two readers
    may treat differently; roughly half hold no odd cell or row."""
    extra = draw(st.lists(st.sampled_from(["project", "comment", "tloc"]), max_size=2,
                          unique=True))
    roles = draw(st.permutations(COLUMNS + extra))
    header = [draw(st.sampled_from([name, name.lower(), f" {name.upper()} ", f'"{name}"']))
              for name in roles]
    noisy = draw(st.booleans())
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    odd = st.sampled_from(ODD_CELLS)
    feature = st.one_of(number, odd) if noisy else number
    label = st.sampled_from(["0", "1", "0.0", "1.0", '"1"', " 0 "])
    if noisy:
        label = st.one_of(label, odd)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "blank", "spaces", "commas", "short"]
                                    if noisy else ["row", "row", "row", "blank"]))
        if kind == "blank":
            rows.append("")
        elif kind == "spaces":
            rows.append(draw(st.sampled_from([" ", "\t", "  \t "])))
        elif kind == "commas":
            rows.append(",,,,")
        else:
            cells = [draw(label if role == LABEL_COLUMN else
                          feature if role in FEATURE_NAMES else st.sampled_from(EXTRA_CELLS))
                     for role in roles]
            if kind == "short":
                cells = cells[:draw(st.integers(1, len(cells) - 1))]
            rows.append(",".join(cells))
    ends = draw(st.sampled_from([["\n"], ["\r\n"], ["\r"], ["\n", "\r\n", "\r"]]))
    lead = draw(st.sampled_from(["", "\n", "\r\n\r\n", " \n", ",,\n"]) if noisy else st.just(""))
    lines = [lead + ",".join(header)] + rows
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return ("\ufeff" if draw(st.booleans()) else "") + text


@settings(derandomize=True, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_texts())
def test_load_csv_matches_cell_reader(tmp_path, text):
    path = tmp_path / "drawn.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_reads_like_cell_reader(path)


def save_csv_by_cell(dataset, path):
    """save_csv's oracle: csv.writer with the repr of each cell's float."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -2.5e-310, 1e16, 1e-5, 1e300, -1e300, 0.1, 1 / 3]


@settings(derandomize=True, max_examples=30,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8),
       st.sampled_from([1, 2, 3, 100, 1025]),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_save_csv_writes_the_bytes_of_csv_writer(tmp_path, drawn, n, seed):
    rng = np.random.default_rng(seed)
    values = np.array(drawn + SPECIAL_FLOATS)
    d = make_dataset(rng.choice(values, size=(n, NUM_FEATURES)), rng.integers(0, 2, size=n))
    save_csv(d, tmp_path / "fast.csv")
    save_csv_by_cell(d, tmp_path / "cell.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()


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
    with pytest.raises(DataError):
        split_train_test(d, 0.3, seed=0)


def test_split_rejects_bad_fraction():
    d = random_dataset(20, 10, seed=0)
    with pytest.raises(DataError):
        split_train_test(d, 1.0, seed=0)


@pytest.mark.parametrize("fraction, side", [(0.01, "test"), (0.99, "training")])
def test_split_names_the_side_a_fraction_leaves_empty(fraction, side):
    d = random_dataset(40, 20, seed=0, name="alpha")
    message = f"^dataset 'alpha': test_fraction {fraction} leaves the {side} split empty$"
    with pytest.raises(DataError, match=message):
        split_train_test(d, fraction, seed=0)


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
    with pytest.raises(DataError):
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
    with pytest.raises(DataError):
        rebalance(d, "oversample", seed=0)


def test_rebalance_unknown_mode_rejected():
    d = random_dataset(20, 10, seed=0)
    with pytest.raises(DataError):
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
    with pytest.raises(DataError):
        synth_generate(5, 0.5, 0.0, seed=0)
    with pytest.raises(DataError):
        synth_generate(100, 1.0, 0.0, seed=0)


def test_dataset_rejects_nonfinite_features():
    features = np.zeros((4, NUM_FEATURES))
    features[2, 3] = np.inf
    with pytest.raises(NumericError):
        make_dataset(features, [0, 1, 0, 1])


# The forward and backward passes trust these invariants and check none of them.

def test_dataset_rejects_wrong_feature_width_and_nan():
    with pytest.raises(DataError):
        make_dataset(np.ones((1, 5)), [0])
    features = np.ones((1, NUM_FEATURES))
    features[0, 3] = np.nan
    with pytest.raises(NumericError):
        make_dataset(features, [0])


def test_dataset_rejects_one_feature_column_short():
    with pytest.raises(DataError):
        make_dataset(np.ones((1, NUM_FEATURES - 1)), [0])


def test_dataset_rejects_labels_other_than_0_and_1():
    # Checked before the int64 cast, which would truncate 0.7 to 0.
    for label in (2, -1, 0.7, 1.5, -0.2):
        with pytest.raises(DataError, match="labels must be 0 or 1"):
            datamod.Dataset("x", np.zeros((2, NUM_FEATURES)), [0, label])
    for labels in ([0, 1], [False, True], [0.0, 1.0]):
        dataset = datamod.Dataset("x", np.zeros((2, NUM_FEATURES)), labels)
        assert dataset.labels.dtype == np.int64
        assert dataset.labels.tolist() == [0, 1]


@pytest.mark.parametrize("label", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_a_nonfinite_label_before_casting_it(label):
    # The int64 cast has no value for these: it warns, or raises a
    # FloatingPointError under np.errstate(invalid="raise").
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="labels must be 0 or 1"):
            datamod.Dataset("x", np.zeros((2, NUM_FEATURES)), [0.0, label])
    with np.errstate(invalid="raise"):
        with pytest.raises(DataError, match="labels must be 0 or 1"):
            datamod.Dataset("x", np.zeros((2, NUM_FEATURES)), [0.0, label])


def test_subset_takes_integer_indices_only():
    d = make_dataset(np.arange(3 * NUM_FEATURES).reshape(3, NUM_FEATURES), [0, 1, 0])
    # An int cast would read the mask as rows 1, 0, 1 and 1.9 as row 1.
    for bad in ([True, False, True], np.array([True, False, True]), [1.9], np.array([1.0])):
        with pytest.raises(DataError, match="subset indices must be integers"):
            d.subset(bad)
    for good in ([2, 0], np.array([2, 0]), np.array([2, 0], dtype=np.uint8)):
        assert d.subset(good).labels.tolist() == [0, 0]
        assert np.array_equal(d.subset(good).features, d.features[[2, 0]])
    with pytest.raises(DataError, match="at least one sample"):
        d.subset([])


def test_dataset_rejects_empty_batch():
    with pytest.raises(DataError):
        make_dataset(np.zeros((0, NUM_FEATURES)), np.zeros(0, dtype=int))
