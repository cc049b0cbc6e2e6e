"""Dataset ingestion, normalization, splitting, chunking, rebalancing, synthesis."""

import builtins
import copy
import csv
import dataclasses
import errno
import io
import os
import pickle
import re

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
            [x * 0.5 for x in range(16)] + ["0.0"],
            [-1.0] * 16 + [0]]
    write_csv(path, full_header(), rows)
    d = load_csv(path)  # a label may be written as a float
    assert d.name == "three"
    assert len(d) == 3
    assert np.array_equal(d.features[0], np.arange(16.0))
    assert list(d.labels) == [1, 0, 0]


def test_load_csv_ignores_extra_columns_and_matches_case_insensitively(tmp_path):
    path = tmp_path / "extra.csv"
    header = [name.lower() for name in FEATURE_NAMES] + ["project", LABEL_COLUMN.upper()]
    write_csv(path, header, [[float(i) for i in range(16)] + ["ant", 1]])
    d = load_csv(path)
    assert len(d) == 1
    assert d.labels[0] == 1
    # A repeated extra column is ignored, as any extra column is.
    write_csv(path, full_header(["project", "Project"]), [[1] * 16 + [1, "ant", "bee"]])
    assert load_csv(path).labels.tolist() == [1]


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


def read_by_cell(path):
    return datamod._load_csv_by_cell(path.stem, path.read_bytes())


def assert_reads_like_cell_reader(path):
    outcome = read_outcome(load_csv, path)
    assert outcome == read_outcome(read_by_cell, path)
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
    "duplicate_label_column": csv_text([[LABEL_COLUMN.upper()] + COLUMNS]
                                       + [["1"] + row for row in GOOD_ROWS]),
    "duplicate_extra_column": csv_text([COLUMNS + ["project", "PROJECT"]]
                                       + [row + ["ant", "bee"] for row in GOOD_ROWS]),
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
    expected = [read_outcome(read_by_cell, path) for path in paths]

    def refuse(name, raw):
        raise AssertionError(f"{name} fell back to the cell-by-cell reader")

    monkeypatch.setattr(datamod, "_load_csv_by_cell", refuse)
    assert [read_outcome(load_csv, path) for path in paths] == expected


def test_load_csv_opens_a_canonical_file_once(tmp_path, monkeypatch):
    # A whitespace-only row sends its file to the cell-by-cell reader, which
    # parses the bytes already read.
    save_csv(random_dataset(600, 200, seed=5), tmp_path / "big.csv")
    (tmp_path / "spaced.csv").write_bytes(EDGE_CASES["whitespace_row"].encode("utf-8"))
    opened = []

    def counting(real_open):
        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)
        return counting_open

    for module in (builtins, io, os):  # os.open opens a path as a raw descriptor
        monkeypatch.setattr(module, "open", counting(module.open))
    for path, rows in ((tmp_path / "big.csv", 600), (tmp_path / "spaced.csv", 2)):
        assert len(load_csv(path)) == rows
        assert opened.count(str(path)) == 1, path


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


def test_save_csv_failing_part_way_keeps_the_file_it_replaces(tmp_path, monkeypatch):
    # save_csv writes a temp file beside the target and renames it into
    # place, so a disk that fills part way leaves the old file whole.
    path = tmp_path / "kept.csv"
    save_csv(random_dataset(40, 20, seed=1), path)
    before, cells = path.read_bytes(), []

    def filling_repr(value):
        cells.append(value)
        if len(cells) > 50:
            raise OSError(errno.ENOSPC, "No space left on device")
        return repr(value)

    monkeypatch.setattr(datamod, "repr", filling_repr, raising=False)
    with pytest.raises(OSError, match="No space left on device"):
        save_csv(random_dataset(40, 20, seed=2), path)
    assert len(cells) == 51  # the header and three rows went out before the fault
    assert path.read_bytes() == before
    assert [entry.name for entry in tmp_path.iterdir()] == ["kept.csv"]


def test_save_csv_refuses_a_fifo_at_its_target_and_leaves_it(tmp_path):
    # The writer replaces its target with os.replace, which would put a regular
    # file where the FIFO (or a device) was; it refuses before making a temp.
    path = tmp_path / "pipe.csv"
    os.mkfifo(path)
    with pytest.raises(OSError, match=re.escape(f"exists and is not a regular file: '{path}'")):
        save_csv(random_dataset(40, 20, seed=1), path)
    assert path.is_fifo()
    assert [entry.name for entry in tmp_path.iterdir()] == ["pipe.csv"]


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


def test_normalizer_refuses_a_standard_deviation_that_overflows():
    # With float errors ignored, a column near 1e200 overflows its std to inf,
    # which would normalize the whole column to -0.0.
    features = np.random.default_rng(0).standard_normal((50, NUM_FEATURES))
    features[:, 3] *= 1e200
    d = make_dataset(features, [0, 1] * 25, name="huge")
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError,
                           match="^dataset 'huge': feature standard deviation overflows$"):
            fit_normalizer(d)


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
    # Balanced input takes the general path: no row is drawn or dropped, and the order holds.
    d = random_dataset(40, 20, seed=8)
    for mode in ("oversample", "undersample", "none"):
        balanced = rebalance(d, mode, seed=3)
        assert np.array_equal(balanced.features, d.features), mode
        assert np.array_equal(balanced.labels, d.labels), mode


def test_oversample_only_duplicates_existing_minority_rows():
    d = random_dataset(60, 12, seed=10)
    balanced = rebalance(d, "oversample", seed=4)
    original = rows_multiset(d)
    extras = list(rows_multiset(balanced))
    for row in original:
        extras.remove(row)  # original multiset is preserved intact
    minority_rows = {tuple(d.features[i]) + (1,) for i in np.flatnonzero(d.labels == 1)}
    assert all(row in minority_rows for row in extras)


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


def test_dataset_stores_labels_of_0_and_1_as_int64():
    for labels in ([0, 1], [False, True], [0.0, 1.0]):
        dataset = datamod.Dataset("x", np.zeros((2, NUM_FEATURES)), labels)
        assert dataset.labels.dtype == np.int64
        assert dataset.labels.tolist() == [0, 1]


@pytest.mark.parametrize("label", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_a_nonfinite_label_before_casting_it(label):
    # The int64 cast has no value for these: it warns (the table's dataset-label-* rows),
    # or raises a FloatingPointError under np.errstate(invalid="raise").
    with np.errstate(invalid="raise"):
        with pytest.raises(DataError, match="labels must be 0 or 1"):
            datamod.Dataset("x", np.zeros((2, NUM_FEATURES)), [0.0, label])


def test_dataset_is_read_only_and_shares_its_callers_arrays():
    features, labels = np.ones((3, NUM_FEATURES)), np.array([0, 1, 0])
    d = datamod.Dataset("x", features, labels)
    for name, value in (("labels", np.array([0, 0, 0])), ("features", features), ("name", "y")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(d, name, value)
    with pytest.raises(ValueError, match="read-only"):
        d.features[0, 0] = np.nan
    with pytest.raises(ValueError, match="read-only"):
        d.labels[:] = 0
    # Views, not copies: the checks read the caller's arrays, which stay writable.
    assert np.shares_memory(d.features, features) and np.shares_memory(d.labels, labels)
    assert features.flags.writeable and labels.flags.writeable
    # A Dataset built from another's read-only arrays works like any other.
    again = datamod.Dataset("again", d.features, d.labels)
    assert np.shares_memory(again.features, features)
    assert again.subset([2, 1]).labels.tolist() == [0, 1]
    assert np.array_equal(concat_datasets("both", [d, again]).features, np.ones((6, NUM_FEATURES)))
    assert apply_normalizer(again, fit_normalizer(again)).features.flags.writeable is False


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda d: pickle.loads(pickle.dumps(d))])
def test_a_copied_dataset_is_rebuilt_through_its_checks(duplicate):
    d = make_dataset(np.ones((3, NUM_FEATURES)), [0, 1, 0])
    c = duplicate(d)
    assert c.name == d.name and np.array_equal(c.features, d.features)
    assert c.labels.tolist() == [0, 1, 0]
    with pytest.raises(ValueError, match="read-only"):
        c.features[0, 0] = np.nan
    with pytest.raises(ValueError, match="read-only"):
        c.labels[0] = 7


def test_subset_takes_integer_indices_of_any_integer_dtype():
    d = make_dataset(np.arange(3 * NUM_FEATURES).reshape(3, NUM_FEATURES), [0, 1, 0])
    for good in ([2, 0], np.array([2, 0]), np.array([2, 0], dtype=np.uint8)):
        assert d.subset(good).labels.tolist() == [0, 0]
        assert np.array_equal(d.subset(good).features, d.features[[2, 0]])


