"""The CLI's error contract as one table: each bad input ends in one stderr line and its
exit code, with nothing on stdout, no training unless the fault is in training, no file
left behind but the run's config.resolved.json, and the SIGTERM handler main found put back."""

import json
import os
import warnings
from pathlib import Path
from typing import NamedTuple

import pytest

from fedsmell.cli import main
from fedsmell.data import FEATURE_NAMES, LABEL_COLUMN, Dataset, save_csv, synth_generate
from util import (count_training_passes, huge_column, line_fits_code, random_dataset,
                  sigterm_handler_kept)


class Link(str):
    """An input that is a symlink to this target."""


class Row(NamedTuple):
    inputs: dict  # path under the run's directory -> text, bytes, a Dataset or a Link
    argv: tuple
    code: int
    line: str  # the whole stderr line, without its newline
    prefix: bool = False  # `line` is only its start: the rest quotes Python's own text
    trains: bool = False  # the fault is inside training
    resolved: bool = False  # the run gets as far as writing out/config.resolved.json


def synth(n, seed) -> Dataset:
    return synth_generate(n, 0.5, 0.0, seed=seed)


HEADER = ",".join(FEATURE_NAMES + (LABEL_COLUMN,)) + "\r\n"
MINIMAL = "[experiment]\nkind = centralized\ndatasets = a.csv\n"
SYNTH = "[experiment]\nkind = synth\ndatasets = {}\n[synth]\nsamples = {}\n"
RARE = random_dataset(60, 2, seed=3)  # test_fraction 0.2 leaves no positive in its test split
# A finished run's outputs; nothing reads their bytes before a refusal.
EARLIER_RUN = {"out/summary.json": "{}\n", "out/config.resolved.json": "{}\n"}
REFUSED = "CONFIG_ERROR: dataset {} is an output that this run replaces"


def argv(text):
    return tuple(text.split(" "))


def config_row(config, text, line, command="centralized --config {} --out out", **fields):
    """A run of `command` on the config file `config` holding `text`."""
    return Row({config: text}, argv(command.format(config)), 2,
               f"CONFIG_ERROR: config {config}: {line}", **fields)


def dataset_row(csvs, line, verb="centralized", body="[federation]\nrounds = 1\n", **fields):
    """A `verb` run into out on the CSVs `csvs`, named in that order in c.ini."""
    ini = f"[experiment]\ndatasets = {', '.join(csvs)}\n{body}"
    code = 4 if line.startswith("NUMERIC_ERROR") else 3
    return Row({**csvs, "c.ini": ini}, argv(f"{verb} --config c.ini --out out"), code, line,
               resolved=True, **fields)


def wrong_type(key, value, shown, reason):
    return config_row("config.resolved.json",
                      json.dumps({"kind": "centralized", "datasets": ["a.csv"], key: value}),
                      f"bad value for {key}: {shown} ({reason})", "centralized --config {}")


def bad_row(name, row: bytes, line):
    return dataset_row({f"{name}.csv": HEADER.encode() + b",".join([b"1"] * 16 + [b"0"])
                        + b"\r\n" + row + b"\r\n"}, f"DATA_ERROR: dataset {name}.csv: {line}")


ROW_3 = "row 3: feature cells must be finite and the label 0 or 1"
NON_UTF8 = MINIMAL.encode() + b"seed = \xff\xfe\n"
LONG_INI = (MINIMAL + "; " + "x" * 9_000 + "\n").encode()
DECODE = "cannot read: 'utf-8' codec can't decode byte 0xff in position {}: invalid start byte"
LR = "[federation]\nrounds = {}\n[training]\nlearning_rate = 1e300\n"
EMPTY = "out_dir and dataset entries must not be empty"
REPEATED = {"o2/p.csv": synth(40, 1), "o3/p.csv": synth(40, 1), "o2/q.csv": synth(40, 2)}
NUL = "bad value for {}: {} (contains a NUL character)"

CLI_ERRORS = {
    # configparser copies its default section's keys into every section: seed 9 would run
    # unasked, and rounds would be an unknown key of [experiment].
    **{f"defaults-section-{key.split()[0]}": config_row(
        "c.ini", f"[__defaults__]\n{key}\n\n" + MINIMAL, "unknown section '__defaults__'")
       for key in ("seed = 9", "rounds = 3")},
    "unknown-key": config_row("bad.ini", MINIMAL + "\n[training]\nmomentum = 1\n",
                              "unknown key 'momentum' in section 'training'",
                              "centralized --config {}"),
    "usage-seed-not-an-int": Row({}, argv("federated --config x --seed abc"), 2,
                                 "CONFIG_ERROR: fedsmell: argument --seed: invalid int value: "
                                 "'abc'"),
    "usage-no-config": Row({}, ("federated",), 2, "CONFIG_ERROR: fedsmell: the following "
                           "arguments are required: --config"),
    "usage-unknown-verb": Row({}, ("bogus",), 2, "CONFIG_ERROR: fedsmell: argument verb: "
                              "invalid choice: 'bogus' (choose from ", prefix=True),
    # Options may come before or after the verb. The OS's own message for a missing file
    # quotes the path; no stage repeats it.
    **{f"missing-dataset{tail}": Row({"c.ini": MINIMAL}, argv(command), 3,
                                     "DATA_ERROR: dataset a.csv: cannot read: [Errno 2] No "
                                     "such file or directory: 'a.csv'", resolved=True)
       for tail, command in (("", "centralized --config c.ini --out out"),
                             ("-options-first", "--config c.ini --out out centralized"))},
    "missing-config": Row({}, argv("centralized --config ghost.ini"), 2,
                          "CONFIG_ERROR: config ghost.ini: cannot read: [Errno 2] No such file "
                          "or directory: 'ghost.ini'"),
    **{f"nul-in-config-path-{suffix}": Row({}, ("centralized", "--config", f"gh\0st.{suffix}"),
                                           2, f"CONFIG_ERROR: config gh\0st.{suffix}: cannot "
                                           "read: embedded null byte")
       for suffix in ("ini", "json")},
    # A constant 1e308 column overflows the normalizer's mean.
    "constant-1e308-column": dataset_row(
        {"huge.csv": HEADER + "".join(",".join(["1e308"] * 16 + [str(i % 2)]) + "\r\n"
                                      for i in range(8))},
        "NUMERIC_ERROR: dataset huge.csv: overflow encountered in reduce"),
    "non-utf8-ini": config_row("bad.ini", NON_UTF8, DECODE.format(len(MINIMAL) + 7),
                               "centralized --config {}"),
    "non-utf8-json": config_row("config.resolved.json", NON_UTF8,
                                DECODE.format(len(MINIMAL) + 7), "centralized --config {}"),
    # The INI is decoded in the 8,192-byte chunks a text-mode open() reads, so a bad byte
    # past the first chunk reports its place in its own chunk.
    "non-utf8-ini-past-first-chunk": config_row(
        "bad.ini", LONG_INI[:9_000] + b"\xff" + LONG_INI[9_000:], DECODE.format(808),
        "centralized --config {}"),
    "malformed-ini-bad-value": config_row(
        "bad.ini", MINIMAL + "\n[training]\nbatch_size = many\n",
        "bad value for training.batch_size: 'many' (invalid literal for int() with "
        "base 10: 'many')", "centralized --config {}"),
    "malformed-ini-open-header": config_row(
        "bad.ini", MINIMAL + "\n[training\nbatch_size = 8\n",
        "Source contains parsing errors: 'bad.ini' [line 5]: '[training\\n'",
        "centralized --config {}"),
    "json-rounds-str": wrong_type("rounds", "x", "'x'", "expected int"),
    "json-seed-bool": wrong_type("seed", True, "True", "expected int"),
    "json-chunks-str": wrong_type("chunks", ["a"], "['a']", "expected int"),
    "json-learning-rate-str": wrong_type("learning_rate", "0.1", "'0.1'", "expected float"),
    "json-datasets-str": wrong_type("datasets", "a.csv", "'a.csv'", "expected a list of str"),
    "json-learning-rate-huge-int": wrong_type("learning_rate", 10**400, "1" + "0" * 199 + "...",
                                              "int too large to convert to float"),
    "json-rounds-null": wrong_type("rounds", None, "None", "expected int"),
    # A key that is present is never missing: a null kind is compared with the verb's.
    "json-kind-null": config_row("config.resolved.json",
                                 json.dumps({"kind": None, "datasets": ["a.csv"]}),
                                 "kind None does not match requested 'centralized'",
                                 "centralized --config {}"),
    "json-duplicate-key": config_row(
        "config.resolved.json",
        '{"kind": "centralized", "datasets": ["a.csv"], "rounds": 1, "rounds": 100}',
        "duplicate key 'rounds'", "centralized --config {}"),
    # The federated dataset does not exist: exit 2 rather than 3 shows that the output
    # directory is checked before any data is read.
    **{f"out-names-a-file-{verb}": Row(
        {"occupied": "not a directory\n", "c.ini": f"[experiment]\ndatasets = {datasets}\n"},
        argv(f"{verb} --config c.ini --out occupied"), 2, "CONFIG_ERROR: cannot create output "
        "directory occupied: [Errno 17] File exists: 'occupied'")
       for verb, datasets in (("synth", "a"), ("federated", "ghost.csv"))},
    "nul-in-dataset-ini": config_row("c.ini", MINIMAL.replace("a.csv", "a\0.csv"),
                                     NUL.format("datasets", "('a\\x00.csv',)")),
    "nul-in-out-dir-ini": config_row("c.ini", MINIMAL + "out_dir = out\0\n",
                                     NUL.format("out_dir", "'out\\x00'"),
                                     "centralized --config {}"),
    "nul-in-dataset-json": config_row(
        "config.resolved.json", json.dumps({"kind": "centralized", "datasets": ["a\0.csv"]}),
        NUL.format("datasets", "['a\\x00.csv']")),
    "nul-in-out-arg": Row({"c.ini": MINIMAL}, ("centralized", "--config", "c.ini", "--out",
                                                "out\0"), 2,
                          "CONFIG_ERROR: config c.ini: " + NUL.format("out_dir", "'out\\x00'")),
    # An empty path names the current directory: a run there would delete its
    # summary.json, and a synth run would write a hidden ".csv".
    "empty-out-arg": Row({"summary.json": "{}\n", "c.ini": MINIMAL},
                         ("centralized", "--config", "c.ini", "--out", ""), 2,
                         f"CONFIG_ERROR: config c.ini: {EMPTY}"),
    "empty-out-dir-ini": Row({"summary.json": "{}\n", "c.ini": MINIMAL + "out_dir =\n"},
                             argv("centralized --config c.ini"), 2,
                             f"CONFIG_ERROR: config c.ini: {EMPTY}"),
    "empty-synth-dataset-json": Row(
        {"summary.json": "{}\n", "s.json": json.dumps({"datasets": [""], "out_dir": "o"})},
        argv("synth --config s.json"), 2, f"CONFIG_ERROR: config s.json: {EMPTY}"),
    "empty-dataset-json": Row({"summary.json": "{}\n", "d.json": json.dumps({"datasets": [""]})},
                              argv("centralized --config d.json"), 2,
                              f"CONFIG_ERROR: config d.json: {EMPTY}"),
    "json-nested-too-deep": config_row("config.resolved.json", "[" * 100_000 + "]" * 100_000,
                                       "cannot read: ", "centralized --config {}", prefix=True),
    "csv-latin1-cell": bad_row("latin1", b",".join([b"1"] * 15 + [b"\xe9", b"1"]),
                               "cannot read: 'utf-8' codec can't decode byte 0xe9 in position "
                               "151: invalid continuation byte"),
    "csv-fraction-label": bad_row("fraction", b",".join([b"1"] * 16 + [b"0.7"]), ROW_3),
    "csv-nan-cell": bad_row("nan", b",".join([b"nan"] + [b"1"] * 15 + [b"1"]), ROW_3),
    # One quoted cell over the csv module's 131,072-character field limit.
    "csv-huge-cell": bad_row("huge", b'"' + b"1" * 140_000 + b'"' + b",1" * 16,
                             "cannot read: field larger than field limit (131072)"),
    # Each value is refused by validation, before the data is read: a.csv does not exist,
    # so reaching it would exit 3.
    **{f"learning-rate-{value}": config_row(
        "c.ini", MINIMAL + f"[training]\nlearning_rate = {value}\n",
        "learning_rate must be finite and >= 0") for value in ("nan", "inf")},
    "negative-seed-ini": config_row("c.ini", MINIMAL + "seed = -5\n", "seed must be >= 0"),
    "negative-seed-arg-federated": config_row(
        "c.ini", MINIMAL.replace("centralized", "federated"), "seed must be >= 0",
        "federated --config {} --out out --seed -1"),
    "negative-seed-arg-synth": config_row("c.ini", SYNTH.format("a", 20), "seed must be >= 0",
                                          "synth --config {} --out out --seed -3"),
    **{f"synth-shift-{case}": config_row(
        "s.ini", SYNTH.format("x", 20) + f"shifts = {shift}\n", "synth shifts must be finite",
        "synth --config {} --out out")
       for case, shift in (("inf", "inf"), ("minus-inf", "-inf"), ("nan", "nan"))},
    # /dev/null/x is absolute and can never be written.
    **{f"synth-name-{case}": config_row("s.ini", SYNTH.format(name, 20),
                                        "synth dataset names must be plain file names",
                                        "synth --config {} --out out")
       for case, name in (("parent", "../escaped"), ("subdirectory", "sub/x"),
                          ("absolute", "/dev/null/x"), ("dot", "."))},
    "synth-samples-numpy-cannot-allocate": Row(
        {"s.ini": SYNTH.format("x", 10**20)}, argv("synth --config s.ini --out out"), 2,
        "CONFIG_ERROR: cannot generate 100000000000000000000 synth samples: Maximum allowed "
        "dimension exceeded", resolved=True),
    # Cells and errors name a dataset by its file stem, so two entries with one stem
    # could not be told apart.
    **{f"repeated-name-{case}": Row(
        {**REPEATED, "c.ini": f"[experiment]\ndatasets = {datasets}\n[federation]\n"
                              "rounds = 1\n[synth]\nsamples = 20\n"},
        argv(f"{verb} --config c.ini --out out"), 2,
        f"CONFIG_ERROR: config c.ini: dataset name '{stem}' is repeated; names must be distinct")
       for case, verb, datasets, stem in (
           ("synth", "synth", "x, x", "x"), ("synth-suffix", "synth", "x, x.csv", "x"),
           ("same-path", "cross-eval", "o2/p.csv, o2/p.csv, o2/q.csv", "p"),
           ("other-directory", "cross-eval", "o2/p.csv, o3/p.csv, o2/q.csv", "p"))},
    # Every dataset is read and checked before the first model trains.
    "bad-second-dataset": dataset_row(
        {"good.csv": synth(200, 8), "bad.csv": "TLOC,is_god_class\n1,0\n"},
        "DATA_ERROR: dataset bad.csv: missing required column 'NCLOC'"),
    "class-missing-centralized": dataset_row(
        {"common.csv": synth(200, 6), "rare.csv": RARE},
        "DATA_ERROR: dataset rare.csv: test set 'rare-test' has no samples of class 1, so it "
        "cannot be scored", body="[data]\ntest_fraction = 0.2\n[federation]\nrounds = 1\n"),
    "class-missing-federated": dataset_row(
        {"rare.csv": RARE}, "DATA_ERROR: test set 'pooled-test' has no samples of class 1, so "
        "it cannot be scored", "federated", "[data]\ntest_fraction = 0.2\n[federation]\n"
        "rounds = 1\n"),
    # A huge learning rate overflows the first forward pass after one step; a column of
    # finite values near 1e200 overflows the z-score's std.
    "learning-rate-1e300-centralized": dataset_row(
        {"plain.csv": synth(120, 4)}, "NUMERIC_ERROR: dataset plain.csv: overflow encountered "
        "in matmul", body=LR.format(1), trains=True),
    "learning-rate-1e300-federated": dataset_row(
        {"plain.csv": synth(120, 4)}, "NUMERIC_ERROR: round 1: overflow encountered in matmul",
        "federated", LR.format(2), trains=True),
    "column-near-1e200": dataset_row(
        {"huge.csv": huge_column(synth(120, 4))},
        "NUMERIC_ERROR: dataset huge.csv: overflow encountered in square"),
    "partition-more-chunks-than-rows": dataset_row(
        {"first.csv": synth(120, 2), "second.csv": synth(120, 3)},
        "DATA_ERROR: dataset second.csv: cannot split 86 samples into 900 chunks", "federated",
        "[data]\nchunks = 2, 900\n[federation]\nrounds = 1\n"),
    "csv-header-only": dataset_row({"header.csv": HEADER},
                                   "DATA_ERROR: dataset header.csv: no data rows"),
    "csv-required-column-twice": dataset_row(
        {"twice.csv": HEADER.replace("\r\n", ",IS_GOD_CLASS\r\n")
         + ",".join(["1.0"] * 16 + ["1", "0"]) + "\r\n"},
        "DATA_ERROR: dataset twice.csv: required column 'is_god_class' is repeated"),
    "csv-bad-cell": dataset_row(
        {"input.csv": HEADER + ",".join(["1.0"] * 15 + ["x", "0"]) + "\r\n"},
        "DATA_ERROR: dataset input.csv: row 2: non-numeric cell (could not convert string to "
        "float: 'x')"),
    "csv-empty": dataset_row({"input.csv": ""}, "DATA_ERROR: dataset input.csv: empty file"),
    "csv-missing-columns": dataset_row(
        {"input.csv": "TLOC,is_god_class\r\n1,0\r\n"},
        "DATA_ERROR: dataset input.csv: missing required column 'NCLOC'"),
    **{f"empty-{side}-split-{verb}": dataset_row(
        {f"d{i}.csv": synth(40, i) for i in range(count)},
        f"DATA_ERROR: dataset d0.csv: dataset 'd0': test_fraction {fraction} leaves the {side} "
        "split empty", verb, f"[data]\ntest_fraction = {fraction}\n")
       for verb, count in (("centralized", 1), ("cross-eval", 3), ("federated", 1))
       for fraction, side in ((0.01, "test"), (0.99, "training"))},
    # A run clears its outputs before it reads a dataset, so reading one of them, by any
    # spelling of its path, would delete the input first.
    **{f"dataset-among-outputs-{case}": Row(
        {**EARLIER_RUN, "out/rounds.csv": synth(120, 0), "link": Link("out"),
         "c.ini": f"[experiment]\ndatasets = {dataset}\n"},
        argv(f"centralized --config c.ini --out {out}"), 2, REFUSED.format(dataset))
       for case, dataset, out in (("same-path", "out/rounds.csv", "out"),
                                  ("linked-dataset", "link/rounds.csv", "out"),
                                  ("linked-out", "out/rounds.csv", "link"))},
    # The writer removes whatever sits at .<name>.tmp before it writes <name>.
    **{f"dataset-at-temp-name-{name}": Row(
        {f"out/.{name}.tmp": synth(120, 0),
         "f.ini": f"[experiment]\ndatasets = out/.{name}.tmp\n[federation]\nrounds = 1\n"},
        argv("federated --config f.ini --out out"), 2, REFUSED.format(f"out/.{name}.tmp"))
       for name in ("summary.json", "config.resolved.json", "rounds.csv", "model.fwv")},
    # synth writes each dataset to out_dir/<name>.csv, so a dataset named rounds would be
    # deleted by the next run into out_dir as its rounds.csv.
    **{f"synth-dataset-named-as-an-output{case}": Row(
        {**earlier, "s.ini": SYNTH.format("rounds, b", 200)},
        argv("synth --config s.ini --out out"), 2, REFUSED.format("out/rounds.csv"))
       for case, earlier in (("", {}), ("-into-an-earlier-run",
                                        {**EARLIER_RUN, "out/b.csv": synth(20, 0)}))},
}


def write_inputs(root: Path, inputs: dict) -> None:
    for name, content in inputs.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, Dataset):
            save_csv(content, path)
        elif isinstance(content, Link):
            path.symlink_to(content)
        else:
            path.write_bytes(content.encode() if isinstance(content, str) else content)


def tree(root: Path) -> dict:
    """Every entry under `root`: a file's bytes, a link's Link, a directory's None."""
    entries = {}
    for folder, dirs, files in os.walk(root):
        for name in dirs + files:
            path = Path(folder, name)
            entries[str(path.relative_to(root))] = (
                Link(os.readlink(path)) if path.is_symlink() else
                None if path.is_dir() else path.read_bytes())
    return entries


@pytest.mark.parametrize("row", [pytest.param(row, id=case) for case, row in CLI_ERRORS.items()])
def test_cli_error_line(tmp_path, monkeypatch, capsys, row):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path, row.inputs)
    before, passes = tree(tmp_path), count_training_passes(monkeypatch)
    with warnings.catch_warnings(record=True) as caught, sigterm_handler_kept():
        warnings.simplefilter("always")  # a warning would print a second stderr line
        code = main(list(row.argv))
    out, err = capsys.readouterr()
    assert (code, out, caught) == (row.code, "", []) and line_fits_code(code, err), err
    assert err.startswith(row.line) if row.prefix else err == row.line + "\n", err
    after = tree(tmp_path)
    if row.resolved:
        assert isinstance(after.pop("out/config.resolved.json"), bytes)
        if "out" not in before:
            assert after.pop("out") is None
    assert after == before
    assert bool(passes) == row.trains
