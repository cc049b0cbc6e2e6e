"""Config parsing: strict keys, defaults, resolved-JSON round trips, CLI codes."""

import dataclasses
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedsmell import cli, config
from fedsmell.cli import main
from fedsmell.config import EXPERIMENT_KINDS, ExperimentConfig, parse_config
from fedsmell.data import REBALANCE_MODES
from fedsmell.errors import (ConfigError, DataError, FedsmellError, NumericError,
                             field_types)
from fedsmell.federation import REDUCER_MODES, RoundConfig
from fedsmell.nn import PARAM_COUNT, Hyperparams
from util import CHECKED_CLASSES, synth_csv


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


MINIMAL = """\
[experiment]
kind = centralized
datasets = a.csv
"""


def test_minimal_config_resolves_defaults(tmp_path):
    cfg = parse_config(write(tmp_path / "c.ini", MINIMAL))
    assert cfg.kind == "centralized"
    assert cfg.datasets == ("a.csv",)
    assert cfg.rounds == 100
    assert cfg.client_fraction == 1.0
    assert cfg.reducer_mode == "plain"
    assert cfg.learning_rate == 0.001
    assert cfg.batch_size == 32
    assert cfg.local_epochs == 1
    assert cfg.rebalance == "oversample"
    assert cfg.test_fraction == 0.3
    assert cfg.seed == 0


def test_unknown_key_is_named(tmp_path):
    text = MINIMAL + "\n[training]\nmomentum = 0.9\n"
    with pytest.raises(ConfigError, match="momentum"):
        parse_config(write(tmp_path / "c.ini", text))


def test_unknown_section_is_named(tmp_path):
    text = MINIMAL + "\n[cluster]\nnodes = 3\n"
    with pytest.raises(ConfigError, match="cluster"):
        parse_config(write(tmp_path / "c.ini", text))


@pytest.mark.parametrize("key", ["seed = 9", "rounds = 3"])
def test_cli_defaults_section_exits_2_and_writes_nothing(tmp_path, capsys, key):
    # configparser copies the keys of its default section into every section:
    # seed 9 would run unasked, and rounds would be an unknown key of [experiment].
    path = write(tmp_path / "c.ini", f"[__defaults__]\n{key}\n\n" + MINIMAL)
    assert main(["centralized", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"CONFIG_ERROR: config {path}: unknown section '__defaults__'\n")
    assert not (tmp_path / "out").exists()


def test_bad_value_reports_key(tmp_path):
    text = MINIMAL + "\n[training]\nbatch_size = many\n"
    with pytest.raises(ConfigError, match="batch_size"):
        parse_config(write(tmp_path / "c.ini", text))


def test_missing_mandatory_keys(tmp_path):
    with pytest.raises(ConfigError, match="kind"):
        parse_config(write(tmp_path / "a.ini", "[experiment]\ndatasets = x.csv\n"))
    with pytest.raises(ConfigError, match="datasets"):
        parse_config(write(tmp_path / "b.ini", "[experiment]\nkind = centralized\n"))


def test_parse_config_overrides_only_seed_and_out_dir(tmp_path):
    path = write(tmp_path / "c.ini", MINIMAL + "seed = 3\nout_dir = from_file\n")
    cfg, plain = parse_config(path, seed=8, out_dir="from_cli"), parse_config(path)
    assert (cfg.seed, cfg.out_dir, plain.seed, plain.out_dir) == (8, "from_cli", 3, "from_file")
    assert parse_config(path, seed=None, out_dir=None) == plain
    for name in ("seeds", "rounds"):  # a misspelt override, and a field with no override
        with pytest.raises(TypeError, match=f"parse_config.* keyword argument '{name}'"):
            parse_config(path, **{name: 3})


def test_kind_verb_reconciliation(tmp_path):
    path = write(tmp_path / "c.ini", "[experiment]\ndatasets = x.csv\n")
    cfg = parse_config(path, kind="centralized")
    assert cfg.kind == "centralized"
    full = write(tmp_path / "d.ini", MINIMAL)
    with pytest.raises(ConfigError, match="does not match"):
        parse_config(full, kind="federated")


def test_federated_defaults_for_three_datasets(tmp_path):
    text = "[experiment]\nkind = federated\ndatasets = a.csv, b.csv, c.csv\n"
    cfg = parse_config(write(tmp_path / "c.ini", text))
    assert cfg.chunks == (5, 1, 4)
    assert cfg.combiner_clients == (5, 5)


def test_federated_chunk_and_combiner_validation(tmp_path):
    text = ("[experiment]\nkind = federated\ndatasets = a.csv, b.csv\n"
            "[data]\nchunks = 2, 2\n[topology]\ncombiner_clients = 3, 2\n")
    with pytest.raises(ConfigError, match="combiner_clients"):
        parse_config(write(tmp_path / "c.ini", text))
    head = "[experiment]\nkind = federated\ndatasets = a.csv, b.csv\n[data]\n"
    for tail, message in (("chunks = 2\n", "chunks must list one entry per dataset"),
                          ("chunks = 0, 2\n", "every chunk count must be >= 1"),
                          ("chunks = 2, 2\n[topology]\ncombiner_clients = 4, 0\n",
                           "every combiner must be assigned at least one client")):
        with pytest.raises(ConfigError, match=message):
            parse_config(write(tmp_path / "c.ini", head + tail))


def test_cross_eval_requires_three_datasets(tmp_path):
    text = "[experiment]\nkind = cross_eval\ndatasets = a.csv, b.csv\n"
    with pytest.raises(ConfigError, match="3 datasets"):
        parse_config(write(tmp_path / "c.ini", text))


def test_out_of_range_values_rejected(tmp_path):
    text = MINIMAL + "\n[data]\ntest_fraction = 1.5\n"
    with pytest.raises(ConfigError, match="test_fraction"):
        parse_config(write(tmp_path / "c.ini", text))
    text = MINIMAL + "\n[federation]\nclient_fraction = 0\n"
    with pytest.raises(ConfigError, match="client_fraction"):
        parse_config(write(tmp_path / "c2.ini", text))
    for text, message in (
            (MINIMAL.replace("a.csv", "a.csv, b.csv, c.csv, d.csv"),
             "datasets must list between 1 and 3 entries"),
            (MINIMAL + "\n[data]\nrebalance = smote\n", "rebalance must be one of"),
            (MINIMAL + "\n[synth]\nsamples = 9\n", "synth samples must be >= 10"),
            (MINIMAL + "\n[synth]\npositive_rate = 1\n", "synth positive_rate must be in"),
            ("[experiment]\nkind = synth\ndatasets = a, b\n[synth]\nshifts = 1.0\n",
             "synth shifts must list one entry per dataset")):
        with pytest.raises(ConfigError, match=message):
            parse_config(write(tmp_path / "c3.ini", text))


def test_resolved_json_roundtrip(tmp_path):
    text = ("[experiment]\nkind = federated\ndatasets = a.csv, b.csv, c.csv\nseed = 9\n"
            "[federation]\nrounds = 7\nreducer_mode = smoothed\n")
    cfg = parse_config(write(tmp_path / "c.ini", text))
    resolved = tmp_path / "config.resolved.json"
    resolved.write_text(json.dumps(dataclasses.asdict(cfg)), encoding="utf-8")
    assert parse_config(resolved) == cfg


def test_resolved_json_unknown_key_rejected(tmp_path):
    payload = {"kind": "centralized", "datasets": ["a.csv"], "nonsense": 1}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ConfigError, match="nonsense"):
        parse_config(path)
    path.write_text(json.dumps([payload]), encoding="utf-8")
    with pytest.raises(ConfigError, match="top level must be an object"):
        parse_config(path)


def test_direct_construction_fills_defaults_and_rejects_bad_kind():
    resolved = ExperimentConfig(kind="federated", datasets=("a", "b", "c"))
    assert resolved.chunks == (5, 1, 4)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="bogus", datasets=("a",))


def test_direct_construction_rejects_zero_rounds():
    # Zero rounds would score the untrained initial weights as a result.
    with pytest.raises(ConfigError, match="rounds"):
        ExperimentConfig(kind="centralized", datasets=("alpha.csv",), rounds=0)


@pytest.mark.parametrize("cls, name, value, message", [
    (RoundConfig, "rounds", 0, "rounds must be >= 1"),
    (RoundConfig, "client_fraction", 2, "client_fraction must be in (0, 1]"),
    (RoundConfig, "reducer_mode", "odd", f"reducer_mode must be one of {REDUCER_MODES}"),
    (RoundConfig, "seed", -1, "seed must be >= 0"),
    (Hyperparams, "learning_rate", -1.0, "learning_rate must be finite and >= 0"),
    (Hyperparams, "batch_size", 0, "batch_size must be >= 1"),
    (Hyperparams, "local_epochs", 0, "local_epochs must be >= 1"),
])
def test_round_config_and_hyperparams_raise_config_error_for_a_bad_value(cls, name, value,
                                                                         message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        cls(**{name: value})


def test_replace_checks_the_new_values():
    cfg = ExperimentConfig(kind="centralized", datasets=("a.csv",))
    with pytest.raises(ConfigError, match="seed"):
        dataclasses.replace(cfg, seed=-1)
    assert dataclasses.replace(cfg, seed=3).seed == 3


def test_direct_construction_stores_lists_as_tuples():
    cfg = ExperimentConfig(kind="federated", datasets=["a", "b"], chunks=[2, 3])
    assert (cfg.datasets, cfg.chunks, cfg.combiner_clients) == (("a", "b"), (2, 3), (3, 2))


BAD_VALUES = [("datasets", "abc"), ("rounds", "3"), ("seed", True), ("batch_size", 32.0),
              ("chunks", ["a"]), ("out_dir", 5), ("test_fraction", None),
              ("datasets", ("a\0.csv",)), ("out_dir", "o\0ut"),
              ("batch_size", 2.5), ("rounds", 2.5), ("seed", 1.5), ("batch_size", True),
              ("client_fraction", True), ("local_epochs", np.int64(1)),
              # The records a library caller builds for a federation and its scores.
              ("combiner_id", True), ("combiner_id", 0.0), ("sample_count", True),
              ("sample_count", 2.5), ("weights", [0.0] * PARAM_COUNT), ("local_data", "x"),
              ("hyper", None), ("clients", ("x",)), ("combiners", range(1)), ("tp", 1.5)]


def shown(value) -> str:
    """A refused value as its error message shows it: the repr, cut after 200 characters."""
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


@pytest.mark.parametrize("name, value", BAD_VALUES)
def test_direct_construction_and_replace_reject_wrong_types_and_nul(name, value):
    # Every checked class with the field refuses the value, however it is
    # built, with the same message and its own error class, on one short line.
    message = f"^bad value for {name}: {re.escape(shown(value))} \\("
    for cls, error, base in CHECKED_CLASSES:
        if name in field_types(cls):
            with pytest.raises(error, match=message) as built:
                cls(**{**base, name: value})
            with pytest.raises(error, match=message) as replaced:
                dataclasses.replace(cls(**base), **{name: value})
            assert len(str(built.value)) < 300 and len(str(replaced.value)) < 300


def test_float_field_stores_an_int_as_float():
    cfg = ExperimentConfig(kind="centralized", datasets=("a.csv",), learning_rate=1)
    assert type(cfg.learning_rate) is float and cfg.learning_rate == 1.0
    assert type(dataclasses.replace(cfg, learning_rate=2).learning_rate) is float


_MIXED_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                          st.text(max_size=4))
_MIXED = st.one_of(_MIXED_SCALAR, st.lists(_MIXED_SCALAR, max_size=3),
                   st.lists(_MIXED_SCALAR, max_size=3).map(tuple))
_NUMBER = st.one_of(st.floats(), st.integers(-2, 3))
_PLAUSIBLE = {
    "kind": st.sampled_from(EXPERIMENT_KINDS),
    "datasets": st.lists(st.text(max_size=5), min_size=1, max_size=3),
    "seed": st.integers(min_value=0),
    "out_dir": st.text(max_size=5),
    "rebalance": st.sampled_from(REBALANCE_MODES),
    "test_fraction": _NUMBER,
    "chunks": st.lists(st.integers(0, 4), max_size=3),
    "combiner_clients": st.lists(st.integers(0, 6), max_size=3),
    "rounds": st.integers(0, 5),
    "client_fraction": _NUMBER,
    "reducer_mode": st.sampled_from(REDUCER_MODES),
    "learning_rate": _NUMBER,
    "batch_size": st.integers(0, 64),
    "local_epochs": st.integers(0, 3),
    "synth_samples": st.integers(5, 100),
    "synth_positive_rate": _NUMBER,
    "synth_shifts": st.lists(_NUMBER, max_size=3),
}


@st.composite
def config_kwargs(draw):
    """Keyword arguments for ExperimentConfig: a few fields of any type, the
    rest plausible or left at their defaults."""
    wrong = draw(st.sets(st.sampled_from(sorted(_PLAUSIBLE)), max_size=2))
    kwargs = {}
    for name, plausible in _PLAUSIBLE.items():
        if name in wrong:
            kwargs[name] = draw(_MIXED)
        elif name in ("kind", "datasets") or draw(st.booleans()):
            kwargs[name] = draw(plausible)
    return kwargs


@settings(derandomize=True)
@given(config_kwargs())
def test_built_config_is_rejected_or_reads_back_identical(kwargs):
    try:
        cfg = ExperimentConfig(**kwargs)
    except ConfigError:
        return
    for name, (element, is_list) in field_types(ExperimentConfig).items():
        value = getattr(cfg, name)
        items = value if is_list else (value,)
        assert (type(value) is tuple) == is_list and all(type(v) is element for v in items)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.resolved.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)), encoding="utf-8")
        assert parse_config(path) == cfg


_SHARED_FIELDS = sorted(set(field_types(ExperimentConfig))
                        & {*field_types(RoundConfig), *field_types(Hyperparams)})


def _built_or_refused(build, name):
    """The stored field as (type, value), or the message that refused it."""
    try:
        value = getattr(build(), name)
    except ConfigError as exc:
        return str(exc)
    return type(value), value


@settings(derandomize=True)
@given(st.sampled_from(_SHARED_FIELDS),
       st.one_of(_MIXED, st.integers(-2, 40).map(np.int64), st.sampled_from(REDUCER_MODES)))
def test_a_shared_field_is_refused_alike_by_each_class_that_holds_it(name, value):
    own = RoundConfig if name in field_types(RoundConfig) else Hyperparams
    experiment = _built_or_refused(
        lambda: ExperimentConfig(kind="centralized", datasets=("a.csv",), **{name: value}), name)
    assert experiment == _built_or_refused(lambda: own(**{name: value}), name)


def test_experiment_config_inherits_the_round_and_training_fields():
    assert issubclass(ExperimentConfig, RoundConfig) and issubclass(ExperimentConfig, Hyperparams)
    # Declared once: the subclass's own annotations name no parent field.
    inherited = {*field_types(RoundConfig), *field_types(Hyperparams)}
    assert len(inherited) == 7 and not inherited & set(ExperimentConfig.__annotations__)
    assert inherited < set(field_types(ExperimentConfig))


@pytest.mark.parametrize("build", [lambda: RoundConfig(3), lambda: Hyperparams(0.5),
                                   lambda: ExperimentConfig("centralized", ("a.csv",))])
def test_config_classes_take_keyword_arguments_only(build):
    with pytest.raises(TypeError):
        build()


def test_every_field_has_one_ini_section():
    names = [name for fields in config._SECTIONS.values() for name in fields]
    assert sorted(names) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))


# ----------------------------------------------------------------- CLI codes

def test_each_exit_code_has_one_error_class():
    assert set(FedsmellError.__subclasses__()) == {ConfigError, DataError, NumericError}
    assert not any(cls.__subclasses__() for cls in (ConfigError, DataError, NumericError))


@pytest.mark.parametrize("error, code, prefix", [
    (ConfigError, 2, "CONFIG_ERROR"),
    (DataError, 3, "DATA_ERROR"),
    (NumericError, 4, "NUMERIC_ERROR"),
    (FloatingPointError, 4, "NUMERIC_ERROR"),  # raised by a caller's own raising errstate
])
def test_cli_maps_each_error_class_to_its_exit_code(tmp_path, monkeypatch, capsys,
                                                    error, code, prefix):
    def run_experiment(cfg):
        raise error("two\n  lines")

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    assert main(["centralized", "--config", str(write(tmp_path / "c.ini", MINIMAL))]) == code
    assert capsys.readouterr() == ("", f"{prefix}: two lines\n")


def test_cli_config_error_exits_2(tmp_path, capsys):
    bad = write(tmp_path / "bad.ini", MINIMAL + "\n[training]\nmomentum = 1\n")
    code = main(["centralized", "--config", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("CONFIG_ERROR:")
    assert "\n" not in err.strip()


def test_cli_usage_error_exits_2_with_one_config_error_line(capsys):
    for argv in (["federated", "--config", "x", "--seed", "abc"], ["federated"], ["bogus"]):
        assert main(argv) == 2, argv
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("CONFIG_ERROR: "), (argv, lines)


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["federated", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fedsmell ")


def test_cli_missing_dataset_exits_3(tmp_path, capsys):
    cfg = write(tmp_path / "c.ini", MINIMAL)
    out = str(tmp_path / "out")
    # Options may come before or after the verb.
    for argv in (["centralized", "--config", str(cfg), "--out", out],
                 ["--config", str(cfg), "--out", out, "centralized"]):
        assert main(argv) == 3, argv
        assert capsys.readouterr().err.startswith("DATA_ERROR:"), argv


def test_cli_missing_config_file_exits_2(tmp_path, capsys):
    for name in ("ghost.ini", "gh\0st.ini", "gh\0st.json"):
        code = main(["centralized", "--config", str(tmp_path / name)])
        assert code == 2, name
        assert capsys.readouterr().err.startswith("CONFIG_ERROR:"), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_numeric_error_exits_4(tmp_path, capsys):
    # A constant 1e308 column overflows the normalizer mean to infinity;
    # the normalized dataset then fails its finiteness invariant.
    from fedsmell.data import FEATURE_NAMES, LABEL_COLUMN
    header = ",".join(list(FEATURE_NAMES) + [LABEL_COLUMN])
    rows = [",".join(["1e308"] * 16 + [str(i % 2)]) for i in range(8)]
    csv_path = write(tmp_path / "huge.csv", header + "\n" + "\n".join(rows) + "\n")
    cfg = write(tmp_path / "c.ini",
                f"[experiment]\nkind = centralized\ndatasets = {csv_path}\n")
    code = main(["centralized", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 4
    assert capsys.readouterr().err.startswith("NUMERIC_ERROR:")


def assert_one_error_line(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert len(err.strip().splitlines()) == 1


def test_cli_non_utf8_config_exits_2(tmp_path, capsys):
    for name in ("bad.ini", "config.resolved.json"):
        path = tmp_path / name
        path.write_bytes(MINIMAL.encode("utf-8") + b"seed = \xff\xfe\n")
        assert main(["centralized", "--config", str(path)]) == 2
        assert_one_error_line(capsys, "CONFIG_ERROR:")


def test_cli_non_utf8_ini_names_the_bad_byte_as_open_reads_it(tmp_path, capsys):
    # The INI is decoded in the 8,192-byte chunks a text-mode open() reads,
    # so a bad byte past the first chunk reports its place in its own chunk.
    body = (MINIMAL + "; " + "x" * 9_000 + "\n").encode("utf-8")
    path = tmp_path / "bad.ini"
    path.write_bytes(body[:9_000] + b"\xff" + body[9_000:])
    assert main(["centralized", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"CONFIG_ERROR: config {path}: cannot read: 'utf-8' codec can't decode byte 0xff "
        "in position 808: invalid start byte\n")


def test_cli_malformed_ini_exits_2(tmp_path, capsys):
    texts = {
        "bad_value.ini": MINIMAL + "\n[training]\nbatch_size = many\n",
        "open_header.ini": MINIMAL + "\n[training\nbatch_size = 8\n",
    }
    for name, text in texts.items():
        assert main(["centralized", "--config", str(write(tmp_path / name, text))]) == 2, name
        assert_one_error_line(capsys, "CONFIG_ERROR:")


def test_cli_resolved_json_wrong_types_exit_2(tmp_path, capsys):
    base = {"kind": "centralized", "datasets": ["a.csv"]}
    path = tmp_path / "config.resolved.json"
    for key, value, reason in (
            ("rounds", "x", "expected int"),
            ("seed", True, "expected int"),
            ("chunks", ["a"], "expected int"),
            ("learning_rate", "0.1", "expected float"),
            ("datasets", "a.csv", "expected a list of str"),
            ("learning_rate", 10**400, "int too large to convert to float"),
            ("rounds", None, "expected int")):
        path.write_text(json.dumps({**base, key: value}), encoding="utf-8")
        assert main(["centralized", "--config", str(path)]) == 2, key
        assert capsys.readouterr().err == (
            f"CONFIG_ERROR: config {path}: bad value for {key}: {shown(value)} ({reason})\n")


def test_cli_resolved_json_duplicate_key_exits_2(tmp_path, capsys):
    path = tmp_path / "config.resolved.json"
    path.write_text('{"kind": "centralized", "datasets": ["a.csv"], "rounds": 1, "rounds": 100}',
                    encoding="utf-8")
    assert main(["centralized", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"CONFIG_ERROR: config {path}: duplicate key 'rounds'\n"


def test_resolved_json_numbers_follow_their_fields(tmp_path):
    path = tmp_path / "config.resolved.json"
    path.write_text(json.dumps({"kind": "centralized", "datasets": ["a.csv"],
                                "learning_rate": 1, "synth_shifts": [0, 0.5]}),
                    encoding="utf-8")
    cfg = parse_config(path)
    assert type(cfg.learning_rate) is float and cfg.learning_rate == 1.0
    assert cfg.synth_shifts == (0.0, 0.5)


def test_cli_out_naming_a_file_exits_2_before_any_work(tmp_path, capsys):
    occupied = write(tmp_path / "occupied", "not a directory\n")
    synth = write(tmp_path / "s.ini", "[experiment]\nkind = synth\ndatasets = a\n")
    # The federated dataset does not exist: exit 2 rather than 3 shows that
    # the output directory is checked before any data is read.
    fed = write(tmp_path / "f.ini", "[experiment]\nkind = federated\n"
                f"datasets = {tmp_path / 'ghost.csv'}\n")
    for verb, cfg in (("synth", synth), ("federated", fed)):
        assert main([verb, "--config", str(cfg), "--out", str(occupied)]) == 2, verb
        assert_one_error_line(capsys, "CONFIG_ERROR:")
    assert occupied.read_text(encoding="utf-8") == "not a directory\n"


def test_cli_nul_in_a_path_exits_2_before_any_directory_is_made(tmp_path, capsys):
    resolved = tmp_path / "config.resolved.json"
    resolved.write_text(json.dumps({"kind": "centralized", "datasets": ["a\0.csv"]}),
                        encoding="utf-8")
    out = str(tmp_path / "out")
    cases = [
        ("datasets", write(tmp_path / "d.ini", MINIMAL.replace("a.csv", "a\0.csv")), out),
        ("out_dir", write(tmp_path / "o.ini", MINIMAL + f"out_dir = {out}\0\n"), None),
        ("datasets", resolved, out),
        ("out_dir", write(tmp_path / "c.ini", MINIMAL), f"{out}\0"),
    ]
    for field, cfg, out_arg in cases:
        extra = [] if out_arg is None else ["--out", out_arg]
        assert main(["centralized", "--config", str(cfg), *extra]) == 2, cfg
        err = capsys.readouterr().err
        assert err.startswith("CONFIG_ERROR:") and f"bad value for {field}: " in err, err
        assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_cli_empty_out_dir_or_dataset_entry_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                       monkeypatch):
    # An empty path names the current directory: a run there would delete
    # its summary.json, and a synth run would write a hidden ".csv".
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "summary.json", "{}\n")
    cases = [
        ("centralized", write(tmp_path / "c.ini", MINIMAL), ["--out", ""]),
        ("centralized", write(tmp_path / "o.ini", MINIMAL + "out_dir =\n"), []),
        ("synth", write(tmp_path / "s.json", json.dumps({"datasets": [""], "out_dir": "o"})), []),
        ("centralized", write(tmp_path / "d.json", json.dumps({"datasets": [""]})), []),
    ]
    before = sorted(entry.name for entry in tmp_path.iterdir())
    for verb, cfg, extra in cases:
        assert main([verb, "--config", str(cfg), *extra]) == 2, cfg
        err = capsys.readouterr().err
        assert err == (f"CONFIG_ERROR: config {cfg}: "
                       "out_dir and dataset entries must not be empty\n"), err
    assert sorted(entry.name for entry in tmp_path.iterdir()) == before
    assert (tmp_path / "summary.json").read_text(encoding="utf-8") == "{}\n"


def test_cli_deeply_nested_resolved_json_exits_2(tmp_path, capsys):
    path = tmp_path / "config.resolved.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["centralized", "--config", str(path)]) == 2
    assert_one_error_line(capsys, f"CONFIG_ERROR: config {path}: cannot read: ")


def test_cli_bad_dataset_bytes_and_cells_exit_3(tmp_path, capsys):
    from fedsmell.data import FEATURE_NAMES, LABEL_COLUMN
    header = ",".join(list(FEATURE_NAMES) + [LABEL_COLUMN]).encode("utf-8")
    good_row = b",".join([b"1"] * 16 + [b"0"])
    bad_rows = {
        "latin1": b",".join([b"1"] * 15 + [b"\xe9", b"1"]),
        "fraction_label": b",".join([b"1"] * 16 + [b"0.7"]),
        "nan_cell": b",".join([b"nan"] + [b"1"] * 15 + [b"1"]),
        # One quoted cell over the csv module's 131,072-character field limit.
        "huge_cell": b'"' + b"1" * 140_000 + b'"' + b",1" * 16,
    }
    for name, bad_row in bad_rows.items():
        csv_path = tmp_path / f"{name}.csv"
        csv_path.write_bytes(b"\n".join([header, good_row, bad_row]) + b"\n")
        cfg = write(tmp_path / f"{name}.ini",
                    f"[experiment]\nkind = centralized\ndatasets = {csv_path}\n")
        code = main(["centralized", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 3, name
        assert_one_error_line(capsys, "DATA_ERROR:")


def test_cli_non_finite_learning_rate_and_negative_seed_exit_2(tmp_path, capsys):
    # Each value is rejected by validation, before any data is read: the
    # dataset a.csv does not exist, so reaching the data would exit 3.
    synth = write(tmp_path / "s.ini", "[experiment]\nkind = synth\ndatasets = a\n")
    fed = write(tmp_path / "f.ini", MINIMAL.replace("centralized", "federated"))
    cases = [
        ("centralized", MINIMAL + "[training]\nlearning_rate = nan\n", []),
        ("centralized", MINIMAL + "[training]\nlearning_rate = inf\n", []),
        ("centralized", MINIMAL + "seed = -5\n", []),
        ("federated", fed.read_text(encoding="utf-8"), ["--seed", "-1"]),
        ("synth", synth.read_text(encoding="utf-8"), ["--seed", "-3"]),
    ]
    for index, (verb, text, extra) in enumerate(cases):
        cfg = write(tmp_path / f"c{index}.ini", text)
        code = main([verb, "--config", str(cfg), "--out", str(tmp_path / "out"), *extra])
        assert code == 2, (verb, text, extra)
        assert_one_error_line(capsys, "CONFIG_ERROR:")
    assert not (tmp_path / "out" / "a.csv").exists()


def test_cli_non_finite_synth_shifts_exit_2(tmp_path, capsys):
    for index, shift in enumerate(("inf", "-inf", "nan")):
        cfg = write(tmp_path / f"s{index}.ini",
                    f"[experiment]\nkind = synth\ndatasets = x\n[synth]\nshifts = {shift}\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert_one_error_line(capsys, "CONFIG_ERROR:")
    assert not (tmp_path / "out" / "x.csv").exists()


def test_cli_synth_name_that_is_not_a_plain_file_name_exits_2_and_writes_nothing(tmp_path,
                                                                                capsys):
    names = ("../escaped", "sub/x", str(tmp_path / "abs"), ".")
    for index, name in enumerate(names):
        cfg = write(tmp_path / f"s{index}.ini",
                    f"[experiment]\nkind = synth\ndatasets = {name}\n[synth]\nsamples = 20\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2, name
        assert capsys.readouterr().err == (
            f"CONFIG_ERROR: config {cfg}: synth dataset names must be plain file names\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"s{i}.ini" for i in range(len(names))]


def test_cli_repeated_dataset_name_exits_2_and_writes_nothing(tmp_path, capsys):
    # Cells and errors name a dataset by its file stem, so two entries with
    # one stem could not be told apart; each case would have exited 0.
    for folder in ("o2", "o3"):
        (tmp_path / folder).mkdir()
        synth_csv(tmp_path / folder, "p", n=40, seed=1)
    synth_csv(tmp_path / "o2", "q", n=40, seed=2)
    p, other_p, q = (str(tmp_path / name) for name in ("o2/p.csv", "o3/p.csv", "o2/q.csv"))
    cases = [("synth", "x, x", "x"), ("synth", "x, x.csv", "x"),
             ("cross-eval", f"{p}, {p}, {q}", "p"), ("cross-eval", f"{p}, {other_p}, {q}", "p")]
    for index, (verb, datasets, stem) in enumerate(cases):
        cfg = write(tmp_path / f"c{index}.ini", f"[experiment]\ndatasets = {datasets}\n"
                    "[federation]\nrounds = 1\n[synth]\nsamples = 20\n")
        assert main([verb, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2, datasets
        assert capsys.readouterr().err == (
            f"CONFIG_ERROR: config {cfg}: dataset name {stem!r} is repeated; "
            "names must be distinct\n")
    assert not (tmp_path / "out").exists()


def test_cli_synth_samples_numpy_cannot_allocate_exit_2(tmp_path, capsys):
    # 10**20 rows exceed numpy's largest dimension, so nothing is allocated.
    cfg = write(tmp_path / "s.ini",
                f"[experiment]\nkind = synth\ndatasets = x\n[synth]\nsamples = {10**20}\n")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert_one_error_line(capsys, "CONFIG_ERROR:")
    assert not (tmp_path / "out" / "x.csv").exists()


def test_cli_bom_prefixed_config_runs_like_its_plain_copy(tmp_path, capsys):
    text = "[experiment]\nkind = synth\ndatasets = x, y\nseed = 2\n[synth]\nsamples = 30\n"
    plain = write(tmp_path / "plain.ini", text)
    bom = tmp_path / "bom.ini"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    for path in (plain, bom):
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / path.stem)]) == 0
    assert capsys.readouterr().err == ""
    for name in ("x.csv", "y.csv"):
        assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    resolved = [json.loads((tmp_path / stem / "config.resolved.json").read_text("utf-8"))
                for stem in ("bom", "plain")]
    assert [r.pop("out_dir") for r in resolved] == [str(tmp_path / "bom"),
                                                    str(tmp_path / "plain")]
    assert resolved[0] == resolved[1]


# ------------------------------------------------------------ reader fuzzing

# Syntax characters of INI and JSON, digits, letters of true/false/null/nan/inf
_TOKENS = st.text(st.sampled_from(list(' \n,:=[]{}"\\-+.0123456789eEtrufalsni\0')),
                  max_size=12)


@st.composite
def mutated(draw, base: bytes):
    """Bytes of a valid config with one span replaced by other bytes."""
    start = draw(st.integers(0, len(base)))
    end = draw(st.integers(start, len(base)))
    middle = draw(st.one_of(_TOKENS.map(str.encode), st.text(max_size=6).map(str.encode),
                            st.binary(max_size=12)))
    return base[:start] + middle + base[end:]


FUZZ_INI = (MINIMAL.replace("a.csv", "missing.csv")
            + "[federation]\nrounds = 3\n[data]\nchunks = 1\n").encode("utf-8")
FUZZ_JSON = json.dumps({"kind": "centralized", "datasets": ["missing.csv"], "rounds": 3,
                        "learning_rate": 0.01, "chunks": [1]}).encode("utf-8")


# Resolved-JSON objects whose values are any JSON, so the constructor's type
# check is reached as often as the JSON syntax errors are.
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=5)
_JSON_OBJECTS = st.fixed_dictionaries(
    {"datasets": st.just(["missing.csv"]) | _JSON_VALUES},
    optional={name: _JSON_VALUES for name in field_types(ExperimentConfig)
              if name != "datasets"}
).map(lambda obj: json.dumps(obj).encode("utf-8"))


@pytest.mark.parametrize("name, fuzzed", [
    ("c.ini", mutated(FUZZ_INI)),
    ("config.resolved.json", mutated(FUZZ_JSON) | _JSON_OBJECTS),
])
def test_fuzzed_config_bytes_exit_2_or_3_with_one_line(tmp_path, monkeypatch, capsys,
                                                       name, fuzzed):
    # The config names a CSV that does not exist, so no input reaches training:
    # every run ends in a config error (2) or a data error (3), on one line.
    monkeypatch.chdir(tmp_path)

    @settings(derandomize=True, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fuzzed | st.binary(max_size=64))
    def run(data):
        (tmp_path / name).write_bytes(data)
        code = main(["centralized", "--config", name, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (2, 3), (data, err)
        assert err.endswith("\n") and len(err.splitlines()) == 1, (data, err)

    run()
