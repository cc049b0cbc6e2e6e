"""Config parsing: strict keys, defaults, resolved-JSON round trips, CLI codes."""

import dataclasses
import json
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
from fedsmell.nn import Hyperparams
from util import line_fits_code


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


def test_federated_defaults_for_three_datasets(tmp_path):
    text = "[experiment]\nkind = federated\ndatasets = a.csv, b.csv, c.csv\n"
    cfg = parse_config(write(tmp_path / "c.ini", text))
    assert cfg.chunks == (5, 1, 4)
    assert cfg.combiner_clients == (5, 5)


def test_resolved_json_roundtrip(tmp_path):
    text = ("[experiment]\nkind = federated\ndatasets = a.csv, b.csv, c.csv\nseed = 9\n"
            "[federation]\nrounds = 7\nreducer_mode = smoothed\n")
    cfg = parse_config(write(tmp_path / "c.ini", text))
    resolved = tmp_path / "config.resolved.json"
    resolved.write_text(json.dumps(dataclasses.asdict(cfg)), encoding="utf-8")
    assert parse_config(resolved) == cfg


def test_direct_construction_stores_lists_as_tuples_and_fills_defaults():
    cfg = ExperimentConfig(kind="federated", datasets=["a", "b"], chunks=[2, 3])
    assert (cfg.datasets, cfg.chunks, cfg.combiner_clients) == (("a", "b"), (2, 3), (3, 2))
    assert ExperimentConfig(kind="federated", datasets=("a", "b", "c")).chunks == (5, 1, 4)


def test_float_field_stores_an_int_as_float():
    cfg = ExperimentConfig(kind="centralized", datasets=("a.csv",), learning_rate=1)
    assert type(cfg.learning_rate) is float and cfg.learning_rate == 1.0
    again = dataclasses.replace(cfg, learning_rate=2)
    assert type(again.learning_rate) is float and again.learning_rate == 2.0


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


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["federated", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fedsmell ")


def test_resolved_json_numbers_follow_their_fields(tmp_path):
    path = tmp_path / "config.resolved.json"
    path.write_text(json.dumps({"kind": "centralized", "datasets": ["a.csv"],
                                "learning_rate": 1, "synth_shifts": [0, 0.5]}),
                    encoding="utf-8")
    cfg = parse_config(path)
    assert type(cfg.learning_rate) is float and cfg.learning_rate == 1.0
    assert cfg.synth_shifts == (0.0, 0.5)


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
    # every run ends in a config error (2) or a data error (3), on one line with its label.
    monkeypatch.chdir(tmp_path)

    @settings(derandomize=True, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fuzzed | st.binary(max_size=64))
    def run(data):
        (tmp_path / name).write_bytes(data)
        code = main(["centralized", "--config", name, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (2, 3) and line_fits_code(code, err), (data, code, err)

    run()
