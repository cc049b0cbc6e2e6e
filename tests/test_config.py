"""Config parsing: strict keys, defaults, resolved-JSON round trips, CLI codes."""

import json

import pytest

from fedsmell.cli import main
from fedsmell.config import ExperimentConfig, parse_config, validate_config
from fedsmell.errors import ConfigError


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


def test_bad_value_reports_key(tmp_path):
    text = MINIMAL + "\n[training]\nbatch_size = many\n"
    with pytest.raises(ConfigError, match="batch_size"):
        parse_config(write(tmp_path / "c.ini", text))


def test_missing_mandatory_keys(tmp_path):
    with pytest.raises(ConfigError, match="kind"):
        parse_config(write(tmp_path / "a.ini", "[experiment]\ndatasets = x.csv\n"))
    with pytest.raises(ConfigError, match="datasets"):
        parse_config(write(tmp_path / "b.ini", "[experiment]\nkind = centralized\n"))


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


def test_resolved_json_roundtrip(tmp_path):
    text = ("[experiment]\nkind = federated\ndatasets = a.csv, b.csv, c.csv\nseed = 9\n"
            "[federation]\nrounds = 7\nreducer_mode = smoothed\n")
    cfg = parse_config(write(tmp_path / "c.ini", text))
    resolved = tmp_path / "config.resolved.json"
    resolved.write_text(json.dumps(cfg.to_resolved_dict()), encoding="utf-8")
    assert parse_config(resolved) == cfg


def test_resolved_json_unknown_key_rejected(tmp_path):
    payload = {"kind": "centralized", "datasets": ["a.csv"], "nonsense": 1}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ConfigError, match="nonsense"):
        parse_config(path)


def test_validate_config_direct_construction():
    cfg = ExperimentConfig(kind="federated", datasets=("a", "b", "c"))
    resolved = validate_config(cfg)
    assert resolved.chunks == (5, 1, 4)
    with pytest.raises(ConfigError):
        validate_config(ExperimentConfig(kind="bogus", datasets=("a",)))


# ----------------------------------------------------------------- CLI codes

def test_cli_config_error_exits_2(tmp_path, capsys):
    bad = write(tmp_path / "bad.ini", MINIMAL + "\n[training]\nmomentum = 1\n")
    code = main(["centralized", "--config", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("CONFIG_ERROR:")
    assert "\n" not in err.strip()


def test_cli_missing_dataset_exits_3(tmp_path, capsys):
    cfg = write(tmp_path / "c.ini", MINIMAL)
    code = main(["centralized", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err.startswith("DATA_ERROR:")


def test_cli_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["centralized", "--config", str(tmp_path / "ghost.ini")])
    assert code == 2
    assert capsys.readouterr().err.startswith("CONFIG_ERROR:")


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
    for key, value in (("rounds", "x"), ("seed", True), ("chunks", ["a"]),
                       ("learning_rate", "0.1"), ("datasets", "a.csv")):
        path = tmp_path / "config.resolved.json"
        path.write_text(json.dumps({**base, key: value}), encoding="utf-8")
        assert main(["centralized", "--config", str(path)]) == 2, key
        err = capsys.readouterr().err
        assert err.startswith("CONFIG_ERROR:") and key in err, key
        assert len(err.strip().splitlines()) == 1


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


def test_cli_bad_dataset_bytes_and_cells_exit_3(tmp_path, capsys):
    from fedsmell.data import FEATURE_NAMES, LABEL_COLUMN
    header = ",".join(list(FEATURE_NAMES) + [LABEL_COLUMN]).encode("utf-8")
    good_row = b",".join([b"1"] * 16 + [b"0"])
    bad_rows = {
        "latin1": b",".join([b"1"] * 15 + [b"\xe9", b"1"]),
        "fraction_label": b",".join([b"1"] * 16 + [b"0.7"]),
        "nan_cell": b",".join([b"nan"] + [b"1"] * 15 + [b"1"]),
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
