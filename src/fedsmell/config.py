"""Experiment configuration: strict INI parsing, defaults, resolved JSON.

Configs are flat key/value INI files with one section per concern.
Unknown sections or keys are rejected by name. A run echoes every
resolved value to config.resolved.json, and that file parses back into
the identical configuration, so any run can be reproduced from its
output directory alone.
"""

from __future__ import annotations

import configparser
import json
import math
import typing
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .data import REBALANCE_MODES
from .errors import ConfigError, StructuralError
from .federation import RoundConfig
from .nn import Hyperparams

CENTRALIZED = "centralized"
CROSS_EVAL = "cross_eval"
FEDERATED = "federated"
SYNTH = "synth"
EXPERIMENT_KINDS = (CENTRALIZED, CROSS_EVAL, FEDERATED, SYNTH)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    datasets: tuple[str, ...]
    seed: int = 0
    out_dir: str = "out"
    rebalance: str = "oversample"
    test_fraction: float = 0.3
    chunks: tuple[int, ...] = ()
    combiner_clients: tuple[int, ...] = ()
    rounds: int = 100
    client_fraction: float = 1.0
    reducer_mode: str = "plain"
    learning_rate: float = 0.001
    batch_size: int = 32
    local_epochs: int = 1
    synth_samples: int = 2000
    synth_positive_rate: float = 0.5
    synth_shifts: tuple[float, ...] = ()

    def hyperparams(self) -> Hyperparams:
        return Hyperparams(learning_rate=self.learning_rate, batch_size=self.batch_size,
                           local_epochs=self.local_epochs)

    def round_config(self) -> RoundConfig:
        return RoundConfig(rounds=self.rounds, client_fraction=self.client_fraction,
                           seed=self.seed, reducer_mode=self.reducer_mode)

    def to_resolved_dict(self) -> dict:
        raw = asdict(self)
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in raw.items()}


# config field -> (element type, is a list), read off the annotations
_FIELDS = {name: (typing.get_args(hint)[0], True) if typing.get_origin(hint) is tuple
           else (hint, False)
           for name, hint in typing.get_type_hints(ExperimentConfig).items()}


def _from_ini(name: str, raw: str):
    """Convert an INI string: lists are comma-separated, blanks dropped."""
    element, is_list = _FIELDS[name]
    if is_list:
        return tuple(element(part.strip()) for part in raw.split(",") if part.strip())
    return element(raw)


def _json_scalar(element: type, value):
    accepted = (int, float) if element is float else element
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"expected {element.__name__}")
    return element(value)


def _from_json(name: str, value):
    """Check a JSON value against its field: integers are not booleans,
    floats take any number, lists hold their element type."""
    element, is_list = _FIELDS[name]
    if not is_list:
        return _json_scalar(element, value)
    if not isinstance(value, list):
        raise ValueError(f"expected a list of {element.__name__}")
    return tuple(_json_scalar(element, item) for item in value)


# (section, key) -> config field
_INI_KEYS = {
    ("experiment", "kind"): "kind",
    ("experiment", "datasets"): "datasets",
    ("experiment", "seed"): "seed",
    ("experiment", "out_dir"): "out_dir",
    ("data", "rebalance"): "rebalance",
    ("data", "test_fraction"): "test_fraction",
    ("data", "chunks"): "chunks",
    ("topology", "combiner_clients"): "combiner_clients",
    ("federation", "rounds"): "rounds",
    ("federation", "client_fraction"): "client_fraction",
    ("federation", "reducer_mode"): "reducer_mode",
    ("training", "learning_rate"): "learning_rate",
    ("training", "batch_size"): "batch_size",
    ("training", "local_epochs"): "local_epochs",
    ("synth", "samples"): "synth_samples",
    ("synth", "positive_rate"): "synth_positive_rate",
    ("synth", "shifts"): "synth_shifts",
}
_KNOWN_SECTIONS = {section for section, _ in _INI_KEYS}


def _read_ini(path: Path) -> dict:
    parser = configparser.ConfigParser(interpolation=None, default_section="__defaults__")
    try:
        with open(path, encoding="utf-8-sig") as fh:
            parser.read_file(fh, source=str(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config {path}: {exc}") from exc

    values: dict = {}
    for section in parser.sections():
        if section not in _KNOWN_SECTIONS:
            raise ConfigError(f"config {path}: unknown section {section!r}")
        for key, raw in parser.items(section):
            if (section, key) not in _INI_KEYS:
                raise ConfigError(
                    f"config {path}: unknown key {key!r} in section {section!r}"
                )
            name = _INI_KEYS[(section, key)]
            try:
                values[name] = _from_ini(name, raw)
            except ValueError as exc:
                raise ConfigError(
                    f"config {path}: bad value for {section}.{key}: {raw!r} ({exc})"
                ) from exc
    return values


def _read_resolved_json(path: Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    values = {}
    for key, value in raw.items():
        if key not in _FIELDS:
            raise ConfigError(f"config {path}: unknown key {key!r}")
        try:
            values[key] = _from_json(key, value)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"config {path}: bad value for {key}: {value!r} ({exc})") from exc
    return values


def _resolve(values: dict, path, kind: str | None) -> ExperimentConfig:
    file_kind = values.pop("kind", None)
    if file_kind is None and kind is None:
        raise ConfigError(f"config {path}: missing mandatory key 'kind'")
    if file_kind is not None and kind is not None and file_kind != kind:
        raise ConfigError(
            f"config {path}: kind {file_kind!r} does not match requested {kind!r}"
        )
    resolved_kind = file_kind or kind

    datasets = values.pop("datasets", None)
    if not datasets:
        raise ConfigError(f"config {path}: missing mandatory key 'datasets'")
    cfg = ExperimentConfig(kind=resolved_kind, datasets=tuple(datasets), **values)
    return validate_config(cfg, path)


def validate_config(cfg: ExperimentConfig, path="<config>") -> ExperimentConfig:
    """Fill structural defaults and enforce cross-field invariants."""
    def fail(message):
        raise ConfigError(f"config {path}: {message}")

    if cfg.kind not in EXPERIMENT_KINDS:
        fail(f"kind must be one of {EXPERIMENT_KINDS}")
    if not 1 <= len(cfg.datasets) <= 3:
        fail("datasets must list between 1 and 3 entries")
    if cfg.kind == CROSS_EVAL and len(cfg.datasets) != 3:
        fail("cross_eval requires exactly 3 datasets")
    if cfg.rebalance not in REBALANCE_MODES:
        fail(f"rebalance must be one of {REBALANCE_MODES}")
    if not 0.0 < cfg.test_fraction < 1.0:
        fail("test_fraction must be in (0, 1)")
    try:
        cfg.round_config()
        cfg.hyperparams()
    except StructuralError as exc:
        fail(exc)
    if cfg.synth_samples < 10:
        fail("synth samples must be >= 10")
    if not 0.0 < cfg.synth_positive_rate < 1.0:
        fail("synth positive_rate must be in (0, 1)")

    chunks = cfg.chunks
    combiner_clients = cfg.combiner_clients
    synth_shifts = cfg.synth_shifts
    if cfg.kind == FEDERATED:
        if not chunks:
            chunks = (5, 1, 4) if len(cfg.datasets) == 3 else (1,) * len(cfg.datasets)
        if len(chunks) != len(cfg.datasets):
            fail("chunks must list one entry per dataset")
        if any(c < 1 for c in chunks):
            fail("every chunk count must be >= 1")
        n_clients = sum(chunks)
        if not combiner_clients:
            if n_clients == 1:
                combiner_clients = (1,)
            else:
                combiner_clients = (math.ceil(n_clients / 2), n_clients // 2)
        if any(c < 1 for c in combiner_clients):
            fail("every combiner must be assigned at least one client")
        if sum(combiner_clients) != n_clients:
            fail(f"combiner_clients sums to {sum(combiner_clients)} but chunks imply "
                 f"{n_clients} clients")
    if cfg.kind == SYNTH:
        if not synth_shifts:
            synth_shifts = (0.0,) * len(cfg.datasets)
        if len(synth_shifts) != len(cfg.datasets):
            fail("synth shifts must list one entry per dataset")
        if not all(math.isfinite(s) for s in synth_shifts):
            fail("synth shifts must be finite")

    return replace(cfg, chunks=tuple(chunks), combiner_clients=tuple(combiner_clients),
                   synth_shifts=tuple(synth_shifts))


def parse_config(path, kind: str | None = None, **overrides) -> ExperimentConfig:
    """Parse an INI config (or an emitted config.resolved.json) and resolve it.

    `kind` is the experiment requested on the command line; a `kind` key
    inside the file is optional but must agree when present. Each override
    that is not None (the command line's seed and out_dir) replaces the
    file's value before the one validation.
    """
    path = Path(path)
    if path.suffix == ".json":
        values = _read_resolved_json(path)
    else:
        values = _read_ini(path)
    values.update((name, value) for name, value in overrides.items() if value is not None)
    return _resolve(values, path, kind)
