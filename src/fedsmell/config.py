"""Experiment configuration: strict INI parsing, defaults, resolved JSON.

Configs are flat key/value INI files with one section per concern.
Unknown sections or keys are rejected by name. An ExperimentConfig checks
each field's type and value and fills its defaults when built, however it
is built, so every instance is valid. A run echoes every resolved value to
config.resolved.json, and that file parses back into the identical
configuration, so any run can be reproduced from its output directory alone.
"""

from __future__ import annotations

import configparser
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .data import REBALANCE_MODES
from .errors import ConfigError, check_field_types, error_context, field_types, read_input
from .federation import RoundConfig
from .nn import Hyperparams

CENTRALIZED = "centralized"
CROSS_EVAL = "cross_eval"
FEDERATED = "federated"
SYNTH = "synth"
EXPERIMENT_KINDS = (CENTRALIZED, CROSS_EVAL, FEDERATED, SYNTH)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(RoundConfig, Hyperparams):
    """A whole run's settings. The round schedule and the local training are
    the fields and rules of RoundConfig and Hyperparams, inherited, so a
    config is passed as is wherever either is taken."""

    kind: str
    datasets: tuple[str, ...]
    out_dir: str = "out"
    rebalance: str = "oversample"
    test_fraction: float = 0.3
    chunks: tuple[int, ...] = ()
    combiner_clients: tuple[int, ...] = ()
    synth_samples: int = 2000
    synth_positive_rate: float = 0.5
    synth_shifts: tuple[float, ...] = ()

    def __post_init__(self):
        """Check every field's type, then every rule, and fill the structural
        defaults. The class stays frozen, so stored values go in through
        object.__setattr__."""
        check_field_types(self)
        datasets = self.datasets
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"kind must be one of {EXPERIMENT_KINDS}")
        if not 1 <= len(datasets) <= 3:
            raise ConfigError("datasets must list between 1 and 3 entries")
        if "" in (self.out_dir, *datasets):  # "" names the current directory
            raise ConfigError("out_dir and dataset entries must not be empty")
        stems = [Path(entry).stem for entry in datasets]  # the name each cell and error uses
        repeated = [stem for i, stem in enumerate(stems) if stem in stems[:i]]
        if repeated:
            raise ConfigError(f"dataset name {repeated[0]!r} is repeated; names must be distinct")
        if self.kind == CROSS_EVAL and len(datasets) != 3:
            raise ConfigError("cross_eval requires exactly 3 datasets")
        if self.rebalance not in REBALANCE_MODES:
            raise ConfigError(f"rebalance must be one of {REBALANCE_MODES}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must be in (0, 1)")
        RoundConfig.__post_init__(self)
        Hyperparams.__post_init__(self)
        if self.synth_samples < 10:
            raise ConfigError("synth samples must be >= 10")
        if not 0.0 < self.synth_positive_rate < 1.0:
            raise ConfigError("synth positive_rate must be in (0, 1)")

        if self.kind == FEDERATED:
            chunks = self.chunks or ((5, 1, 4) if len(datasets) == 3 else (1,) * len(datasets))
            if len(chunks) != len(datasets):
                raise ConfigError("chunks must list one entry per dataset")
            if any(c < 1 for c in chunks):
                raise ConfigError("every chunk count must be >= 1")
            n_clients = sum(chunks)
            combiner_clients = self.combiner_clients or (
                (1,) if n_clients == 1 else (math.ceil(n_clients / 2), n_clients // 2))
            if any(c < 1 for c in combiner_clients):
                raise ConfigError("every combiner must be assigned at least one client")
            if sum(combiner_clients) != n_clients:
                raise ConfigError(f"combiner_clients sums to {sum(combiner_clients)} but "
                                  f"chunks imply {n_clients} clients")
            object.__setattr__(self, "chunks", chunks)
            object.__setattr__(self, "combiner_clients", combiner_clients)
        if self.kind == SYNTH:
            if any(Path(name).name != name for name in datasets):
                raise ConfigError("synth dataset names must be plain file names")
            shifts = self.synth_shifts or (0.0,) * len(datasets)
            if len(shifts) != len(datasets):
                raise ConfigError("synth shifts must list one entry per dataset")
            object.__setattr__(self, "synth_shifts", shifts)
        if not all(math.isfinite(s) for s in self.synth_shifts):
            raise ConfigError("synth shifts must be finite")


def _from_ini(name: str, raw: str):
    """Convert an INI string: lists are comma-separated, blanks dropped."""
    element, is_list = field_types(ExperimentConfig)[name]
    if is_list:
        return tuple(element(part.strip()) for part in raw.split(",") if part.strip())
    return element(raw)


# INI section -> the config fields it holds. A key is its field name
# without the section prefix, so [synth] samples is synth_samples.
_SECTIONS = {
    "experiment": ("kind", "datasets", "seed", "out_dir"),
    "data": ("rebalance", "test_fraction", "chunks"),
    "topology": ("combiner_clients",),
    "federation": ("rounds", "client_fraction", "reducer_mode"),
    "training": ("learning_rate", "batch_size", "local_epochs"),
    "synth": ("synth_samples", "synth_positive_rate", "synth_shifts"),
}


def _read_ini(path: Path, raw: bytes) -> dict:
    parser = configparser.ConfigParser(interpolation=None, default_section="__defaults__")
    # Decoded as open() decodes a file, in the same chunks, so a bad byte's position is the same.
    stream = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig")
    try:
        parser.read_file(stream, source=str(path))
    except ValueError as exc:  # bad UTF-8
        raise ConfigError(f"cannot read: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    if parser.defaults():  # configparser would copy its keys into every section
        raise ConfigError(f"unknown section {parser.default_section!r}")
    values: dict = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section {section!r}")
        fields = {name.removeprefix(f"{section}_"): name for name in _SECTIONS[section]}
        for key, raw in parser.items(section):
            if key not in fields:
                raise ConfigError(f"unknown key {key!r} in section {section!r}")
            name = fields[key]
            try:
                values[name] = _from_ini(name, raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc
    return values


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a key given twice is a ConfigError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _read_resolved_json(raw: bytes) -> dict:
    try:
        # Decoded as a text-mode open() reads, newlines included, so error lines keep their numbers.
        text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
        values = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, or deep nesting
        raise ConfigError(f"cannot read: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError("top level must be an object")
    for key in values:
        if key not in field_types(ExperimentConfig):
            raise ConfigError(f"unknown key {key!r}")
    return values


def parse_config(path, kind: str | None = None, *, seed: int | None = None,
                 out_dir: str | None = None) -> ExperimentConfig:
    """Parse an INI config (or an emitted config.resolved.json) and resolve it.

    `kind` is the experiment requested on the command line; a `kind` key
    inside the file is optional but must agree when present. `seed` and
    `out_dir`, the command line's overrides, replace the file's values
    when not None, before the config is built and checked.
    """
    path = Path(path)
    with error_context(f"config {path}"):
        raw = read_input(path, ConfigError)
        values = _read_resolved_json(raw) if path.suffix == ".json" else _read_ini(path, raw)
        overrides = {"seed": seed, "out_dir": out_dir}
        values.update((name, value) for name, value in overrides.items() if value is not None)
        file_kind = values.pop("kind", None)
        if file_kind is None and kind is None:
            raise ConfigError("missing mandatory key 'kind'")
        if file_kind is not None and kind is not None and file_kind != kind:
            raise ConfigError(f"kind {file_kind!r} does not match requested {kind!r}")
        if not values.get("datasets"):
            raise ConfigError("missing mandatory key 'datasets'")
        return ExperimentConfig(kind=kind if file_kind is None else file_kind, **values)
