"""Golden digests: a tiny federated and centralized run, byte for byte.

The outputs' bits depend on the numpy build, its SIMD dispatch and the BLAS
kernel, so the run happens in a subprocess pinned to numpy's baseline SIMD
and OpenBLAS's Prescott kernel, which every x86-64 CPU runs. The pins are
keyed on what that leaves variable: the numpy version, the architecture and
the C library. Anywhere else the test skips and says what differs.

A change that moves output bits on purpose re-pins the digests here.
"""

import hashlib
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from util import child_env

# (numpy version, machine, libc) -> {output name: sha256}
GOLDEN = {
    ("2.4.6", "x86_64", ("glibc", "2.36")): {
        "central/summary cells": "c0bc6bd87205a4f0634e727c105eb0b614586b9d96a468a72be38c6c4b25f6b0",
        "fed/model.fwv": "75c985aefd86f1bc1a3da32250f0992d5ac1de050012d6d59cf7d5ce12a1fb2c",
        "fed/rounds.csv": "9c59988ace3c165d64de7c9c8463f68f0b3ab46f555ef6d656aad0e5f2b2baa9",
        "fed/summary cells": "8d2dbcb9949d4b34e7dec3e3332f5b80219f229f864ec2aa21a44d375343b20b",
    },
}

SYNTH_INI = """[experiment]
datasets = a, b, c
seed = 3
[synth]
samples = 1000
shifts = 0, 3, 0
"""

FEDERATED_INI = """[experiment]
datasets = data/a.csv, data/b.csv, data/c.csv
seed = 5
[data]
chunks = 2, 1, 2
[topology]
combiner_clients = 3, 2
[federation]
rounds = 3
client_fraction = 0.6
reducer_mode = smoothed
"""

CENTRALIZED_INI = """[experiment]
datasets = data/a.csv
seed = 5
[federation]
rounds = 2
"""

RUN = """import sys
from fedsmell.cli import main
for verb, out in (("synth", "data"), ("federated", "fed"), ("centralized", "central")):
    if main([verb, "--config", verb + ".ini", "--out", out]) != 0:
        sys.exit(1)
"""


def _environment_key():
    return np.__version__, platform.machine(), platform.libc_ver()


def _describe(key) -> str:
    version, machine, libc = key
    return f"numpy {version} on {machine} with {' '.join(libc).strip() or 'an unknown libc'}"


def _pinned_env(threads: int) -> dict:
    from numpy._core._multiarray_umath import __cpu_dispatch__
    return child_env(OPENBLAS_NUM_THREADS=str(threads), OPENBLAS_CORETYPE="Prescott",
                     NPY_DISABLE_CPU_FEATURES=",".join(__cpu_dispatch__))


def _digests(work: Path) -> dict:
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    digests = {}
    for run in ("fed", "central"):
        summary = json.loads((work / run / "summary.json").read_text(encoding="utf-8"))
        digests[f"{run}/summary cells"] = sha(json.dumps(summary, sort_keys=True).encode())
    for name in ("rounds.csv", "model.fwv"):
        digests[f"fed/{name}"] = sha((work / "fed" / name).read_bytes())
    return digests


@pytest.mark.parametrize("threads", [1, 2])
def test_tiny_runs_match_pinned_digests(tmp_path, threads):
    key = _environment_key()
    if key not in GOLDEN:
        pinned = ", ".join(map(_describe, GOLDEN))
        pytest.skip(f"digests are pinned for {pinned}; this is {_describe(key)}")
    for verb, ini in (("synth", SYNTH_INI), ("federated", FEDERATED_INI),
                      ("centralized", CENTRALIZED_INI)):
        (tmp_path / f"{verb}.ini").write_text(ini, encoding="utf-8")
    done = subprocess.run([sys.executable, "-c", RUN], cwd=tmp_path, env=_pinned_env(threads),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    assert _digests(tmp_path) == GOLDEN[key]
