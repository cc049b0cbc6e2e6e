"""Deterministic seed derivation for multi-stage runs.

Every randomized stage (splits, shuffles, client sampling) draws from a
seed derived from the master seed plus a (round, slot) pair, so whole
runs replay bit-for-bit from a single seed while stages stay decoupled.
"""

import hashlib

_DOMAIN = b"fedsmell.seed.v1:"

# Every stream of a run: round 0 holds preprocessing, at a stage's slot plus
# the dataset's index (at most 3 datasets); round t >= 1 holds client c's pass
# at slot c (ids are >= 0) and the client sampling at SAMPLING_SLOT. A
# centralized pass t draws client 0's stream, as a one-client federation
# does, and the initial weights draw from the master seed itself.
SAMPLING_SLOT = -1
SPLIT_SLOT, REBALANCE_SLOT, PARTITION_SLOT, SYNTH_SLOT = 100, 200, 300, 400


def derive_seed(master: int, round_: int, slot: int) -> int:
    """Mix a master seed with a (round, slot) pair into a 32-bit seed.

    Stable across processes and platforms (pure SHA-256, no salted
    hashing), so equal inputs always yield the same stream.
    """
    payload = _DOMAIN + repr((int(master), int(round_), int(slot))).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:4], "little")
