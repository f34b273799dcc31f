"""Workload definitions, input generation and the correctness oracle.

Every input is a pure function of the workload seed: the keyspace is dense
(``user000000000000`` ..), each value is derived from (seed, key index,
version), and each caller draws its operations from its own seeded RNG.
The program under test only ever sees the generated keys and values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VALUE_SIZE = 1024
KEY_FORMAT = b"user%012d"

GET, PUT, SCAN = "get", "put", "scan"
OP_KINDS = (GET, PUT, SCAN)


@dataclass(frozen=True)
class Workload:
    name: str
    records: int
    get_share: float
    put_share: float
    scan_share: float
    zipfian: bool
    #: Number of closed-loop callers; >1 only for the served workload.
    callers: int = 1
    served: bool = False
    max_scan: int = 20
    #: Set-ups per untraced run; each round is timed for seconds/rounds.
    #: The served set-up is cheap, so it affords more rounds.
    rounds: int = 3


WORKLOADS = {
    # Sizes are stated against Options().block_cache_size (8 MiB).
    # 32768 x 1 KiB = 4x the block cache: YCSB-A at the paper's worst case.
    "ycsb-a": Workload("ycsb-a", 32768, 0.5, 0.5, 0.0, zipfian=True),
    # Same size, read-only, uniform: nearly every get misses the cache.
    "cold-read": Workload("cold-read", 32768, 0.95, 0.0, 0.05, zipfian=False),
    # 3584 x 1 KiB < half the block cache: the engine mostly hits the cache
    # and the service layers (framing, socket, queue, dispatch) dominate.
    "serve-ycsb-b": Workload(
        "serve-ycsb-b", 3584, 0.95, 0.05, 0.0, zipfian=True, callers=2,
        served=True, rounds=5,
    ),
}


def key_of(index: int) -> bytes:
    return KEY_FORMAT % index


class Values:
    """Deterministic 1 KiB values: a readable header plus a seeded pad slice.

    The header names the key index and version, so a value returned for the
    wrong key or an older version never compares equal to the expected one.
    """

    _PAD = 1 << 16

    def __init__(self, seed: int):
        self._pad = random.Random(seed).randbytes(self._PAD + VALUE_SIZE)

    def value(self, index: int, version: int) -> bytes:
        header = b"%012d:%08d:" % (index, version)
        offset = (index * 7919 + version * 104729) % self._PAD
        return header + self._pad[offset:offset + VALUE_SIZE - len(header)]


class Zipfian:
    """YCSB's zipfian (Gray et al.) over [0, n), scrambled by a seeded
    permutation so hot ranks spread over the keyspace instead of
    clustering at low indexes."""

    THETA = 0.99

    def __init__(self, n: int, rng: random.Random):
        self.n = n
        self._rng = rng
        theta = self.THETA
        self._zetan = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        self._zeta2 = 1.0 + 0.5 ** theta
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1 - (2.0 / n) ** (1 - theta)) / (1 - self._zeta2 / self._zetan)
        self._scramble = list(range(n))
        rng.shuffle(self._scramble)

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            rank = 0
        elif uz < self._zeta2:
            rank = 1
        else:
            rank = int(self.n * (self._eta * u - self._eta + 1) ** self._alpha)
        return self._scramble[rank]


class OpStream:
    """One caller's operations: ``next()`` -> (kind, key index, scan length).

    Callers own disjoint key partitions (index % callers == caller), so each
    caller's gets can be checked exactly against its own acknowledged puts.
    """

    def __init__(self, workload: Workload, seed: int, caller: int):
        self._w = workload
        self._rng = random.Random(seed * 1_000_003 + caller * 7_919 + 1)
        self._caller = caller
        self._part = workload.records // workload.callers
        self._zipf = Zipfian(self._part, self._rng) if workload.zipfian else None
        self._get_cut = workload.get_share
        self._put_cut = workload.get_share + workload.put_share

    def next(self) -> tuple[str, int, int]:
        rng = self._rng
        roll = rng.random()
        local = self._zipf.next() if self._zipf else rng.randrange(self._part)
        index = local * self._w.callers + self._caller
        if roll < self._get_cut:
            return GET, index, 0
        if roll < self._put_cut:
            return PUT, index, 0
        return SCAN, index, rng.randint(1, self._w.max_scan)


class Oracle:
    """The last acknowledged version of every key, and the checks against it."""

    def __init__(self, workload: Workload, values: Values):
        self.records = workload.records
        self.values = values
        self.versions = [0] * workload.records

    def expected(self, index: int) -> bytes:
        return self.values.value(index, self.versions[index])

    def next_value(self, index: int) -> bytes:
        return self.values.value(index, self.versions[index] + 1)

    def acknowledge(self, index: int) -> None:
        self.versions[index] += 1

    def check_get(self, index: int, got: bytes | None) -> bool:
        return got == self.expected(index)

    def check_scan(self, index: int, length: int, got) -> bool:
        stop = min(index + length, self.records)
        expected = [(key_of(i), self.expected(i)) for i in range(index, stop)]
        return [tuple(pair) for pair in got] == expected
