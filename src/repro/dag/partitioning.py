"""Partitioners: how shuffle output keys map to reduce partitions."""

from __future__ import annotations

import enum
import zlib
from typing import Any


def _stable_hash(key: Any) -> int:
    """Hash that is the same in every process and every run.

    Built-in ``hash`` is salted per process for ``str``/``bytes`` (and so
    for ``Enum`` members and ``frozenset``s of strings) and, before Python
    3.12, address-based for ``None``; a map task in one process and a
    reducer in another would then disagree on a key's partition.  ``int``,
    ``bool``, ``str``, ``bytes``, ``None``, ``Enum`` members, ``frozenset``s
    and tuples of these are covered here.  Any other key type falls back to
    ``hash(key)`` (``float`` is fine: its hash is numeric) and must have a
    process-independent ``__hash__``.
    """
    if type(key) is str:
        return zlib.crc32(key.encode("utf-8"))
    if isinstance(key, int):
        return key
    if isinstance(key, bytes):
        return zlib.crc32(key)
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    if isinstance(key, tuple):
        h = 0x811C9DC5
        for part in key:
            h = (h * 31 + _stable_hash(part)) & 0x7FFFFFFF
        return h
    if key is None:
        return 0
    if isinstance(key, enum.Enum):
        # Members of int/str mixin enums took a branch above.
        return _stable_hash(key.name)
    if isinstance(key, frozenset):
        # Sorted member hashes: independent of iteration order.
        return _stable_hash(tuple(sorted(_stable_hash(part) for part in key)))
    return hash(key)


class Partitioner:
    """Maps a key to a partition in [0, num_partitions)."""

    def __init__(self, num_partitions: int):
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.num_partitions = num_partitions

    def partition(self, key: Any) -> int:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.num_partitions == other.num_partitions  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.num_partitions))


class HashPartitioner(Partitioner):
    """The default: stable hash modulo partition count."""

    def partition(self, key: Any) -> int:
        return _stable_hash(key) % self.num_partitions


class RangePartitioner(Partitioner):
    """Partitions by sorted key-range boundaries.

    ``boundaries`` are the upper bounds (exclusive) of the first
    ``num_partitions - 1`` partitions; keys must be comparable with them.
    """

    def __init__(self, boundaries: list):
        super().__init__(len(boundaries) + 1)
        self.boundaries = list(boundaries)

    def partition(self, key: Any) -> int:
        # Linear scan: boundaries lists are tiny (== reducer count).
        for i, bound in enumerate(self.boundaries):
            if key < bound:
                return i
        return len(self.boundaries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RangePartitioner) and self.boundaries == other.boundaries

    def __hash__(self) -> int:
        return hash(("RangePartitioner", tuple(self.boundaries)))
