"""MAC and IPv4 address value types.

Both are thin, int-backed value objects that print like real addresses.

Instances are **interned**: constructing the same address twice returns the
same object, so a scenario with 100k clients holds one object per distinct
address no matter how many frames reference it. Interning is what lets the
classes define no ``__eq__`` and no ``__hash__`` of their own: equality is
``object``'s identity check and the hash is the C-level identity hash, so a
dict, set or tuple operation on an address (flow-table buckets, microflow
keys, host tables, the registry) never calls back into Python. An address
still equals no int and no address of the other class (``IPv4(5) != 5``,
``MAC(5) != IPv4(5)``), orders by value (``__lt__``) and is truthy even at
``0.0.0.0``. Every way to copy one keeps the invariant: ``copy``,
``deepcopy`` and pickle go through ``__reduce__``, which re-interns, so
addresses crossing pool-worker or domain boundaries are the same objects.

The identity hash depends on where the object was allocated, so it differs
from run to run: an address must never be iterated out of a hash-ordered
container (a ``set`` or ``frozenset``), or event order would follow memory
layout. Iterate dicts (insertion-ordered) or ``sorted(...)`` instead; the
REP003 rule of ``python -m repro.analysis`` flags the pattern.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Dict, Tuple, Union


@total_ordering
class MAC:
    """48-bit Ethernet address (interned)."""

    __slots__ = ("value",)

    _interned: Dict[int, "MAC"] = {}

    def __new__(cls, value: Union[int, str, "MAC"]):
        if isinstance(value, MAC):
            return value
        if isinstance(value, int):
            if not 0 <= value < (1 << 48):
                raise ValueError(f"MAC out of range: {value:#x}")
            parsed = value
        elif isinstance(value, str):
            parts = value.replace("-", ":").split(":")
            if len(parts) != 6:
                raise ValueError(f"malformed MAC {value!r}")
            parsed = 0
            for part in parts:
                octet = int(part, 16)
                if not 0 <= octet <= 0xFF:
                    raise ValueError(f"malformed MAC {value!r}")
                parsed = (parsed << 8) | octet
        else:
            raise TypeError(f"cannot build MAC from {type(value).__name__}")
        self = cls._interned.get(parsed)
        if self is None:
            self = super().__new__(cls)
            self.value = parsed
            cls._interned[parsed] = self
        return self

    def __reduce__(self) -> Tuple[type, Tuple[int]]:
        return (MAC, (self.value,))

    def __lt__(self, other: "MAC") -> bool:
        if not isinstance(other, MAC):
            return NotImplemented
        return self.value < other.value

    def __int__(self) -> int:
        return self.value

    @property
    def is_broadcast(self) -> bool:
        return self.value == (1 << 48) - 1

    @property
    def is_multicast(self) -> bool:
        return bool((self.value >> 40) & 0x01)

    def __str__(self) -> str:
        return ":".join(f"{(self.value >> shift) & 0xFF:02x}" for shift in range(40, -8, -8))

    def __repr__(self) -> str:
        return f"MAC('{self}')"


@total_ordering
class IPv4:
    """32-bit IPv4 address (interned)."""

    __slots__ = ("value",)

    _interned: Dict[int, "IPv4"] = {}

    def __new__(cls, value: Union[int, str, "IPv4"]):
        if isinstance(value, IPv4):
            return value
        if isinstance(value, int):
            if not 0 <= value < (1 << 32):
                raise ValueError(f"IPv4 out of range: {value:#x}")
            parsed = value
        elif isinstance(value, str):
            parts = value.split(".")
            if len(parts) != 4:
                raise ValueError(f"malformed IPv4 {value!r}")
            parsed = 0
            for part in parts:
                octet = int(part)
                if not 0 <= octet <= 255:
                    raise ValueError(f"malformed IPv4 {value!r}")
                parsed = (parsed << 8) | octet
        else:
            raise TypeError(f"cannot build IPv4 from {type(value).__name__}")
        self = cls._interned.get(parsed)
        if self is None:
            self = super().__new__(cls)
            self.value = parsed
            cls._interned[parsed] = self
        return self

    def __reduce__(self) -> Tuple[type, Tuple[int]]:
        return (IPv4, (self.value,))

    def __lt__(self, other: "IPv4") -> bool:
        if not isinstance(other, IPv4):
            return NotImplemented
        return self.value < other.value

    def __int__(self) -> int:
        return self.value

    def in_subnet(self, network: "IPv4", prefix_len: int) -> bool:
        """True when this address falls inside ``network/prefix_len``."""
        if not 0 <= prefix_len <= 32:
            raise ValueError(f"bad prefix length {prefix_len}")
        if prefix_len == 0:
            return True
        mask = ((1 << prefix_len) - 1) << (32 - prefix_len)
        return (self.value & mask) == (network.value & mask)

    def __add__(self, offset: int) -> "IPv4":
        return IPv4(self.value + offset)

    def __str__(self) -> str:
        value = self.value
        return f"{value >> 24}.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"

    def __repr__(self) -> str:
        return f"IPv4('{self}')"


def mac(value: Union[int, str, MAC]) -> MAC:
    """Convenience constructor (idempotent)."""
    return value if isinstance(value, MAC) else MAC(value)


def ip(value: Union[int, str, IPv4]) -> IPv4:
    """Convenience constructor (idempotent)."""
    return value if isinstance(value, IPv4) else IPv4(value)


BROADCAST_MAC = MAC((1 << 48) - 1)
ZERO_MAC = MAC(0)
