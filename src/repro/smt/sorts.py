"""Sort (type) representation for the SMT term language.

The solver works over four families of sorts:

* ``BOOL`` and ``INT`` — the interpreted base sorts,
* ``BitVecSort(width)`` — fixed-width bit vectors, dispatched to the
  bit-blaster (:mod:`repro.smt.bitvec`),
* ``UninterpretedSort(name)`` — free sorts, the home of datatype encodings
  and of EPR reasoning.

Sorts are immutable and interned, so identity comparison is equality.
"""

from __future__ import annotations

import zlib


def _dhash(text: str) -> int:
    """Deterministic string hash, the seed of every structural ``_hash``.

    ``_hash`` is the ordering key of sorts, declarations and terms; it is
    not their Python hash (lookups hash by identity, see
    :mod:`repro.smt.terms`).  CRC32 because PYTHONHASHSEED randomizes
    ``hash(str)`` per process."""
    return zlib.crc32(text.encode())


class Sort:
    """Base class for all sorts. Instances are interned: ``a is b`` iff equal.

    Dict and set lookups use the inherited identity hash; ``_hash`` is
    the deterministic structural hash, for ordering only (see the
    hashing contract in :mod:`repro.smt.terms`).
    """

    __slots__ = ("name", "_hash")
    _interned: dict[tuple, "Sort"] = {}

    def __new__(cls, name: str):
        key = (cls, name)
        existing = cls._interned.get(key)
        if existing is not None:
            return existing
        obj = super().__new__(cls)
        obj.name = name
        obj._hash = _dhash(f"{cls.__name__}:{name}")
        # setdefault keeps interning race-safe under concurrent threads.
        return cls._interned.setdefault(key, obj)

    def __repr__(self) -> str:
        return self.name

    def is_bool(self) -> bool:
        return self is BOOL

    def is_int(self) -> bool:
        return self is INT

    def is_bv(self) -> bool:
        return isinstance(self, BitVecSort)

    def is_uninterpreted(self) -> bool:
        return isinstance(self, UninterpretedSort)


class _BaseSort(Sort):
    __slots__ = ()


class BitVecSort(Sort):
    """Fixed-width bit-vector sort."""

    __slots__ = ("width",)

    def __new__(cls, width: int):
        obj = super().__new__(cls, f"(_ BitVec {width})")
        obj.width = width
        return obj


class UninterpretedSort(Sort):
    """A free sort; used for datatypes, EPR relations, and abstraction."""

    __slots__ = ()


BOOL = _BaseSort("Bool")
INT = _BaseSort("Int")


def bv(width: int) -> BitVecSort:
    """Return the bit-vector sort of the given width."""
    if width <= 0:
        raise ValueError(f"bit-vector width must be positive, got {width}")
    return BitVecSort(width)


def uninterpreted(name: str) -> UninterpretedSort:
    """Return (or intern) the uninterpreted sort with the given name."""
    return UninterpretedSort(name)
