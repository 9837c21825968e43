"""Bit-packed linear algebra over GF(2) and polynomial arithmetic over GF(2)[z].

Vectors and matrix rows are stored as Python ints with coordinate 0 in the
least significant bit, so Hamming weights are popcounts and row operations
are single XORs.  Polynomials over GF(2) are ints as well, with the
coefficient of z^i at bit i; the package needs only their product and
division.  Ints become 0/1 strings and back through one base-2 codec, in
linear time.  Every Gaussian elimination goes through `echelon`, and every
codeword-weight enumeration through one numpy kernel, `xor_span`.

numpy is bound here, and only here, as `np`: the other modules import it
from this one.  Unless numpy was already imported, it loads on the first
attribute access, so the integer-only paths (construction of rate-1/n codes,
the structural predicates, code-file parsing) never pay for it.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence


def _lazy_numpy():
    """numpy itself if already imported, else a module that executes numpy
    on its first attribute access.  It is registered in sys.modules, so a
    later `import numpy` anywhere gets the same module."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("convdist requires numpy", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()

# Largest table a span may fill: 2^TABLE_GUARD_BITS uint64 words.
TABLE_GUARD_BITS = 24
_WORD_MASK = (1 << 64) - 1


def _bit_string(bits: int, width: int) -> str:
    """The `width`-bit int `bits` as 0/1 characters, bit 0 first.  The bit
    set at `width` keeps the leading zeros, and is cut off again."""
    return format(bits | 1 << width, "b")[:0:-1]


@dataclass(frozen=True)
class BitVec:
    """Binary vector of fixed length n; coordinate i lives at bit i."""

    n: int
    bits: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative length")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError("set bits beyond declared length")

    @classmethod
    def from_bits(cls, coords: Iterable[int]) -> "BitVec":
        bits = 0
        length = 0
        for i, b in enumerate(coords):
            if b not in (0, 1):
                raise ValueError(f"non-binary coordinate {b!r}")
            bits |= b << i
            length = i + 1
        return cls(length, bits)

    def to_string(self) -> str:
        return _bit_string(self.bits, self.n)

    def __repr__(self) -> str:
        return f"BitVec({self.to_string()!r})"


@dataclass(frozen=True)
class BitMatrix:
    """Dense matrix over GF(2); each row packed into an int (col j at bit j)."""

    cols: int
    row_bits: tuple

    def __post_init__(self):
        if self.cols < 0:
            raise ValueError("negative column count")
        for r in self.row_bits:
            if r < 0 or r >> self.cols:
                raise ValueError("row has set bits beyond declared width")
        object.__setattr__(self, "row_bits", tuple(self.row_bits))

    @property
    def rows(self) -> int:
        return len(self.row_bits)

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> "BitMatrix":
        """The matrix whose row i is the 0/1 string rows[i], column 0 first."""
        if not rows:
            raise ValueError("empty matrix")
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        for r in rows:
            if r.strip("01"):
                raise ValueError(f"non-binary row {r!r}")
        return cls(cols, [int("0" + r[::-1], 2) for r in rows])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(cols, (0,) * rows)

    def column(self, j: int) -> BitVec:
        if not 0 <= j < self.cols:
            raise IndexError(j)
        bits = 0
        for i, r in enumerate(self.row_bits):
            bits |= ((r >> j) & 1) << i
        return BitVec(self.rows, bits)

    def entry(self, i: int, j: int) -> int:
        return (self.row_bits[i] >> j) & 1

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.row_bits)

    def row_strings(self):
        return [_bit_string(r, self.cols) for r in self.row_bits]

    def __repr__(self) -> str:
        return f"BitMatrix({self.row_strings()})"


def echelon(vecs) -> list:
    """The package's one Gaussian elimination over GF(2), on packed ints.

    Entry i is (low, v, mask): vector i reduced by the earlier pivots in
    order to v, the sum of the vectors at the bits of mask, and low = v & -v,
    its pivot bit, which is 0 exactly when that set of vectors sums to zero.
    Only the pivots reduce, so a long list of dependent vectors costs one
    pass over the pivots each, never over the zero entries before it.
    """
    entries, pivots = [], []
    for i, v in enumerate(vecs):
        mask = 1 << i
        for low, pv, pmask in pivots:
            if v & low:
                v ^= pv
                mask ^= pmask
        entries.append((v & -v, v, mask))
        if v:
            pivots.append(entries[-1])
    return entries


def rank(m: BitMatrix) -> int:
    """Row rank over GF(2): the pivots of `echelon` on the rows."""
    return sum(1 for low, _, _ in echelon(m.row_bits) if low)


def hstack(ms: Sequence[BitMatrix]) -> BitMatrix:
    """Concatenate matrices left to right."""
    if not ms:
        raise ValueError("nothing to stack")
    nrows = ms[0].rows
    if any(m.rows != nrows for m in ms):
        raise ValueError("row count mismatch")
    rows = [0] * nrows
    shift = 0
    for m in ms:
        for i in range(nrows):
            rows[i] |= m.row_bits[i] << shift
        shift += m.cols
    return BitMatrix(shift, tuple(rows))


def vstack(ms: Sequence[BitMatrix]) -> BitMatrix:
    """Concatenate matrices top to bottom."""
    if not ms:
        raise ValueError("nothing to stack")
    cols = ms[0].cols
    if any(m.cols != cols for m in ms):
        raise ValueError("column count mismatch")
    rows = []
    for m in ms:
        rows.extend(m.row_bits)
    return BitMatrix(cols, tuple(rows))


# ---------------------------------------------------------------------------
# XOR spans: every codeword of a block code at once


def table_bits(entry_bits: int, n: int) -> int:
    """log2, rounded up, of the uint64 words in a table of 2^entry_bits
    entries of n-bit outputs, ceil(n / 64) words each."""
    return entry_bits + (-(-n // 64) - 1).bit_length()


def guard_table(entry_bits: int, n: int, what: str) -> None:
    """Refuse, before anything is allocated, a table past TABLE_GUARD_BITS."""
    bits = table_bits(entry_bits, n)
    if bits > TABLE_GUARD_BITS:
        raise ValueError(f"{bits} {what} bits exceed the memory guard")


def xor_span(rows, n: int) -> np.ndarray:
    """Entry i is the XOR of the n-bit `rows` selected by the bits of i, as
    little-endian uint64 words: shape (2^len(rows), ceil(n / 64)).  An
    integer array of shape (r, batch), n <= 64, row i of every batch entry
    in rows[i], gives one span per batch entry, batch innermost so each XOR
    runs over the whole batch: (2^r, batch, 1) of the narrowest uint for n."""
    if isinstance(rows, np.ndarray):
        rows = rows.astype(np.min_scalar_type((1 << n) - 1), order="C")[..., None]
    else:
        shifts = range(0, max(64, n), 64)
        rows = np.array([[(r >> s) & _WORD_MASK for s in shifts] for r in rows], dtype=np.uint64)
        rows = rows.reshape(-1, len(shifts))
    span = np.zeros((1 << len(rows), *rows.shape[1:]), dtype=rows.dtype)
    for i, row in enumerate(rows):
        half = 1 << i
        np.bitwise_xor(span[:half], row, out=span[half : 2 * half])
    return span


def span_weights(span: np.ndarray, dtype="int64") -> np.ndarray:
    """Hamming weight of every entry of an `xor_span` table."""
    return np.bitwise_count(span).sum(axis=-1, dtype=dtype)


# ---------------------------------------------------------------------------
# Polynomials over GF(2)


def poly_mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[z] polynomials given as ints."""
    acc = 0
    while a:
        if a & 1:
            acc ^= b
        a >>= 1
        b <<= 1
    return acc


def poly_divmod(a: int, b: int):
    """Quotient and remainder of a / b in GF(2)[z], polynomials as ints."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = 0
    blen = b.bit_length()
    while (shift := a.bit_length() - blen) >= 0:
        a ^= b << shift
        q |= 1 << shift
    return q, a
