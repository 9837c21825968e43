"""Polynomials and polynomial matrices over GF(2)[z], and their k x k
minors: the tests' oracle for the structural predicates, which the package
itself computes by row and column reduction without enumerating minors."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from convdist.gf2core import BitMatrix, BitVec, poly_divmod, poly_mul


@dataclass(frozen=True)
class Poly2:
    """Polynomial over GF(2); bit i of `bits` is the coefficient of z^i."""

    bits: int = 0

    def __post_init__(self):
        if self.bits < 0:
            raise ValueError("negative coefficient mask")

    @property
    def degree(self) -> Optional[int]:
        """Degree, or None for the zero polynomial."""
        return self.bits.bit_length() - 1 if self.bits else None

    def is_zero(self) -> bool:
        return self.bits == 0

    def __add__(self, other: "Poly2") -> "Poly2":
        return Poly2(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other: "Poly2") -> "Poly2":
        return Poly2(poly_mul(self.bits, other.bits))

    def __divmod__(self, other: "Poly2"):
        q, r = poly_divmod(self.bits, other.bits)
        return Poly2(q), Poly2(r)

    def __mod__(self, other: "Poly2") -> "Poly2":
        return divmod(self, other)[1]

    def __repr__(self) -> str:
        if self.bits == 0:
            return "Poly2(0)"
        terms = []
        for i in range(self.bits.bit_length() - 1, -1, -1):
            if (self.bits >> i) & 1:
                terms.append("1" if i == 0 else ("z" if i == 1 else f"z^{i}"))
        return f"Poly2({'+'.join(terms)})"


POLY_ZERO = Poly2(0)
POLY_ONE = Poly2(1)


def poly_gcd(a: Poly2, b: Poly2) -> Poly2:
    """Monic gcd over GF(2)[z] (every nonzero GF(2) polynomial is monic)."""
    if a.bits == 0 and b.bits == 0:
        raise ValueError("gcd(0, 0) is undefined")
    x, y = a.bits, b.bits
    while y:
        x, y = y, poly_divmod(x, y)[1]
    return Poly2(x)


@dataclass(frozen=True)
class PolyMatrix:
    """Matrix over GF(2)[z]; interconvertible with a coefficient list of BitMatrix."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows or any(
            len(r) != self.cols for r in self.entries
        ):
            raise ValueError("entry grid does not match declared shape")
        object.__setattr__(
            self, "entries", tuple(tuple(row) for row in self.entries)
        )

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[BitMatrix]) -> "PolyMatrix":
        """Build G(z) = sum_i coeffs[i] * z^i."""
        if not coeffs:
            raise ValueError("empty coefficient list")
        rows, cols = coeffs[0].rows, coeffs[0].cols
        if any(c.rows != rows or c.cols != cols for c in coeffs):
            raise ValueError("coefficient shape mismatch")
        grid = []
        for r in range(rows):
            row = []
            for c in range(cols):
                bits = 0
                for i, g in enumerate(coeffs):
                    bits |= g.entry(r, c) << i
                row.append(Poly2(bits))
            grid.append(tuple(row))
        return cls(rows, cols, tuple(grid))

    def to_coeffs(self):
        """Coefficient list G_0..G_mu with G_mu != 0; mu is the max entry degree."""
        mu = self.max_degree()
        if mu is None:
            raise ValueError("zero polynomial matrix has no coefficient list")
        out = []
        for i in range(mu + 1):
            rows = tuple(
                BitVec.from_bits(
                    (e.bits >> i) & 1 for e in self.entries[r]
                ).bits
                for r in range(self.rows)
            )
            out.append(BitMatrix(self.cols, rows))
        return out

    def entry(self, r: int, c: int) -> Poly2:
        return self.entries[r][c]

    def max_degree(self) -> Optional[int]:
        degs = [e.degree for row in self.entries for e in row if e.bits]
        return max(degs) if degs else None


def _poly_det(grid) -> Poly2:
    """Determinant over GF(2)[z] by Laplace expansion (small matrices only)."""
    n = len(grid)
    if n == 1:
        return grid[0][0]
    acc = POLY_ZERO
    rest = grid[1:]
    for j in range(n):
        if grid[0][j].bits == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rest]
        acc = acc + grid[0][j] * _poly_det(minor)
    return acc


def k_minors(g: PolyMatrix):
    """All k x k minors of a k x n polynomial matrix, one per column subset.

    Column subsets are taken in lexicographic order.  Signs are irrelevant
    over GF(2).
    """
    if g.rows > g.cols:
        raise ValueError("need rows <= cols")
    minors = []
    for cols in itertools.combinations(range(g.cols), g.rows):
        grid = [[g.entries[r][c] for c in cols] for r in range(g.rows)]
        minors.append(_poly_det(grid))
    return minors
