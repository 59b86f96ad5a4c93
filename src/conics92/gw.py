"""Arithmetic with formal sums of rank-1 symmetric bilinear forms <a>.

A form is a multiset of square classes with signed integer multiplicities.
Equality is decided through field invariants: rank and signature over R,
rank and discriminant over finite fields, rank alone over C.  Over Q the
implemented invariants (rank, signature, discriminant) can refute equality
but not certify it, so agreement is reported as "undecided".
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Degenerate, FieldMismatch
from .fields import (
    COMPLEX,
    RATIONAL,
    REAL,
    QuadExtElement,
    SquareClass,
    field_one,
    field_trace,
    square_class,
)

EQUAL = "equal"
NOT_EQUAL = "not_equal"
UNDECIDED = "undecided"


def _unit_class(field: str) -> SquareClass:
    return square_class(field_one(field))


def _minus_one_class(field: str) -> SquareClass:
    return square_class(-field_one(field))


@dataclass(frozen=True)
class GwForm:
    """Formal sum of square classes with signed multiplicities."""

    field: str
    terms: tuple[tuple[SquareClass, int], ...]

    @staticmethod
    def _normalize(field, items) -> "GwForm":
        acc: dict[SquareClass, int] = {}
        for cls, mult in items:
            if cls.field != field:
                raise FieldMismatch(f"class over {cls.field} in a form over {field}")
            acc[cls] = acc.get(cls, 0) + mult
        terms = tuple(
            sorted(
                ((c, m) for c, m in acc.items() if m != 0),
                key=lambda cm: repr(cm[0].rep),
            )
        )
        return GwForm(field, terms)

    @classmethod
    def zero(cls, field: str) -> "GwForm":
        return cls(field, ())

    @classmethod
    def unit(cls, x) -> "GwForm":
        """The rank-1 form <x> for a nonzero field element x."""
        c = square_class(x)
        return cls(c.field, ((c, 1),))

    @classmethod
    def from_class(cls, c: SquareClass, mult: int = 1) -> "GwForm":
        return cls._normalize(c.field, [(c, mult)])

    @classmethod
    def hyperbolic(cls, field: str) -> "GwForm":
        return cls._normalize(
            field, [(_unit_class(field), 1), (_minus_one_class(field), 1)]
        )

    @property
    def rank(self) -> int:
        return sum(m for _, m in self.terms)

    @property
    def is_effective(self) -> bool:
        return all(m > 0 for _, m in self.terms)

    def __add__(self, other: "GwForm") -> "GwForm":
        return gw_add(self, other)

    def __sub__(self, other: "GwForm") -> "GwForm":
        return gw_add(self, -other)

    def __neg__(self) -> "GwForm":
        return GwForm(self.field, tuple((c, -m) for c, m in self.terms))

    def __mul__(self, other):
        if isinstance(other, int):
            return GwForm._normalize(self.field, [(c, m * other) for c, m in self.terms])
        return gw_mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def to_json(self) -> dict:
        return {
            "field": self.field,
            "terms": [{"class": str(c.rep), "mult": m} for c, m in self.terms],
        }

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            (f"{m}*" if m != 1 else "") + f"<{c.rep}>" for c, m in self.terms
        )


def gw_add(f: GwForm, g: GwForm) -> GwForm:
    """Multiset union with multiplicity addition (no relations applied)."""
    if f.field != g.field:
        raise FieldMismatch(f"{f.field} vs {g.field}")
    return GwForm._normalize(f.field, list(f.terms) + list(g.terms))


def gw_mul(f: GwForm, g: GwForm) -> GwForm:
    """Bilinear extension of the classwise product <a><b> = <ab>."""
    if f.field != g.field:
        raise FieldMismatch(f"{f.field} vs {g.field}")
    items = [(cf * cg, mf * mg) for cf, mf in f.terms for cg, mg in g.terms]
    return GwForm._normalize(f.field, items)


def invariants(f: GwForm) -> dict:
    """Rank, signature (R and Q only), discriminant class, effectivity flag."""
    rank = f.rank
    signature = None
    if f.field == REAL:
        signature = sum(m * c.rep for c, m in f.terms)
    elif f.field == RATIONAL:
        signature = sum(m * (1 if c.rep > 0 else -1) for c, m in f.terms)
    disc = _unit_class(f.field)
    for c, m in f.terms:
        if m % 2:
            disc = disc * c
    return {
        "rank": rank,
        "signature": signature,
        "discriminant": disc,
        "effective": f.is_effective,
    }


def gw_equal(f: GwForm, g: GwForm) -> str:
    """Decide equality through field invariants.

    Complete over R, C and finite fields; over Q agreement of the
    implemented invariants is reported as "undecided".
    """
    if f.field != g.field:
        raise FieldMismatch(f"{f.field} vs {g.field}")
    if f.terms == g.terms:
        return EQUAL
    inv_f, inv_g = invariants(f), invariants(g)
    if inv_f["rank"] != inv_g["rank"]:
        return NOT_EQUAL
    if f.field == COMPLEX:
        return EQUAL
    if f.field == REAL:
        return EQUAL if inv_f["signature"] == inv_g["signature"] else NOT_EQUAL
    if f.field.startswith("F"):
        return EQUAL if inv_f["discriminant"] == inv_g["discriminant"] else NOT_EQUAL
    # rationals: refutation only
    if inv_f["signature"] != inv_g["signature"]:
        return NOT_EQUAL
    if inv_f["discriminant"] != inv_g["discriminant"]:
        return NOT_EQUAL
    return UNDECIDED


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of field elements."""

    field: str
    rows: tuple[tuple[object, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        for r in self.rows:
            if len(r) != n:
                raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValueError("Gram matrix must be symmetric")


def diagonalize_gram(g: GramMatrix) -> GwForm:
    """Congruence-diagonalize and return the sum of pivot classes.

    Pivots take the leftmost nonzero diagonal entry; if the whole diagonal
    of the trailing block vanishes, the first nonzero off-diagonal partner
    row/column is added in to create one (valid since char != 2).
    """
    n = len(g.rows)
    m = [list(row) for row in g.rows]

    def swap(a, b):
        m[a], m[b] = m[b], m[a]
        for row in m:
            row[a], row[b] = row[b], row[a]

    def add_into(dst, src):
        for c in range(n):
            m[dst][c] = m[dst][c] + m[src][c]
        for r in range(n):
            m[r][dst] = m[r][dst] + m[r][src]

    diag = []
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][i] != 0), None)
        if piv is None:
            pair = next(
                (
                    (r, c)
                    for r in range(k, n)
                    for c in range(r + 1, n)
                    if m[r][c] != 0
                ),
                None,
            )
            if pair is None:
                raise Degenerate("Gram matrix is degenerate")
            r, c = pair
            if r != k:
                swap(k, r)
            add_into(k, c)
        elif piv != k:
            swap(k, piv)
        d = m[k][k]
        if d == 0:
            raise Degenerate("zero pivot")
        for r in range(k + 1, n):
            if m[r][k] != 0:
                factor = m[r][k] / d
                for c in range(n):
                    m[r][c] = m[r][c] - factor * m[k][c]
                for c in range(n):
                    m[c][r] = m[r][c]
        diag.append(d)

    cls = [square_class(d) for d in diag]
    return GwForm._normalize(cls[0].field if cls else g.field, [(c, 1) for c in cls])


def trace_form(a) -> GwForm:
    """Transfer <a> along a degree-<=2 extension via the field trace: C/R
    for a complex a, F_{p^2}/F_p for a quadratic-extension element, and the
    trivial extension k/k for anything else."""
    if isinstance(a, complex):
        if a == 0:
            raise ZeroDivisionError("trace form of 0")
        gram = GramMatrix(
            REAL,
            (
                (2.0 * a.real, -2.0 * a.imag),
                (-2.0 * a.imag, -2.0 * a.real),
            ),
        )
        return diagonalize_gram(gram)

    if isinstance(a, QuadExtElement):
        ext = a.field
        basis = (ext.one(), ext.gen())
        gram = GramMatrix(
            ext.base.tag,
            tuple(tuple(field_trace(a * u * v) for v in basis) for u in basis),
        )
        return diagonalize_gram(gram)

    return GwForm.unit(a)
