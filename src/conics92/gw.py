"""Arithmetic with formal sums of rank-1 symmetric bilinear forms <a>.

A form is a multiset of square classes with signed integer multiplicities.
Equality is decided through field invariants: rank and signature over R,
rank and discriminant over finite fields, rank alone over C.  Over Q the
implemented invariants (rank, signature, discriminant) can refute equality
but not certify it, so agreement is reported as "undecided".

A zero of degree d with Jacobian determinant a weighs the trace form
Tr<a>, which over R and F_p is fixed by its rank d with its signature or
discriminant, so `trace_form` writes it down with no Gram matrix:
- a complex a != 0 (a conjugate pair over R): the Gram matrix of
  (u, v) -> Tr(a u v) on (1, i) has determinant -4|a|^2 < 0, so the form
  has signature 0 and is H;
- a in F_{p^2}^* = (F_p[t]/(t^2 + gamma))^*: the Gram determinant on (1, t)
  is -4 gamma N(a), so the form is <1> + <-gamma N(a)>;
- anything else (a point over the base field): <a>.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FieldMismatch
from .fields import (
    COMPLEX,
    RATIONAL,
    REAL,
    QuadExtElement,
    SquareClass,
    field_one,
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


def trace_form(a) -> GwForm:
    """Tr<a> of a nonzero a along a degree-<=2 extension: H over R for a
    complex a, <1> + <-gamma N(a)> over F_p for a in F_p[t]/(t^2 + gamma),
    and <a> for anything else."""
    if isinstance(a, complex) and a != 0:
        return GwForm.hyperbolic(REAL)
    if isinstance(a, QuadExtElement):
        return GwForm.unit(a.field.base.one()) + GwForm.unit(-a.field.gamma * a.norm())
    return GwForm.unit(a)
