import random
from fractions import Fraction

import pytest

from conics92.errors import FieldMismatch
from conics92.fields import PrimeField, QuadExtField, square_class
from conics92.gw import (
    EQUAL,
    NOT_EQUAL,
    UNDECIDED,
    GwForm,
    gw_add,
    gw_equal,
    gw_mul,
    invariants,
    trace_form,
)
from conics92.linalg import det


def H(field="R"):
    return GwForm.hyperbolic(field)


def test_add_examples():
    assert gw_add(GwForm.unit(1.0), GwForm.unit(-1.0)) == H()
    f = gw_add(GwForm.unit(Fraction(3)), GwForm.unit(Fraction(-5)))
    assert gw_add(f, GwForm.zero("Q")) == f
    assert gw_add(45 * H(), H()) == 46 * H()


def test_add_field_mismatch():
    with pytest.raises(FieldMismatch):
        gw_add(GwForm.unit(1.0), GwForm.unit(Fraction(1)))


def test_mul_examples():
    assert gw_mul(GwForm.unit(Fraction(2)), GwForm.unit(Fraction(3))) == GwForm.unit(
        Fraction(6)
    )
    a = GwForm.unit(Fraction(7))
    assert gw_mul(a, a) == GwForm.unit(Fraction(1))
    assert gw_equal(gw_mul(H(), GwForm.unit(-1.0)), H()) == EQUAL


def test_invariants_examples():
    inv = invariants(46 * H())
    assert inv["rank"] == 92 and inv["signature"] == 0 and inv["effective"]
    inv = invariants(GwForm.unit(-5.0))
    assert inv["rank"] == 1 and inv["signature"] == -1
    f5 = PrimeField(5)
    inv = invariants(gw_add(GwForm.unit(f5(2)), GwForm.unit(f5(3))))
    assert inv["rank"] == 2
    assert inv["discriminant"].rep == 1  # 6 = 1 mod 5 is a square


def test_invariants_virtual_flag():
    virt = GwForm.unit(1.0) - GwForm.unit(-1.0)
    assert not invariants(virt)["effective"]
    assert invariants(virt)["rank"] == 0


def test_equal_examples():
    lhs = gw_add(GwForm.unit(2.0), GwForm.unit(-2.0))
    assert gw_equal(lhs, H()) == EQUAL
    f3 = PrimeField(3)
    ones = gw_add(GwForm.unit(f3(1)), GwForm.unit(f3(1)))
    assert gw_equal(ones, H("F3")) == NOT_EQUAL
    assert gw_equal(GwForm.unit(complex(1)), GwForm.unit(complex(-1))) == EQUAL


def test_equal_over_q_is_conservative():
    a = gw_add(GwForm.unit(Fraction(3)), GwForm.unit(Fraction(6)))
    b = gw_add(GwForm.unit(Fraction(2)), GwForm.unit(Fraction(1)))
    # same rank/signature/discriminant(2) but different terms: undecided
    assert gw_equal(a, b) == UNDECIDED
    assert gw_equal(a, a) == EQUAL
    c = gw_add(GwForm.unit(Fraction(2)), GwForm.unit(Fraction(-1)))
    assert gw_equal(a, c) == NOT_EQUAL


def test_relation_i_square_multipliers():
    rng = random.Random(0)
    for _ in range(1000):
        a = rng.uniform(-9, 9) or 1.0
        b = rng.uniform(0.2, 4)
        assert gw_equal(GwForm.unit(a * b * b), GwForm.unit(a)) == EQUAL
    for p in (3, 5, 7, 11, 13):
        fp = PrimeField(p)
        for a in range(1, p):
            for b in range(1, p):
                assert (
                    gw_equal(GwForm.unit(fp(a * b * b)), GwForm.unit(fp(a))) == EQUAL
                )


def test_relation_ii_products():
    rng = random.Random(1)
    for _ in range(1000):
        a = Fraction(rng.randint(1, 200)) * rng.choice((1, -1))
        b = Fraction(rng.randint(1, 200)) * rng.choice((1, -1))
        lhs = gw_mul(GwForm.unit(a), GwForm.unit(b))
        assert lhs == GwForm.unit(a * b)


def test_relation_iii_exhaustive_small_primes():
    for p in (3, 5, 7, 11, 13):
        fp = PrimeField(p)
        for a in range(1, p):
            for b in range(1, p):
                if (a + b) % p == 0:
                    continue
                lhs = gw_add(GwForm.unit(fp(a)), GwForm.unit(fp(b)))
                rhs = gw_add(
                    GwForm.unit(fp(a + b)), GwForm.unit(fp(a * b * (a + b)))
                )
                assert gw_equal(lhs, rhs) == EQUAL


def test_relation_iii_real_and_rational_samples():
    rng = random.Random(2)
    for _ in range(1000):
        a = rng.uniform(-5, 5) or 1.0
        b = rng.uniform(-5, 5) or 2.0
        if a + b == 0:
            continue
        lhs = gw_add(GwForm.unit(a), GwForm.unit(b))
        rhs = gw_add(GwForm.unit(a + b), GwForm.unit(a * b * (a + b)))
        assert gw_equal(lhs, rhs) == EQUAL
    for _ in range(1000):
        a = Fraction(rng.randint(1, 60), rng.randint(1, 9)) * rng.choice((1, -1))
        b = Fraction(rng.randint(1, 60), rng.randint(1, 9)) * rng.choice((1, -1))
        if a + b == 0:
            continue
        lhs = gw_add(GwForm.unit(a), GwForm.unit(b))
        rhs = gw_add(GwForm.unit(a + b), GwForm.unit(a * b * (a + b)))
        # over Q the decision procedure must never refute a true identity
        assert gw_equal(lhs, rhs) != NOT_EQUAL


def _replay_sum_with_negative(a, unit):
    """<a> + <-a> rewritten through the two three-term relations:
    <-a>+<a-1> = <-1>+<a^2-a> and <a>+<a^2-a> = <1>+<a-1>."""
    step1_l = gw_add(unit(-a), unit(a - 1))
    step1_r = gw_add(unit(-1), unit(a * a - a))
    step2_l = gw_add(unit(a), unit(a * a - a))
    step2_r = gw_add(unit(1), unit(a - 1))
    return step1_l, step1_r, step2_l, step2_r


def test_relation_iv_follows_from_i_and_iii():
    for p in (3, 5, 7, 11, 13):
        fp = PrimeField(p)
        hp = H(f"F{p}")
        for a in range(2, p):
            unit = lambda v: GwForm.unit(fp(v))
            s1l, s1r, s2l, s2r = _replay_sum_with_negative(a, unit)
            assert gw_equal(s1l, s1r) == EQUAL
            assert gw_equal(s2l, s2r) == EQUAL
            total = gw_add(unit(a), unit(-a))
            assert gw_equal(total, hp) == EQUAL
    rng = random.Random(3)
    for _ in range(200):
        a = rng.uniform(-6, 6)
        if a in (0.0, 1.0):
            continue
        unit = lambda v: GwForm.unit(float(v))
        s1l, s1r, s2l, s2r = _replay_sum_with_negative(a, unit)
        assert gw_equal(s1l, s1r) == EQUAL
        assert gw_equal(s2l, s2r) == EQUAL
        assert gw_equal(gw_add(unit(a), unit(-a)), H()) == EQUAL


def test_rank_additive_disc_multiplicative():
    rng = random.Random(4)
    f7 = PrimeField(7)
    for _ in range(100):
        f = GwForm._normalize(
            "F7",
            [(square_class(f7(rng.randint(1, 6))), rng.randint(1, 3)) for _ in range(3)],
        )
        g = GwForm._normalize(
            "F7",
            [(square_class(f7(rng.randint(1, 6))), rng.randint(1, 3)) for _ in range(2)],
        )
        s = gw_add(f, g)
        assert invariants(s)["rank"] == invariants(f)["rank"] + invariants(g)["rank"]
        assert (
            invariants(s)["discriminant"]
            == invariants(f)["discriminant"] * invariants(g)["discriminant"]
        )


def test_trace_form_complex_examples():
    f = trace_form(complex(1, 0))
    assert gw_equal(f, H()) == EQUAL
    assert gw_equal(trace_form(complex(0, 1)), H()) == EQUAL
    rng = random.Random(6)
    for _ in range(100):
        c = complex(rng.uniform(-9, 9), rng.uniform(-9, 9))
        if c == 0:
            continue
        assert gw_equal(trace_form(c), H()) == EQUAL


def test_trace_form_f9_over_f3():
    ext = QuadExtField(3)
    f = trace_form(ext.one())
    assert gw_equal(f, H("F3")) == EQUAL
    # trivial extension
    assert trace_form(Fraction(5)) == GwForm.unit(Fraction(5))


def test_trace_form_f25_random():
    ext = QuadExtField(5)
    rng = random.Random(7)
    for _ in range(40):
        x = ext(rng.randrange(5), rng.randrange(5))
        if x == 0:
            continue
        f = trace_form(x)
        assert invariants(f)["rank"] == 2
        assert f.field == "F5"


def test_trace_form_complex_gram_determinant_is_negative():
    # the Gram matrix of (u, v) -> Tr_{C/R}(a u v) = 2 Re(a u v) on (1, i)
    rng = random.Random(8)
    samples = [complex(1, 0), complex(0, 1), complex(-2, 0)]
    samples += [complex(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(200)]
    for a in samples:
        gram = [[2 * (a * u * v).real for v in (1, 1j)] for u in (1, 1j)]
        assert det(gram) < 0
        assert trace_form(a) == H()


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_trace_form_matches_the_gram_determinant_over_fp2(p):
    # the Gram matrix of (u, v) -> Tr(a u v) on (1, t), Tr(x) = x + x^p
    ext = QuadExtField(p)
    basis = (ext.one(), ext(0, 1))

    def tr(x):
        s = x + x**p
        assert s.c1 == 0
        return PrimeField(p)(s.c0)

    for a in ext.elements():
        if a == 0:
            continue
        gram = [[tr(a * u * v) for v in basis] for u in basis]
        inv = invariants(trace_form(a))
        assert trace_form(a).field == f"F{p}" and inv["rank"] == 2
        assert inv["discriminant"] == square_class(det(gram))


def test_form_serialization():
    f = 46 * H()
    data = f.to_json()
    assert data["field"] == "R"
    assert sorted(t["mult"] for t in data["terms"]) == [46, 46]
