"""Exact arithmetic in the real field Q(sqrt6, sqrt10).

Elements are written on the fixed basis {1, r6, r10, r15} where
r6 = sqrt(6), r10 = sqrt(10) and r15 = sqrt(15) = r6*r10/2.  The basis
is closed under multiplication:

    r6*r10 = 2*r15,   r6*r15 = 3*r10,   r10*r15 = 5*r6.

Internally a value is stored as four integer numerators over one common
positive denominator, reduced so that gcd(na, nb, nc, nd, q) = 1.  This
keeps bulk arithmetic (structure-constant tensors, closure loops) fast
while staying exact.

`Scalar.mod_p` reduces a value modulo the fixed prime PRIME, at which 6
and 10 are squares: the ring map r6 -> PRIME_R6, r10 -> PRIME_R10,
r15 -> PRIME_R15 on the values whose denominator PRIME does not divide.
The maximality certificate (`lts.quotient_module_test`) computes ranks there.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = ["Scalar", "ZERO", "ONE", "SQRT6", "SQRT10", "SQRT15",
           "PRIME", "PRIME_R6", "PRIME_R10", "PRIME_R15"]

# p = 2**31 - 61, p = 3 (mod 4); R6**2 = 6, R10**2 = 10 and
# R15 = R6 * R10 / 2 (mod p), since r15 = r6 * r10 / 2
PRIME = 2147483587
PRIME_R6 = 1815018666
PRIME_R10 = 608383731
PRIME_R15 = 436197702


def _root_sign(su: int, sv: int, norm: int) -> int:
    """Sign of u + v*sqrt(m), for u, v in a field without sqrt(m), from the
    signs su, sv of u, v and an int norm of the sign of u*u - m*v*v."""
    if su * sv >= 0:
        return su or sv
    return su if norm > 0 else -su


def _sign6(p: int, s: int) -> int:
    """Sign of p + s*r6 for ints p and s."""
    return _root_sign((p > 0) - (p < 0), (s > 0) - (s < 0), p * p - 6 * s * s)


class Scalar:
    """An element na/q + (nb/q)*r6 + (nc/q)*r10 + (nd/q)*r15."""

    __slots__ = ("na", "nb", "nc", "nd", "q")

    def __init__(self, na: int, nb: int, nc: int, nd: int, q: int = 1):
        # a float is inexact, and numpy integers wrap around
        if not (type(na) is int and type(nb) is int and type(nc) is int
                and type(nd) is int and type(q) is int):
            raise TypeError("Scalar components must be Python ints")
        if q != 1:
            if q == 0:
                raise ZeroDivisionError("zero denominator")
            if q < 0:
                na, nb, nc, nd, q = -na, -nb, -nc, -nd, -q
            g = gcd(na, nb, nc, nd, q)  # rational zero gets q = 1
            if g > 1:
                na //= g; nb //= g; nc //= g; nd //= g; q //= g
        self.na = na; self.nb = nb; self.nc = nc; self.nd = nd; self.q = q

    # -- constructors -------------------------------------------------

    @classmethod
    def of(cls, x: "Scalar | int | Fraction") -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, int):
            return cls(int(x), 0, 0, 0, 1)
        if isinstance(x, Fraction):
            return cls(x.numerator, 0, 0, 0, x.denominator)
        raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")

    @classmethod
    def rational(cls, p: int, q: int = 1) -> "Scalar":
        return cls(p, 0, 0, 0, q)

    @classmethod
    def from_coeffs(cls, a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> "Scalar":
        q = lcm(a.denominator, b.denominator, c.denominator, d.denominator)
        return cls(a.numerator * (q // a.denominator),
                   b.numerator * (q // b.denominator),
                   c.numerator * (q // c.denominator),
                   d.numerator * (q // d.denominator), q)

    # -- rational coordinates on {1, r6, r10, r15} --------------------

    @property
    def a(self) -> Fraction:
        return Fraction(self.na, self.q)

    @property
    def b(self) -> Fraction:
        return Fraction(self.nb, self.q)

    @property
    def c(self) -> Fraction:
        return Fraction(self.nc, self.q)

    @property
    def d(self) -> Fraction:
        return Fraction(self.nd, self.q)

    def mod_p(self) -> int | None:
        """(na + nb*R6 + nc*R10 + nd*R15) / q modulo PRIME, or None when
        PRIME divides q.  A ring homomorphism on the values it is defined on:
        R6*R15 = 3*R10, R10*R15 = 5*R6 and R15**2 = 15 (mod PRIME)."""
        if self.q % PRIME == 0:
            return None
        if not (self.na or self.nb or self.nc or self.nd):
            return 0
        num = self.na + self.nb * PRIME_R6 + self.nc * PRIME_R10 + self.nd * PRIME_R15
        return num * pow(self.q, -1, PRIME) % PRIME

    # -- ring operations ----------------------------------------------

    def __add__(self, o):
        if not isinstance(o, Scalar):
            o = Scalar.of(o)
        if not (o.na or o.nb or o.nc or o.nd):
            return self
        if not (self.na or self.nb or self.nc or self.nd):
            return o
        q1, q2 = self.q, o.q
        if q1 == q2:
            return Scalar(self.na + o.na, self.nb + o.nb,
                          self.nc + o.nc, self.nd + o.nd, q1)
        return Scalar(self.na * q2 + o.na * q1, self.nb * q2 + o.nb * q1,
                      self.nc * q2 + o.nc * q1, self.nd * q2 + o.nd * q1,
                      q1 * q2)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.na, -self.nb, -self.nc, -self.nd, self.q)

    def __sub__(self, o):
        if not isinstance(o, Scalar):
            o = Scalar.of(o)
        if not (o.na or o.nb or o.nc or o.nd):
            return self
        if not (self.na or self.nb or self.nc or self.nd):
            return -o
        q1, q2 = self.q, o.q
        if q1 == q2:
            return Scalar(self.na - o.na, self.nb - o.nb,
                          self.nc - o.nc, self.nd - o.nd, q1)
        return Scalar(self.na * q2 - o.na * q1, self.nb * q2 - o.nb * q1,
                      self.nc * q2 - o.nc * q1, self.nd * q2 - o.nd * q1,
                      q1 * q2)

    def __rsub__(self, o):
        return Scalar.of(o) - self

    def __mul__(self, o):
        if not isinstance(o, Scalar):
            o = Scalar.of(o)
        a1, b1, c1, d1 = self.na, self.nb, self.nc, self.nd
        a2, b2, c2, d2 = o.na, o.nb, o.nc, o.nd
        q = self.q * o.q
        # a rational operand scales the other's 4 components; zero gives ZERO
        if not (b2 or c2 or d2):
            return Scalar(a1 * a2, b1 * a2, c1 * a2, d1 * a2, q) if a2 else ZERO
        if not (b1 or c1 or d1):
            return Scalar(a1 * a2, a1 * b2, a1 * c2, a1 * d2, q) if a1 else ZERO
        return Scalar(
            a1 * a2 + 6 * b1 * b2 + 10 * c1 * c2 + 15 * d1 * d2,
            a1 * b2 + b1 * a2 + 5 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 3 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + 2 * (b1 * c2 + c1 * b2),
            q)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Multiplicative inverse via the three Galois conjugates."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        na, nb, nc, nd, q = self.na, self.nb, self.nc, self.nd, self.q
        c1 = Scalar(na, -nb, nc, -nd, q)   # r6 -> -r6 (and r15 -> -r15)
        c2 = Scalar(na, nb, -nc, -nd, q)   # r10 -> -r10 (and r15 -> -r15)
        c3 = Scalar(na, -nb, -nc, nd, q)   # both flipped
        num = c1 * c2 * c3
        norm = self * num
        if norm.nb or norm.nc or norm.nd:
            raise ArithmeticError("field norm is not rational")  # unreachable
        return num * Scalar(norm.q, 0, 0, 0, norm.na)

    def __truediv__(self, o):
        if not isinstance(o, Scalar):
            o = Scalar.of(o)
        return self * o.inverse()

    def __rtruediv__(self, o):
        return Scalar.of(o) * self.inverse()

    # -- comparisons ----------------------------------------------------

    def __eq__(self, o) -> bool:
        if isinstance(o, (int, Fraction)):
            o = Scalar.of(o)
        if not isinstance(o, Scalar):
            return NotImplemented
        return (self.na == o.na and self.nb == o.nb and self.nc == o.nc
                and self.nd == o.nd and self.q == o.q)

    def __hash__(self):
        # a rational value hashes like the equal int or Fraction
        if not (self.nb or self.nc or self.nd):
            return hash(Fraction(self.na, self.q))
        return hash((self.na, self.nb, self.nc, self.nd, self.q))

    def __bool__(self) -> bool:
        return bool(self.na or self.nb or self.nc or self.nd)

    def sign(self) -> int:
        """Sign under the real embedding, decided on the tower Q(r6)(r10):
        as r15 = r6*r10/2, 2*q*x = u + v*r10 for u = p + s*r6, v = r + t*r6,
        with (p, s, r, t) = (2na, 2nb, 2nc, nd), and u*u - 10*v*v is
        (p*p + 6*s*s - 10*r*r - 60*t*t) + (2*p*s - 20*r*t)*r6."""
        p, s, r, t = 2 * self.na, 2 * self.nb, 2 * self.nc, self.nd
        return _root_sign(_sign6(p, s), _sign6(r, t),
                          _sign6(p * p + 6 * s * s - 10 * r * r - 60 * t * t,
                                 2 * p * s - 20 * r * t))

    def __lt__(self, o):
        return (self - Scalar.of(o)).sign() < 0

    def __le__(self, o):
        return (self - Scalar.of(o)).sign() <= 0

    def __gt__(self, o):
        return (self - Scalar.of(o)).sign() > 0

    def __ge__(self, o):
        return (self - Scalar.of(o)).sign() >= 0

    # -- text format ----------------------------------------------------

    def show(self) -> str:
        """Canonical form "p/q + p/q*r6 + p/q*r10 + p/q*r15".

        Each coordinate is printed as its own reduced fraction.
        """
        parts = []
        for num, tag in ((self.na, ""), (self.nb, "*r6"),
                         (self.nc, "*r10"), (self.nd, "*r15")):
            parts.append(f"{Fraction(num, self.q)}{tag}")
        return " + ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        """Inverse of show(); also reads compact terms such as "3/2", "r6"
        and "-1/3*r10".  Malformed text raises ValueError."""
        coeffs = {"": Fraction(0), "r6": Fraction(0),
                  "r10": Fraction(0), "r15": Fraction(0)}
        terms = [t.strip() for t in text.replace("- ", "+ -").split("+")]
        terms = [t for t in terms if t]
        if not terms:
            raise ValueError(f"no terms in {text!r}")
        for term in terms:
            if "*" in term:
                num, tag = term.split("*", 1)
            elif term in ("r6", "r10", "r15"):
                num, tag = "1", term
            elif term in ("-r6", "-r10", "-r15"):
                num, tag = "-1", term[1:]
            else:
                num, tag = term, ""
            tag, num = tag.strip(), num.strip()
            if tag not in coeffs:
                raise ValueError(f"bad radical tag {tag!r} in {text!r}")
            # an exponent could ask for an arbitrarily large power of ten
            if "e" in num.lower():
                raise ValueError(f"bad coefficient {num!r} in {text!r}")
            try:
                coeffs[tag] += Fraction(num)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad coefficient {num!r} in {text!r}") from None
        return cls.from_coeffs(coeffs[""], coeffs["r6"], coeffs["r10"], coeffs["r15"])

    def __str__(self):
        return self.show()

    def __repr__(self):
        return f"Scalar({self.show()})"


ZERO = Scalar(0, 0, 0, 0)
ONE = Scalar(1, 0, 0, 0)
SQRT6 = Scalar(0, 1, 0, 0)
SQRT10 = Scalar(0, 0, 1, 0)
SQRT15 = Scalar(0, 0, 0, 1)
