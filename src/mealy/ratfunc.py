"""Dense polynomials and rational functions over Z_p, p prime.

Just enough exact arithmetic to solve small linear systems over Z_p(t) and
expand the solutions as power series: the characteristic-series machinery
needs nothing more.  Polynomials are coefficient lists, lowest degree first,
with no trailing zeros.
"""

from __future__ import annotations

from typing import Sequence


def _trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


class Poly:
    __slots__ = ("c", "p")

    def __init__(self, coeffs: Sequence[int], p: int):
        self.p = p
        self.c = _trim([x % p for x in coeffs])

    @classmethod
    def const(cls, v: int, p: int) -> "Poly":
        return cls([v], p)

    def is_zero(self) -> bool:
        return not self.c

    def degree(self) -> int:
        return len(self.c) - 1  # -1 for the zero polynomial

    def __add__(self, o: "Poly") -> "Poly":
        n = max(len(self.c), len(o.c))
        return Poly([(self.c[i] if i < len(self.c) else 0) + (o.c[i] if i < len(o.c) else 0) for i in range(n)], self.p)

    def __sub__(self, o: "Poly") -> "Poly":
        n = max(len(self.c), len(o.c))
        return Poly([(self.c[i] if i < len(self.c) else 0) - (o.c[i] if i < len(o.c) else 0) for i in range(n)], self.p)

    def __neg__(self) -> "Poly":
        return Poly([-x for x in self.c], self.p)

    def __mul__(self, o: "Poly") -> "Poly":
        if self.is_zero() or o.is_zero():
            return Poly([], self.p)
        out = [0] * (len(self.c) + len(o.c) - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(o.c):
                    out[i + j] += a * b
        return Poly(out, self.p)

    def divmod(self, o: "Poly") -> tuple["Poly", "Poly"]:
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        r = list(self.c)
        q = [0] * max(0, len(r) - len(o.c) + 1)
        inv_lead = pow(o.c[-1], -1, p)
        for i in range(len(r) - len(o.c), -1, -1):
            f = (r[i + len(o.c) - 1] * inv_lead) % p
            if f:
                q[i] = f
                for j, b in enumerate(o.c):
                    r[i + j] = (r[i + j] - f * b) % p
        return Poly(q, p), Poly(r, p)

    def __eq__(self, o) -> bool:
        return isinstance(o, Poly) and self.p == o.p and self.c == o.c

    def __hash__(self) -> int:
        return hash((self.p, self.c))

    def __repr__(self) -> str:
        if not self.c:
            return "0"
        terms = []
        for i, a in enumerate(self.c):
            if a == 0:
                continue
            if i == 0:
                terms.append(str(a))
            elif i == 1:
                terms.append(f"{a}t" if a != 1 else "t")
            else:
                terms.append(f"{a}t^{i}" if a != 1 else f"t^{i}")
        return " + ".join(terms)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    if a.is_zero():
        return a
    inv = pow(a.c[-1], -1, a.p)
    return Poly([x * inv for x in a.c], a.p)  # monic


class RationalSeries:
    """Reduced fraction num/den over Z_p[t] with den(0) = 1.

    den(0) != 0 is an assertion about where these arise: solving
    (I - tT) chi = k, whose matrix is the identity at t = 0.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(num, den)
        if not g.is_zero() and g.degree() > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        if not den.c or den.c[0] == 0:
            raise ValueError("denominator has zero constant term; series undefined at 0")
        inv = pow(den.c[0], -1, den.p)
        num = num * Poly.const(inv, num.p)
        den = den * Poly.const(inv, den.p)
        self.num = num
        self.den = den

    @property
    def p(self) -> int:
        return self.den.p

    @classmethod
    def of(cls, num: Sequence[int], den: Sequence[int], p: int) -> "RationalSeries":
        return cls(Poly(num, p), Poly(den, p))

    @classmethod
    def const(cls, v: int, p: int) -> "RationalSeries":
        return cls(Poly([v], p), Poly([1], p))

    def __add__(self, o: "RationalSeries") -> "RationalSeries":
        return RationalSeries(self.num * o.den + o.num * self.den, self.den * o.den)

    def __sub__(self, o: "RationalSeries") -> "RationalSeries":
        return RationalSeries(self.num * o.den - o.num * self.den, self.den * o.den)

    def __mul__(self, o: "RationalSeries") -> "RationalSeries":
        return RationalSeries(self.num * o.num, self.den * o.den)

    def __truediv__(self, o: "RationalSeries") -> "RationalSeries":
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalSeries(self.num * o.den, self.den * o.num)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def coefficients(self, n: int) -> list[int]:
        """First n power-series coefficients, by the linear recursion of den."""
        p = self.p
        num, den = self.num.c, self.den.c
        out = []
        for k in range(n):
            v = num[k] if k < len(num) else 0
            for j in range(1, min(k, len(den) - 1) + 1):
                v -= den[j] * out[k - j]
            out.append(v % p)  # den[0] = 1 by normalization
        return out

    def __eq__(self, o) -> bool:
        return isinstance(o, RationalSeries) and self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.den.degree() == 0:
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def solve_linear(A: list[list[RationalSeries]], b: list[RationalSeries]) -> list[RationalSeries]:
    """Gaussian elimination over the fraction field Z_p(t).

    Raises ValueError on a singular matrix.
    """
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not M[r][col].is_zero()), None)
        if piv is None:
            raise ValueError("singular system")
        M[col], M[piv] = M[piv], M[col]
        inv = RationalSeries.const(1, M[col][col].p) / M[col][col]
        M[col] = [inv * v for v in M[col]]
        for r in range(n):
            if r != col and not M[r][col].is_zero():
                f = M[r][col]
                M[r] = [M[r][j] - f * M[col][j] for j in range(n + 1)]
    return [M[i][n] for i in range(n)]
