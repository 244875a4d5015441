"""Exact arithmetic in Z[phi], the ring of integers extended by the golden ratio.

Elements are stored as a + b*phi with arbitrary-precision integer a, b and
multiplied using phi**2 = phi + 1.  Fibonacci and Lucas numbers, and the
Fibonacci-divisor sequences F_n^(k) = F_{k*n}/F_k, are computed here with two
independent routes (exact integer division and the Lucas-number recursion) so
they can cross-check each other.
"""

from __future__ import annotations

import math
from functools import lru_cache

PHI: float = (1 + math.sqrt(5)) / 2
PHI_PRIME: float = 1 - PHI  # conjugate root of x^2 = x + 1, equals -1/phi
# relative tail that every truncated series, product and kernel sum may leave
TAIL: float = 1e-17


class GoldenExact:
    """Exact element a + b*phi of Z[phi]."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0) -> None:
        self.a = a
        self.b = b

    def __repr__(self) -> str:
        return f"GoldenExact({self.a}, {self.b})"

    def __str__(self) -> str:
        return f"{self.a}{self.b:+}*phi"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.a == other and self.b == 0
        if isinstance(other, GoldenExact):
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __add__(self, other: GoldenExact | int) -> GoldenExact:
        if isinstance(other, int):
            return GoldenExact(self.a + other, self.b)
        if isinstance(other, GoldenExact):
            return GoldenExact(self.a + other.a, self.b + other.b)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: GoldenExact | int) -> GoldenExact:
        if isinstance(other, int):
            other = GoldenExact(other)
        if isinstance(other, GoldenExact):
            return GoldenExact(self.a - other.a, self.b - other.b)
        return NotImplemented

    def __rsub__(self, other: int) -> GoldenExact:
        return GoldenExact(other) - self

    def __neg__(self) -> GoldenExact:
        return GoldenExact(-self.a, -self.b)

    def __mul__(self, other: GoldenExact | int) -> GoldenExact:
        if isinstance(other, int):
            return GoldenExact(self.a * other, self.b * other)
        if isinstance(other, GoldenExact):
            # (a1 + b1 phi)(a2 + b2 phi), reduced via phi^2 = phi + 1
            a1, b1, a2, b2 = self.a, self.b, other.a, other.b
            return GoldenExact(a1 * a2 + b1 * b2, a1 * b2 + a2 * b1 + b1 * b2)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> GoldenExact:
        if n < 0:
            raise ValueError("negative powers of a general ring element are not integral")
        result = GoldenExact(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> GoldenExact:
        """Image under phi -> phi' = 1 - phi."""
        return GoldenExact(self.a + self.b, -self.b)

    def norm(self) -> int:
        """Field norm x * conjugate(x), always a rational integer."""
        return self.a * self.a + self.a * self.b - self.b * self.b

    def trace(self) -> int:
        """x + conjugate(x), always a rational integer."""
        return 2 * self.a + self.b

    def to_real(self) -> float:
        # a + b*phi cancels catastrophically when |x| << max(|a|, |b|); the
        # conjugate embedding is then large (|x||x'| = |norm| >= 1), so route
        # through norm / conjugate, which is always well-conditioned.
        direct = self.a + self.b * PHI
        conj = self.a + self.b * PHI_PRIME
        if abs(direct) >= abs(conj):
            return direct
        return self.norm() / conj


def to_real(x: GoldenExact) -> float:
    """Double-precision value of a + b*(1+sqrt 5)/2."""
    return x.to_real()


def fibonacci(n: int) -> int:
    """F_n for any integer n, with F_{-n} = (-1)^(n+1) F_n."""
    if n < 0:
        f = fibonacci(-n)
        return f if n % 2 else -f
    return _fib_pair(n)[0]


def _fib_pair(n: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) by fast doubling, n >= 0."""
    if n == 0:
        return 0, 1
    f, g = _fib_pair(n >> 1)
    c = f * (2 * g - f)
    d = f * f + g * g
    if n & 1:
        return d, c + d
    return c, d


def lucas(n: int) -> int:
    """L_n = phi^n + phi'^n, read off as the ring trace of phi^n."""
    return golden_pow(n).trace()


def golden_pow(n: int) -> GoldenExact:
    """Exact phi^n in Z[phi]: phi^n = F_{n-1} + F_n * phi for every integer n."""
    return GoldenExact(fibonacci(n - 1), fibonacci(n))


@lru_cache(maxsize=1024, typed=True)
def fib_divisor(n: int, k: int) -> int:
    """F_n^(k) = F_{k*n} / F_k, an exact integer (k != 0), computed once per
    (n, k) in a process: the last 1024 are cached."""
    if k == 0:
        raise ValueError("k must be nonzero: F_0 = 0 leaves F_{k*n}/F_k undefined")
    num = fibonacci(k * n)
    den = fibonacci(k)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"F_{k * n} not divisible by F_{k}")
    return q


def fib_divisor_recursion(n: int, k: int) -> int:
    """F_n^(k) by the Lucas recursion F_{n+1} = L_k F_n + (-1)^(k-1) F_{n-1}.

    Independent of the division route in fib_divisor; the two must agree.
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    lk = lucas(k)
    sign = 1 if k % 2 else -1  # (-1)^(k-1)
    if n >= 0:
        prev, cur = 0, 1  # F_0^(k), F_1^(k)
        if n == 0:
            return 0
        for _ in range(n - 1):
            prev, cur = cur, lk * cur + sign * prev
        return cur
    # run the recursion backwards: F_{n-1} = (F_{n+1} - L_k F_n) / (-1)^(k-1)
    cur, nxt = 0, 1  # F_0^(k), F_1^(k)
    for _ in range(-n):
        cur, nxt = sign * (nxt - lk * cur), cur
    return cur
