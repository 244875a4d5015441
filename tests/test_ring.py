import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from goldcalc.ring import (
    PHI,
    GoldenExact,
    fib_divisor,
    fib_divisor_recursion,
    fibonacci,
    golden_pow,
    lucas,
    to_real,
)


elements = st.builds(GoldenExact, st.integers(-10**30, 10**30), st.integers(-10**30, 10**30))


def test_phi_constant():
    assert math.isclose(PHI, (1 + math.sqrt(5)) / 2)
    assert math.isclose(PHI * PHI, PHI + 1)


class TestGoldenExact:
    def test_multiplication_reduces_phi_squared(self):
        phi = GoldenExact(0, 1)
        assert phi * phi == GoldenExact(1, 1)

    def test_arithmetic(self):
        x = GoldenExact(2, 3)
        y = GoldenExact(-1, 4)
        assert x + y == GoldenExact(1, 7)
        assert x - y == GoldenExact(3, -1)
        assert x * y == GoldenExact(2 * -1 + 3 * 4, 2 * 4 + (-1) * 3 + 3 * 4)
        assert 2 * x == GoldenExact(4, 6)
        assert x + 1 == GoldenExact(3, 3)

    @given(x=elements, y=elements)
    def test_conjugate_is_homomorphism(self, x, y):
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert x.conjugate().conjugate() == x

    @given(x=elements, y=elements)
    def test_norm_is_multiplicative(self, x, y):
        assert (x * y).norm() == x.norm() * y.norm()

    def test_norm_and_trace_are_rational_integers(self):
        x = GoldenExact(5, -8)
        assert (x * x.conjugate()).b == 0
        assert (x + x.conjugate()).b == 0
        assert x * x.conjugate() == GoldenExact(x.norm())
        assert (x + x.conjugate()).a == x.trace()

    def test_pow(self):
        x = GoldenExact(1, 1)
        assert x**0 == GoldenExact(1)
        assert x**3 == x * x * x

    def test_to_real_stable_under_cancellation(self):
        # phi^-40 is tiny while its coefficients are ~1e8
        x = golden_pow(-40)
        assert math.isclose(to_real(x), PHI**-40, rel_tol=1e-13)


class TestFibonacci:
    def test_base_values(self):
        assert [fibonacci(n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]

    def test_negative_extension(self):
        for n in range(1, 30):
            assert fibonacci(-n) == (-1) ** (n + 1) * fibonacci(n)

    def test_large_value_exact(self):
        # F_120 overflows 64-bit; must still be exact
        assert fibonacci(120) == 5358359254990966640871840

    def test_lucas(self):
        assert [lucas(n) for n in range(1, 8)] == [1, 3, 4, 7, 11, 18, 29]
        assert lucas(2) == golden_pow(2).trace()

    def test_lucas_negative(self):
        for n in range(1, 12):
            assert lucas(-n) == (-1) ** n * lucas(n)

    @given(n=st.integers(-10**4, 10**4))
    def test_doubling_and_lucas_identities(self, n):
        f, l = fibonacci(n), lucas(n)
        assert fibonacci(2 * n) == f * l
        assert l * l - 5 * f * f == 4 * (-1) ** (n % 2)


class TestGoldenPow:
    def test_identity(self):
        assert golden_pow(0) == GoldenExact(1, 0)

    def test_cube(self):
        assert golden_pow(3) == GoldenExact(1, 2)

    def test_inverse(self):
        assert golden_pow(-1) == GoldenExact(-1, 1)
        assert golden_pow(-1) * golden_pow(1) == GoldenExact(1)

    @pytest.mark.parametrize("n", range(-60, 61))
    def test_matches_float_power(self, n):
        assert math.isclose(to_real(golden_pow(n)), PHI**n, rel_tol=1e-12)

    @given(n=st.integers(0, 2000))
    def test_fibonacci_coefficients(self, n):
        # against square-and-multiply in the ring, and phi^-n as the inverse
        assert golden_pow(n) == GoldenExact(fibonacci(n - 1), fibonacci(n)) == GoldenExact(0, 1) ** n
        assert golden_pow(-n) == GoldenExact(fibonacci(-n - 1), fibonacci(-n))
        assert golden_pow(-n) * golden_pow(n) == GoldenExact(1)


class TestFibDivisor:
    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            fib_divisor(3, 0)
        with pytest.raises(ValueError):
            fib_divisor_recursion(3, 0)

    def test_known_values(self):
        table = {
            1: [1, 1, 2, 3, 5],
            2: [1, 3, 8, 21, 55],
            3: [1, 4, 17, 72, 305],
            4: [1, 7, 48, 329, 2255],
            5: [1, 11, 122, 1353, 15005],
        }
        assert {k: [fib_divisor(n, k) for n in range(1, 6)] for k in table} == table
        assert fib_divisor(1, 7) == 1
        assert fib_divisor(6, 3) == 1292
        assert fibonacci(18) // fibonacci(3) == 1292

    def test_negative_indices_agree(self):
        for k in (1, 2, 3, -1, -3):
            if k == 0:
                continue
            for n in range(-10, 11):
                assert fib_divisor(n, k) == fib_divisor_recursion(n, k)
