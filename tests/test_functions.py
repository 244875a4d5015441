import cmath
import math
import random
from fractions import Fraction

import pytest

from goldcalc.functions import (
    E_phi,
    GoldenAnalyticFunction,
    SeriesTruncation,
    TruncationError,
    e_phi,
    e_phi_product,
    golden_analytic_eval,
    golden_exp,
    golden_trig,
    ln_phi,
    phi_number,
)
from goldcalc.operators import golden_derivative_numeric
from goldcalc.ring import PHI, GoldenExact, fib_divisor, fibonacci

TIGHT = SeriesTruncation(400, 1e-16)


@pytest.mark.parametrize("max_terms,tail_tol", [
    (0, 1e-15), (200, -1e-15), (200, math.inf), (200, math.nan)])
def test_truncation_validation(max_terms, tail_tol):
    with pytest.raises(ValueError):
        SeriesTruncation(max_terms, tail_tol)


class TestGoldenExp:
    def test_at_zero(self):
        for k in (1, 2, -3):
            assert golden_exp(0.0, k, "e") == 1.0
            assert golden_exp(0.0, k, "E") == 1.0

    def test_value_from_exact_partial_sums(self):
        # oracle: rational partial sum of 1 / (F_1! ... F_n!) at level 1
        total = Fraction(0)
        fact = 1
        for n in range(40):
            if n:
                fact *= fib_divisor(n, 1)
            total += Fraction(1, fact)
        oracle = float(total)
        assert oracle == pytest.approx(3.704502899154068, abs=1e-14)
        assert golden_exp(1.0, 1, "e") == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3, -2])
    def test_E_equals_e_at_negated_level(self, k):
        for x in (0.7, -1.3, 2.1 + 0.5j):
            lhs = golden_exp(x, k, "E", TIGHT)
            rhs = golden_exp(x, -k, "e", TIGHT)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_eigenfunction_property(self):
        for lam in (0.3, 1.0):
            for k in (1, 2):
                for x in (0.1, 0.5, 1.0):
                    f = lambda s: golden_exp(lam * s, k, "e", TIGHT)
                    lhs = golden_derivative_numeric(f, x, k)
                    rhs = lam * golden_exp(lam * x, k, "e", TIGHT)
                    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            golden_exp(30.0, 1, "e", SeriesTruncation(4, 1e-15))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            golden_exp(1.0, 0)
        with pytest.raises(ValueError):
            golden_exp(1.0, 1, "q")


class TestGoldenTrig:
    def test_at_zero(self):
        assert golden_trig(0.0, 1, "cos") == 1.0
        assert golden_trig(0.0, 1, "sin") == 0.0

    def test_parts_of_exponential(self):
        for k in (1, 2):
            for x in (0.25, 0.8, -1.1):
                c = golden_trig(x, k, "cos", TIGHT)
                s = golden_trig(x, k, "sin", TIGHT)
                assert abs(complex(c, s) - golden_exp(1j * x, -k, "E", TIGHT)) < 1e-12

    def test_direct_series_oracle(self):
        # E(ix, -k) = e(ix, k): sum (i x)^n / F_n^(k)! with exact divisors
        x, k = 0.5, 1
        total = 0j
        term = 1 + 0j
        for n in range(1, 60):
            term = term * (1j * x) / fib_divisor(n, k)
            total += term
        total += 1.0
        assert golden_trig(x, k, "cos") == pytest.approx(total.real, abs=1e-13)
        assert golden_trig(x, k, "sin") == pytest.approx(total.imag, abs=1e-13)


class TestPhiNumber:
    def test_base_cases(self):
        assert phi_number(1, 1) == GoldenExact(1)
        assert phi_number(3, 1) == GoldenExact(2, 2)
        assert phi_number(2, 2) == GoldenExact(2, 1)  # 1 + phi^2

    def test_fibonacci_closed_form(self):
        for n in range(1, 15):
            assert phi_number(n, 1) == GoldenExact(fibonacci(n), fibonacci(n + 1) - 1)

    def test_divisor_expression_general_k(self):
        # [n] at base phi^k = (phi^k F_n^(k) + (-1)^(k+1) F_{n-1}^(k) - 1)/(phi^k - 1)
        for k in (1, 2, 3, 4):
            for n in range(1, 10):
                prev = fib_divisor(n - 1, k) if n > 1 else 0
                num = PHI**k * fib_divisor(n, k) + (-1) ** (k + 1) * prev - 1
                assert phi_number(n, k).to_real() == pytest.approx(
                    num / (PHI**k - 1), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            phi_number(0, 1)


class TestPhiExponentials:
    def test_at_zero(self):
        assert e_phi(0.0) == 1.0
        assert E_phi(0.0) == 1.0
        assert e_phi_product(0.0) == 1.0

    def test_product_zero_location(self):
        assert e_phi_product(-(PHI**3)) == 0.0

    def test_euler_identity_sweep(self):
        rng = random.Random(9)
        for _ in range(200):
            z = cmath.rect(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
            assert abs(e_phi(z, TIGHT) - e_phi_product(z, TIGHT)) < 1e-10

    def test_reciprocal_pair(self):
        for z in (0.3, -0.8, 0.5 + 0.4j):
            assert abs(e_phi(z, TIGHT) * E_phi(-z, TIGHT) - 1.0) < 1e-12

    def test_E_phi_domain_limit(self):
        # series only converges for |z| < phi^2
        with pytest.raises(TruncationError):
            E_phi(3.0, SeriesTruncation(500, 1e-15))


class TestLnPhi:
    def test_at_zero(self):
        assert ln_phi(0.0, 1, "series") == 0.0
        assert ln_phi(0.0, 2, "pole_sum") == 0.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_series_matches_pole_sum(self, k):
        rng = random.Random(31 + k)
        for _ in range(80):
            z = cmath.rect(rng.uniform(0, 0.9), rng.uniform(0, 2 * math.pi))
            a = ln_phi(z, k, "series", TIGHT)
            b = ln_phi(z, k, "pole_sum", TIGHT)
            assert abs(a - b) < 1e-10

    def test_series_domain(self):
        with pytest.raises(ValueError):
            ln_phi(PHI + 0.1, 1, "series")
        ln_phi(PHI + 0.1, 1, "pole_sum")  # fine away from poles

    def test_pole_proximity_rejected(self):
        with pytest.raises(ValueError):
            ln_phi(-PHI * (1 + 1e-10), 1, "pole_sum")
        with pytest.raises(ValueError):
            ln_phi(-(PHI**4) * (1 + 1e-12), 2, "pole_sum")

    def test_real_argument_reference_value(self):
        # ln(1+z) analogue at small z behaves like z to first order
        assert ln_phi(1e-8, 1, "series") == pytest.approx(1e-8, rel=1e-6)


class TestGoldenAnalytic:
    def test_identity_function(self):
        g = GoldenAnalyticFunction((0, 1), 2)
        assert golden_analytic_eval(g, 1.3, -0.4) == pytest.approx((1.3, -0.4))

    def test_square_level_one(self):
        g = GoldenAnalyticFunction((0, 0, 1), 1)
        u, v = golden_analytic_eval(g, 1.3, 0.4)
        assert u == pytest.approx(1.3**2 + 0.4**2)
        assert v == pytest.approx(1.3 * 0.4)

    def test_real_axis_reduces_to_polynomial(self):
        g = GoldenAnalyticFunction((2, -1, 0.5), 2)
        u, v = golden_analytic_eval(g, 0.7, 0.0)
        assert u == pytest.approx(2 - 0.7 + 0.5 * 0.49)
        assert v == 0.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_cauchy_riemann_and_laplace(self, k):
        rng = random.Random(41 + k)
        coeffs = tuple(rng.uniform(-1, 1) for _ in range(7))
        g = GoldenAnalyticFunction(coeffs, k)
        u = lambda x, y: golden_analytic_eval(g, x, y)[0]
        v = lambda x, y: golden_analytic_eval(g, x, y)[1]
        for x in (-1.1, -0.5, 0.4, 0.9, 1.2):
            for y in (-0.8, -0.3, 0.5, 1.0):
                dxu = golden_derivative_numeric(lambda s: u(s, y), x, k)
                dyv = golden_derivative_numeric(lambda s: v(x, s), y, -k)
                dyu = golden_derivative_numeric(lambda s: u(x, s), y, -k)
                dxv = golden_derivative_numeric(lambda s: v(s, y), x, k)
                assert abs(dxu - dyv) < 1e-8
                assert abs(dyu + dxv) < 1e-8
                for w in (u, v):
                    dxx = golden_derivative_numeric(
                        lambda s: golden_derivative_numeric(lambda r: w(r, y), s, k), x, k)
                    dyy = golden_derivative_numeric(
                        lambda s: golden_derivative_numeric(lambda r: w(x, r), s, -k), y, -k)
                    assert abs(dxx + dyy) < 1e-7
