import cmath
import math
import random
from fractions import Fraction

import pytest

from goldcalc import functions
from goldcalc.functions import (
    MAX_TERMS,
    E_phi,
    GoldenAnalyticFunction,
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

SERIES = {
    "golden_exp": golden_exp,
    "golden_exp_E": lambda z: golden_exp(z, 2, "E"),
    "golden_cos": lambda z: golden_trig(z.real, 1, "cos"),
    "e_phi": e_phi,
    "E_phi": E_phi,
    "e_phi_product": e_phi_product,
    "ln_phi_series": lambda z: ln_phi(z, 1, "series"),
    "ln_phi_pole_sum": lambda z: ln_phi(z, 1, "pole_sum"),
}


@pytest.mark.parametrize("name", SERIES)
@pytest.mark.parametrize("z", [complex(math.nan, 0), complex(math.inf, 0), complex(-math.inf, 0)],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_argument_refused(name, z):
    with pytest.raises(ValueError, match="finite argument"):
        SERIES[name](z)


@pytest.mark.parametrize("call", [lambda: golden_exp(1e20), lambda: golden_exp(-1e300, 3, "E"),
                                  lambda: golden_trig(1e20), lambda: e_phi(1e20),
                                  lambda: e_phi_product(1e20), lambda: e_phi_product(-1e300)],
                         ids=["golden_exp", "golden_exp_E", "golden_trig", "e_phi",
                              "e_phi_product", "e_phi_product_negative"])
def test_overflowing_sum_or_product_refused(call):
    with pytest.raises(ValueError, match="partial (sum|product) is not finite"):
        call()


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
            lhs = golden_exp(x, k, "E")
            rhs = golden_exp(x, -k, "e")
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_eigenfunction_property(self):
        for lam in (0.3, 1.0):
            for k in (1, 2):
                for x in (0.1, 0.5, 1.0):
                    f = lambda s: golden_exp(lam * s, k, "e")
                    lhs = golden_derivative_numeric(f, x, k)
                    rhs = lam * golden_exp(lam * x, k, "e")
                    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_divisors_beyond_float_range(self):
        # F_2^(1500) = L_1500 overflows a double; the sum is 1 + 1 + 1/L_1500 + ...
        assert golden_exp(1.0, 1500) == 2.0

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
                c = golden_trig(x, k, "cos")
                s = golden_trig(x, k, "sin")
                assert abs(complex(c, s) - golden_exp(1j * x, -k, "E")) < 1e-12

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
            assert abs(e_phi(z) - e_phi_product(z)) < 1e-10

    def test_reciprocal_pair(self):
        for z in (0.3, -0.8, 0.5 + 0.4j):
            assert abs(e_phi(z) * E_phi(-z) - 1.0) < 1e-12

    @pytest.mark.parametrize("z", [3.0, PHI**2, -2.7j])
    def test_E_phi_domain_refused_before_summing(self, monkeypatch, z):
        # series only converges for |z| < phi^2
        monkeypatch.setattr(functions, "_ratio_series", lambda *args: pytest.fail("summed"))
        with pytest.raises(ValueError, match=r"\|z\| < phi\^2"):
            E_phi(z)

    def test_E_phi_near_radius_refused_with_term_count(self):
        with pytest.raises(ValueError, match=f"more than {MAX_TERMS} terms"):
            E_phi(0.9999 * PHI**2)


class TestLnPhi:
    def test_at_zero(self):
        assert ln_phi(0.0, 1, "series") == 0.0
        assert ln_phi(0.0, 2, "pole_sum") == 0.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_series_matches_pole_sum(self, k):
        rng = random.Random(31 + k)
        for _ in range(80):
            z = cmath.rect(rng.uniform(0, 0.9), rng.uniform(0, 2 * math.pi))
            a = ln_phi(z, k, "series")
            b = ln_phi(z, k, "pole_sum")
            assert abs(a - b) < 1e-10

    def test_series_domain(self):
        with pytest.raises(ValueError):
            ln_phi(PHI + 0.1, 1, "series")
        ln_phi(PHI + 0.1, 1, "pole_sum")  # fine away from poles
        with pytest.raises(ValueError, match="k > 0"):
            ln_phi(0.1, -1, "pole_sum")  # the poles phi^(k n) would shrink to 0

    def test_series_near_radius_refused_with_term_count(self):
        with pytest.raises(ValueError, match=f"more than {MAX_TERMS} terms"):
            ln_phi(0.9999 * PHI, 1, "series")

    def test_series_sums_as_many_terms_as_its_ratio_needs(self):
        # ratio bound 1.5/phi = 0.93: about 550 terms
        a, b = ln_phi(1.5, 1, "series"), ln_phi(1.5, 1, "pole_sum")
        assert abs(a - b) <= 1e-14 * abs(b)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("z", [1e-20, 1e-8, 1e-3])
    def test_small_argument_keeps_relative_precision(self, z, k):
        a, b = ln_phi(z, k, "series"), ln_phi(z, k, "pole_sum")
        assert abs(a - b) <= 1e-15 * abs(a)
        if z == 1e-20:  # Ln(1 + z) = z to first order
            assert abs(a - z) <= 1e-15 * z and abs(b - z) <= 1e-15 * z

    def test_pole_sum_beyond_float_range_refused(self):
        with pytest.raises(ValueError, match="float range"):
            ln_phi(1e300, 1, "pole_sum")

    @pytest.mark.parametrize("form", ["series", "pole_sum"])
    def test_base_beyond_float_range_refused(self, form):
        with pytest.raises(ValueError, match="phi\\^2000 overflows"):
            ln_phi(0.5, 2000, form)

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
