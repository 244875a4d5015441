import math
import random

import pytest

from goldcalc.operators import (
    Polynomial,
    golden_derivative_continuous,
    golden_derivative_numeric,
    golden_derivative_poly,
    is_golden_periodic,
    translate,
)
from goldcalc.ring import PHI, PHI_PRIME


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert Polynomial([0, 0]).coeffs == ()

    def test_eval_and_arithmetic(self):
        p = Polynomial([1, 0, 2])  # 1 + 2 x^2
        q = Polynomial([0, 1])
        assert p(3.0) == 19.0
        assert (p + q)(2.0) == p(2.0) + q(2.0)
        assert (p * q)(1.5) == p(1.5) * q(1.5)
        assert (2.0 * p)(1.0) == 6.0


class TestGoldenDerivativePoly:
    def test_monomial_scaling(self):
        # x^3 at level 2 -> F_3^(2) x^2 = 8 x^2
        assert golden_derivative_poly(Polynomial([0, 0, 0, 1]), 2).coeffs == (0, 0, 8)

    def test_constant(self):
        assert golden_derivative_poly(Polynomial([5]), 3).coeffs == ()

    def test_mixed(self):
        # x^5 + x -> 5 x^4 + 1 at level 1
        p = Polynomial([0, 1, 0, 0, 0, 1])
        assert golden_derivative_poly(p, 1).coeffs == (1, 0, 0, 0, 5)

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            golden_derivative_poly(Polynomial([0, 1]), 0)


class TestGoldenDerivativeNumeric:
    def test_quadratic(self):
        assert golden_derivative_numeric(lambda x: x * x, 2.0, 1) == pytest.approx(2.0)

    def test_constant(self):
        assert golden_derivative_numeric(lambda x: 3.5, 1.0, 2) == 0.0

    def test_singular_at_origin(self):
        with pytest.raises(ValueError):
            golden_derivative_numeric(lambda x: x, 0.0, 1)

    def test_periodic_function_annihilated(self):
        f = lambda x: math.sin(math.pi * math.log(abs(x)) / math.log(PHI**2))
        assert abs(golden_derivative_numeric(f, 1.3, 2)) < 1e-12

    def test_matches_symbolic(self):
        rng = random.Random(3)
        for _ in range(50):
            p = Polynomial([rng.uniform(-1, 1) for _ in range(rng.randint(2, 6))])
            k = rng.choice([1, 2, 3])
            x = rng.uniform(0.2, 1.5)
            sym = golden_derivative_poly(p, k)(x)
            num = golden_derivative_numeric(p, x, k)
            assert abs(sym - num) <= 1e-11 * max(1.0, abs(sym))


class TestContinuousBranch:
    def test_converges_to_classical_derivative(self):
        vals = [golden_derivative_continuous(lambda x: x * x, 1.0, s)
                for s in (1.0, 0.5, 0.25)]
        errors = [abs(v - 2.0) for v in vals]
        assert errors[0] > errors[1] > errors[2]
        assert golden_derivative_continuous(lambda x: x * x, 1.0, 1e-6) == pytest.approx(2.0)

    def test_exponential(self):
        got = golden_derivative_continuous(math.exp, 0.7, 1e-4)
        assert abs(got - math.exp(0.7)) < 1e-7

    def test_constant_and_validation(self):
        assert golden_derivative_continuous(lambda x: 4.0, 2.0, 0.3) == 0.0
        with pytest.raises(ValueError):
            golden_derivative_continuous(math.exp, 1.0, 0.0)


class TestLeibnizAndQuotient:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_leibniz(self, k):
        rng = random.Random(11 + k)
        for _ in range(40):
            f = Polynomial([rng.uniform(-1, 1) for _ in range(rng.randint(1, 5))])
            g = Polynomial([rng.uniform(-1, 1) for _ in range(rng.randint(1, 5))])
            x = rng.uniform(0.2, 2.0)
            lhs = golden_derivative_numeric(lambda s: f(s) * g(s), x, k)
            rhs = (golden_derivative_numeric(f, x, k) * g(PHI**k * x)
                   + f(PHI_PRIME**k * x) * golden_derivative_numeric(g, x, k))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_quotient(self, k):
        rng = random.Random(23 + k)
        checked = 0
        while checked < 25:
            f = Polynomial([rng.uniform(-1, 1) for _ in range(rng.randint(1, 5))])
            g = Polynomial([rng.uniform(-1, 1) for _ in range(rng.randint(1, 5))])
            x = rng.uniform(0.2, 2.0)
            gp, gq = g(PHI**k * x), g(PHI_PRIME**k * x)
            if abs(gp * gq) < 0.1:
                continue
            checked += 1
            lhs = golden_derivative_numeric(lambda s: f(s) / g(s), x, k)
            rhs = (golden_derivative_numeric(f, x, k) * gp
                   - f(PHI**k * x) * golden_derivative_numeric(g, x, k)) / (gp * gq)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestTranslate:
    def test_linear(self):
        assert translate(Polynomial([0, 1]), 2.5, 3).coeffs == (2.5, 1)

    def test_quadratic_level_one(self):
        # x^2 shifted by 1: x^2 + x - 1
        assert translate(Polynomial([0, 0, 1]), 1.0, 1).coeffs == (-1.0, 1.0, 1.0)

    def test_constant(self):
        assert translate(Polynomial([1.0]), 4.0, 2) == Polynomial([1.0])

    def test_zero_shift_identity(self):
        rng = random.Random(5)
        for _ in range(20):
            p = Polynomial([rng.uniform(-1, 1) for _ in range(rng.randint(1, 7))])
            assert translate(p, 0.0, rng.choice([1, 2, 3])) == p

    def test_imaginary_shift_is_analytic_continuation(self):
        # translate(x^2, i y) evaluated at x equals the level-1 binomial value
        p = Polynomial([0, 0, 1])
        q = translate(p, 0.5j, 1)
        x = 1.2
        expect = complex(x * x + 0.25, 0.5 * x)  # u = x^2 + y^2, v = x y at y = 0.5
        assert q(x) == pytest.approx(expect)


class TestGoldenPeriodicity:
    SAMPLES = [0.3, 0.7, 1.1, 1.3, 1.9, 2.6, -0.8, -1.5]

    def test_counterexample_function(self):
        f = lambda x: math.sin(math.pi * math.log(abs(x)) / math.log(PHI**2))
        assert is_golden_periodic(f, 2, self.SAMPLES, 1e-10)
        assert not is_golden_periodic(f, 1, self.SAMPLES, 1e-10)

    def test_level_one_implies_higher(self):
        f = lambda x: math.sin(2 * math.pi * math.log(abs(x)) / math.log(PHI))
        for k in (1, 2, 3):
            assert is_golden_periodic(f, k, self.SAMPLES, 1e-9)

    def test_constant_is_periodic(self):
        assert is_golden_periodic(lambda x: 2.0, 1, [1.0, 2.0], 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            is_golden_periodic(lambda x: x, 1, [], 1e-8)
        with pytest.raises(ValueError):
            is_golden_periodic(lambda x: x, 1, [0.0, 1.0], 1e-8)
