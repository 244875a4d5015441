import math
import random

import numpy as np
import pytest

from goldcalc.operators import (
    Polynomial,
    golden_derivative_numeric,
    golden_derivative_poly,
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


class TestGoldenDerivativeNumericArrays:
    P = Polynomial([0.3, -1.2, 0.5, 0.25, -0.125])

    @pytest.mark.parametrize("k", [1, 2, -1, -3])
    def test_array_equals_the_points_one_by_one(self, k):
        # bit for bit: the quotient and a polynomial take the same float operations per entry
        xs = np.linspace(-2.0, 2.0, 4096 + 101)
        xs = xs[xs != 0]
        got = golden_derivative_numeric(self.P, xs, k)
        assert got.tolist() == [golden_derivative_numeric(self.P, float(x), k) for x in xs]
        grid = xs[:60].reshape(3, 20)
        assert np.array_equal(golden_derivative_numeric(self.P, grid, k), got[:60].reshape(3, 20))
        assert type(golden_derivative_numeric(self.P, 0.7, k)) is float

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError, match="singular at x = 0"):
            golden_derivative_numeric(self.P, np.array([[0.5, 1.0], [0.0, 2.0]]), 1)
        with pytest.raises(ValueError, match="singular at x = 0"):
            golden_derivative_numeric(self.P, np.float64(0.0), 1)


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
    """A level-k golden-periodic f, f(phi^k x) = f(phi'^k x), is one whose
    level-k golden derivative vanishes."""

    SAMPLES = [0.3, 0.7, 1.1, 1.3, 1.9, 2.6, -0.8, -1.5]

    def largest(self, f, k: int) -> float:
        return max(abs(golden_derivative_numeric(f, x, k)) for x in self.SAMPLES)

    def test_counterexample_function(self):
        f = lambda x: math.sin(math.pi * math.log(abs(x)) / math.log(PHI**2))
        assert self.largest(f, 2) <= 1e-10
        assert not self.largest(f, 1) <= 1e-10

    def test_level_one_implies_higher(self):
        f = lambda x: math.sin(2 * math.pi * math.log(abs(x)) / math.log(PHI))
        for k in (1, 2, 3):
            assert self.largest(f, k) <= 1e-9

    def test_constant_is_periodic(self):
        assert [golden_derivative_numeric(lambda x: 2.0, x, 1) for x in (1.0, 2.0)] == [0.0, 0.0]
