import pytest

from goldcalc.combinatorics import (
    fibonomial,
    fibonorial,
    golden_binomial,
    golden_binomial_eval,
    golden_binomial_product_coeffs,
    golden_binomial_scaled_coeffs,
)
from goldcalc.ring import PHI, PHI_PRIME, GoldenExact, golden_pow


class TestFibonorial:
    def test_empty_product(self):
        assert fibonorial(0, 1) == 1

    def test_level_one(self):
        # 1 * 1 * 2 * 3
        assert fibonorial(4, 1) == 6

    def test_level_two(self):
        # 1 * 3 * 8
        assert fibonorial(3, 2) == 24

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            fibonorial(3, 0)
        with pytest.raises(ValueError):
            fibonorial(-1, 1)


class TestFibonomial:
    def test_values(self):
        assert fibonomial(4, 2, 1) == 6
        assert fibonomial(3, 1, 2) == 8

    def test_edges(self):
        for n in range(8):
            assert fibonomial(n, 0, 3) == 1
            assert fibonomial(n, n, 3) == 1

    def test_symmetry(self):
        for k in (1, 2, 3):
            for n in range(10):
                for m in range(n + 1):
                    assert fibonomial(n, m, k) == fibonomial(n, n - m, k)

    def test_equals_the_quotient_of_fibonorials(self):
        # fibonomial and golden_binomial build the fibonorials up to n once;
        # fibonorial multiplies each product out on its own
        for k in (1, 2, 3, -1, -2, 7):
            for n in range(16):
                coeffs = golden_binomial(n, k).coeffs
                for m in range(n + 1):
                    q = fibonorial(n, k) // (fibonorial(m, k) * fibonorial(n - m, k))
                    assert fibonomial(n, m, k) == q and abs(coeffs[m]) == abs(q)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            fibonomial(3, 4, 1)
        with pytest.raises(ValueError):
            fibonomial(3, -1, 1)


class TestGoldenBinomial:
    def test_degree_zero_and_one(self):
        assert golden_binomial(0, 2).coeffs == (1,)
        assert golden_binomial(1, 3).coeffs == (1, 1)

    def test_quadratic_level_one(self):
        # (x - phi a)(x - phi' a) = x^2 - a x - a^2, i.e. y-form (1, 1, -1)
        b = golden_binomial(2, 1)
        assert b.coeffs == (1, 1, -1)
        x, a = 2.0, 1.0
        assert golden_binomial_eval(b, x, -a) == pytest.approx(x * x - a * x - a * a)

    def test_eval_matches_product_form(self):
        for k in (1, 2, 3):
            for n in range(6):
                b = golden_binomial(n, k)
                x, y = 1.3, -0.7
                prod = 1.0
                for s in range(1, n + 1):
                    prod *= x + PHI ** (k * (n - s)) * PHI_PRIME ** (k * (s - 1)) * y
                assert golden_binomial_eval(b, x, y) == pytest.approx(prod, rel=1e-12)

    def test_coefficients_match_exact_ring_product(self):
        for k in (1, 2, 3, -1, -2):
            for n in range(9):
                ring_coeffs = golden_binomial_product_coeffs(n, k)
                expanded = golden_binomial(n, k).coeffs
                for rc, ec in zip(ring_coeffs, expanded):
                    assert rc.b == 0, "coefficient must be a rational integer"
                    assert rc.a == ec

    def test_callable(self):
        b = golden_binomial(2, 1)
        assert b(2.0, -1.0) == golden_binomial_eval(b, 2.0, -1.0)


def _ring_poly_mul(u, v):
    out = [GoldenExact(0)] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] = out[i + j] + a * b
    return out


class TestFactorizationRule:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_both_orderings_exact(self, k):
        for n in range(0, 9):
            for m in range(0, 9 - n):
                whole = golden_binomial_scaled_coeffs(n + m, k, GoldenExact(1))
                split_a = _ring_poly_mul(
                    golden_binomial_scaled_coeffs(n, k, golden_pow(k * m)),
                    golden_binomial_scaled_coeffs(m, k, golden_pow(k * n).conjugate()))
                split_b = _ring_poly_mul(
                    golden_binomial_scaled_coeffs(n, k, golden_pow(k * m).conjugate()),
                    golden_binomial_scaled_coeffs(m, k, golden_pow(k * n)))
                assert whole == split_a
                assert whole == split_b
