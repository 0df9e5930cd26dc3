import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import simpson

from avgdyn.fourier import FourierOperator, commutator, fourier_sum, lowpass_average
from avgdyn.harmonic import EffectiveGenerator
from avgdyn.linalg import hermitian_coordinates, superop
from util import antiderivative_terms, merge_terms, random_complex, random_harmonic


def single(coeff, nu, p=0):
    coeff = np.asarray(coeff, dtype=complex)
    return FourierOperator(coeff.shape[0], [(coeff, nu, p)])


# Times near 0 and near 1e3, where t * nu carries ~1e-13 of rounding
EVALUATE_TIMES = (np.linspace(-0.3, 0.3, 7), 1e3 + np.linspace(-0.5, 0.5, 7))


def assert_real_part(f, ts):
    """``f.evaluate_real(ts)`` is the real part of ``f.evaluate(ts)`` within 1e-15 of
    the largest |value| its terms can sum to, sum_k |C_k| |t|**p_k entry by entry."""
    got = f.evaluate_real(ts)
    assert got.shape == (len(ts), f.dim, f.dim) and got.dtype == float
    scale = sum((np.abs(c) * np.abs(ts).max() ** p for c, _, p in f.terms), np.zeros(1)).max()
    assert np.abs(got - f.evaluate(ts).real).max() <= 1e-15 * scale


@pytest.mark.parametrize("n_freq", [0, 1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_evaluate_real_of_real_coordinate_liouvillians(d, n_freq):
    # the generators the density propagation evaluates in real arithmetic
    to_vec, from_vec = map(FourierOperator.constant, hermitian_coordinates(d))
    for seed in range(5):
        ham = random_harmonic(np.random.default_rng(10 * d + n_freq + 100 * seed), d, n_freq,
                              strength=0.3)
        for liouvillian in (ham.liouvillian, EffectiveGenerator(ham).liouvillian):
            real = from_vec @ liouvillian @ to_vec
            for ts in EVALUATE_TIMES:
                assert_real_part(real, ts)


class TestTermAlgebra:
    def test_duplicate_terms_merge(self):
        a = np.eye(2, dtype=complex)
        f = FourierOperator(2, [(a, 1.5, 0), (2 * a, 1.5, 0), (a, 1.5, 1)])
        assert len(f.terms) == 2
        assert_allclose(f.terms[0].coeff, 3 * a, atol=0)

    def test_near_equal_frequencies_merge(self):
        a = np.eye(2, dtype=complex)
        f = single(a, 2.0) + single(-a, 2.0 + 1e-13)
        assert f.terms == ()

    def test_tiny_frequencies_snap_to_zero(self):
        f = single(np.eye(2), 1e-13)
        assert f.terms[0].nu == 0.0

    def test_exact_zero_coefficients_pruned(self):
        a = np.eye(2, dtype=complex)
        f = single(a, 1.0) - single(a, 1.0)
        assert f.terms == () and f.max_abs() == 0.0

    def test_product_adds_frequencies_and_powers(self):
        rng = np.random.default_rng(0)
        a, b = random_complex(rng, 2), random_complex(rng, 2)
        f = single(a, 1.2, 1) @ single(b, -0.5, 2)
        assert len(f.terms) == 1
        coeff, nu, p = f.terms[0]
        assert nu == 0.7 and p == 3
        assert_allclose(coeff, a @ b, atol=0)

    def test_evaluate_matches_direct_sum(self):
        rng = np.random.default_rng(1)
        terms = [(random_complex(rng, 3), nu, p)
                 for nu in (-2.0, 0.0, 1.3) for p in (0, 1, 2)]
        f = FourierOperator(3, terms)
        for t in (-1.7, 0.0, 0.4, 2.9):
            direct = sum(c * t**p * np.exp(1j * nu * t) for c, nu, p in terms)
            assert_allclose(f.evaluate(t), direct, atol=1e-14)
        for ts in EVALUATE_TIMES:
            assert_real_part(f, ts)

    def test_evaluate_real_of_no_terms_is_zero(self):
        ts = EVALUATE_TIMES[1]
        assert np.array_equal(FourierOperator(4).evaluate_real(ts), np.zeros((len(ts), 4, 4)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            single(np.eye(2), 0.0) + single(np.eye(3), 0.0)

    @pytest.mark.parametrize("dim, terms, message", [
        (0, [], "dim must be >= 1"),
        (2, [(np.eye(3), 1.0, 0)], r"coefficient shape \(3, 3\) does not match dim 2"),
        (2, [(np.eye(2), 1.0, -1)], "polynomial degree must be non-negative"),
    ], ids=["zero_dim", "coefficient_shape", "negative_degree"])
    def test_invalid_terms_rejected(self, dim, terms, message):
        with pytest.raises(ValueError, match=message):
            FourierOperator(dim, terms)

    def test_norm_bound(self):
        f = single(2 * np.eye(2), 1.5) + single(np.diag([0.5, -3.0]), -0.5)
        assert f.norm_bound() == 5.0
        # a secular term grows without bound in t
        assert (f + single(1e-9 * np.eye(2), 1.5, 1)).norm_bound() == np.inf


# Entries that cancel exactly, include signed zeros, and round differently
# when summed in another order; frequencies with duplicates, values that snap
# to 0 (one exactly at the tolerance), and a run 1.0, 1.0 + 0.6e-12,
# 1.0 + 1.2e-12 whose neighbours sit within the tolerance but whose ends do not.
ENTRIES = st.sampled_from([0j, complex(-0.0, -0.0), complex(0.0, -0.0), 1 + 0j, -1 + 0j,
                           0.1 + 0.2j, -0.1 - 0.2j, 0.2 - 0.3j, 0.3 + 0.1j, 1e3 - 1e-3j])
COEFFS = st.lists(ENTRIES, min_size=4, max_size=4)
NUS = st.sampled_from([0.0, -0.0, 4e-13, -1e-12, 1.0, 1.0 + 0.6e-12, 1.0 + 1.2e-12,
                       -2.5, -2.5 + 2e-12])
TERMS = st.lists(st.tuples(COEFFS.map(lambda c: np.reshape(c, (2, 2))), NUS,
                           st.integers(0, 2)), max_size=10)


def as_bytes(terms):
    return [(np.ascontiguousarray(c).tobytes(), np.float64(nu).tobytes(), p)
            for c, nu, p in terms]


@settings(database=None, derandomize=True, max_examples=200, deadline=None)
@given(first=TERMS, second=TERMS, scalar=st.sampled_from([2.0, -0.3 + 1.7j, 1e-310j]),
       cutoff=st.sampled_from([1e-12, 1.0, 1.0 + 0.6e-12, 3.0, np.inf]))
def test_merge_matches_per_term_reference(first, second, scalar, cutoff):
    # every result is merged once, so a unary map's result is the merge of
    # its terms mapped one at a time; 1e-310j underflows some products to zero
    f, g = FourierOperator(2, first), FourierOperator(2, second)
    assert as_bytes(f.terms) == as_bytes(merge_terms(first))
    assert as_bytes((f + g).terms) == as_bytes(merge_terms(f.terms + g.terms))
    assert as_bytes((-f).terms) == as_bytes(merge_terms([(-c, nu, p) for c, nu, p in f.terms]))
    for s in (scalar, 0):
        assert as_bytes((s * f).terms) == as_bytes(
            merge_terms([(complex(s) * c, nu, p) for c, nu, p in f.terms]))
    assert as_bytes(lowpass_average(f, cutoff).terms) == as_bytes(
        merge_terms([term for term in f.terms if abs(term.nu) < cutoff]))
    one = np.eye(2, dtype=complex)
    assert as_bytes(commutator(f).terms) == as_bytes(
        merge_terms([(superop(c, one) - superop(one, c), nu, p) for c, nu, p in f.terms]))


@settings(database=None, derandomize=True, max_examples=200, deadline=None)
@given(terms=st.lists(st.tuples(COEFFS.map(lambda c: np.reshape(c, (2, 2))), NUS,
                                st.integers(0, 4)), max_size=10))
def test_antiderivative_matches_per_term_reference(terms):
    # degrees up to 4 reach factors (p-k+1)/(i nu) with p-k+1 >= 3, where
    # numpy's complex quotient rounds differently from Python's
    f = FourierOperator(2, terms)
    assert as_bytes(f.antiderivative().terms) == as_bytes(
        merge_terms(antiderivative_terms(f.terms)))


@settings(database=None, derandomize=True, max_examples=200, deadline=None)
@given(summands=st.lists(TERMS, min_size=1, max_size=4))
@example(summands=[[(np.eye(2), nu, 0)] for nu in (1.0, 1.0 + 0.6e-12, 1.0 + 1.2e-12)])
def test_sum_merges_all_summands_at_once(summands):
    # the example's run chains across summands: one term, where a left fold of + gives two
    ops = [FourierOperator(2, terms) for terms in summands]
    expected = merge_terms([term for op in ops for term in op.terms])
    assert as_bytes(fourier_sum(ops).terms) == as_bytes(expected)
    negated = tuple((-c, nu, p) for c, nu, p in ops[-1].terms)
    assert as_bytes((ops[0] - ops[-1]).terms) == as_bytes(merge_terms(ops[0].terms + negated))


class TestCalculus:
    def test_derivative_of_antiderivative_is_identity(self):
        rng = np.random.default_rng(3)
        f = (single(random_complex(rng, 2), 1.7, 2)
             + single(random_complex(rng, 2), 0.0, 1)
             + single(random_complex(rng, 2), -0.9, 0))
        g = f.antiderivative().differentiate()
        for t in (-0.8, 0.3, 2.2):
            assert_allclose(g.evaluate(t), f.evaluate(t), atol=1e-13)

    def test_antiderivative_against_quadrature(self):
        rng = np.random.default_rng(4)
        f = single(random_complex(rng, 2), 1.3, 1) + single(random_complex(rng, 2), -2.1, 2)
        g = f.antiderivative()
        t0, t1 = 0.25, 1.85
        ts = np.linspace(t0, t1, 4001)
        vals = np.stack([f.evaluate(t) for t in ts])
        quad = simpson(vals, x=ts, axis=0)
        assert_allclose(g.evaluate(t1) - g.evaluate(t0), quad, atol=1e-10)

    def test_derivative_against_finite_difference(self):
        rng = np.random.default_rng(5)
        f = single(random_complex(rng, 2), 0.7, 2)
        h = 1e-6
        t = 1.4
        fd = (f.evaluate(t + h) - f.evaluate(t - h)) / (2 * h)
        assert_allclose(f.differentiate().evaluate(t), fd, atol=1e-7)


class TestLowpass:
    def test_fast_term_deleted(self):
        f = single(np.eye(2), 3.0)
        assert lowpass_average(f, 1.0).terms == ()

    def test_boundary_frequency_deleted(self):
        f = single(np.eye(2), 1.0)
        assert lowpass_average(f, 1.0).terms == ()

    def test_slow_term_unchanged(self):
        rng = np.random.default_rng(6)
        c = random_complex(rng, 2)
        f = single(c, 0.05) + single(c, 5.0)
        out = lowpass_average(f, 1.0)
        assert len(out.terms) == 1
        assert out.terms[0].nu == 0.05
        assert_allclose(out.terms[0].coeff, c, atol=0)

    def test_constant_passes(self):
        f = single(np.eye(2), 0.0)
        out = lowpass_average(f, 0.5)
        assert_allclose(out.evaluate(3.0), np.eye(2), atol=0)

    def test_secular_term_passes(self):
        f = single(np.eye(2), 0.0, 3)
        out = lowpass_average(f, 0.5)
        assert len(out.terms) == 1 and out.terms[0].p == 3

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError, match="cutoff must be positive"):
            lowpass_average(single(np.eye(2), 0.0), 0.0)


class TestCommutator:
    def test_stack_matches_lifted_evaluation(self):
        rng = np.random.default_rng(10)
        h = random_harmonic(rng, 3, 2, strength=0.5).as_fourier()
        ts = np.linspace(-3.0, 40.0, 17)
        one = np.eye(3)
        want = np.array([superop(m, one) - superop(one, m) for m in h.evaluate(ts)])
        assert np.abs(commutator(h).evaluate(ts) - want).max() <= 1e-15
