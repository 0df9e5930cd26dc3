import numpy as np
import pytest
from numpy.testing import assert_allclose

from avgdyn.dynamics import TimeGrid, propagate_effective
from avgdyn.harmonic import EffectiveGenerator, HarmonicHamiltonian
from avgdyn.linalg import (
    BLOCH_LABELS,
    bloch_decompose,
    gellmann_basis,
    hermitian_coordinates,
    superop,
    unvectorize,
    validate_density,
    vectorize,
)
from util import random_density, random_hermitian


def ketbra(i, j, d=2):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def commutator_matrix(h):
    one = np.eye(h.shape[-1])
    return superop(h, one) - superop(one, h)


class TestCommutators:
    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(0)
        a = random_hermitian(rng, 3)
        assert_allclose(commutator_matrix(a) @ vectorize(a), np.zeros(9), atol=1e-15)

    def test_rank_one_commutator(self):
        # [|2><1|, |1><2|] = |2><2| - |1><1|
        got = unvectorize(commutator_matrix(ketbra(1, 0)) @ vectorize(ketbra(0, 1)))
        assert_allclose(got, ketbra(1, 1) - ketbra(0, 0), atol=0)

    def test_anticommutator_with_identity(self):
        rng = np.random.default_rng(1)
        b = random_hermitian(rng, 4)
        one = np.eye(4)
        got = unvectorize((superop(one, one) + superop(one, one)) @ vectorize(b))
        assert_allclose(got, 2 * b, atol=0)


class TestSuperop:
    def test_broadcast_stacks_equal_per_pair_kron(self):
        rng = np.random.default_rng(5)
        for d in (1, 2, 3, 4):
            left = rng.standard_normal((4, 1, d, d)) + 1j * rng.standard_normal((4, 1, d, d))
            right = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
            got = superop(left, right)
            assert got.shape == (4, 3, d * d, d * d)
            want = np.array([[np.kron(r.T, l) for r in right] for l in left[:, 0]])
            assert got.tobytes() == want.tobytes()


class TestValidateDensity:
    def test_pure_state_passes(self):
        assert validate_density(np.diag([1.0, 0.0])) == []

    def test_positivity_failure_reports_eigenvalue(self):
        # eigenvalues 0.5 +/- 0.6; Hermitian with unit trace
        m = np.array([[0.5, 0.6], [0.6, 0.5]])
        assert validate_density(m) == ["minimum eigenvalue -1.000e-01"]

    def test_hermiticity_failure(self):
        m = np.array([[0.5, 0.1j], [0.1j, 0.5]])
        assert any("hermiticity" in f for f in validate_density(m))

    def test_require_density_raises_with_names(self):
        # the propagators raise validate_density's failures, joined, for a non-density state
        generator = EffectiveGenerator(HarmonicHamiltonian(np.zeros((2, 2))))
        with pytest.raises(ValueError, match="^not a density matrix: minimum eigenvalue -1.000e-01$"):
            propagate_effective(generator, np.array([[0.5, 0.6], [0.6, 0.5]]), TimeGrid(0, 1, 0.1))

    @pytest.mark.parametrize("m, message", [
        (np.zeros((2, 3)), r"density matrix must be a square matrix, got shape \(2, 3\)"),
        (np.zeros((2, 2, 2)), r"density matrix must be a square matrix, got shape \(2, 2, 2\)"),
        (np.diag([np.inf, 0.0]), "density matrix contains non-finite entries"),
    ], ids=["non_square", "stack", "non_finite"])
    def test_not_a_square_finite_matrix(self, m, message):
        with pytest.raises(ValueError, match=message):
            validate_density(m)


class TestVectorization:
    # column stacking: vec(L rho R) = kron(R.T, L) vec(rho)
    def test_left_multiplication(self):
        rng = np.random.default_rng(2)
        left = random_hermitian(rng, 2)
        rho = random_density(rng, 2)
        got = unvectorize(np.kron(np.eye(2), left) @ vectorize(rho))
        assert_allclose(got, left @ rho, atol=1e-15)

    def test_sandwich_matches_direct_product(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = rng.integers(2, 5)
            left = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            right = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = random_density(rng, d)
            got = unvectorize(np.kron(right.T, left) @ vectorize(rho))
            assert_allclose(got, left @ rho @ right, atol=1e-13)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert_allclose(unvectorize(vectorize(m)), m, atol=0)

    def test_stack_unvectorizes_each_vector(self):
        rng = np.random.default_rng(5)
        ms = rng.standard_normal((4, 2, 3, 3)) + 1j * rng.standard_normal((4, 2, 3, 3))
        vs = np.array([[vectorize(m) for m in row] for row in ms])
        got = unvectorize(vs)
        assert got.shape == (4, 2, 3, 3)
        assert np.array_equal(got, ms)

    def test_non_square_length_rejected(self):
        for v in (np.ones(5), np.ones((3, 5))):
            with pytest.raises(ValueError, match="vector length 5 is not a perfect square"):
                unvectorize(v)


class TestHermitianCoordinates:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_exact_inverse_pair(self, d):
        rng = np.random.default_rng(d)
        to_vec, from_vec = hermitian_coordinates(d)
        assert np.array_equal(from_vec @ to_vec, np.eye(d * d))
        x = rng.standard_normal(d * d)
        assert np.array_equal(from_vec @ (to_vec @ x), x)
        v = vectorize(random_hermitian(rng, d))
        assert np.array_equal(to_vec @ (from_vec @ v), v)

    def test_coordinate_order(self):
        rho = np.array([[1, 4 + 5j, 6 + 7j], [4 - 5j, 2, 8 + 9j], [6 - 7j, 8 - 9j, 3]])
        _, from_vec = hermitian_coordinates(3)
        assert np.array_equal(from_vec @ vectorize(rho), np.arange(1.0, 10.0))


class TestGellMann:
    def test_orthogonality_and_trace(self):
        basis = gellmann_basis()
        assert basis.shape == (8, 3, 3) and not basis.flags.writeable
        for i, gi in enumerate(basis):
            assert abs(np.trace(gi)) < 1e-15
            assert_allclose(gi, gi.conj().T, atol=0)
            for j, gj in enumerate(basis):
                expected = 2.0 if i == j else 0.0
                assert abs(np.trace(gi @ gj) - expected) < 1e-14

    def test_w_norm(self):
        w = gellmann_basis()[BLOCH_LABELS.index("w")]
        # (1/3)(1 + 1 + 4) = 2
        assert_allclose(np.trace(w @ w).real, 2.0, atol=1e-15)

    def test_x_entry_pattern(self):
        basis = dict(zip(BLOCH_LABELS, gellmann_basis()))
        assert_allclose(basis["x"], ketbra(0, 1, 3) + ketbra(1, 0, 3), atol=0)
        assert_allclose(basis["z"], ketbra(0, 0, 3) - ketbra(1, 1, 3), atol=0)

    def test_xy_orthogonal(self):
        basis = dict(zip(BLOCH_LABELS, gellmann_basis()))
        assert abs(np.trace(basis["x"] @ basis["y"])) == 0.0


class TestBloch:
    def test_maximally_mixed_is_origin(self):
        assert_allclose(bloch_decompose(np.eye(3) / 3), np.zeros(8), atol=1e-16)

    def test_ground_state_coefficients(self):
        coeffs = bloch_decompose(ketbra(0, 0, 3))
        expected = np.zeros(8)
        expected[2] = 0.5  # z
        expected[3] = 1 / (2 * np.sqrt(3))  # w
        assert_allclose(coeffs, expected, atol=1e-15)

    def test_round_trip_random_density(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            rho = random_density(rng, 3)
            back = np.eye(3) / 3 + sum(
                c * g for c, g in zip(bloch_decompose(rho), gellmann_basis()))
            assert_allclose(back, rho, atol=1e-12)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="3x3"):
            bloch_decompose(np.eye(2) / 2)
