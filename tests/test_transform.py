"""Forward/inverse transform correctness against the literal reference."""

import numpy as np
import pytest

from dnaphash import Sequence, dct2, dct2_reference, idct2, layout_matrix

# Sides up to 32 and above it: the basis multiply serves every side, and
# the large ones check it where rounding grows with the side.
SMALL_SIDES = (2, 3, 4, 8, 10, 16, 32)
LARGE_SIDES = (33, 40, 64)


def random_matrix(rng, n, scale=255.0):
    return rng.uniform(0.0, scale, size=(n, n))


class TestForward:
    def test_constant_2x2(self):
        out = dct2(np.full((2, 2), 63.0))
        assert out[0, 0] == 126.0
        assert out[0, 1] == 0.0 and out[1, 0] == 0.0 and out[1, 1] == 0.0

    def test_identity_2x2(self):
        out = dct2(np.eye(2))
        assert np.allclose(out, np.eye(2), atol=1e-12)

    def test_constant_4x4(self):
        out = dct2(np.full((4, 4), 255.0))
        assert out[0, 0] == 1020.0
        ac = out.copy()
        ac[0, 0] = 0.0
        assert np.all(ac == 0.0)

    @pytest.mark.parametrize("n", SMALL_SIDES + LARGE_SIDES)
    def test_constant_input_has_exactly_zero_ac(self, n):
        # load-bearing for the sign rule: a uniform image must not leave
        # +/-1e-14 rounding noise in its AC cells
        for value in (63.0, 255.0):
            out = dct2(np.full((n, n), value))
            assert out[0, 0] == value * n
            ac = out.copy()
            ac[0, 0] = 0.0
            assert np.all(ac == 0.0), f"n={n} value={value}"

    @pytest.mark.parametrize("n", SMALL_SIDES)
    def test_agrees_with_reference_small(self, n):
        rng = np.random.default_rng(n)
        for _ in range(6):
            m = random_matrix(rng, n)
            assert np.abs(dct2(m) - dct2_reference(m)).max() < 1e-9

    @pytest.mark.parametrize("n", LARGE_SIDES)
    def test_agrees_with_reference_large(self, n):
        rng = np.random.default_rng(100 + n)
        m = random_matrix(rng, n)
        assert np.abs(dct2(m) - dct2_reference(m)).max() < 1e-9

    def test_agrees_on_signed_input(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((16, 16)) * 100.0
        assert np.abs(dct2(m) - dct2_reference(m)).max() < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(5)
        a, b = random_matrix(rng, 8), random_matrix(rng, 8)
        lhs = dct2(2.5 * a - 1.25 * b)
        rhs = 2.5 * dct2(a) - 1.25 * dct2(b)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(6)
        for n in (4, 10, 32, 40):
            m = random_matrix(rng, n)
            energy_in = float(np.sum(m * m))
            energy_out = float(np.sum(dct2(m) ** 2))
            assert abs(energy_in - energy_out) / energy_in < 1e-6

    def test_dc_positive_for_nonnegative_input(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 20))
            m = np.zeros((n, n))
            m[rng.integers(0, n), rng.integers(0, n)] = float(rng.integers(1, 256))
            assert dct2(m)[0, 0] > 0.0

    def test_accepts_pixel_matrix(self):
        pm = layout_matrix(Sequence("s", "ACGTACGTACGTACGT"))
        out = dct2(pm)
        assert out.shape == (4, 4)
        assert np.abs(out - dct2(pm.cells.astype(float))).max() == 0.0

    def test_batch_equals_loop(self):
        rng = np.random.default_rng(8)
        for n in (10, 40):  # one small and one large side
            stack = rng.uniform(0, 255, size=(24, n, n))
            batch = dct2(stack)
            loop = np.stack([dct2(stack[i]) for i in range(stack.shape[0])])
            assert np.array_equal(batch, loop)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            dct2(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            dct2(np.zeros(9))
        with pytest.raises(ValueError):
            dct2(np.zeros((1, 1)))


class TestInverse:
    def test_pinned_example(self):
        out = idct2(np.array([[126.0, 0.0], [0.0, 0.0]]))
        assert np.allclose(out, np.full((2, 2), 63.0), atol=1e-12)

    def test_zeros(self):
        assert np.all(idct2(np.zeros((5, 5))) == 0.0)

    @pytest.mark.parametrize("n", SMALL_SIDES + LARGE_SIDES)
    def test_round_trip(self, n):
        rng = np.random.default_rng(50 + n)
        for _ in range(6):
            m = random_matrix(rng, n)
            assert np.abs(idct2(dct2(m)) - m).max() < 1e-9

    def test_round_trip_on_real_layouts(self):
        rng = np.random.default_rng(51)
        for length in (16, 100, 1000):
            bases = "".join("ATCG"[i] for i in rng.integers(0, 4, size=length))
            pm = layout_matrix(Sequence("s", bases))
            back = idct2(dct2(pm))
            assert np.abs(back - pm.cells).max() < 1e-9


class TestReference:
    def test_reference_constant_matrix(self):
        out = dct2_reference(np.full((4, 4), 255.0))
        assert abs(out[0, 0] - 1020.0) < 1e-9
        ac = out.copy()
        ac[0, 0] = 0.0
        assert np.abs(ac).max() < 1e-9  # naive float sums leave tiny residue

    def test_reference_rejects_stacks(self):
        with pytest.raises(ValueError):
            dct2_reference(np.zeros((2, 3, 3)))
