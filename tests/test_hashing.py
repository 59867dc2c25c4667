"""Sign rule, bit selection, hash objects and Hamming comparison."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import dnaphash.hashing
from dnaphash import (
    ZERO_TOL,
    PerceptualHash,
    SelectionStrategy,
    Sequence,
    SequenceTooShort,
    StrategyMismatch,
    StrategyTooLarge,
    WidthMismatch,
    compute_hash,
    dct2_reference,
    hamming,
    hash_codes,
    layout_matrix,
    select_bits,
    sign_map,
    snap_zeros,
    zigzag_positions,
)
from dnaphash.hashing import (
    MAX_WIDTH,
    STRATEGY_KINDS,
    _base_offset,
    _hash_records,
    _hash_rows,
    _weights,
)
from dnaphash.sequence import CODE_TO_INTENSITY, codes_from_bases, matrix_dim
from dnaphash.simulate import generate_sequence, sequence_rng
from dnaphash.transform import basis_rows

from reference_vectors import (
    FROZEN_256BP_BLOCK64_HEX,
    FROZEN_256BP_SKIPDC32_HEX,
    FROZEN_256BP_ZIGZAG32_HEX,
    WORKED_COEFF_GRID,
    WORKED_HASH,
    WORKED_PAIR,
    WORKED_PAIR_DISTANCE,
    WORKED_SIGN_GRID,
    WORKED_SIGN_GRID_FAITHFUL_ROWS,
)

BLOCK64 = SelectionStrategy("block", 64)
ZIGZAG32 = SelectionStrategy("zigzag", 32)

# The canonical 8x8 zigzag traversal as flat indices, as used by JPEG.
JPEG_ZIGZAG_8 = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
]


def _both_paths():
    """Yield with every record forced through the kernel's product path, then its matrix path."""
    try:
        for macs in (1 << 62, 0):
            with mock.patch.object(dnaphash.hashing, "_GEMM_MAX_MACS", macs):
                yield
    finally:
        _weights.cache_clear()  # the weights of long records are large


class TestSignMap:
    def test_pinned_matrix(self):
        out = sign_map(np.array([[126.0, 0.0], [0.0, 0.0]]))
        assert out.tolist() == [[1, 0], [0, 0]]

    def test_strictly_positive_rule(self):
        out = sign_map(np.array([[-1e-12, 5.0], [-3.0, 0.0]]))
        assert out.tolist() == [[0, 1], [0, 0]]

    def test_denormal_is_positive(self):
        assert sign_map(np.array([[5e-324, -5e-324], [0.0, 1.0]])).tolist() == [[1, 0], [0, 1]]

    def test_worked_example_faithful_rows(self):
        # rows of the transcribed sign grid that survived transcription
        # match the sign rule cell-for-cell; row 3 all but its last cell
        got = sign_map(np.array(WORKED_COEFF_GRID))
        want = np.array(WORKED_SIGN_GRID)
        for r in WORKED_SIGN_GRID_FAITHFUL_ROWS:
            assert got[r].tolist() == want[r].tolist(), f"row {r}"
        assert got[3, :16].tolist() == want[3, :16].tolist()

    def test_worked_example_64_bit_readout(self):
        # the separately transcribed 64-bit string equals the sign of the
        # grid's top-left 8x8 region, read row-major
        got = sign_map(np.array(WORKED_COEFF_GRID))[:8, :8].ravel()
        assert "".join(str(b) for b in got) == WORKED_HASH.replace(" ", "")


class TestZeroBand:
    def test_snap_zeros_band(self):
        vals = np.array([[5e-8, -5e-8], [1e-6, -1e-6]])
        out = snap_zeros(vals)
        assert out.tolist() == [[0.0, 0.0], [1e-6, -1e-6]]
        assert vals[0, 0] == 5e-8  # the input is not modified
        assert snap_zeros([[ZERO_TOL, -ZERO_TOL]]).tolist() == [[0.0, 0.0]]

    def test_structural_zero_bits_read_as_zero(self):
        # every column of this layout is identical, so each coefficient in
        # columns v > 0 is zero by symmetry; the kernel renders such zeros
        # as tiny noise of arbitrary sign, and the pipeline must still
        # report bit 0 for them
        seq = Sequence("s", "AAAATTTTCCCCGGGG")
        h = compute_hash(seq, SelectionStrategy("block", 4))
        assert h.bits == (1, 0, 0, 0)
        strat = SelectionStrategy("zigzag", 16)
        z = compute_hash(seq, strat)
        for bit, (i, j) in zip(z.bits, strat.positions(4)):
            if j > 0:
                assert bit == 0, (i, j)

    def test_batch_path_applies_the_same_band(self):
        codes = codes_from_bases("AAAATTTTCCCCGGGG")[None]
        packed = hash_codes(codes, SelectionStrategy("block", 4))
        assert np.unpackbits(packed[0])[:4].tolist() == [1, 0, 0, 0]


class TestZigzag:
    def test_dim_must_be_positive(self):
        with pytest.raises(ValueError, match="dim must be positive"):
            zigzag_positions(0)

    def test_dim_2(self):
        assert zigzag_positions(2) == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_dim_3(self):
        assert zigzag_positions(3) == (
            (0, 0), (0, 1), (1, 0), (2, 0), (1, 1), (0, 2), (1, 2), (2, 1), (2, 2)
        )

    def test_dim_8_matches_jpeg_table(self):
        flat = [i * 8 + j for i, j in zigzag_positions(8)]
        assert flat == JPEG_ZIGZAG_8

    @pytest.mark.parametrize("dim", [2, 3, 5, 10, 16])
    def test_is_a_permutation(self, dim):
        pos = zigzag_positions(dim)
        assert len(pos) == dim * dim
        assert len(set(pos)) == dim * dim

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_positions_are_a_prefix_of_the_full_walk(self, kind):
        # every fitting k through dim 24; above it every 37th k and the last
        skip = 1 if kind == "zigzag_skip_dc" else 0
        for dim in range(1, 65):
            full = zigzag_positions(dim)
            if kind == "block":
                ks = [side * side for side in range(1, dim + 1)]
            else:
                last = min(dim * dim - skip, MAX_WIDTH)
                ks = range(1, last + 1) if dim <= 24 else [*range(1, last + 1, 37), last]
            for k in ks:
                pos = SelectionStrategy(kind, k).positions(dim)
                if kind == "block":
                    side = math.isqrt(k)
                    assert pos == tuple(divmod(n, side) for n in range(k))
                else:
                    assert pos == full[skip:skip + k]
            if kind != "block" and dim * dim - skip < MAX_WIDTH:
                with pytest.raises(StrategyTooLarge):
                    SelectionStrategy(kind, dim * dim - skip + 1).positions(dim)


class TestStrategy:
    def test_block_positions(self):
        pos = SelectionStrategy("block", 4).positions(16)
        assert pos == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_block_requires_square_k(self):
        with pytest.raises(ValueError):
            SelectionStrategy("block", 32)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SelectionStrategy("spiral", 16)

    @pytest.mark.parametrize("k", [0, -4, 4097])
    def test_width_bounds(self, k):
        with pytest.raises(ValueError):
            SelectionStrategy("zigzag", k)

    def test_block_too_large(self):
        with pytest.raises(StrategyTooLarge):
            SelectionStrategy("block", 64).positions(4)

    def test_zigzag_too_large(self):
        with pytest.raises(StrategyTooLarge):
            SelectionStrategy("zigzag", 17).positions(4)
        SelectionStrategy("zigzag", 16).positions(4)  # boundary fits

    def test_skip_dc_needs_one_extra_cell(self):
        with pytest.raises(StrategyTooLarge):
            SelectionStrategy("zigzag_skip_dc", 16).positions(4)
        pos = SelectionStrategy("zigzag_skip_dc", 15).positions(4)
        assert pos[0] == (0, 1)
        assert (0, 0) not in pos

    def test_min_dim_is_where_positions_starts_to_fit(self):
        for kind in STRATEGY_KINDS:
            for k in range(1, MAX_WIDTH + 1):
                if kind == "block" and math.isqrt(k) ** 2 != k:
                    continue
                strategy = SelectionStrategy(kind, k)
                assert len(strategy.positions(strategy.min_dim)) == k
                with pytest.raises(StrategyTooLarge):
                    strategy.positions(strategy.min_dim - 1)

    @pytest.mark.parametrize("strategy, shortest", [
        (BLOCK64, 50), (ZIGZAG32, 26), (SelectionStrategy("zigzag_skip_dc", 32), 26),
        (SelectionStrategy("block", 16), 10)])
    def test_shortest_record_that_fits(self, strategy, shortest):
        assert (strategy.min_dim - 1) ** 2 + 1 == shortest
        hash_codes(np.zeros((1, shortest), dtype=np.uint8), strategy)
        with pytest.raises(StrategyTooLarge):
            hash_codes(np.zeros((1, shortest - 1), dtype=np.uint8), strategy)

    @pytest.mark.parametrize("strategy, dim, text", [
        (BLOCK64, 7, "block side 8 does not fit a 7x7 matrix"),
        (ZIGZAG32, 5, "zigzag selection of 32 bits needs 32 cells, but a 5x5 matrix has 25"),
        (SelectionStrategy("zigzag_skip_dc", 32), 5,
         "zigzag_skip_dc selection of 32 bits needs 33 cells, but a 5x5 matrix has 25"),
        (ZIGZAG32, 0, "zigzag selection of 32 bits needs 32 cells, but a 0x0 matrix has 0")])
    def test_too_large_texts(self, strategy, dim, text):
        with pytest.raises(StrategyTooLarge) as info:
            strategy.positions(dim)
        assert str(info.value) == text


class TestSelectBits:
    def test_block_readout(self):
        signs = np.array([[1, 0], [0, 0]], dtype=np.uint8)
        h = select_bits(signs, SelectionStrategy("block", 4))
        assert h.bits == (1, 0, 0, 0)
        assert h.to_hex() == "8"

    def test_skip_dc_readout(self):
        signs = np.array([[1, 0], [0, 0]], dtype=np.uint8)
        h = select_bits(signs, SelectionStrategy("zigzag_skip_dc", 3))
        assert h.bits == (0, 0, 0)

    def test_block64_is_top_left_8x8_row_major(self):
        rng = np.random.default_rng(0)
        signs = rng.integers(0, 2, size=(16, 16)).astype(np.uint8)
        h = select_bits(signs, BLOCK64)
        assert h.bits == tuple(int(b) for b in signs[:8, :8].ravel())

    def test_zigzag_prefix_property(self):
        rng = np.random.default_rng(1)
        signs = rng.integers(0, 2, size=(10, 10)).astype(np.uint8)
        for kind in ("zigzag", "zigzag_skip_dc"):
            short = select_bits(signs, SelectionStrategy(kind, 24))
            long = select_bits(signs, SelectionStrategy(kind, 32))
            assert long.bits[:24] == short.bits


class TestPerceptualHash:
    def test_hex_rendering_width(self):
        h = PerceptualHash.from_bits([1] + [0] * 63, BLOCK64)
        assert h.to_hex() == "8000000000000000"
        assert len(h.to_hex()) == 16
        assert str(h) == h.to_hex()

    def test_hex_is_lowercase(self):
        h = PerceptualHash.from_bits([1] * 64, BLOCK64)
        assert h.to_hex() == "f" * 16

    def test_odd_width_rendering(self):
        h = PerceptualHash.from_bits([1, 0, 0, 1, 1], SelectionStrategy("zigzag", 5))
        assert h.to_hex() == "98"  # 10011 packs to byte 10011000, 2 hex digits
        assert h.bits == (1, 0, 0, 1, 1)

    def test_from_hex_round_trip(self):
        h = PerceptualHash.from_hex("c53ba031", ZIGZAG32)
        assert h.to_hex() == "c53ba031"
        assert PerceptualHash.from_bits(h.bits, ZIGZAG32) == h

    def test_from_binary_string_ignores_whitespace(self):
        h = PerceptualHash.from_binary_string("1000 1111", SelectionStrategy("zigzag", 8))
        assert h.to_hex() == "8f"

    def test_padding_bits_must_be_zero(self):
        with pytest.raises(ValueError):
            PerceptualHash(data=b"\x81", strategy=SelectionStrategy("zigzag", 4))

    def test_wrong_payload_size(self):
        with pytest.raises(ValueError):
            PerceptualHash(data=b"\x00", strategy=BLOCK64)

    def test_bit_values_validated(self):
        with pytest.raises(ValueError):
            PerceptualHash.from_bits([2, 0, 0, 0], SelectionStrategy("block", 4))

    @pytest.mark.parametrize("bits", [
        [0.5, 1, 0, 1], [1.9, 0, 0, 1], [-1, 0, 0, 1], [256, 0, 0, 1], ["0", "1", "0", "1"],
        [float("nan"), 0, 0, 1]])
    def test_bits_checked_before_the_cast(self, bits):
        # a cast to uint8 would read 0.5 as 0, 1.9 as 1 and wrap 256 to 0
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            PerceptualHash.from_bits(bits, SelectionStrategy("block", 4))

    @pytest.mark.parametrize("bits", [
        [1, 0, 0, 1], [True, False, False, True], [1.0, 0.0, 0.0, 1.0],
        np.array([1, 0, 0, 1], dtype=np.uint8)])
    def test_bits_of_any_numeric_type(self, bits):
        assert PerceptualHash.from_bits(bits, SelectionStrategy("block", 4)).to_hex() == "9"

    def test_bit_count_checked(self):
        with pytest.raises(ValueError, match="expected 4 bits, got 3"):
            PerceptualHash.from_bits([1, 0, 1], SelectionStrategy("block", 4))

    def test_negative_source_len(self):
        with pytest.raises(ValueError, match="source_len cannot be negative"):
            PerceptualHash(data=b"\x80", strategy=SelectionStrategy("block", 4), source_len=-1)

    def test_binary_string_rejects_other_characters(self):
        with pytest.raises(ValueError, match="may only contain 0, 1 and whitespace"):
            PerceptualHash.from_binary_string("10x1", SelectionStrategy("block", 4))

    def test_hex_digit_count_checked(self):
        with pytest.raises(ValueError, match="32-bit hash renders as 8 hex digits, got 7"):
            PerceptualHash.from_hex("c53ba03", ZIGZAG32)

    def test_to_binary_string(self):
        h = PerceptualHash.from_bits([1, 0, 0, 1, 1], SelectionStrategy("zigzag", 5))
        assert h.to_binary_string() == "10011"
        assert PerceptualHash.from_binary_string(h.to_binary_string(), h.strategy) == h


class TestComputeHash:
    def test_constant_sequence_degenerate_hash(self):
        h = compute_hash(Sequence("s", "A" * 16), SelectionStrategy("block", 4))
        assert h.bits == (1, 0, 0, 0)
        assert h.to_hex() == "8"
        assert h.source_len == 16

    def test_constant_sequences_collide(self):
        strat = SelectionStrategy("block", 4)
        a = compute_hash(Sequence("s", "A" * 16), strat)
        t = compute_hash(Sequence("s", "T" * 16), strat)
        assert a.data == t.data
        assert hamming(a, t) == 0

    def test_constant_collision_any_length(self):
        # same-length single-base sequences always produce one hash: the
        # matrix is a positive scalar times one shared pattern, and positive
        # scaling never flips a sign
        for length in (100, 1000, 4096):
            hashes = {compute_hash(Sequence("s", b * length), ZIGZAG32).to_hex()
                      for b in "ATCG"}
            assert len(hashes) == 1, length

    def test_degenerate_pattern_when_unpadded(self):
        # perfect-square lengths fill the matrix exactly, so the image is
        # uniform and every AC sign bit is 0
        for length in (100, 256, 10000):
            h = compute_hash(Sequence("s", "C" * length), ZIGZAG32)
            assert h.bits == (1,) + (0,) * 31, length

    def test_first_bit_always_set(self):
        rng = sequence_rng(77, 0)
        for _ in range(30):
            n = int(rng.integers(64, 400))
            seq = generate_sequence(n, rng, id="s")
            for strat in (SelectionStrategy("block", 16), ZIGZAG32):
                assert compute_hash(seq, strat).bits[0] == 1

    def test_deterministic(self):
        seq = Sequence("s", "ACGTTGCA" * 32)
        a = compute_hash(seq, BLOCK64)
        b = compute_hash(seq, BLOCK64)
        assert a == b and a.data == b.data

    def test_frozen_hashes(self):
        seq = generate_sequence(256, sequence_rng(2024, 0), id="pin")
        for _ in _both_paths():
            assert compute_hash(seq, BLOCK64).to_hex() == FROZEN_256BP_BLOCK64_HEX
            assert compute_hash(seq, ZIGZAG32).to_hex() == FROZEN_256BP_ZIGZAG32_HEX
            skip = SelectionStrategy("zigzag_skip_dc", 32)
            assert compute_hash(seq, skip).to_hex() == FROZEN_256BP_SKIPDC32_HEX

    def test_sequence_too_short_for_strategy(self):
        with pytest.raises(StrategyTooLarge):
            compute_hash(Sequence("s", "ACGTACGTACGTACGT"), BLOCK64)

    def test_hash_width_in_bytes(self):
        seq = Sequence("s", "ACGT" * 64)
        assert len(compute_hash(seq, ZIGZAG32).data) == 4
        assert len(compute_hash(seq, BLOCK64).data) == 8


class TestBatchPath:
    def test_stack_matches_compute_hash(self):
        rng = sequence_rng(9, 0)
        strat = BLOCK64
        seqs = [generate_sequence(100, rng, id=f"s{i}") for i in range(40)]
        codes = np.stack([codes_from_bases(s.bases) for s in seqs])
        packed = hash_codes(codes, strat)
        for row, seq in zip(packed, seqs):
            expected = compute_hash(seq, strat)
            assert row.tobytes() == expected.data

    @pytest.mark.parametrize("strategy", [SelectionStrategy("block", 4), SelectionStrategy("zigzag", 16),
                                          SelectionStrategy("zigzag_skip_dc", 15), BLOCK64])
    def test_one_row_product_matches_the_matrix_path(self, strategy):
        # compute_hash hashes a short sequence without the kernel's chunks
        rng = np.random.default_rng(strategy.k)
        for length in range(max(4, strategy.k), 12_800 // strategy.k + 1, 7):
            for bases in ("C" * length, "".join("ATCG"[c] for c in rng.integers(0, 4, length))):
                one = compute_hash(Sequence("s", bases), strategy).data
                with mock.patch.object(dnaphash.hashing, "_GEMM_MAX_MACS", 0):
                    assert one == hash_codes(codes_from_bases(bases)[None], strategy).tobytes()

    def test_select_bits_needs_a_square_matrix(self):
        with pytest.raises(ValueError, match=r"expected a square sign matrix, got shape \(2, 3\)"):
            select_bits(np.zeros((2, 3), dtype=np.uint8), SelectionStrategy("block", 4))

    def test_rows_under_min_length(self):
        with pytest.raises(SequenceTooShort, match="3 bp cannot fill a 4-cell matrix"):
            hash_codes(np.zeros((1, 3), dtype=np.uint8), SelectionStrategy("block", 1))

    def test_stack_shape_validated(self):
        with pytest.raises(ValueError):
            hash_codes(np.zeros(16, dtype=np.uint8), ZIGZAG32)
        with pytest.raises(ValueError):
            hash_codes(np.zeros((2, 4, 4), dtype=np.uint8), ZIGZAG32)


def _reference_signs(bases):
    """The step-by-step pipeline over the O(N^4) literal transform, up to the sign map."""
    return sign_map(snap_zeros(dct2_reference(layout_matrix(Sequence("ref", bases)))))


def _widest_strategies(dim):
    """One strategy of each kind, each reading as many cells as fit (up to 64)."""
    side = min(dim, 8)
    return (
        SelectionStrategy("block", side * side),
        SelectionStrategy("zigzag", min(dim * dim, 64)),
        SelectionStrategy("zigzag_skip_dc", min(dim * dim - 1, 64)),
    )


def _near_square_cases(dim):
    """(codes, reference signs, contents) at near-square lengths that lay out at side ``dim``.

    The lengths are one past the previous square, one short of this one,
    and exactly this one. Constant and row-periodic layouts carry the
    structural zeros the band must decide; one random layout per side (its
    length rotates) keeps the O(N^4) oracle affordable.
    """
    lengths = sorted({max(4, (dim - 1) ** 2 + 1), max(4, dim * dim - 1), dim * dim})
    rng = np.random.default_rng(dim)
    row = ("ACGTTGCA" * dim)[:dim]
    for i, length in enumerate(lengths):
        contents = ["ATCG"[length % 4] * length, (row * (dim + 1))[:length]]
        if i == dim % len(lengths):
            contents.append("".join("ATCG"[c] for c in rng.integers(0, 4, length)))
        codes = np.stack([codes_from_bases(b) for b in contents])
        yield codes, [_reference_signs(b) for b in contents], contents


def _assert_matches_reference(got, signs, contents, strategy):
    for packed, sign, bases in zip(got, signs, contents):
        assert packed.tobytes() == select_bits(sign, strategy).data, \
            (len(bases), strategy, bases[:12])


class TestKernelProperty:
    @pytest.mark.parametrize("dim", range(2, 65))
    def test_matches_reference_pipeline(self, dim):
        for codes, signs, contents in _near_square_cases(dim):
            for _ in _both_paths():
                for strategy in _widest_strategies(dim):
                    got = hash_codes(codes, strategy)
                    _assert_matches_reference(got, signs, contents, strategy)

    @pytest.mark.parametrize("dim", range(2, 41))
    def test_row_blocks_match_reference_pipeline(self, dim):
        # A workspace smaller than one matrix sends every record of the matrix
        # path through the row blocks; it holds blocks of 1, 2 and dim - 1 rows.
        for codes, signs, contents in _near_square_cases(dim):
            for height in sorted({1, 2, dim - 1}):
                with mock.patch.object(dnaphash.hashing, "_WORKSPACE_CELLS", height * dim), \
                        mock.patch.object(dnaphash.hashing, "_GEMM_MAX_MACS", 0):
                    for strategy in _widest_strategies(dim):
                        got = hash_codes(codes, strategy)
                        _assert_matches_reference(got, signs, contents, strategy)
            # blocks of one row, set by the size of one product alone
            with mock.patch.object(dnaphash.hashing, "_BLAS_ONE_THREAD", 1), \
                    mock.patch.object(dnaphash.hashing, "_GEMM_MAX_MACS", 0):
                for strategy in _widest_strategies(dim):
                    _assert_matches_reference(hash_codes(codes, strategy), signs, contents, strategy)

    def test_gray_levels_are_affine_in_the_code(self):
        # the kernel casts codes and adds the constant 63 back as an offset
        assert CODE_TO_INTENSITY.tolist() == [63 + 64 * code for code in range(4)]

    @pytest.mark.parametrize("dim", [2, 3, 5, 10, 33])
    def test_base_offset_is_the_transform_of_63_on_base_cells(self, dim):
        for length in (dim * dim - 1, dim * dim, dim * dim + 1):
            if length < 4:
                continue
            side = matrix_dim(length)
            m0 = np.zeros(side * side)
            m0[:length] = 63
            for strategy in _widest_strategies(side):
                pos = strategy.positions(side)
                rows, cols = [p[0] for p in pos], [p[1] for p in pos]
                left, right = basis_rows(side, max(rows) + 1), basis_rows(side, max(cols) + 1).T
                want = (left @ m0.reshape(side, side) @ right)[rows, cols]
                got = _base_offset(strategy, length)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_batch_equals_one_row_calls_across_chunks(self):
        # a side whose chunk holds a few rows, so the batch spans chunk ends
        length = 300 * 300 - 7  # pad cells too
        from dnaphash.hashing import _WORKSPACE_CELLS

        per_chunk = _WORKSPACE_CELLS // (300 * 300)
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 4, size=(2 * per_chunk + 3, length), dtype=np.uint8)
        codes[per_chunk] = 2  # a constant row right at a chunk start
        for strategy in (BLOCK64, ZIGZAG32, SelectionStrategy("zigzag_skip_dc", 32)):
            batch = hash_codes(codes, strategy)
            singles = np.concatenate([hash_codes(codes[i:i + 1], strategy)
                                      for i in range(codes.shape[0])])
            assert np.array_equal(batch, singles)

    @pytest.mark.parametrize("length,strategy,count", [
        (100, BLOCK64, 20_000), (1000, ZIGZAG32, 2000), (10_000, BLOCK64, 100),
        # one record above the workspace is laid out a block of rows at a time
        (1_000_000, BLOCK64, 1), (1_000_000, ZIGZAG32, 1),
        (300_001, SelectionStrategy("zigzag_skip_dc", 100), 1),
        # products of many short rows, and of the longest rows
        (36, SelectionStrategy("block", 16), 50_000), (12_800, SelectionStrategy("zigzag", 1), 300)])
    def test_workspace_bounds_every_intermediate(self, length, strategy, count):
        from dnaphash.hashing import _WORKSPACE_CELLS

        codes = np.random.default_rng(length).integers(0, 4, size=(count, length), dtype=np.uint8)
        hash_codes(codes[:1], strategy)  # the cached basis rows are not workspace
        tracemalloc.start()
        try:
            out = hash_codes(codes, strategy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 1.5 * 8 * _WORKSPACE_CELLS

    @pytest.mark.parametrize("length,strategy,count", [
        (100, BLOCK64, 20_000), (1000, ZIGZAG32, 2000), (10_000, BLOCK64, 100),
        (1_000_000, ZIGZAG32, 2), (300_001, SelectionStrategy("zigzag_skip_dc", 100), 2),
        (36, SelectionStrategy("block", 16), 50_000), (12_800, SelectionStrategy("zigzag", 1), 300)])
    def test_workspace_bounds_gathered_rows(self, length, strategy, count):
        # shuffled, overlapping windows of one parent: every kernel chunk is a gather
        from dnaphash.hashing import _WORKSPACE_CELLS

        rng = np.random.default_rng(length)
        codes = rng.integers(0, 4, size=length + count, dtype=np.uint8)
        starts = rng.permutation(count + 1)[:count]
        lengths = np.full(count, length)
        _hash_records(starts[:1], lengths[:1], codes, strategy)  # cached basis rows
        tracemalloc.start()
        try:
            out = _hash_records(starts, lengths, codes, strategy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 1.5 * 8 * _WORKSPACE_CELLS

    @pytest.mark.parametrize("cells", [1 << 18, 1200, 10, 20, 90])
    def test_take_matches_stacked_copies(self, cells):
        # Chunks of hundreds of rows, then of a few rows; then chunks of one
        # row, which the matrix path lays out in blocks of 1, 2 and 9 rows.
        length = 100
        rng = np.random.default_rng(5)
        codes = rng.integers(0, 4, size=1000, dtype=np.uint8)
        codes[300:500] = 1  # constant windows carry structural zeros
        last = codes.size - length
        take = np.concatenate([rng.integers(0, last + 1, size=2000),  # unsorted, overlapping
                               [last, 7, 7, 0, last, 350, 350]])  # repeated, the last code
        stacked = np.stack([codes[t:t + length] for t in take])
        for strategy in _widest_strategies(matrix_dim(length)):
            want = hash_codes(stacked, strategy)
            for _ in _both_paths():
                with mock.patch.object(dnaphash.hashing, "_WORKSPACE_CELLS", cells):
                    got = _hash_rows(sliding_window_view(codes, length), take, strategy)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("dim", range(8, 35))
    def test_noise_on_constant_square_layouts(self, dim):
        # Every AC coefficient of a uniform image is zero. Moving the sign
        # test to +1e-9 and to -1e-9 shows each path's noise in every cell
        # below 1e-9: at +1e-9 only the DC bit is set, at -1e-9 every bit.
        strategy = SelectionStrategy("zigzag", dim * dim)
        codes = np.repeat(np.arange(4, dtype=np.uint8)[:, None], dim * dim, axis=1)
        first = np.zeros(dim * dim, dtype=np.uint8)
        first[0] = 1
        for _ in _both_paths():
            for tol, bits in ((1e-9, first), (-1e-9, np.ones(dim * dim, dtype=np.uint8))):
                with mock.patch.object(dnaphash.hashing, "ZERO_TOL", tol):
                    got = hash_codes(codes, strategy)
                assert np.array_equal(got, np.tile(np.packbits(bits), (4, 1))), tol

    @pytest.mark.parametrize("dim", range(8, 35))
    def test_noise_of_one_row_on_constant_square_layouts(self, dim):
        # The same spy on rows hashed one at a time, which skip the chunk loop.
        strategy = SelectionStrategy("zigzag", dim * dim)
        first = np.zeros(dim * dim, dtype=np.uint8)
        first[0] = 1
        for _ in _both_paths():
            for tol, bits in ((1e-9, first), (-1e-9, np.ones(dim * dim, dtype=np.uint8))):
                for code in range(4):
                    with mock.patch.object(dnaphash.hashing, "ZERO_TOL", tol):
                        got = hash_codes(np.full((1, dim * dim), code, dtype=np.uint8), strategy)
                    assert got.tobytes() == np.packbits(bits).tobytes(), (tol, code)

    @pytest.mark.parametrize("strategy", [SelectionStrategy("block", 16), ZIGZAG32,
                                          SelectionStrategy("zigzag_skip_dc", 31)])
    def test_one_row_equals_batch_rows_across_the_bounds(self, strategy):
        # A batch of one row is one product; the same rows in a batch of four
        # take the chunk loop. Lengths one short of, at and past the product
        # bound; then, on the matrix path, workspaces and thread bounds one
        # cell short of and exactly one block of rows.
        bound = dnaphash.hashing._GEMM_MAX_MACS // strategy.k
        rng = np.random.default_rng(strategy.k)
        for length in (bound - 1, bound, bound + 1, 99, 100):
            contents = ["T" * length, ("ACGTTGCA" * length)[:length], ("GGCA" * length)[:length],
                        "".join("ATCG"[c] for c in rng.integers(0, 4, length))]
            codes = np.stack([codes_from_bases(b) for b in contents])
            signs = [_reference_signs(b) for b in contents]
            dim = matrix_dim(length)
            r = max(p[0] for p in strategy.positions(dim)) + 1
            limits = [{"_WORKSPACE_CELLS": dnaphash.hashing._WORKSPACE_CELLS},
                      {"_WORKSPACE_CELLS": dim * dim + r * dim}, {"_WORKSPACE_CELLS": dim * (dim - 1)},
                      {"_BLAS_ONE_THREAD": r * dim * dim}, {"_BLAS_ONE_THREAD": r * dim * dim - 1}]
            for _ in _both_paths():
                for bounds in limits:
                    with mock.patch.multiple(dnaphash.hashing, **bounds):
                        batch = hash_codes(codes, strategy)
                        rows = [hash_codes(row[None], strategy) for row in codes]
                        ones = [compute_hash(Sequence("s", b), strategy).data for b in contents]
                    _assert_matches_reference(batch, signs, contents, strategy)
                    assert [row.tobytes() for row in rows] == ones == [row.tobytes() for row in batch]

    @pytest.mark.parametrize("strategy", [BLOCK64, ZIGZAG32, SelectionStrategy("zigzag_skip_dc", 63)])
    def test_mixed_lengths_across_the_product_bound(self, strategy):
        # Lengths one below, at and one above the last length of the product
        # path, interleaved in one batch, with a constant record.
        bound = dnaphash.hashing._GEMM_MAX_MACS // strategy.k
        rng = np.random.default_rng(bound)
        bases = ["".join("ATCG"[c] for c in rng.integers(0, 4, length))
                 for length in [bound - 1, bound, bound + 1] * 3]
        bases[4] = "G" * bound
        codes = np.concatenate([codes_from_bases(b) for b in bases])
        lengths = np.array([len(b) for b in bases])
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        got = _hash_records(starts, lengths, codes, strategy)
        for row, b in zip(got, bases):
            assert row.tobytes() == compute_hash(Sequence("s", b), strategy).data
            assert row.tobytes() == select_bits(_reference_signs(b), strategy).data, len(b)

    @pytest.mark.parametrize("codes", [
        np.array([[0, 1, 2, 256] * 25], dtype=np.int64),
        np.array([[0, 1, 2, -256] * 25], dtype=np.int64),
        np.array([[0, 1, 2, 1.9] * 25])])
    def test_rejects_codes_before_casting(self, codes):
        # a cast to uint8 would wrap 256 and -256 to 0 and truncate 1.9 to 1
        with pytest.raises(ValueError, match="base codes must"):
            hash_codes(codes, BLOCK64)

    def test_empty_batch(self):
        assert hash_codes(np.zeros((0, 100), dtype=np.uint8), BLOCK64).shape == (0, 8)

    def test_rejects_bad_codes(self):
        with pytest.raises(ValueError):
            hash_codes(np.full((1, 16), 4, dtype=np.uint8), ZIGZAG32)
        with pytest.raises(StrategyTooLarge):
            hash_codes(np.zeros((1, 16), dtype=np.uint8), BLOCK64)


class TestHamming:
    def test_worked_pair(self):
        a = PerceptualHash.from_binary_string(WORKED_PAIR[0], BLOCK64)
        b = PerceptualHash.from_binary_string(WORKED_PAIR[1], BLOCK64)
        assert hamming(a, b) == WORKED_PAIR_DISTANCE

    def test_identity_and_complement(self):
        bits = [1, 0] * 32
        a = PerceptualHash.from_bits(bits, BLOCK64)
        b = PerceptualHash.from_bits([1 - v for v in bits], BLOCK64)
        assert hamming(a, a) == 0
        assert hamming(a, b) == 64

    def test_width_mismatch(self):
        a = PerceptualHash.from_bits([1] * 32, ZIGZAG32)
        b = PerceptualHash.from_bits([1] * 64, SelectionStrategy("zigzag", 64))
        with pytest.raises(WidthMismatch):
            hamming(a, b)

    def test_strategy_mismatch(self):
        a = PerceptualHash.from_bits([1] + [0] * 63, BLOCK64)
        b = PerceptualHash.from_bits([1] + [0] * 63, SelectionStrategy("zigzag", 64))
        with pytest.raises(StrategyMismatch):
            hamming(a, b)

    def test_source_len_does_not_affect_comparison(self):
        a = PerceptualHash.from_bits([1] * 32, ZIGZAG32, source_len=100)
        b = PerceptualHash.from_bits([1] * 32, ZIGZAG32, source_len=9000)
        assert hamming(a, b) == 0

    def test_metric_properties(self):
        rng = np.random.default_rng(13)
        strat = ZIGZAG32
        for _ in range(200):
            raw = rng.integers(0, 2, size=(3, 32))
            a, b, c = (PerceptualHash.from_bits(r, strat) for r in raw)
            dab, dba = hamming(a, b), hamming(b, a)
            assert dab == dba
            assert 0 <= dab <= 32
            assert (dab == 0) == bool(np.array_equal(raw[0], raw[1]))
            assert hamming(a, c) <= dab + hamming(b, c)

    def test_matches_naive_bit_count(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            x = rng.integers(0, 2, size=64)
            y = rng.integers(0, 2, size=64)
            a = PerceptualHash.from_bits(x, BLOCK64)
            b = PerceptualHash.from_bits(y, BLOCK64)
            assert hamming(a, b) == int(np.sum(x != y))
