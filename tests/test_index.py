"""On-disk index round trips, corruption handling, and query correctness."""

import io
import logging
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dnaphash.hashing
import dnaphash.index

from dnaphash import (
    BadMagic,
    ChecksumMismatch,
    DuplicateId,
    HashIndex,
    IndexFormatError,
    KOutOfRange,
    PerceptualHash,
    SelectionStrategy,
    Sequence,
    StrategyMismatch,
    StrategyTooLarge,
    TruncatedFile,
    UnsupportedVersion,
    WidthMismatch,
    build_index,
    compute_hash,
    hamming,
    hash_codes,
    index_bytes,
    load_index,
    query,
    query_topk,
    save_index,
)
from dnaphash.sequence import matrix_dim
from dnaphash.simulate import generate_sequence, sequence_rng
from window_oracle import expand_windows

BLOCK64 = SelectionStrategy("block", 64)
ZIGZAG32 = SelectionStrategy("zigzag", 32)


def _random_sequences(n, length, seed=0):
    rng = sequence_rng(seed, 0)
    return [generate_sequence(length, rng, id=f"s{i:04d}") for i in range(n)]


def _random_index(n, strategy, seed=0, length=100):
    return build_index(_random_sequences(n, length, seed), strategy)


def _index_of(strategy, pairs):
    """An index holding the given (id, PerceptualHash) pairs, in order."""
    ids, hashes = zip(*pairs)
    return HashIndex.from_hashes(strategy, ids, hashes)


def _hash_at(index, i):
    """Record i of an index as a PerceptualHash (its source length included)."""
    nbytes = (index.width + 7) // 8
    return PerceptualHash(data=index.hashes[i, :nbytes].tobytes(), strategy=index.strategy,
                          source_len=int(index.source_len[i]))


def _records(index):
    """Every record as an (id, PerceptualHash) pair, in index order."""
    return [(rid, _hash_at(index, i)) for i, rid in enumerate(index.ids)]


def _save(index, path):
    with open(path, "wb") as fh:
        save_index(index, fh)


def _load(path):
    with open(path, "rb") as fh:
        return load_index(fh)


class TestBuild:
    def test_preserves_input_order_and_hashes(self):
        seqs = _random_sequences(20, 100)
        idx = build_index(seqs, ZIGZAG32)
        assert len(idx) == 20
        for (rid, h), seq in zip(_records(idx), seqs):
            assert rid == seq.id
            assert h == compute_hash(seq, ZIGZAG32)
            assert h.source_len == 100

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_index([], ZIGZAG32)

    def test_duplicate_ids_rejected(self):
        seqs = [Sequence("dup", "ACGT" * 25), Sequence("dup", "TTTT" * 25)]
        with pytest.raises(DuplicateId):
            build_index(seqs, ZIGZAG32)

    def test_mixed_strategy_records_rejected(self):
        a = ("a", PerceptualHash.from_bits([1] * 32, ZIGZAG32))
        b = ("b", PerceptualHash.from_bits([0] * 32, SelectionStrategy("zigzag_skip_dc", 32)))
        with pytest.raises(StrategyMismatch):
            _index_of(ZIGZAG32, (a, b))

    def test_mixed_lengths(self):
        seqs = [Sequence("a", "ACGT" * 30), Sequence("b", "GATTACA" * 40)]
        idx = build_index(seqs, ZIGZAG32)
        assert idx.source_len.tolist() == [120, 280]

    def test_interleaved_lengths_keep_input_order(self):
        rng = sequence_rng(11, 0)
        lengths = (100, 1000, 64, 100, 1025, 64, 1000)
        seqs = [generate_sequence(n, rng, id=f"s{i}") for i, n in enumerate(lengths)]
        idx = build_index(seqs, BLOCK64)
        assert idx.source_len.tolist() == list(lengths)
        for (rid, h), seq in zip(_records(idx), seqs):
            assert rid == seq.id
            assert h == compute_hash(seq, BLOCK64)

    def test_interleaved_lengths_across_kernel_chunks(self):
        # The 20 kbp records sit at uneven starts and outnumber one kernel
        # chunk, which holds fewer than this many matrices of side 142.
        chunk = dnaphash.hashing._WORKSPACE_CELLS // (142 * 142)
        lengths = [(20_000, 20_001, 20_000, 19_999)[i % 4] for i in range(4 * (chunk // 2 + 2))]
        assert lengths.count(20_000) > chunk
        rng = sequence_rng(13, 0)
        seqs = [generate_sequence(n, rng, id=f"s{i}") for i, n in enumerate(lengths)]
        idx = build_index(seqs, BLOCK64)
        assert idx.source_len.tolist() == lengths
        for (rid, h), seq in zip(_records(idx), seqs):
            assert rid == seq.id
            assert h == compute_hash(seq, BLOCK64)

    def test_misfit_names_first_record_in_input_order(self):
        # "short" comes first although "shorter" has the smaller matrix
        seqs = [Sequence("fits", "ACGT" * 25), Sequence("short", "ACGT" * 5),
                Sequence("shorter", "ACGT" * 4), Sequence("short2", "ACGT" * 5)]
        with pytest.raises(StrategyTooLarge, match="record 'short':"):
            build_index(seqs, BLOCK64)


class TestWindows:
    def test_window_ids_and_hashes(self):
        seq = _random_sequences(1, 300, seed=3)[0]
        idx = build_index([seq], ZIGZAG32, window=100, step=100)
        assert idx.ids == (f"{seq.id}:0", f"{seq.id}:100", f"{seq.id}:200")
        for off, (rid, h) in zip((0, 100, 200), _records(idx)):
            assert h == compute_hash(Sequence(rid, seq.bases[off:off + 100]), ZIGZAG32)
        assert idx.source_len.tolist() == [100, 100, 100]

    def test_step_smaller_than_window_overlaps(self):
        seq = Sequence("s", "ACGT" * 50)  # 200 bp
        idx = build_index([seq], ZIGZAG32, window=100, step=50)
        assert idx.ids == ("s:0", "s:50", "s:100")

    def test_tail_shorter_than_window_dropped(self):
        seq = Sequence("s", "A" * 250)
        idx = build_index([seq], ZIGZAG32, window=100, step=100)
        assert idx.ids == ("s:0", "s:100")

    def test_short_sequence_skipped_with_warning(self, caplog):
        seqs = [Sequence("tiny", "ACGTACGT"), Sequence("big", "A" * 100)]
        with caplog.at_level(logging.WARNING):
            idx = build_index(seqs, ZIGZAG32, window=100, step=100)
        assert idx.ids == ("big:0",)
        assert [r.getMessage() for r in caplog.records] == [
            "sequence 'tiny' (8 bp) is shorter than the 100 bp window; skipped"]

    def test_invalid_window_args(self):
        seq = Sequence("s", "A" * 100)
        for kwargs, message in [
            (dict(window=0, step=1), "window must be at least 4 bp"),
            (dict(window=0), "window must be at least 4 bp"),
            (dict(window=10, step=0), "step must be positive"),
            (dict(window=8, step=0), "step must be positive"),
            (dict(step=5), "step only makes sense together with window"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                build_index([seq], ZIGZAG32, **kwargs)

    def test_build_with_window_equals_manual_slices(self):
        seqs = _random_sequences(3, 256, seed=8)
        idx = build_index(seqs, ZIGZAG32, window=64)
        manual = build_index(expand_windows(seqs, window=64, step=64), ZIGZAG32)
        assert index_bytes(idx) == index_bytes(manual)
        assert len(idx) == 12

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_build_equals_expanded_windows(self, data, caplog):
        window = data.draw(st.integers(4, 40), label="window")
        step = data.draw(st.one_of(st.sampled_from([1, window - 1, window, window + 1]),
                                   st.integers(1, 3 * window)), label="step")
        lengths = data.draw(st.lists(st.integers(4, 6 * window), min_size=1, max_size=6),
                            label="lengths")
        dim = matrix_dim(window)
        kind = data.draw(st.sampled_from(["block", "zigzag", "zigzag_skip_dc"]), label="kind")
        if kind == "block":
            k = data.draw(st.integers(1, dim), label="side") ** 2
        else:
            k = data.draw(st.integers(1, dim * dim - 1), label="k")
        strategy = SelectionStrategy(kind, k)
        rng = sequence_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"), 0)
        seqs = [generate_sequence(n, rng, id=f"p{i}") for i, n in enumerate(lengths)]
        short = [s.id for s in seqs if len(s) < window]

        caplog.clear()
        with caplog.at_level(logging.WARNING):
            pieces = list(expand_windows(seqs, window, step))
        assert [r.args[0] for r in caplog.records] == short
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            if not pieces:
                with pytest.raises(ValueError, match="nothing to index"):
                    build_index(seqs, strategy, window=window, step=step)
            else:
                got = build_index(seqs, strategy, window=window, step=step)
                assert index_bytes(got) == index_bytes(build_index(pieces, strategy))
        assert [r.args[0] for r in caplog.records] == short

    def test_misfit_names_first_window(self):
        # the first parent is skipped, so the first window is q:0
        seqs = [Sequence("tiny", "ACGTACGT"), Sequence("q", "ACGT" * 10),
                Sequence("r", "ACGT" * 10)]
        with pytest.raises(StrategyTooLarge, match="record 'q:0':"):
            build_index(seqs, BLOCK64, window=16, step=5)

    def test_no_windows_nothing_to_index(self):
        seqs = [Sequence("a", "ACGT" * 10), Sequence("b", "ACGT" * 20)]
        with pytest.raises(ValueError, match="nothing to index"):
            build_index(seqs, ZIGZAG32, window=100, step=10)


class TestShiftsAreNotSimilarity:
    # The README's caveat: a window index finds a probe only if the probe
    # starts within a base or two of a window start. A 5 bp shift moves a
    # window about as far as a random window, 5% substitutions much less.
    @pytest.mark.parametrize("window, strategy", [(1000, ZIGZAG32), (100, BLOCK64)],
                             ids=["1000bp-zigzag32", "100bp-block64"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_5bp_shift_is_as_far_as_a_random_window(self, window, strategy, seed):
        n, shift = 300, 5
        rng = np.random.default_rng(seed)
        views = np.lib.stride_tricks.sliding_window_view(
            rng.integers(0, 4, size=n * window, dtype=np.uint8), window)
        starts = rng.integers(0, len(views) - shift, size=n)
        base = views[starts]
        substituted = base.copy()
        cols = np.argsort(rng.random((n, window)), axis=1)[:, :window // 20]
        rows = np.arange(n)[:, None]
        substituted[rows, cols] += rng.integers(1, 4, size=cols.shape, dtype=np.uint8)
        substituted[rows, cols] %= 4
        hashed = hash_codes(base, strategy)

        def mean_distance(codes):
            return np.bitwise_count(hash_codes(codes, strategy) ^ hashed).sum(axis=1).mean()

        random = mean_distance(views[rng.integers(0, len(views), size=n)])
        assert mean_distance(views[starts + shift]) >= 0.8 * random
        assert mean_distance(substituted) <= 0.4 * random


class TestQuery:
    def test_brute_force_agreement(self):
        rng = np.random.default_rng(21)
        idx = _random_index(300, ZIGZAG32, seed=1)
        for _ in range(25):
            probe_bits = rng.integers(0, 2, size=32)
            probe = PerceptualHash.from_bits(probe_bits, ZIGZAG32)
            limit = int(rng.integers(0, 33))
            got = query(idx, probe, max_dist=limit)
            want = sorted(
                ((hamming(h, probe), rid) for rid, h in _records(idx)
                 if hamming(h, probe) <= limit),
            )
            assert [(d, i) for i, d in got] == [(d, i) for d, i in want]

    def test_results_sorted_by_distance_then_id(self):
        strat = SelectionStrategy("zigzag", 8)
        bits = [1, 0, 0, 0, 0, 0, 0, 0]
        idx = _index_of(strat, [
            (name, PerceptualHash.from_bits(bits, strat)) for name in ("zeta", "alpha", "mid")
        ])
        probe = PerceptualHash.from_bits(bits, strat)
        assert [(i, d) for i, d in query(idx, probe, max_dist=8)] == [
            ("alpha", 0), ("mid", 0), ("zeta", 0)
        ]

    @pytest.mark.parametrize("width,copied", [(32, False), (64, False), (100, True)])
    def test_scan_copies_only_hashes_wider_than_a_word(self, width, copied):
        idx = _random_index(20, SelectionStrategy("zigzag", width), seed=3)
        columns = idx._columns
        assert np.shares_memory(columns, idx.hashes) != copied
        assert not columns.flags.writeable
        assert np.array_equal(columns.T, idx.hashes.view(np.uint64))

    def test_self_query_distance_zero(self):
        idx = _random_index(50, BLOCK64, seed=2, length=256)
        for rid, h in _records(idx)[:10]:
            hits = query(idx, h, max_dist=0)
            assert (rid, 0) in hits

    def test_max_dist_validation(self):
        idx = _random_index(5, ZIGZAG32)
        probe = _hash_at(idx, 0)
        with pytest.raises(ValueError):
            query(idx, probe, max_dist=-1)
        with pytest.raises(ValueError):
            query(idx, probe, max_dist=33)

    def test_width_mismatch(self):
        idx = _random_index(5, ZIGZAG32)
        probe = PerceptualHash.from_bits([0] * 64, BLOCK64)
        for search in (query, query_topk):  # max_dist 3, or k 3
            with pytest.raises(WidthMismatch, match="query hash is 64 bits, index holds 32-bit"):
                search(idx, probe, 3)

    def test_strategy_mismatch(self):
        idx = _random_index(5, ZIGZAG32)
        probe = PerceptualHash.from_bits([0] * 32, SelectionStrategy("zigzag_skip_dc", 32))
        for search in (query, query_topk):
            with pytest.raises(StrategyMismatch, match="query uses zigzag_skip_dc, index uses zigzag"):
                search(idx, probe, 3)


class TestTopK:
    def test_matches_sorted_brute_force(self):
        rng = np.random.default_rng(22)
        idx = _random_index(200, ZIGZAG32, seed=4)
        for k in (1, 3, 17, 200):
            probe = PerceptualHash.from_bits(rng.integers(0, 2, size=32), ZIGZAG32)
            got = query_topk(idx, probe, k=k)
            want = sorted((hamming(h, probe), rid) for rid, h in _records(idx))[:k]
            assert [(d, i) for i, d in got] == [(d, i) for d, i in want]

    @pytest.mark.parametrize("n", [3, 40, 1000])
    def test_all_tied_index_orders_by_python_str_order(self, n):
        # "s10" < "s9", code-point (not UTF-16) order above U+FFFF, and a
        # trailing NUL that a numpy U array would drop
        odd = ["s9", "s10", "s1", "é", "ß", "日本", "\uff5e", "\U0001f600", "a", "a\x00"]
        ids = (odd + [f"s{i}" for i in range(11, n + 11)])[:n]
        h = PerceptualHash.from_bits([1] + [0] * 31, ZIGZAG32)
        idx = _index_of(ZIGZAG32, [(rid, h) for rid in reversed(ids)])
        want = [(rid, 0) for rid in sorted(ids)]
        for k in sorted({1, min(10, n), n}):
            assert query_topk(idx, h, k) == want[:k]
        assert query(idx, h, 0) == want
        assert query(idx, h, 32) == want

    def test_all_tied_windows_order_by_python_str_order(self):
        # one constant parent: its 24 windows hash alike, and "c:10" precedes "c:9"
        idx = build_index([Sequence("c", "A" * 87)], ZIGZAG32, window=64, step=1)
        h = _hash_at(idx, 0)
        assert len(set(map(bytes, idx.hashes))) == 1
        ids = sorted(f"c:{i}" for i in range(24))
        assert ids[:4] == ["c:0", "c:1", "c:10", "c:11"]
        want = [(rid, 0) for rid in ids]
        for k in (1, 10, 24):
            assert query_topk(idx, h, k) == want[:k]
        assert query(idx, h, idx.width) == want

    def test_k_out_of_range(self):
        idx = _random_index(10, ZIGZAG32)
        probe = _hash_at(idx, 0)
        with pytest.raises(KOutOfRange):
            query_topk(idx, probe, k=0)
        with pytest.raises(KOutOfRange):
            query_topk(idx, probe, k=11)


class TestSerialization:
    def test_round_trip_byte_identical(self, tmp_path):
        idx = _random_index(40, BLOCK64, seed=6, length=256)
        path = tmp_path / "a.dph"
        _save(idx, path)
        first = path.read_bytes()
        loaded = _load(path)
        assert loaded.strategy == idx.strategy
        assert _records(loaded) == _records(idx)
        path2 = tmp_path / "b.dph"
        _save(loaded, path2)
        assert path2.read_bytes() == first

    @pytest.mark.parametrize("strategy", [
        SelectionStrategy("block", 64),
        SelectionStrategy("zigzag", 32),
        SelectionStrategy("zigzag_skip_dc", 17),
    ])
    def test_strategy_tags_round_trip(self, strategy, tmp_path):
        bits = [0] * strategy.k
        bits[0] = 1
        rec = ("only", PerceptualHash.from_bits(bits, strategy, source_len=123))
        path = tmp_path / "x.dph"
        _save(_index_of(strategy, [rec]), path)
        loaded = _load(path)
        assert loaded.strategy == strategy
        assert _hash_at(loaded, 0).source_len == 123

    def test_size_accounting(self):
        idx = _random_index(7, ZIGZAG32, seed=9)
        blob = index_bytes(idx)
        per_record = sum(2 + len(rid.encode()) + 4 + math.ceil(32 / 8) for rid in idx.ids)
        assert len(blob) == 18 + per_record + 4

    def test_header_fields(self):
        idx = _random_index(3, BLOCK64, seed=10, length=256)
        blob = index_bytes(idx)
        magic, version, width, tag, reserved, count = struct.unpack_from("<4sHHBBQ", blob, 0)
        assert magic == b"DPH1"
        assert version == 1
        assert width == 64
        assert tag == 0  # block
        assert reserved == 0
        assert count == 3

    def test_trailing_checksum_is_crc32(self):
        idx = _random_index(3, ZIGZAG32, seed=11)
        blob = index_bytes(idx)
        body, crc = blob[:-4], struct.unpack("<I", blob[-4:])[0]
        assert crc == zlib.crc32(body)

    def test_empty_index_round_trip(self):
        # a file may declare zero records; it loads as an empty index
        blob = struct.pack("<4sHHBBQ", b"DPH1", 1, 12, 1, 0, 0)
        blob += struct.pack("<I", zlib.crc32(blob))
        loaded = load_index(io.BytesIO(blob))
        assert len(loaded) == 0 and loaded.strategy == SelectionStrategy("zigzag", 12)
        assert index_bytes(loaded) == blob

    def test_unicode_ids(self, tmp_path):
        strat = SelectionStrategy("zigzag", 8)
        rec = ("séq·Δ1", PerceptualHash.from_bits([1] * 8, strat))
        path = tmp_path / "u.dph"
        _save(_index_of(strat, [rec]), path)
        assert _load(path).ids[0] == "séq·Δ1"

    @staticmethod
    def _record_by_record(index):
        """The file format written one record at a time: the reference layout."""
        nbytes = (index.width + 7) // 8
        body = struct.pack("<4sHHBBQ", b"DPH1", 1, index.width,
                           ("block", "zigzag", "zigzag_skip_dc").index(index.strategy.kind),
                           0, len(index))
        for i, rid in enumerate(index.ids):
            ident = rid.encode("utf-8")
            body += struct.pack("<H", len(ident)) + ident
            body += struct.pack("<I", int(index.source_len[i])) + index.hashes[i, :nbytes].tobytes()
        return body + struct.pack("<I", zlib.crc32(body))

    @pytest.mark.parametrize("alphabet", ["ab:0", "aé☃𝄞:"])
    @pytest.mark.parametrize("width", [1, 9, 64, 65])
    def test_layout_equals_record_by_record(self, alphabet, width):
        rng = np.random.default_rng(width)
        strategy = SelectionStrategy("zigzag", width)
        n = 300
        ids = [f"{i}" + "".join(rng.choice(list(alphabet), size=int(rng.integers(0, 12))))
               for i in range(n)]
        bits = rng.integers(0, 2, size=(n, width), dtype=np.uint8)
        idx = HashIndex(strategy, ids, rng.integers(0, 2**32, size=n, dtype=np.uint32),
                        dnaphash.index._pad_rows(np.packbits(bits, axis=1)))
        assert index_bytes(idx) == self._record_by_record(idx)

    @pytest.mark.parametrize("long_id", ["x" * 0x10000, "é" * 0x8000])
    def test_too_long_id_is_rejected(self, long_id):
        strat = SelectionStrategy("zigzag", 8)
        fits = "y" * 0xFFFF
        recs = [("a", PerceptualHash.from_bits([1] * 8, strat)),
                (fits, PerceptualHash.from_bits([0] * 8, strat)),
                (long_id, PerceptualHash.from_bits([1] * 8, strat))]
        assert index_bytes(_index_of(strat, recs[:2]))  # 0xFFFF bytes still fit
        with pytest.raises(ValueError, match=f"record id {long_id[:32]!r}... is too long"):
            index_bytes(_index_of(strat, recs))


class TestCorruption:
    def _blob(self, n=5):
        return bytearray(index_bytes(_random_index(n, ZIGZAG32, seed=12)))

    def _parse(self, blob, tmp_path):
        path = tmp_path / "c.dph"
        path.write_bytes(bytes(blob))
        return _load(path)

    def test_bad_magic(self, tmp_path):
        blob = self._blob()
        blob[0:4] = b"NOPE"
        with pytest.raises(BadMagic):
            self._parse(blob, tmp_path)

    def test_unsupported_version(self, tmp_path):
        blob = self._blob()
        struct.pack_into("<H", blob, 4, 99)
        # keep the checksum valid so the version is what gets rejected
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        with pytest.raises(UnsupportedVersion):
            self._parse(blob, tmp_path)

    def test_payload_flip_detected(self, tmp_path):
        blob = self._blob()
        blob[25] ^= 0x01
        with pytest.raises(ChecksumMismatch):
            self._parse(blob, tmp_path)

    def test_checksum_flip_detected(self, tmp_path):
        blob = self._blob()
        blob[-1] ^= 0xFF
        with pytest.raises(ChecksumMismatch):
            self._parse(blob, tmp_path)

    def test_truncated_header(self, tmp_path):
        blob = self._blob()[:10]
        with pytest.raises(TruncatedFile):
            self._parse(blob, tmp_path)

    def test_truncated_records(self, tmp_path):
        blob = self._blob()
        with pytest.raises(TruncatedFile):
            self._parse(blob[:30], tmp_path)

    def test_trailing_garbage(self, tmp_path):
        blob = self._blob() + b"extra"
        with pytest.raises(TruncatedFile):
            self._parse(blob, tmp_path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(TruncatedFile):
            self._parse(b"", tmp_path)

    def _fix_crc(self, blob):
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        return blob

    def test_nonzero_padding_bits_rejected(self, tmp_path):
        # 12-bit hashes leave the low 4 bits of each record's second byte as
        # padding; the last record's hash ends just before the CRC.
        blob = bytearray(index_bytes(_random_index(5, SelectionStrategy("zigzag", 12), seed=13)))
        blob[-5] |= 0x01
        with pytest.raises(IndexFormatError, match="padding"):
            self._parse(self._fix_crc(blob), tmp_path)

    def test_empty_id_rejected(self, tmp_path):
        # one zigzag-8 record with a zero-length id, written field by field
        blob = bytearray(struct.pack("<4sHHBBQ", b"DPH1", 1, 8, 1, 0, 1))
        blob += struct.pack("<H", 0) + struct.pack("<I", 16) + bytes([0x80])
        blob += b"\0\0\0\0"
        with pytest.raises(IndexFormatError, match="empty"):
            self._parse(self._fix_crc(blob), tmp_path)

    def test_duplicate_ids_rejected(self, tmp_path):
        seqs = [Sequence("a1", "ACGT" * 25), Sequence("a2", "TTGA" * 25)]
        blob = bytearray(index_bytes(build_index(seqs, ZIGZAG32)))
        at = blob.index(b"a2")
        blob[at:at + 2] = b"a1"
        with pytest.raises(IndexFormatError, match="duplicate"):
            self._parse(self._fix_crc(blob), tmp_path)

    def test_unknown_strategy_tag_named(self, tmp_path):
        blob = self._blob()
        blob[8] = 7  # the strategy tag
        with pytest.raises(UnsupportedVersion, match="unknown strategy tag 7; tags run 0..2"):
            self._parse(self._fix_crc(blob), tmp_path)

    # Each file has two faults; the check that load_index makes first names
    # its fault. Checks run: header size, magic, version, record structure
    # and trailing bytes, CRC, strategy tag and width, records.
    @pytest.mark.parametrize("fault, error, match", [
        ("short_header_bad_magic", TruncatedFile, "10 bytes"),
        ("bad_magic_trailing_bytes", BadMagic, "NOPE"),
        ("bad_version_truncated_records", UnsupportedVersion, "version 99"),
        ("trailing_bytes_stale_crc", TruncatedFile, "5 unexpected bytes"),
        ("stale_crc_bad_tag", ChecksumMismatch, "stored CRC-32"),
        ("bad_tag_duplicate_ids", UnsupportedVersion, "strategy tag 7"),
        ("bad_width_duplicate_ids", UnsupportedVersion, "square bit count, got 32"),
    ])
    def test_first_check_wins(self, fault, error, match, tmp_path):
        seqs = [Sequence("a1", "ACGT" * 25), Sequence("a2", "TTGA" * 25)]
        blob = bytearray(index_bytes(build_index(seqs, ZIGZAG32)))
        at = blob.index(b"a2")
        duplicate = blob[:at] + b"a1" + blob[at + 2:]
        blob = {
            "short_header_bad_magic": b"NOPE" + blob[4:10],
            "bad_magic_trailing_bytes": b"NOPE" + blob[4:] + b"extra",
            "bad_version_truncated_records": blob[:4] + struct.pack("<H", 99) + blob[6:30],
            "trailing_bytes_stale_crc": blob + b"extra",
            "stale_crc_bad_tag": blob[:8] + b"\x07" + blob[9:],
            "bad_tag_duplicate_ids": self._fix_crc(duplicate[:8] + b"\x07" + duplicate[9:]),
            "bad_width_duplicate_ids": self._fix_crc(duplicate[:8] + b"\x00" + duplicate[9:]),
        }[fault]
        with pytest.raises(error, match=match):
            self._parse(blob, tmp_path)

    def test_fuzzed_files_raise_only_format_errors(self):
        # Byte flips, with the CRC repaired half of the time so that the
        # record decoding is reached, plus truncations; a mix of widths so
        # that padding bits exist. Anything but IndexFormatError escapes.
        seeds = [index_bytes(_random_index(6, strat, seed=14, length=256)) for strat in
                 (ZIGZAG32, SelectionStrategy("zigzag", 12), SelectionStrategy("block", 100),
                  SelectionStrategy("zigzag_skip_dc", 1))]
        rng = np.random.default_rng(15)
        outcomes = {"loaded": 0, "rejected": 0}
        for case in range(2000):
            blob = bytearray(seeds[case % len(seeds)])
            for _ in range(int(rng.integers(1, 4))):
                blob[int(rng.integers(0, len(blob) - 4))] ^= int(rng.integers(1, 256))
            if rng.random() < 0.5:
                self._fix_crc(blob)
            if rng.random() < 0.2:
                blob = blob[:int(rng.integers(0, len(blob)))]
            try:
                load_index(io.BytesIO(bytes(blob)))
                outcomes["loaded"] += 1
            except IndexFormatError:
                outcomes["rejected"] += 1
        assert outcomes["loaded"] > 0 and outcomes["rejected"] > 0


_POOL_STRATEGIES = [SelectionStrategy("zigzag", k) for k in (1, 12, 32, 100, 256, 4096)] + \
                   [SelectionStrategy("block", k) for k in (64, 100, 256)]


@st.composite
def _index_and_probe(draw):
    """A random index drawn from a small pool of hashes (so that distances
    tie), one probe, and the pool's strategy."""
    strat = draw(st.sampled_from(_POOL_STRATEGIES))
    bits = st.integers(0, 2 ** strat.k - 1).map(
        lambda v: [(v >> (strat.k - 1 - i)) & 1 for i in range(strat.k)])
    pool = draw(st.lists(bits, min_size=1, max_size=4))
    n = draw(st.integers(1, 40))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    ids = draw(st.lists(st.text("abcxyz", min_size=1, max_size=3), min_size=n, max_size=n,
                        unique=True))
    hashes = [PerceptualHash.from_bits(pool[p], strat, source_len=int(p) * 7) for p in picks]
    probe = PerceptualHash.from_bits(draw(st.one_of(st.sampled_from(pool), bits)), strat)
    return _index_of(strat, zip(ids, hashes)), probe


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(_index_and_probe(), st.data())
    def test_queries_equal_brute_force(self, index_probe, data):
        idx, probe = index_probe
        brute = sorted((hamming(h, probe), rid) for rid, h in _records(idx))
        k = data.draw(st.integers(1, len(idx)))
        assert query_topk(idx, probe, k) == [(rid, d) for d, rid in brute[:k]]
        limit = data.draw(st.integers(0, idx.width))
        assert query(idx, probe, limit) == [(rid, d) for d, rid in brute if d <= limit]

    @settings(max_examples=100, deadline=None)
    @given(_index_and_probe())
    def test_save_load_save_byte_identical(self, index_probe):
        idx, _ = index_probe
        blob = index_bytes(idx)
        loaded = load_index(io.BytesIO(blob))
        assert loaded.strategy == idx.strategy
        assert _records(loaded) == _records(idx)
        assert index_bytes(loaded) == blob
