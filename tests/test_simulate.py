"""Reproducible generation/mutation streams and the divergence simulations."""

import concurrent.futures
import io
import os

import numpy as np
import pytest

import dnaphash.sequence
import dnaphash.simulate
from dnaphash import (SequenceTooShort, SelectionStrategy, Sequence, compute_hash, hamming,
                      hash_codes)
from dnaphash.sequence import matrix_dim
from dnaphash.simulate import (
    DEFAULT_N_PRIMARY,
    DEFAULT_RATES,
    GROUP_PRESETS,
    DistanceHistogram,
    SimulationConfig,
    _chunk_size,
    _simulate_chunk,
    generate_sequence,
    mutate_sequence,
    mutation_count,
    preset_config,
    run_group,
    sequence_rng,
    write_histogram_csv,
    write_pair_csv,
)

from reference_vectors import (
    FROZEN_MUTATION_INPUT,
    FROZEN_MUTATION_OUTPUT,
    FROZEN_SEQUENCE_0_0_16,
    FROZEN_SEQUENCE_123_5_20,
    FROZEN_SUBSTREAM_CODES,
)


def _histogram_csv(hist):
    buf = io.StringIO()
    write_histogram_csv(hist, buf)
    return buf.getvalue()


class TestSubstreams:
    def test_frozen_draws(self):
        # base codes are drawn as uint8; the dtype is part of the contract
        # because it changes how the generator consumes its bit stream
        for (seed, ordinal), want in FROZEN_SUBSTREAM_CODES.items():
            rng = sequence_rng(seed, ordinal)
            got = rng.integers(0, 4, size=len(want), dtype=np.uint8)
            assert got.tolist() == want, (seed, ordinal)

    def test_substreams_are_independent_of_order(self):
        a = sequence_rng(5, 3).integers(0, 4, size=50)
        sequence_rng(5, 999).integers(0, 4, size=1000)  # unrelated consumption
        b = sequence_rng(5, 3).integers(0, 4, size=50)
        assert np.array_equal(a, b)

    def test_distinct_ordinals_differ(self):
        a = sequence_rng(0, 0).integers(0, 4, size=64)
        b = sequence_rng(0, 1).integers(0, 4, size=64)
        assert not np.array_equal(a, b)


class TestGenerate:
    def test_frozen_sequences(self):
        assert generate_sequence(16, sequence_rng(0, 0)).bases == FROZEN_SEQUENCE_0_0_16
        assert generate_sequence(20, sequence_rng(123, 5)).bases == FROZEN_SEQUENCE_123_5_20

    def test_default_id(self):
        assert generate_sequence(10, sequence_rng(0, 0)).id == "seq"
        assert generate_sequence(10, sequence_rng(0, 0), id="x7").id == "x7"

    def test_too_short(self):
        with pytest.raises(SequenceTooShort):
            generate_sequence(3, sequence_rng(0, 0))

    def test_roughly_uniform(self):
        seq = generate_sequence(100_000, sequence_rng(11, 0))
        for base in "ATCG":
            share = seq.bases.count(base) / 100_000
            assert abs(share - 0.25) < 0.01, base


class TestMutationCount:
    @pytest.mark.parametrize("rate,length,want", [
        (0.05, 100, 5),
        (0.1, 100, 10),
        (1.0, 100, 100),
        (0.1, 16, 2),       # 1.6 rounds up
        (0.1, 5, 0),        # 0.5 rounds to even -> 0
        (0.3, 5, 2),        # 1.5 rounds to even -> 2
        (0.5, 5, 2),        # 2.5 rounds to even -> 2
        (0.25, 20, 5),
    ])
    def test_rounding(self, rate, length, want):
        assert mutation_count(rate, length) == want


class TestMutate:
    def test_frozen_vector(self):
        # primary drawn first, then its mutation, from one substream — the
        # same order the simulator uses per ordinal
        rng = sequence_rng(7, 0)
        seq = generate_sequence(20, rng, id="m")
        assert seq.bases == FROZEN_MUTATION_INPUT
        out = mutate_sequence(seq, 0.25, rng)
        assert out.bases == FROZEN_MUTATION_OUTPUT
        diffs = sum(a != b for a, b in zip(FROZEN_MUTATION_INPUT, out.bases))
        assert diffs == 5

    def test_variant_id_records_rate(self):
        rng = sequence_rng(0, 0)
        out = mutate_sequence(Sequence("m", "ACGT" * 10), 0.05, rng)
        assert out.id == "m|div0.05"

    def test_exact_substitution_count(self):
        rng = sequence_rng(3, 0)
        seq = generate_sequence(200, rng, id="s")
        for rate in (0.05, 0.1, 0.2, 0.3, 0.5):
            out = mutate_sequence(seq, rate, rng)
            diffs = sum(a != b for a, b in zip(seq.bases, out.bases))
            assert diffs == mutation_count(rate, 200) == round(rate * 200)

    def test_full_rate_changes_every_position(self):
        rng = sequence_rng(4, 0)
        seq = generate_sequence(150, rng, id="s")
        out = mutate_sequence(seq, 1.0, rng)
        assert all(a != b for a, b in zip(seq.bases, out.bases))

    def test_original_untouched(self):
        rng = sequence_rng(5, 0)
        seq = generate_sequence(50, rng, id="s")
        before = seq.bases
        mutate_sequence(seq, 0.5, rng)
        assert seq.bases == before

    def test_rate_that_rounds_to_no_mutation(self):
        # round(0.01 * 40) is 0: the variant is the primary, and no draw is made
        rng = sequence_rng(6, 0)
        seq = Sequence("m", "ACGT" * 10)
        out = mutate_sequence(seq, 0.01, rng)
        assert (out.id, out.bases) == ("m|div0.01", seq.bases)
        assert rng.bit_generator.state == sequence_rng(6, 0).bit_generator.state

    @pytest.mark.parametrize("rate", [0.0, -0.1, 1.5])
    def test_rate_bounds(self, rate):
        with pytest.raises(ValueError):
            mutate_sequence(Sequence("s", "ACGT" * 5), rate, sequence_rng(0, 0))


class TestConfig:
    def test_rates_sorted_on_construction(self):
        cfg = SimulationConfig(
            group="x", seq_len=100,
            strategy=SelectionStrategy("zigzag", 32),
            divergence_rates=(0.5, 0.05, 1.0),
        )
        assert cfg.divergence_rates == (0.05, 0.5, 1.0)

    def test_duplicate_rates_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(
                group="x", seq_len=100,
                strategy=SelectionStrategy("zigzag", 32),
                divergence_rates=(0.1, 0.1),
            )

    def test_identity_rate_allowed(self):
        cfg = SimulationConfig(
            group="x", seq_len=100,
            strategy=SelectionStrategy("zigzag", 32),
            divergence_rates=(0.0, 0.5),
        )
        assert cfg.divergence_rates[0] == 0.0

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError):
            SimulationConfig(
                group="x", seq_len=100,
                strategy=SelectionStrategy("zigzag", 32),
                divergence_rates=(0.1, 1.01),
            )

    def test_strategy_must_fit_matrix(self):
        with pytest.raises(Exception):
            SimulationConfig(
                group="x", seq_len=16,
                strategy=SelectionStrategy("block", 64),
            )

    @pytest.mark.parametrize("field, value, match", [
        ("seq_len", 3, "seq_len must be at least 4"),
        ("n_primary", 0, "n_primary must be positive"),
        ("divergence_rates", (), "at least one divergence rate is required")])
    def test_field_checks(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            SimulationConfig(**{"group": "x", "seq_len": 100,
                                "strategy": SelectionStrategy("zigzag", 32), field: value})

    def test_hash_width_is_the_strategy_width(self):
        cfg = SimulationConfig(group="x", seq_len=100, strategy=SelectionStrategy("zigzag", 32))
        assert cfg.hash_width == 32
        with pytest.raises(AttributeError):
            cfg.hash_width = 64

    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            SimulationConfig(
                group="x", seq_len=100,
                strategy=SelectionStrategy("zigzag", 32), seed=2 ** 64,
            )

    def test_presets(self):
        assert set(GROUP_PRESETS) == set("ABCDEF")
        for name, cfg in GROUP_PRESETS.items():
            assert cfg.group == name
            assert cfg.divergence_rates == DEFAULT_RATES
            assert cfg.n_primary == DEFAULT_N_PRIMARY
            assert cfg.seed == 0
        assert GROUP_PRESETS["A"].seq_len == 100
        assert GROUP_PRESETS["A"].strategy == SelectionStrategy("zigzag", 32)
        assert GROUP_PRESETS["F"].seq_len == 10_000
        assert GROUP_PRESETS["F"].strategy == SelectionStrategy("block", 64)

    def test_preset_overrides(self):
        cfg = preset_config("b", n_primary=50, seed=9, rates=(0.1, 0.2))
        assert (cfg.group, cfg.n_primary, cfg.seed) == ("B", 50, 9)
        assert cfg.divergence_rates == (0.1, 0.2)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset_config("Z")


SMALL = preset_config("A", n_primary=120, seed=1, rates=(0.0, 0.1, 0.5, 1.0))


class TestRunGroup:
    def test_histogram_shape_and_totals(self):
        hist = run_group(SMALL)
        assert hist.counts.shape == (4, 33)
        assert hist.counts.sum(axis=1).tolist() == [120] * 4
        assert np.all(hist.counts >= 0)
        assert abs(hist.fractions().sum() - 4.0) < 1e-12

    def test_identity_control_all_zero(self):
        hist = run_group(SMALL)
        row = hist.rate_row(0.0)
        assert row[0] == 120
        assert row[1:].sum() == 0

    def test_deterministic_across_runs(self):
        a = _histogram_csv(run_group(SMALL))
        b = _histogram_csv(run_group(SMALL))
        assert a == b

    def test_worker_count_does_not_change_output(self, monkeypatch):
        # enough primaries that the work splits into several chunks
        cfg = preset_config("A", n_primary=2500, seed=1, rates=(0.0, 0.1, 1.0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = run_group(cfg, keep_pairs=True)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        parallel = run_group(cfg, keep_pairs=True)
        assert np.array_equal(serial.counts, parallel.counts)
        assert np.array_equal(serial.pairs, parallel.pairs)
        assert _histogram_csv(serial) == _histogram_csv(parallel)

    @pytest.mark.parametrize("affinity, cpus, started", [
        ({0, 1, 2, 3}, 64, [3]),
        ({0, 1}, 2, [2]),
        ({0, 1}, 64, [2]),
        ({5}, 1, []),
        (None, None, []),
    ], ids=["by-chunks", "by-cpus", "affinity-narrower-than-cpu-count", "one-cpu",
            "cpu-count-unknown"])
    def test_pool_is_capped_by_chunks_and_cpus(self, monkeypatch, affinity, cpus, started):
        # The pool forks every process it may use at its first task, so
        # three chunks on many CPUs must not ask it for more than three.
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        cfg = preset_config("A", n_primary=1, seed=2, rates=(0.1, 1.0))
        cfg = preset_config("A", n_primary=2 * _chunk_size(cfg) + 1, seed=2, rates=(0.1, 1.0))
        pooled = run_group(cfg, keep_pairs=True)
        assert sizes == started
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert np.array_equal(pooled.pairs, run_group(cfg, keep_pairs=True).pairs)

    @pytest.mark.parametrize("chunks, plus", [(0, 1), (1, 0), (1, 1), (2, 1)],
                             ids=["one", "chunk", "chunk+1", "2chunk+1"])
    def test_chunks_are_balanced(self, monkeypatch, chunks, plus):
        # n = chunks·chunk + plus; full chunks and a remainder would leave a
        # last chunk of one ordinal
        cfg = preset_config("A", n_primary=1, seed=3, rates=(0.1, 1.0))
        chunk = _chunk_size(cfg)
        n = chunks * chunk + plus
        cfg = preset_config("A", n_primary=n, seed=3, rates=(0.1, 1.0))
        calls = []

        def record(config, start, stop):
            calls.append((start, stop))
            return np.zeros((stop - start, len(config.divergence_rates)), dtype=np.uint16)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr("dnaphash.simulate._simulate_chunk", record)
        run_group(cfg)
        assert [o for start, stop in calls for o in range(start, stop)] == list(range(n))
        sizes = [stop - start for start, stop in calls]
        assert len(sizes) == -(-n // chunk)
        assert max(sizes) <= chunk
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("rates", [DEFAULT_RATES, (1.0,)])
    def test_chunks_hold_at_most_6mb_of_codes(self, rates):
        for seq_len in np.unique(np.geomspace(100, 1_000_000, 200).astype(int)).tolist():
            cfg = SimulationConfig("X", seq_len, SelectionStrategy("block", 64), rates, 1)
            chunk = _chunk_size(cfg)
            streams = len(rates) + 1
            assert chunk == 1 or chunk * streams * matrix_dim(seq_len) ** 2 <= 6_000_000, seq_len

    @pytest.mark.parametrize("ordinals, calls", [(1, [1] * 17), (3, [3] * 5 + [2]), (None, [17])],
                             ids=["one", "three", "default"])
    def test_blocks_of_codes_do_not_change_the_distances(self, monkeypatch, ordinals, calls):
        # A chunk draws and hashes a reader block of codes at a time: blocks of
        # one ordinal's codes, of three ordinals' and of the default size give
        # the distances of the one-sequence-at-a-time API.
        cfg = preset_config("A", n_primary=20, seed=4, rates=(0.0, 0.05, 0.5, 1.0))
        streams = len(cfg.divergence_rates) + 1
        if ordinals is not None:
            monkeypatch.setattr(dnaphash.sequence, "_BLOCK_BYTES", ordinals * streams * cfg.seq_len)
        hashed = []

        def spy(codes, strategy):
            hashed.append(len(codes) // streams)
            return hash_codes(codes, strategy)

        monkeypatch.setattr(dnaphash.simulate, "hash_codes", spy)
        got = _simulate_chunk(cfg, 3, 20)
        assert hashed == calls
        for row, ordinal in zip(got.tolist(), range(3, 20)):
            rng = sequence_rng(cfg.seed, ordinal)
            primary = generate_sequence(cfg.seq_len, rng)
            want = [0 if rate == 0.0 else hamming(compute_hash(primary, cfg.strategy), compute_hash(
                mutate_sequence(primary, rate, rng), cfg.strategy)) for rate in cfg.divergence_rates]
            assert row == want, ordinal

    def test_pairs_match_public_replay(self):
        # re-derive sampled ordinals through the one-sequence-at-a-time API
        hist = run_group(SMALL, keep_pairs=True)
        assert hist.pairs.shape == (120, 4)
        cfg = hist.config
        for ordinal in (0, 1, 57, 119):
            rng = sequence_rng(cfg.seed, ordinal)
            primary = generate_sequence(cfg.seq_len, rng, id=f"p{ordinal}")
            base_hash = compute_hash(primary, cfg.strategy)
            for j, rate in enumerate(cfg.divergence_rates):
                if rate == 0.0:
                    expected = 0
                else:
                    variant = mutate_sequence(primary, rate, rng)
                    expected = hamming(base_hash, compute_hash(variant, cfg.strategy))
                assert hist.pairs[ordinal, j] == expected, (ordinal, rate)

    def test_pairs_absent_by_default(self):
        assert run_group(SMALL).pairs is None

    def test_seed_changes_output(self):
        other = preset_config("A", n_primary=120, seed=2, rates=(0.0, 0.1, 0.5, 1.0))
        assert not np.array_equal(run_group(SMALL).counts, run_group(other).counts)

    def test_counts_shape_validated(self):
        with pytest.raises(ValueError):
            DistanceHistogram(config=SMALL, counts=np.zeros((2, 33), dtype=np.int64))
        bad = np.zeros((4, 33), dtype=np.int64)  # rows don't sum to n_primary
        with pytest.raises(ValueError):
            DistanceHistogram(config=SMALL, counts=bad)


class TestCsv:
    def test_header_and_shape(self):
        text = _histogram_csv(run_group(SMALL))
        lines = text.split("\n")
        assert lines[0] == "group,seq_len,hash_width,strategy,divergence_rate,hamming_distance,count,fraction"
        assert lines[-1] == ""  # trailing newline
        assert len(lines) == 1 + 4 * 33 + 1

    def test_rows_sorted_and_complete(self):
        text = _histogram_csv(run_group(SMALL))
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        seen = [(float(r[4]), int(r[5])) for r in rows]
        assert seen == [(rate, d) for rate in (0.0, 0.1, 0.5, 1.0) for d in range(33)]
        for r in rows:
            assert r[0] == "A" and r[1] == "100" and r[2] == "32" and r[3] == "zigzag"

    def test_fraction_format(self):
        text = _histogram_csv(run_group(SMALL))
        for line in text.strip().split("\n")[1:]:
            frac = line.split(",")[-1]
            whole, dot, places = frac.partition(".")
            assert dot == "." and len(places) == 9, frac

    def test_fractions_consistent_with_counts(self):
        hist = run_group(SMALL)
        text = _histogram_csv(hist)
        for line in text.strip().split("\n")[1:]:
            parts = line.split(",")
            count, frac = int(parts[6]), float(parts[7])
            assert abs(frac - count / 120) < 1e-9

    def test_pair_csv(self):
        hist = run_group(SMALL, keep_pairs=True)
        buf = io.StringIO()
        write_pair_csv(hist, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "ordinal,divergence_rate,hamming_distance"
        assert len(lines) == 1 + 120 * 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0.0"
        assert int(first[2]) == int(hist.pairs[0, 0])

    def test_pair_csv_requires_kept_pairs(self):
        with pytest.raises(ValueError):
            write_pair_csv(run_group(SMALL), io.StringIO())
