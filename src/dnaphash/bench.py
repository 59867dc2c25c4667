"""Throughput measurement, with generation and hashing timed separately.

Sequence generation is a real cost at scale, so the benchmark reports it
on its own line instead of folding it into the hashing rate. Absolute
numbers are hardware-bound; only the checksum of the produced hashes is
expected to reproduce across machines for a fixed seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .hashing import SelectionStrategy, hash_codes
from .sequence import MIN_LENGTH, matrix_dim
from .simulate import sequence_rng


@dataclass(frozen=True)
class BenchReport:
    """Timings for one benchmark run."""

    n: int
    seq_len: int
    strategy: SelectionStrategy
    generation_seconds: float
    hashing_seconds: float
    bits_set: int  # popcount over every produced hash; deterministic per seed

    @property
    def generation_rate(self) -> float:
        return self.n / self.generation_seconds if self.generation_seconds else float("inf")

    @property
    def hashing_rate(self) -> float:
        return self.n / self.hashing_seconds if self.hashing_seconds else float("inf")

    @property
    def generation_share(self) -> float:
        total = self.generation_seconds + self.hashing_seconds
        return self.generation_seconds / total if total else 0.0


def run_bench(*, seq_len: int = 100, strategy: SelectionStrategy | None = None,
              n: int = 100_000, seed: int = 0) -> BenchReport:
    """Generate ``n`` random sequences, hash them all, time both phases.

    Generation draws every base from one seeded stream; hashing is one
    :func:`hash_codes` call.
    """
    if seq_len < MIN_LENGTH:
        raise ValueError(f"seq_len must be at least {MIN_LENGTH}")
    if n < 1:
        raise ValueError("n must be positive")
    if strategy is None:
        strategy = SelectionStrategy("block", 64)
    strategy.positions(matrix_dim(seq_len))  # surface StrategyTooLarge before timing anything

    rng = sequence_rng(seed, 0)
    t0 = time.perf_counter()
    codes = rng.integers(0, 4, size=(n, seq_len), dtype=np.uint8)
    generation_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    packed = hash_codes(codes, strategy)
    hashing_seconds = time.perf_counter() - t0

    return BenchReport(
        n=n,
        seq_len=seq_len,
        strategy=strategy,
        generation_seconds=generation_seconds,
        hashing_seconds=hashing_seconds,
        bits_set=int(np.bitwise_count(packed).sum()),
    )
