"""The workloads: inputs, timed CLI commands, output checks, traced mirrors.

Each workload is one input shape. A round runs every user-facing command on
it through the real ``dnaphash`` CLI, in fresh processes, one command at a
time (a closed loop with one client): ``index``, ``hash``, ``query --top-k``,
``query --max-dist`` (against the index the round just wrote) and
``simulate``. After each command it times ``compute_hash`` + ``query_topk``
in-process for a share of the probes. Every output is checked against
``oracle``. The traced mirror repeats the same commands in-process through
``layers``.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import dnaphash
import inputs
import oracle
from layers import Layers

now = time.perf_counter

#: Cold ``import dnaphash`` runs whose median is setup_s.
SETUP_REPEATS = 7
TOP_K = 10
MAX_DIST = 8


@dataclass
class Command:
    kind: str
    args: list[str]
    items: int
    check: Callable[[], list[str]]
    stdout: str | None = None


@dataclass
class Target:
    """What one command reads (its FASTA is ``fasta``) and must produce."""

    fasta: str
    args: list[str]
    records: list[tuple[str, str]]  # (id, bases) of every expected output record
    kind: str
    width: int


class Workload:
    name = ""
    why = ""
    SIZES: dict[str, dict] = {}
    SIM_GROUP = ""

    def __init__(self, runner, work: str, seed: int, size: str):
        self.runner = runner
        self.work = work
        self.seed = seed
        self.size = self.SIZES[size]
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.verified: dict[str, bytes] = {}
        self.index: oracle.Index | None = None
        self.expected: dict = {}
        self.loaded = None

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    # -- inputs ------------------------------------------------------------

    def generate(self) -> None:
        """Write the input files; set ``hash_in``, ``index_in`` and ``skipped``."""
        raise NotImplementedError

    def _generate_probes_and_simulation(self, sources: list[str], substitutions: int) -> None:
        self.queries = inputs.probes(self.rng, sources, self.size["probes"], substitutions)
        self.probes_fa = self.path("probes.fa")
        inputs.write_fasta(self.probes_fa, self.queries)
        self.index_path = self.path("out.dph")
        self.sim_seed = self.seed % 2 ** 32
        self.sim = dnaphash.preset_config(self.SIM_GROUP, n_primary=self.size["sim"],
                                          seed=self.sim_seed)
        picks = self.rng.choice(self.size["sim"], size=self.size["sim_sample"], replace=False)
        self.sim_sample = self._replay(sorted(int(o) for o in picks))

    def _replay(self, ordinals: list[int]) -> list[tuple[int, int, object, object]]:
        """(ordinal, rate index, primary, variant), by the documented draw order."""
        out = []
        for o in ordinals:
            rng = dnaphash.sequence_rng(self.sim_seed, o)
            primary = dnaphash.generate_sequence(self.sim.seq_len, rng, id=f"p{o}")
            for j, rate in enumerate(self.sim.divergence_rates):
                out.append((o, j, primary, dnaphash.mutate_sequence(primary, rate, rng)))
        return out

    # -- phases ------------------------------------------------------------

    def setup(self) -> list[float]:
        """Set up several times (a cold import); return each one's wall time."""
        return [self.runner.cold_import() for _ in range(SETUP_REPEATS)]

    def commands(self) -> list[Command]:
        query = ["query", self.index_path, self.probes_fa]
        pairs = self.sim.n_primary * len(self.sim.divergence_rates)
        return [
            Command("index", ["index", *self.index_in.args, "-o", self.index_path],
                    len(self.index_in.records), self.check_index),
            Command("hash", ["hash", *self.hash_in.args], len(self.hash_in.records),
                    self.check_hash, stdout=self.path("hash.tsv")),
            Command("topk", [*query, "--top-k", str(TOP_K)], len(self.queries),
                    lambda: self.check_query("topk"), stdout=self.path("topk.tsv")),
            Command("range", [*query, "--max-dist", str(MAX_DIST)], len(self.queries),
                    lambda: self.check_query("range"), stdout=self.path("range.tsv")),
            Command("simulate", [
                "simulate", "--group", self.SIM_GROUP, "-n", str(self.sim.n_primary),
                "--seed", str(self.sim_seed), "-o", self.path("hist.csv"),
                "--per-pair", self.path("pairs.csv")], pairs, self.check_simulation),
        ]

    def inprocess(self, part: int, parts: int) -> list[float]:
        """Time compute_hash + query_topk for every ``parts``-th probe from ``part``.

        Returns each probe's seconds. The first call loads the index the CLI
        wrote and runs one warm-up probe.
        """
        compute_hash, query_topk = dnaphash.compute_hash, dnaphash.query_topk
        if self.loaded is None:
            with open(self.index_path, "rb") as handle:
                self.loaded = dnaphash.load_index(handle)
            self.sequences = [dnaphash.Sequence(pid, b) for pid, b in self.queries]
            query_topk(self.loaded, compute_hash(self.sequences[0], self.loaded.strategy), TOP_K)
        index, strategy = self.loaded, self.loaded.strategy
        times, bad = [], 0
        want = self.expected.get("top")
        for j in range(part, len(self.sequences), parts):
            seq = self.sequences[j]
            t0 = now()
            hits = query_topk(index, compute_hash(seq, strategy), TOP_K)
            times.append(now() - t0)
            bad += want is None or [tuple(h) for h in hits] != want[j]
        self.runner.record("in-process query_topk", 0,
                           [f"{bad} in-process top-k results differ"] if bad else [])
        return times

    def index_bytes_per_rec(self) -> float:
        return os.path.getsize(self.index_path) / len(self.index_in.records)

    # -- checks ------------------------------------------------------------

    def _same_as_verified(self, key: str, path: str) -> tuple[bool, bytes]:
        with open(path, "rb") as handle:
            data = handle.read()
        return self.verified.get(key) == data, data

    def check_hash(self) -> list[str]:
        """Every digest of ``hash`` against the oracle, ids in input order."""
        same, data = self._same_as_verified("hash", self.path("hash.tsv"))
        if same:
            return []
        target = self.hash_in
        rows = [line.split("\t") for line in data.decode("utf-8").splitlines()]
        if [r[0] for r in rows] != [rid for rid, _ in target.records] or \
                any(len(r) != 2 for r in rows):
            return [f"{len(rows)} rows, expected {len(target.records)} ids in input order"]
        want = oracle.hash_rows([b for _, b in target.records], target.kind, target.width)
        bad = [i for i, r in enumerate(rows) if r[1] != oracle.to_hex(want[i], target.width)]
        if bad:
            return [f"{len(bad)} digests differ from the oracle, first {rows[bad[0]][0]}"]
        if target.fasta == self.index_in.fasta and (
                self.index is None or [r[1] for r in rows] != self.index.hex_list()):
            return ["hash output differs from the verified index"]
        self.verified["hash"] = data
        return []

    def check_index(self) -> list[str]:
        """Every record of the index file against the oracle, in input order."""
        same, data = self._same_as_verified("index", self.index_path)
        if same:
            return []
        target = self.index_in
        try:
            idx = oracle.read_index(self.index_path)
        except ValueError as exc:
            return [str(exc)]
        if (idx.kind, idx.width) != (target.kind, target.width):
            return [f"strategy {idx.kind}/{idx.width}, expected {target.kind}/{target.width}"]
        if idx.ids != [rid for rid, _ in target.records]:
            return [f"{len(idx.ids)} ids, expected {len(target.records)} in input order"]
        problems = []
        want = oracle.hash_rows([b for _, b in target.records], target.kind, target.width)
        bad = np.flatnonzero((want != idx.hashes).any(axis=1))
        if bad.size:
            problems.append(f"{bad.size} hashes differ from the oracle, first {idx.ids[bad[0]]}")
        if idx.source_lens != [len(b) for _, b in target.records]:
            problems.append("source lengths differ from the input")
        if not problems:
            self.verified["index"] = data
            self.index = idx
            self._expected_queries()
        return problems

    def _expected_queries(self) -> None:
        """Brute-force scans of the verified index for every probe, in probe order."""
        probes = oracle.hash_rows([b for _, b in self.queries], self.index.kind, self.index.width)
        top = [self.index.top_k(p.tobytes(), TOP_K) for p in probes]
        within = [self.index.within(p.tobytes(), MAX_DIST) for p in probes]

        def lines(hits):
            return "".join(f"{q}\t{rid}\t{d}\n" for (q, _), rows in zip(self.queries, hits)
                           for rid, d in rows).encode()

        self.expected = {"top": top, "topk": lines(top), "range": lines(within)}

    def check_query(self, kind: str) -> list[str]:
        """``query`` output must equal a brute-force scan, (distance, id) order included."""
        if self.index is None:
            return ["no verified index to check against"]
        with open(self.path(f"{kind}.tsv"), "rb") as handle:
            got = handle.read()
        if got == self.expected[kind]:
            return []
        got_lines, want_lines = got.splitlines(), self.expected[kind].splitlines()
        first = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
                     min(len(got_lines), len(want_lines)))
        return [f"{len(got_lines)} rows, expected {len(want_lines)}; "
                f"first difference at row {first}"]

    def check_simulation(self) -> list[str]:
        """Per-pair rows, the histogram that tallies them, and replayed sample pairs."""
        same_pairs, pair_data = self._same_as_verified("pairs", self.path("pairs.csv"))
        same_hist, hist_data = self._same_as_verified("hist", self.path("hist.csv"))
        if same_pairs and same_hist:
            return []
        cfg, n = self.sim, self.sim.n_primary
        rates, width, strategy = cfg.divergence_rates, cfg.hash_width, cfg.strategy
        rows = pair_data.decode("utf-8").splitlines()
        if rows[:1] != ["ordinal,divergence_rate,hamming_distance"] or \
                len(rows) != 1 + n * len(rates):
            return [f"pairs: {len(rows) - 1} rows, expected {n * len(rates)}"]
        dist = np.zeros((n, len(rates)), dtype=np.int64)
        for k, line in enumerate(rows[1:]):
            o, rate, d = line.split(",")
            if (int(o), float(rate)) != (k // len(rates), rates[k % len(rates)]):
                return [f"pairs: row {k + 1} is out of (ordinal, rate) order"]
            dist[k // len(rates), k % len(rates)] = int(d)
        problems = []
        want_hist = ["group,seq_len,hash_width,strategy,divergence_rate,hamming_distance,"
                     "count,fraction"]
        for j, rate in enumerate(rates):
            counts = np.bincount(dist[:, j], minlength=width + 1)
            want_hist += [f"{cfg.group},{cfg.seq_len},{width},{strategy.kind},{rate},{d},{c},"
                          f"{c / n:.9f}" for d, c in enumerate(counts)]
        if hist_data.decode("utf-8").splitlines() != want_hist:
            problems.append("hist: the histogram does not tally the per-pair distances")
        # The batched simulator against the per-record path, pair by pair.
        for o, j, primary, variant in self.sim_sample:
            d = dnaphash.hamming(dnaphash.compute_hash(primary, strategy),
                                 dnaphash.compute_hash(variant, strategy))
            if d != dist[o, j]:
                problems.append(f"pairs: ordinal {o} rate {rates[j]}: {dist[o, j]} != "
                                f"hamming(compute_hash(...)) = {d}")
                break
        primaries = [p for _, j, p, _ in self.sim_sample if j == 0]
        want = oracle.hash_rows([p.bases for p in primaries], strategy.kind, width)
        for p, row in zip(primaries, want):
            if dnaphash.compute_hash(p, strategy).data != row.tobytes():
                problems.append(f"pairs: compute_hash of primary {p.id} differs from the oracle")
                break
        if not problems:
            self.verified.update(pairs=pair_data, hist=hist_data)
        return problems

    def damage(self, kind: str) -> None:
        """Corrupt the output of command ``kind``, for the self-test of the checks."""
        if kind == "hash":
            with open(self.path("hash.tsv"), "r+", encoding="utf-8") as handle:
                rid, rest = handle.read().split("\t", 1)
                handle.seek(0)
                handle.write(f"{rid}\t{'e' if rest[0] == 'f' else 'f'}{rest[1:]}")
        elif kind == "index":
            # Flip one hash bit and repair the CRC, so only a content check sees it.
            with open(self.index_path, "r+b") as handle:
                data = bytearray(handle.read())
                data[-5] ^= 0x80
                data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
                handle.seek(0)
                handle.write(data)
        elif kind == "topk":
            with open(self.path("topk.tsv"), "r", encoding="utf-8") as handle:
                lines = handle.readlines()
            with open(self.path("topk.tsv"), "w", encoding="utf-8") as handle:
                handle.writelines(lines[1:])
        elif kind == "range":
            with open(self.path("range.tsv"), "a", encoding="utf-8") as handle:
                handle.write(f"{self.queries[0][0]}\t{self.index_in.records[0][0]}\t0\n")
        elif kind == "simulate":
            with open(self.path("pairs.csv"), "r", encoding="utf-8") as handle:
                lines = handle.readlines()
            o, rate, d = lines[1].rstrip("\n").split(",")
            lines[1] = f"{o},{rate},{int(d) + 1}\n"
            with open(self.path("pairs.csv"), "w", encoding="utf-8") as handle:
                handle.writelines(lines)

    # -- traced mirror -----------------------------------------------------

    def traced(self, layers: Layers) -> float:
        """Repeat the round's commands in-process; return index build self time.

        Build self time is build_index's wall minus the windowing and hashing
        it does, which are timed layer by layer on the same inputs.
        """
        tr = layers.tr
        hash_in, index_in = self.hash_in, self.index_in
        strategy = dnaphash.SelectionStrategy(hash_in.kind, hash_in.width)
        root = tr.begin("cli.hash")
        seqs = layers.parse(hash_in.fasta, root, self.n_policy)
        hexes = layers.hash_hex(seqs, strategy, root)
        text = layers.format_lines(((s.id, h) for s, h in zip(seqs, hexes)), root)
        layers.write(self.path("trace-hash.tsv"), text, root)
        tr.end(root)

        strategy = dnaphash.SelectionStrategy(index_in.kind, index_in.width)
        root = tr.begin("cli.index")
        seqs = layers.parse(index_in.fasta, root, self.n_policy)
        t0 = now()
        index = layers.build(seqs, strategy, root, **self.window)
        build = now() - t0
        layers.write(self.path("trace.dph"), layers.serialize(index, root), root)
        tr.end(root)
        decompose = tr.begin("decompose.build")
        items = layers.expand(seqs, self.window["window"], self.window["step"], decompose) \
            if self.window else seqs
        for seq in items:
            layers.hash_one(seq, strategy, decompose)
        tr.end(decompose)
        build -= tr.child_total("decompose.build")

        n = len(self.queries)
        for kind, offset, limit in (("topk", 0, {"top_k": TOP_K}),
                                    ("range", n, {"max_dist": MAX_DIST})):
            root = tr.begin(f"cli.{kind}")
            index = layers.load(self.index_path, root)
            probes = layers.parse(self.probes_fa, root)
            rows = []
            for j, seq in enumerate(probes):
                probe = layers.hash_one(seq, index.strategy, root, rid=offset + j)
                rows.extend((seq.id, rid, d) for rid, d in
                            layers.search(index, probe, root, offset + j, **limit))
            layers.write(self.path(f"trace-{kind}.tsv"), layers.format_lines(rows, root), root)
            tr.end(root)

        self._traced_simulate(layers)
        for path in (hash_in.fasta, index_in.fasta, self.probes_fa, self.probes_fa):
            tr.counters["sequence.bytes_in"] += os.path.getsize(path)
        tr.counters["sequence.records_skipped"] += self.skipped
        return build

    def _traced_simulate(self, layers: Layers) -> None:
        tr, api, cfg = layers.tr, layers.api, self.sim
        root = tr.begin("cli.simulate")
        t0 = now()
        hist = api.run_group(cfg, keep_pairs=True)
        tr.add("simulate.run_group", t0, now(), root)
        t0 = now()
        with open(self.path("trace-hist.csv"), "w", newline="") as sink:
            api.write_histogram_csv(hist, sink)
        with open(self.path("trace-pairs.csv"), "w", newline="") as sink:
            api.write_pair_csv(hist, sink)
        tr.add("simulate.write_csv", t0, now(), root)
        tr.end(root)
        tr.counters["simulate.pairs"] += cfg.n_primary * len(cfg.divergence_rates)
        if api.hash_matrix_stack is None:
            tr.missing["hashing.hash_matrix_stack_s"] = "hash_matrix_stack not in the package"
            return
        # The stacks run_group hashes: per chunk of ordinals, each primary then
        # one variant per rate, chunks capped near 6M float cells.
        decompose = tr.begin("decompose.simulate")
        streams = len(cfg.divergence_rates) + 1
        dim = int(np.ceil(np.sqrt(cfg.seq_len)))
        chunk = max(8, min(2048, 6_000_000 // (streams * dim * dim)))
        for start in range(0, cfg.n_primary, chunk):
            replay = self._replay(list(range(start, min(start + chunk, cfg.n_primary))))
            seqs = [s for _, j, p, v in replay for s in ((p, v) if j == 0 else (v,))]
            raw = np.frombuffer("".join(s.bases for s in seqs).encode("ascii"), np.uint8)
            cells = np.zeros((len(seqs), dim * dim))
            cells[:, :cfg.seq_len] = oracle.ASCII_TO_INTENSITY[raw].reshape(len(seqs), -1)
            stack = cells.reshape(-1, dim, dim)
            t0 = now()
            api.hash_matrix_stack(stack, cfg.strategy)
            tr.add("hashing.hash_matrix_stack", t0, now(), decompose)
        tr.end(decompose)


class ShortReads(Workload):
    name = "short-reads"
    why = ("100 bp reads, 1% with an N (dim 10, block-64): per-record parse, hash and save "
           "dominate, and queries scan a 20k-record index; simulate group B")
    SIZES = {"default": {"reads": 20_000, "probes": 40, "sim": 4000, "sim_sample": 16},
             "tiny": {"reads": 300, "probes": 10, "sim": 10, "sim_sample": 4}}
    SIM_GROUP = "B"
    LENGTH, SUBSTITUTIONS = 100, 5
    n_policy = "skip-record"
    window: dict = {}

    def generate(self):
        records, clean = inputs.records(self.rng, self.size["reads"], self.LENGTH, "s",
                                        n_frac=0.01)
        fasta = self.path("reads.fa")
        inputs.write_fasta(fasta, records)
        kept = [r for r, ok in zip(records, clean) if ok]
        # hash and index read the same file; both skip the records holding an N
        self.skipped = 2 * (len(records) - len(kept))
        policy = ["--n-policy", self.n_policy]
        self.hash_in = Target(fasta, [*policy, fasta], kept, "block", 64)
        self.index_in = Target(fasta, [fasta, *policy], kept, "block", 64)
        self._generate_probes_and_simulation([b for _, b in kept], self.SUBSTITUTIONS)


class LongRecords(Workload):
    name = "long-records"
    why = ("10 kbp records (dim 100, scipy FFT) and a 1000 bp window index, step 100, of "
           "200 kbp records (dim 32, zigzag-32): the largest inputs; simulate group F")
    SIZES = {"default": {"records": 900, "chroms": 12, "chrom_len": 200_000, "probes": 40,
                         "sim": 300, "sim_sample": 8},
             "tiny": {"records": 5, "chroms": 2, "chrom_len": 6_000, "probes": 6, "sim": 5,
                      "sim_sample": 2}}
    SIM_GROUP = "F"
    RECORD_LEN, SUBSTITUTIONS = 10_000, 50
    n_policy = "reject"
    window = {"window": 1000, "step": 100}

    def generate(self):
        size = self.size
        records, _ = inputs.records(self.rng, size["records"], self.RECORD_LEN, "g")
        fasta = self.path("records.fa")
        inputs.write_fasta(fasta, records, wrap=80)
        self.hash_in = Target(fasta, [fasta], records, "block", 64)
        chroms = inputs.chromosomes(self.rng, size["chroms"], size["chrom_len"],
                                    size["chrom_len"] // 40)
        chrom_fa = self.path("chroms.fa")
        inputs.write_fasta(chrom_fa, chroms, wrap=80)
        w, step = self.window["window"], self.window["step"]
        windows = [(f"{rid}:{off}", bases[off:off + w]) for rid, bases in chroms
                   for off in range(0, len(bases) - w + 1, step)]
        self.index_in = Target(chrom_fa, [chrom_fa, "--window", str(w), "--step", str(step),
                                          "--width", "32", "--strategy", "zigzag"],
                               windows, "zigzag", 32)
        self.skipped = 0
        self._generate_probes_and_simulation([b for _, b in windows], self.SUBSTITUTIONS)


WORKLOADS = {w.name: w for w in (ShortReads, LongRecords)}
