"""In-process span tracing around the package's public per-layer functions.

The traced run repeats a workload's CLI commands in-process, calling the
same public functions the CLI calls, one layer at a time, and records a
span around each call. Spans live in memory (name, start, end, parent,
request id) and are written once, at the end of the run.

The benchmark must survive refactors that remove a function it times:
each metric whose function is gone is recorded in ``Tracer.missing`` and
the work is done through the nearest public function that remains.
"""

from __future__ import annotations

import collections
import io
import json
import time
import types

import dnaphash

now = time.perf_counter

API_NAMES = (
    "Sequence", "parse_fasta", "layout_matrix", "dct2", "snap_zeros", "sign_map",
    "select_bits", "compute_hash", "hash_matrix_stack", "expand_windows", "build_index",
    "index_bytes", "save_index", "load_index", "query", "query_topk", "run_group",
    "write_histogram_csv", "write_pair_csv",
)


def package_api() -> types.SimpleNamespace:
    """The public names the benchmark calls; a removed one reads as None."""
    return types.SimpleNamespace(**{n: getattr(dnaphash, n, None) for n in API_NAMES})


class Tracer:
    """Spans and counters kept in memory. With ``enabled`` off no span is stored."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, request id]
        self.counters: collections.Counter = collections.Counter()
        self.missing: dict[str, str] = {}

    def begin(self, name: str, parent: int | None = None, rid: int | None = None) -> int | None:
        if not self.enabled:
            return None
        self.spans.append([name, now(), None, parent, rid])
        return len(self.spans) - 1

    def end(self, sid: int | None) -> None:
        if sid is not None:
            self.spans[sid][2] = now()

    def add(self, name: str, t0: float, t1: float, parent: int | None = None,
            rid: int | None = None) -> None:
        if self.enabled:
            self.spans.append([name, t0, t1, parent, rid])

    def self_times(self) -> dict[str, float]:
        """Per name: summed span time minus the time its child spans cover."""
        out: dict[str, float] = collections.defaultdict(float)
        for name, t0, t1, _parent, _rid in self.spans:
            out[name] += t1 - t0
        for _name, t0, t1, parent, _rid in self.spans:
            if parent is not None:
                out[self.spans[parent][0]] -= t1 - t0
        return dict(out)

    def child_total(self, root_name: str) -> float:
        """Summed duration of the direct children of every ``root_name`` span."""
        roots = {i for i, s in enumerate(self.spans) if s[0] == root_name}
        return sum(s[2] - s[1] for s in self.spans if s[3] in roots)

    def dump(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["span_fields"] = ["name", "start", "end", "parent", "request"]
        doc["spans"] = self.spans
        doc["counters"] = dict(self.counters)
        doc["missing"] = self.missing
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


class Layers:
    """Traced calls into each layer, mirroring what a CLI command does."""

    #: Metrics of the layer-by-layer hash; lost if any step's function is gone.
    DECOMPOSED = ("sequence.layout_matrix_s", "transform.dct2_s", "hashing.snap_sign_s",
                  "hashing.select_pack_s")

    def __init__(self, tracer: Tracer, api: types.SimpleNamespace):
        self.tr = tracer
        self.api = api
        gone = [f for f in ("layout_matrix", "dct2", "snap_zeros", "sign_map", "select_bits")
                if getattr(api, f) is None]
        self.decomposed = not gone
        if gone:
            for metric in self.DECOMPOSED:
                tracer.missing[metric] = f"{', '.join(gone)} not in the package"

    def parse(self, path: str, parent: int | None, n_policy: str = "reject") -> list:
        t0 = now()
        with open(path, "r", encoding="utf-8") as handle:
            seqs = self.api.parse_fasta(handle, n_policy=n_policy)
        self.tr.add("sequence.parse_fasta", t0, now(), parent)
        self.tr.counters["sequence.records_read"] += len(seqs)
        return seqs

    def hash_one(self, seq, strategy, parent: int | None, rid: int | None = None):
        """Hash one sequence layer by layer; return the hash object."""
        api, add = self.api, self.tr.add
        if not self.decomposed:
            t0 = now()
            h = api.compute_hash(seq, strategy)
            add("hashing.compute_hash", t0, now(), parent, rid)
            return h
        t0 = now()
        m = api.layout_matrix(seq)
        t1 = now()
        c = api.dct2(m)
        t2 = now()
        s = api.sign_map(api.snap_zeros(c))
        t3 = now()
        h = api.select_bits(s, strategy, source_len=m.payload_len)
        t4 = now()
        add("sequence.layout_matrix", t0, t1, parent, rid)
        add("transform.dct2", t1, t2, parent, rid)
        add("hashing.snap_sign", t2, t3, parent, rid)
        add("hashing.select_pack", t3, t4, parent, rid)
        return h

    def hash_hex(self, seqs, strategy, parent: int | None) -> list[str]:
        out = []
        for seq in seqs:
            h = self.hash_one(seq, strategy, parent)
            t0 = now()
            out.append(h.to_hex())
            self.tr.add("hashing.to_hex", t0, now(), parent)
        return out

    def write(self, path: str, data, parent: int | None) -> None:
        t0 = now()
        with open(path, "wb" if isinstance(data, bytes) else "w") as handle:
            handle.write(data)
        self.tr.add("cli.write", t0, now(), parent)

    def format_lines(self, rows, parent: int | None) -> str:
        t0 = now()
        text = "".join("\t".join(map(str, row)) + "\n" for row in rows)
        self.tr.add("cli.format", t0, now(), parent)
        return text

    def expand(self, seqs, window: int, step: int, parent: int | None) -> list:
        t0 = now()
        if self.api.expand_windows is not None:
            items = list(self.api.expand_windows(seqs, window, step))
            self.tr.add("index.expand_windows", t0, now(), parent)
        else:
            self.tr.missing["index.expand_windows_s"] = "expand_windows not in the package"
            items = [self.api.Sequence(f"{s.id}:{o}", s.bases[o:o + window])
                     for s in seqs for o in range(0, len(s) - window + 1, step)]
        self.tr.counters["index.windows_emitted"] += len(items)
        return items

    def build(self, seqs, strategy, parent: int | None, **window):
        t0 = now()
        index = self.api.build_index(seqs, strategy, **window)
        self.tr.add("index.build_index", t0, now(), parent)
        return index

    def serialize(self, index, parent: int | None) -> bytes:
        t0 = now()
        if self.api.index_bytes is not None:
            data = self.api.index_bytes(index)
        else:
            self.tr.missing["index.index_bytes_s"] = "index_bytes not in the package"
            sink = io.BytesIO()
            self.api.save_index(index, sink)
            data = sink.getvalue()
        self.tr.add("index.index_bytes", t0, now(), parent)
        self.tr.counters["index.bytes_out"] += len(data)
        return data

    def load(self, path: str, parent: int | None):
        t0 = now()
        with open(path, "rb") as handle:
            index = self.api.load_index(handle)
        self.tr.add("index.load_index", t0, now(), parent)
        return index

    def search(self, index, probe, parent: int | None, rid: int, *, top_k: int | None = None,
               max_dist: int | None = None) -> list:
        t0 = now()
        if top_k is not None:
            hits = self.api.query_topk(index, probe, top_k)
            self.tr.add("index.query_topk", t0, now(), parent, rid)
        else:
            hits = self.api.query(index, probe, max_dist)
            self.tr.add("index.query", t0, now(), parent, rid)
        self.tr.counters["index.comparisons"] += len(index)
        self.tr.counters["index.hits"] += len(hits)
        return hits
