"""Sequence validation, FASTA parsing and the pixel-matrix layout."""

import logging
import math
import pickle
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dnaphash.sequence
from dnaphash import (
    BASE_TO_INTENSITY,
    DnaPhashError,
    EmptyRecord,
    InvalidBase,
    MalformedFasta,
    Sequence,
    SequenceTooShort,
    decode_intensity,
    encode_base,
    layout_matrix,
    matrix_dim,
    parse_fasta,
    read_fasta,
)
from dnaphash.sequence import PAD_VALUE, _stream_fasta, bases_from_codes, codes_from_bases

# Bytes and characters next to the alphabet: control bytes, letters whose
# case mapping leaves ASCII or changes length, a lone surrogate, an emoji.
_ODD_SYMBOLS = ["N", "n", " ", "\t", "\x00", "\x7f", "é", "ß", "ﬁ", "ı", "ſ", "İ", "ẗ", "ẚ",
                "ﬅ", "\ud800", "\U0001f600"]


def _set_rule(bases):
    """What ``Sequence("r", bases)`` should give, by a set test over the upper-cased bases.

    The first bad symbol is found one character at a time: a character may
    upper-case to several ("ẗ" to "T" and a combining mark).
    """
    valid = frozenset("ACGT")
    if not set(bases.upper()) <= valid:
        i = next(i for i, ch in enumerate(bases) if ch.upper() not in valid)
        return ("bad", bases[i], i + 1)
    return ("ok", bases.upper()) if len(bases) >= 4 else ("short",)


class TestEncoding:
    def test_intensity_table(self):
        assert encode_base("A") == 63
        assert encode_base("T") == 127
        assert encode_base("C") == 191
        assert encode_base("G") == 255

    def test_lowercase_accepted(self):
        for b in "atcg":
            assert encode_base(b) == encode_base(b.upper())

    @pytest.mark.parametrize("bad", ["N", "X", "U", "-", "", " ", "AT"])
    def test_invalid_symbols(self, bad):
        with pytest.raises(InvalidBase):
            encode_base(bad)

    def test_round_trip(self):
        for base, value in BASE_TO_INTENSITY.items():
            assert decode_intensity(value) == base

    def test_decode_rejects_other_intensities(self):
        with pytest.raises(ValueError, match="no nucleotide has intensity 64"):
            decode_intensity(64)

    def test_evenly_spaced_intensities(self):
        # all four levels 64 apart, topping out at the brightest 8-bit value
        values = sorted(BASE_TO_INTENSITY.values())
        assert values[-1] == 255
        assert {b - a for a, b in zip(values, values[1:])} == {64}
        assert len(set(values)) == 4

    def test_code_round_trip(self):
        bases = "".join(random.Random(3).choices("ATCG", k=500))
        assert bases_from_codes(codes_from_bases(bases)) == bases
        assert codes_from_bases("ATCG").tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("bases, symbol, position", [
        ("ACGTa", "a", 5), ("acgt", "a", 1), ("ACNGT", "N", 3), ("ACGT-", "-", 5),
        ("AC GT", " ", 3), ("ACG\x00T", "\x00", 4), ("ACGT\x7f", "\x7f", 5), ("NAx", "N", 1),
        ("ACGTxN", "x", 5), ("ACGTnN", "n", 5)])
    def test_codes_name_the_first_invalid_base(self, bases, symbol, position):
        with pytest.raises(InvalidBase) as err:
            codes_from_bases(bases)
        assert (err.value.base, err.value.position, err.value.record_id) == (symbol, position, None)
        assert str(err.value) == f"invalid base {symbol!r} at position {position}"


class TestSequence:
    def test_canonical_uppercase(self):
        seq = Sequence("s", "acgtACGT")
        assert seq.bases == "ACGTACGT"
        assert len(seq) == 8

    def test_too_short(self):
        with pytest.raises(SequenceTooShort):
            Sequence("s", "ACG")

    def test_invalid_base_reports_position(self):
        with pytest.raises(InvalidBase) as err:
            Sequence("rec9", "ACGNACGT")
        assert err.value.record_id == "rec9"
        assert err.value.position == 4
        assert "rec9" in str(err.value)

    @pytest.mark.parametrize("bases, symbol, position", [
        ("ẗ", "ẗ", 1), ("ACGTẗAAAA", "ẗ", 5), ("AẚCGT", "ẚ", 2), ("ßACGT", "ß", 1)])
    def test_characters_that_upper_case_to_several(self, bases, symbol, position):
        # "ẗ".upper() is "T" and a combining mark, so positions count the bases as given
        with pytest.raises(InvalidBase) as err:
            Sequence("r", bases)
        assert (err.value.base, err.value.position) == (symbol, position)

    def test_invalid_base_pickles(self):
        err = pickle.loads(pickle.dumps(InvalidBase("N", record_id="r1", position=7)))
        assert (type(err), err.base, err.record_id, err.position) == (InvalidBase, "N", "r1", 7)
        assert str(err) == "invalid base 'N' in record 'r1' at position 7"

    @settings(max_examples=300, deadline=None)
    @given(st.text("ACGTacgt", max_size=24) | st.text(
        st.sampled_from("ACGTacgt") | st.sampled_from(_ODD_SYMBOLS) | st.characters(),
        max_size=24))
    def test_matches_the_set_rule(self, bases):
        try:
            got = ("ok", Sequence("r", bases).bases)
        except InvalidBase as err:
            assert err.record_id == "r"
            got = ("bad", err.base, err.position)
        except SequenceTooShort:
            got = ("short",)
        assert got == _set_rule(bases)


class TestLayout:
    @pytest.mark.parametrize("length,dim", [(4, 2), (5, 3), (9, 3), (100, 10),
                                            (256, 16), (1000, 32), (10000, 100)])
    def test_matrix_dim(self, length, dim):
        assert matrix_dim(length) == dim

    def test_square_length_has_no_padding(self):
        seq = Sequence("s", "ACGT" * 64)  # 256 bp
        pm = layout_matrix(seq)
        assert pm.cells.shape == (16, 16)
        assert pm.payload_len == 256
        assert pm.cells.dtype == np.uint8

    def test_padding_cells_are_zero(self):
        seq = Sequence("s", "G" * 1000)
        pm = layout_matrix(seq)
        assert pm.dim == 32
        flat = pm.cells.ravel()
        assert np.all(flat[:1000] == 255)
        assert np.all(flat[1000:] == PAD_VALUE)
        assert flat[1000:].size == 24

    def test_row_major_order(self):
        seq = Sequence("s", "ATCG" + "A" * 5)  # 9 bp -> 3x3
        pm = layout_matrix(seq)
        expected = np.array([[63, 127, 191], [255, 63, 63], [63, 63, 63]], dtype=np.uint8)
        assert np.array_equal(pm.cells, expected)

    def test_round_trip_recovers_bases(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(4, 400)
            bases = "".join(rng.choices("ATCG", k=n))
            pm = layout_matrix(Sequence("s", bases))
            decoded = "".join(decode_intensity(int(v)) for v in pm.cells.ravel()[:n])
            assert decoded == bases
            assert pm.payload_len == n

    def test_equal_lengths_equal_dims(self):
        rng = random.Random(12)
        for _ in range(10):
            n = rng.randint(4, 2000)
            a = layout_matrix(Sequence("a", "".join(rng.choices("ATCG", k=n))))
            b = layout_matrix(Sequence("b", "".join(rng.choices("ATCG", k=n))))
            assert a.dim == b.dim == matrix_dim(n)
            assert a.dim == math.isqrt(n) + (0 if math.isqrt(n) ** 2 == n else 1)

    def test_cells_are_read_only(self):
        pm = layout_matrix(Sequence("s", "ACGTACGT"))
        with pytest.raises(ValueError):
            pm.cells[0, 0] = 7


class TestFasta:
    def test_single_record_with_wrapping(self):
        seqs = parse_fasta(">s1 some description\nACGT\nacgt\n")
        assert len(seqs) == 1
        assert seqs[0].id == "s1"
        assert seqs[0].bases == "ACGTACGT"

    def test_multiple_records_keep_order(self):
        text = ">b\nAAAA\n>a\nCCCC\n>m\nGGGG\n"
        assert [s.id for s in parse_fasta(text)] == ["b", "a", "m"]

    def test_blank_lines_and_crlf(self):
        seqs = parse_fasta(">s1\r\nAC\r\n\r\nGT\r\n")
        assert seqs[0].bases == "ACGT"

    def test_rewrap_invariance(self):
        rng = random.Random(7)
        bases = "".join(rng.choices("ATCG", k=301))
        for wrap in (1, 3, 7, 60, 500):
            lines = [">x"] + [bases[i:i + wrap] for i in range(0, len(bases), wrap)]
            (seq,) = parse_fasta("\n".join(lines))
            assert seq.bases == bases

    def test_data_before_header(self):
        with pytest.raises(MalformedFasta):
            parse_fasta("ACGT\n>s1\nACGT\n")

    def test_header_without_id(self):
        with pytest.raises(MalformedFasta):
            parse_fasta(">\nACGT\n")

    def test_empty_record(self):
        with pytest.raises(EmptyRecord):
            parse_fasta(">s1\n>s2\nACGT\n")

    def test_trailing_empty_record(self):
        with pytest.raises(EmptyRecord):
            parse_fasta(">s1\nACGT\n>s2\n")

    def test_invalid_base_names_record_and_offset(self):
        with pytest.raises(InvalidBase) as err:
            parse_fasta(">x\nACGN\n")
        assert err.value.record_id == "x"
        assert err.value.position == 4

    def test_skip_record_policy(self, caplog):
        text = ">good\nACGT\n>bad\nACNT\n>tail\nGGGG\n"
        with caplog.at_level("WARNING"):
            seqs = parse_fasta(text, n_policy="skip-record")
        assert [s.id for s in seqs] == ["good", "tail"]
        assert any("bad" in rec.message for rec in caplog.records)

    def test_reject_policy_is_default(self):
        with pytest.raises(InvalidBase):
            parse_fasta(">bad\nACNT\n")

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            parse_fasta(">s\nACGT\n", n_policy="mend")

    @pytest.mark.parametrize(
        "sep", ["\x1c", "\x1d", "\x1e", "\x85", "\v", "\f", "\u2028", "\u2029"])
    def test_string_lines_end_where_file_lines_end(self, tmp_path, sep):
        # str.splitlines() also ends a line at each of these; a file only at LF, CR and CRLF
        path = tmp_path / "in.fa"
        for text in (f">a{sep}b\nACGT{sep}ACGT\n", f">a b{sep}\r\nACGT\r\nAC{sep}\rGT\n",
                     f">a\nACGT\n{sep}\n>b\nACGT{sep}", f"{sep}>a\nACGT\n"):
            path.write_bytes(text.encode("utf-8"))
            assert _outcome(lambda: parse_fasta(text)) == _outcome(lambda: read_fasta(path))


def _outcome(run):
    """What ``run()`` returns, or the type and text of the package error it raises."""
    try:
        return "ok", run()
    except DnaPhashError as exc:
        return type(exc), str(exc)


def _streamed(path, n_policy, block):
    with mock.patch.object(dnaphash.sequence, "_BLOCK_BYTES", block), \
            open(path, "rb") as handle:
        batches = list(_stream_fasta(handle, n_policy=n_policy))
    for batch in batches:
        assert batch.ids and len(batch.ids) == len(batch.lengths)
        assert batch.lengths.sum() == batch.codes.size and batch.codes.dtype == np.uint8
        assert batch.starts.tolist() == (np.cumsum(batch.lengths) - batch.lengths).tolist()
    return ([rid for b in batches for rid in b.ids],
            [n for b in batches for n in b.lengths.tolist()],
            b"".join(b.codes.tobytes() for b in batches))


def _read(path, n_policy):
    seqs = read_fasta(path, n_policy=n_policy)
    return ([s.id for s in seqs], [len(s) for s in seqs],
            codes_from_bases("".join(s.bases for s in seqs)).tobytes())


def _body_lines(draw, bases):
    """``bases`` cut into lines, some blank or padded with whitespace."""
    lines, at = [], 0
    wrap = draw(st.sampled_from([None, None, 1, 3, 7, 10]))
    while at < len(bases) or not lines:
        step = len(bases) - at if wrap is None else wrap
        line = bases[at:at + step]
        at += step
        if draw(st.integers(0, 9)) == 0:
            line = draw(st.sampled_from([" ", "\t", "  "])) + line + " "
        lines.append(line.encode("utf-8", "surrogateescape"))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from([b"", b"  "])))
        if at >= len(bases):
            break
    return lines


@st.composite
def fasta_bytes(draw):
    """FASTA text meant to reach every branch of the streamed reader.

    At most one part of the file (the text before the first header, or
    one record) is faulty, so that most files reach their end.
    """
    count = draw(st.integers(0, 8))
    fault = draw(st.integers(-1, 2 * count + 1))  # the faulty part, if in -1..count
    lines = []
    if draw(st.integers(0, 3)) == 0:  # text before the first header
        pick = [b"ACGT", b"\xef\xbb\xbf", b"\xff"] if fault == -1 else [b"", b"  "]
        lines += draw(st.lists(st.sampled_from(pick), min_size=1, max_size=2))
    for i in range(count):
        name = draw(st.sampled_from(["r", "r", "r", "é", "☃x", "s\x1cq"])) + str(i)
        headers = [f">{name}", f">{name}", f">{name} some description", f"> {name}\t",
                   f"  >{name}"]
        symbols = ["ACGT", "ACGT", "acgtACGT", "ACGTN"]
        sizes = [4, 5, 12, 40]
        if i == fault:
            part = draw(st.sampled_from(["header", "symbols", "size"]))
            if part == "header":
                headers = [">", ">  ", f">{name}\udcff", f">{name} \udcfe"]
            elif part == "symbols":
                symbols = ["ACG\udcff", "ACGT>"]
            else:
                sizes = [0, 2, 3]
        lines.append(draw(st.sampled_from(headers)).encode("utf-8", "surrogateescape"))
        size = draw(st.sampled_from(sizes))
        bases = "".join(draw(st.lists(st.sampled_from(draw(st.sampled_from(symbols))),
                                      min_size=size, max_size=size)))
        lines += _body_lines(draw, bases)
    ends = draw(st.sampled_from([[b"\n"], [b"\n"], [b"\r\n"], [b"\r"], [b"\n", b"\r\n", b"\r"]]))
    out = b"".join(line + draw(st.sampled_from(ends)) for line in lines)
    return out if draw(st.booleans()) else out.rstrip(b"\r\n")


def _agree(tmp_path, caplog, data, n_policy, block):
    """The streamed reader, reading ``block`` bytes at a time, gives :func:`read_fasta`'s
    records, error and warnings."""
    path = tmp_path / "in.fa"
    path.write_bytes(data)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="dnaphash.sequence"):
        want = _outcome(lambda: _read(path, n_policy))
    warned = [r.getMessage() for r in caplog.records]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="dnaphash.sequence"):
        got = _outcome(lambda: _streamed(path, n_policy, block))
    assert got == want
    assert [r.getMessage() for r in caplog.records] == warned


_CLEAN = b"".join(b">r%d\nACGTACGT\n" % i for i in range(20))  # 40 lines, 270 bytes
_LONG = "".join(random.Random(7).choices("ACGTacgt", k=200))

# Inputs at the edges of the streamed reader's blocks, lines and headers.
BOUNDARY_CASES = {
    "no final LF": b">a\nACGT\n>b\nACGTA",
    "header as the last line": b">a\nACGT\n>b",
    "header as the last line, with LF": b">a\nACGT\n>b\n",
    "only a header": b">a",
    "> inside a sequence line": b">a\nAC>GT\n>b\nACGT\n",
    "> ending a sequence line": b">a\nACGT>\n>b\nACGT\n",
    "indented header": b">a\nACGT\n  >b\nACGT\n",
    "blank lines before the first header": b"\n\n  \n>a\nACGT\n",
    "text before the first header": b"ACGT\n>a\nACGT\n",
    "indented header before the first header": b" >a\nACGT\n>b\nACGT\n",
    "CRLF": b">a x\r\nACGT\r\nAC\r\n\r\n>b\r\nGGGG\r\n",
    "lone CR": b">a\rACGT\rAC\r>b\rACGTT\r",
    "mixed line ends": b">a\r\nACGT\rAC\n>b\rAC\r\nGT",
    "record longer than a block": (b">long x\n" + "\n".join(
        _LONG[i:i + 7] for i in range(0, 200, 7)).encode() + b"\n>b\nACGT\n"),
    "malformed header in a later block": _CLEAN + b">\nACGT\n" + _CLEAN,
    "header not UTF-8 in a later block": _CLEAN + b">r\xff\nACGT\n",
    "N record in a later block": _CLEAN + b">n\nACNT\n" + _CLEAN.replace(b">r", b">s"),
    "short record in a later block": _CLEAN + b">t\nACG\n",
    "empty record in a later block": _CLEAN + b">e\n\n>f\nACGT\n",
    "NBSP in a header": ">a\u00a0b\nACGT\n".encode(),
    "U+2003 in a header": ">\u2003a\u2003b\nACGT\n".encode(),
    "FS (0x1c) in a header": b">a\x1cb\nACGT\n",
    "NEL (U+0085) in a header": ">a\x85b\nACGT\n".encode(),
    "tab-only header": b">\t\nACGT\n",
    "trailing spaces": b">a\nACGT  \nAC \n",
    "internal space": b">a\nAC GT\n",
    "form feed": b">a\nACGT\f\n\fAC\n>b\nAC\fGT\n",
    "FS (0x1c) in a sequence line": b">a\nACGT\x1c\n>b\nAC\x1cGT\n",
    "NUL": b">a\nAC\x00GT\n",
    "e acute": ">a\nACéGT\n>b\nACGT\n".encode(),
    "lower case": b">a\nacgt\nACgt\n",
}


class TestStreamedReader:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=fasta_bytes(), block=st.integers(2, 48),
           n_policy=st.sampled_from(["reject", "skip-record"]))
    def test_agrees_with_read_fasta(self, tmp_path, caplog, data, block, n_policy):
        _agree(tmp_path, caplog, data, n_policy, block)

    @pytest.mark.parametrize("n_policy", ["reject", "skip-record"])
    @pytest.mark.parametrize("block", [16, 64, dnaphash.sequence._BLOCK_BYTES])
    @pytest.mark.parametrize("data", BOUNDARY_CASES.values(), ids=BOUNDARY_CASES)
    def test_boundaries_agree_with_read_fasta(self, tmp_path, caplog, data, block, n_policy):
        _agree(tmp_path, caplog, data, n_policy, block)

    def test_record_longer_than_a_block_spans_cuts(self, tmp_path):
        bases = "".join(random.Random(5).choices("ACGTacgt", k=3000))
        text = ">a x\n" + "\n".join(bases[i:i + 61] for i in range(0, 3000, 61)) + "\n>b\nACGT\n"
        path = tmp_path / "long.fa"
        path.write_bytes(text.encode())
        for block in (2, 7, 64, 4096):
            assert _streamed(path, "reject", block) == _read(path, "reject")

    def test_non_utf8_bytes_are_data_errors(self, tmp_path):
        path = tmp_path / "bad.fa"
        path.write_bytes(b">a\nAC\xffGT\n")
        with pytest.raises(InvalidBase, match="in record 'a' at position 3"):
            _streamed(path, "reject", 64)
        path.write_bytes(b">a\nACGT\n>b\xff\nACGT\n")
        with pytest.raises(MalformedFasta, match="line 3: header is not valid UTF-8"):
            _streamed(path, "reject", 64)
        path.write_bytes(b"\xff\n>a\nACGT\n")
        with pytest.raises(MalformedFasta, match="line 1: sequence data before"):
            _streamed(path, "reject", 64)

    def test_clean_records_skip_the_line_parser(self, tmp_path):
        path = tmp_path / "clean.fa"
        path.write_bytes(b">a desc\r\nACGT\r\nacgt\r\n\r\n>b\nGGGGCCCC\n")
        with mock.patch.object(dnaphash.sequence, "_parse_lines",
                               side_effect=AssertionError("line parser used")), \
                mock.patch.object(dnaphash.sequence, "Sequence",
                                  side_effect=AssertionError("Sequence built")):
            ids, lengths, codes = _streamed(path, "reject", 8)
        assert (ids, lengths) == (["a", "b"], [8, 8])
        assert codes == codes_from_bases("ACGTACGTGGGGCCCC").tobytes()
