import decimal
import math
import re
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import entorder as eo
from entorder import fileio
from entorder.errors import EntOrderError, NonPositive, ParseError, ValidationError, WeightsIncrease
from entorder.fileio import HEADER, META_KEYS, _log10_exact, emit_report
from entorder.numutil import LN10, NEG_INF
from entorder.spectrum import make_spectrum


class TestSpectrumFiles:
    def test_round_trip_tmss(self, tmp_path):
        # values survive to 17 significant digits (one ulp: the base-10
        # encoding cannot represent every natural-log double exactly)
        s = eo.tmss(0.5, 200)
        path = tmp_path / "s.spec"
        eo.write_spectrum(s, path)
        back = eo.read_spectrum(path)
        assert np.allclose(back.log_weights, s.log_weights, rtol=5e-16, atol=0)
        assert back.log_tail_bound == pytest.approx(s.log_tail_bound, rel=5e-16)
        assert back.metadata == s.metadata

    def test_round_trip_psi(self, tmp_path, psi_family):
        path = tmp_path / "p.spec"
        eo.write_spectrum(psi_family[2], path)
        back = eo.read_spectrum(path)
        assert np.allclose(back.log_weights, psi_family[2].log_weights, rtol=5e-16, atol=0)
        assert back.metadata["family"] == "psi"
        assert back.metadata["k"] == 2

    def test_second_generation_bytes_stable(self, tmp_path):
        s = eo.tmss(0.7, 300)
        p1, p2 = tmp_path / "a.spec", tmp_path / "b.spec"
        eo.write_spectrum(s, p1)
        eo.write_spectrum(eo.read_spectrum(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_header(self, tmp_path):
        f = tmp_path / "bad.spec"
        f.write_text("-0.5\n")
        with pytest.raises(ParseError) as err:
            eo.read_spectrum(f)
        assert err.value.line == 1

    def test_bad_weight_line_number(self, tmp_path):
        f = tmp_path / "bad.spec"
        f.write_text("#schmidt-spectrum 1\n-0.30102999566398120\nabc\n")
        with pytest.raises(ParseError) as err:
            eo.read_spectrum(f)
        assert err.value.line == 3

    def test_unknown_metadata_key(self, tmp_path):
        f = tmp_path / "bad.spec"
        f.write_text("#schmidt-spectrum 1\n#color blue\n-0.3\n")
        with pytest.raises(ParseError) as err:
            eo.read_spectrum(f)
        assert err.value.line == 2

    def test_metadata_key_without_value(self, tmp_path):
        f = tmp_path / "bad.spec"
        f.write_text("#schmidt-spectrum 1\n#q\n-0.3\n")
        with pytest.raises(ParseError, match="needs a key and a value") as err:
            eo.read_spectrum(f)
        assert err.value.line == 2

    def test_no_weights(self, tmp_path):
        f = tmp_path / "bad.spec"
        f.write_text("#schmidt-spectrum 1\n#family tmss\n")
        with pytest.raises(ParseError):
            eo.read_spectrum(f)

    def test_eighteen_digit_literals(self, tmp_path):
        f = tmp_path / "long.spec"
        v = -0.301029995663981195  # 18 significant digits
        f.write_text(f"#schmidt-spectrum 1\n{v:.18g}\n{v:.18g}\n")
        s = eo.read_spectrum(f)
        assert s.length == 2
        assert s.weights()[0] == pytest.approx(0.5, rel=1e-15)


def _reference_read(path):
    """Per-line reader that the whole-array one replaced, kept as an oracle."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            raw = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not ASCII text: {exc}") from exc
    if not raw or raw[0].strip() != HEADER:
        raise ParseError(f"expected header {HEADER!r}", line=1)
    metadata = {}
    log_tail = NEG_INF
    log_weights = []
    in_weights = False
    for lineno, line in enumerate(raw[1:], start=2):
        text = line.strip()
        if not text:
            raise ParseError("blank line not allowed", line=lineno)
        if text.startswith("#"):
            if in_weights:
                raise ParseError("metadata after weight lines", line=lineno)
            parts = text[1:].split(None, 1)
            if len(parts) != 2:
                raise ParseError("metadata line needs a key and a value", line=lineno)
            key, value = parts
            if key not in META_KEYS:
                raise ParseError(f"unknown metadata key {key!r}", line=lineno)
            try:
                if key == "family":
                    metadata[key] = value
                elif key == "k":
                    metadata[key] = int(value)
                elif not math.isfinite(float(value)):
                    raise ValueError(f"non-finite {key}")
                elif key == "tail_bound":
                    log_tail = float(value) * LN10
                else:
                    metadata[key] = float(value)
            except ValueError as exc:
                raise ParseError(f"bad value for {key!r}: {value!r}", line=lineno) from exc
            continue
        in_weights = True
        try:
            log_weights.append(float(text) * LN10)
        except ValueError as exc:
            raise ParseError(f"bad weight literal {text!r}", line=lineno) from exc
    if not log_weights:
        raise ParseError("file contains no weights", line=len(raw))
    s = make_spectrum(log_weights, log_tail, metadata)
    s.form  # noqa: B018  the metadata check of read_spectrum
    return s


def _reference_log10_exact(ln_value):
    """Scalar ulp search that the array one replaced: (value, step that hit).

    The step is 0 when the plain quotient round-trips and None when no
    candidate does.
    """
    v = ln_value / LN10
    if v * LN10 == ln_value:
        return v, 0
    for step in (1, -1, 2, -2):
        cand = v
        for _ in range(abs(step)):
            cand = math.nextafter(cand, math.copysign(math.inf, step))
        if cand * LN10 == ln_value:
            return cand, step
    return v, None


def _reference_write(s, path):
    """Per-line writer that the whole-array one replaced."""
    lines = [HEADER]
    meta = dict(s.metadata)
    if not s.is_exact:
        meta["tail_bound"] = _reference_log10_exact(s.log_tail_bound)[0]
    for key in META_KEYS:
        if key in meta:
            value = meta[key]
            text = str(value) if key == "family" else repr(int(value) if key == "k" else float(value))
            lines.append(f"#{key} {text}")
    for ln_w in s.log_weights:
        lines.append(repr(_reference_log10_exact(float(ln_w))[0]))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _open_as_on_windows(file, mode="r", **kwargs):
    """``open``, but a text-mode file writes CRLF for each newline, as on Windows."""
    return open(file, mode, **kwargs) if "b" in mode else open(file, mode, newline="\r\n", **kwargs)


def _outcome(reader, path):
    """What a reader makes of a file: the spectrum's bits, or the error's type, text and line."""
    try:
        s = reader(path)
    except EntOrderError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return s.log_weights.tobytes(), s.metadata, np.float64(s.log_tail_bound).tobytes()


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """Generated files of every kind: name -> path."""
    w = np.random.default_rng(7).random(500)
    states = {
        "tmss": eo.tmss(0.7, 3000),
        "psi": eo.psi_state(2, 1.0, 2000),
        "xi": eo.xi_state(1.5, 1.0, 2000),
        "exact": eo.build_spectrum(w / w.sum()),
    }
    root = tmp_path_factory.mktemp("generated")
    paths = {}
    for name, s in states.items():
        paths[name] = root / f"{name}.spec"
        eo.write_spectrum(s, paths[name])
    return paths


def _weight_lines(edit):
    """Apply edit to each weight line (the lines not starting with '#')."""
    return lambda lines: [line if line.startswith("#") else edit(line) for line in lines]


def _append(text):
    return lambda lines: lines + [text]


# text edits a reader must treat exactly as the per-line reader did: (edit of the file's lines,
# which may return the whole text, whether the one numpy parse of the body reads it, and the
# error the file then raises: None where it reads, "cut" where only a file with no tail reads)
READER_EDITS = {
    "as_written": (lambda lines: lines, True, None),
    "no_final_newline": (lambda lines: "\n".join(lines), True, None),
    "crlf": (lambda lines: [line + "\r" for line in lines], False, None),
    "padded": (lambda lines: [f" \t{line}\t " for line in lines], False, None),
    "digits18": (_weight_lines(lambda line: format(float(line), ".18g")), True, None),
    "exponent_e": (_weight_lines(lambda line: format(float(line), ".17e")), True, None),
    "exponent_E": (_weight_lines(lambda line: format(float(line), ".17E")), False, None),
    "underscores": (_weight_lines(lambda line: re.sub(r"(?<=\d)(?=\d)", "_", line)), False, None),
    # a weight far below the tail bound, which then lies above the last weight
    "underscore_weight": (_append("-1_000"), False, "cut"),
    # float() keeps \x1f where str.strip() removes it
    "unit_separator": (_weight_lines(lambda line: f"\x1f{line}\x1f"), False, None),
    # the edge of the numpy parse: a sign it reads, and literals it leaves to the lines
    "plus_sign": (_append("+1.5"), True, WeightsIncrease),
    "two_points": (_append("1.2.3"), False, ParseError),
    "bare_exponent": (_append("1e"), False, ParseError),
    "lone_minus": (_append("-"), False, ParseError),
    "two_values": (_append("-5 -6"), False, ParseError),  # numpy would read two
    "underscore_ten": (_append("1_0"), False, WeightsIncrease),
    "inf": (_append("inf"), False, NonPositive),
    "nan": (_append("nan"), False, NonPositive),
}


def _count_line_reads(monkeypatch):
    """Calls of the line-by-line reader from now on, as a list that grows."""
    calls = []
    real = fileio._weights_line_by_line
    monkeypatch.setattr(fileio, "_weights_line_by_line", lambda body, first: calls.append(len(body)) or real(body, first))
    return calls


class TestReaderEquivalence:
    @pytest.mark.parametrize("kind", ["tmss", "psi", "xi", "exact"])
    @pytest.mark.parametrize("edit", sorted(READER_EDITS))
    def test_matches_per_line_reader(self, generated, tmp_path, monkeypatch, kind, edit):
        change, one_parse, error = READER_EDITS[edit]
        edited = change(generated[kind].read_text().splitlines())
        path = tmp_path / "edited.spec"
        path.write_bytes((edited if isinstance(edited, str) else "\n".join(edited) + "\n").encode("ascii"))
        line_reads = _count_line_reads(monkeypatch)
        got = _outcome(eo.read_spectrum, path)
        assert len(line_reads) == (0 if one_parse else 1)
        assert got == _outcome(_reference_read, path)
        if error == "cut":
            error = None if kind == "exact" else ValidationError
        if error is None:
            assert isinstance(got[0], bytes), got
        else:
            assert got[0] is error, got

    @pytest.mark.parametrize("kind", ["tmss", "psi", "xi", "exact"])
    def test_nan_weight_is_non_positive(self, generated, tmp_path, kind):
        lines = generated[kind].read_text().splitlines()
        path = tmp_path / "nan.spec"
        path.write_text("\n".join(lines[:-1] + [" nan"]) + "\n")
        got = _outcome(eo.read_spectrum, path)
        assert got == _outcome(_reference_read, path)
        assert got[0] is NonPositive

    @pytest.mark.parametrize("kind", ["tmss", "psi", "xi", "exact"])
    def test_writer_bytes_match_per_line_writer(self, generated, tmp_path, kind):
        s = eo.read_spectrum(generated[kind])
        eo.write_spectrum(s, tmp_path / "new.spec")
        _reference_write(s, tmp_path / "old.spec")
        assert (tmp_path / "new.spec").read_bytes() == (tmp_path / "old.spec").read_bytes()

    @pytest.mark.parametrize("kind", ["tmss", "psi", "xi", "exact"])
    def test_written_bytes_do_not_depend_on_the_platform_newline(self, generated, tmp_path, monkeypatch, kind):
        s = eo.read_spectrum(generated[kind])
        monkeypatch.setattr(fileio, "open", _open_as_on_windows, raising=False)
        eo.write_spectrum(s, tmp_path / "new.spec")
        _reference_write(s, tmp_path / "old.spec")
        data = (tmp_path / "new.spec").read_bytes()
        assert b"\r" not in data
        assert data == (tmp_path / "old.spec").read_bytes()


class TestOneParse:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40), st.booleans())
    @example([5e-324, -0.0, 1e-05, -2.5e-308, 1.7976931348623157e308, 0.1], True)
    @example([-1e-05], False)
    def test_repr_bodies_take_it_bit_for_bit(self, values, final_newline):
        # repr writes digits, '.', 'e', '+' and '-' only, which is the body numpy reads
        lines = [repr(v) for v in values]
        body = ("\n".join(lines) + ("\n" if final_newline else "")).encode("ascii")
        floats = np.array([float(line) for line in lines])
        assert fileio._parse_body(body, len(lines)).tobytes() == floats.tobytes()
        with mock.patch.object(fileio, "_weights_line_by_line", side_effect=AssertionError("read line by line")):
            log_weights, log_tail, metadata = fileio._parse(f"{HEADER}\n#family tmss\n".encode() + body)
        with np.errstate(over="ignore"):  # literals past 7.8e307 scale to inf, which _parse leaves to the constructor
            assert log_weights.tobytes() == (floats * LN10).tobytes()
        assert (log_tail, metadata) == (NEG_INF, {"family": "tmss"})

    @pytest.mark.parametrize("head, line_reads", [
        ("#schmidt-spectrum 1\r#q 0.5\n", 0),  # a CR splits a # line into two # lines
        ("#schmidt-spectrum 1\n#q 0.5\x0c-0.3\n", 1),  # a form feed splits a weight line off
    ], ids=["cr-in-head", "form-feed-in-head"])
    def test_head_split_by_other_line_breaks(self, tmp_path, monkeypatch, head, line_reads):
        # the head is read as the whole file is, by splitlines; a weight line found in it
        # leaves the body to the line-by-line reader
        path = tmp_path / "head.spec"
        path.write_bytes((head + "-0.30102999566398120\n-0.30102999566398120\n").encode("ascii"))
        calls = _count_line_reads(monkeypatch)
        got = _outcome(eo.read_spectrum, path)
        assert got == _outcome(_reference_read, path)
        assert len(calls) == line_reads


def _insert(index, text):
    return lambda lines: lines[:index] + [text] + lines[index:]


# (edit of the psi file's lines, the 1-based line the error must name, its
# message); the file has a header, six metadata lines and 2,000 weights
BROKEN_EDITS = {
    "blank_in_metadata": (_insert(2, ""), 3, "blank line not allowed"),
    "blank_among_weights": (_insert(10, ""), 11, "blank line not allowed"),
    "whitespace_only": (_insert(10, " \t "), 11, "blank line not allowed"),
    "trailing_blank": (lambda lines: lines + [""], 2008, "blank line not allowed"),
    "metadata_after_weight": (_insert(8, "#k 1"), 9, "metadata after weight lines"),
    "bad_literal_last": (lambda lines: lines[:-1] + ["-0.3x"], 2007, "bad weight literal '-0.3x'"),
    "delta_nan": (lambda lines: [("#delta nan" if x.startswith("#delta") else x) for x in lines],
                  5, "bad value for 'delta': 'nan'"),
    "header_only": (lambda lines: lines[:1], 1, "file contains no weights"),
    "metadata_only": (lambda lines: lines[:7], 7, "file contains no weights"),
}


class TestErrorLines:
    def test_psi_file_layout(self, generated):
        # the line numbers above assume this layout
        lines = generated["psi"].read_text().splitlines()
        assert lines[4].startswith("#delta") and lines[6].startswith("#")
        assert not lines[7].startswith("#") and len(lines) == 2007

    @pytest.mark.parametrize("case", sorted(BROKEN_EDITS))
    def test_parse_error_names_its_line(self, generated, tmp_path, case):
        edit, line, message = BROKEN_EDITS[case]
        path = tmp_path / "broken.spec"
        path.write_text("\n".join(edit(generated["psi"].read_text().splitlines())) + "\n")
        with pytest.raises(ParseError) as err:
            eo.read_spectrum(path)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"
        assert _outcome(eo.read_spectrum, path) == _outcome(_reference_read, path)


# (line ending, 0-based line index, byte offset in that line, expected 1-based line) of an
# inserted 0xff byte in the psi file: header, metadata line, third weight line, line starts
NON_ASCII = {
    "header": (b"\n", 0, 19, 1),
    "metadata": (b"\n", 2, 0, 3),
    "third_weight": (b"\n", 9, 5, 10),
    "third_weight_after_crlf": (b"\r\n", 9, 0, 10),
    "metadata_after_cr": (b"\r", 2, 0, 3),
}


class TestNonAscii:
    @pytest.mark.parametrize("case", sorted(NON_ASCII))
    def test_parse_error_names_its_line(self, generated, tmp_path, case):
        ending, index, offset, line = NON_ASCII[case]
        lines = generated["psi"].read_bytes().splitlines()
        lines[index] = lines[index][:offset] + b"\xff" + lines[index][offset:]
        path = tmp_path / "non_ascii.spec"
        path.write_bytes(ending.join(lines) + ending)
        with pytest.raises(ParseError) as err:
            eo.read_spectrum(path)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: not ASCII text: byte 0xff"


def _floats(lines):
    return np.array([float(line) for line in lines])


def _body(lines, final_newline=True):
    return ("\n".join(lines) + ("\n" if final_newline else "")).encode("ascii")


def _midpoint_hazards(count, seed=11):
    """Literals of 18 significant digits next to the exact midpoint of a double d and its upper neighbour."""
    rng = np.random.default_rng(seed)
    out = []
    with decimal.localcontext() as context:
        context.prec = 60
        while len(out) < count:
            d = float(rng.uniform(-30.0, 30.0) * 10.0 ** rng.integers(-8, 2))
            mid = (Decimal(d) + Decimal(math.nextafter(d, math.inf))) / 2
            places = 17 - mid.adjusted()  # digits after the dot that leave 18 significant ones
            if 0 <= places <= 27:
                out.append(format(mid.quantize(Decimal(1).scaleb(-places)), "f"))
    return out


def _on_x87_midpoint(lines):
    """Whether each literal's quotient m / 10**k lies on a double midpoint in x87 precision."""
    m = np.array([int(line.replace(".", "")) for line in lines], dtype=np.int64)
    k = np.array([len(line) - line.index(".") - 1 for line in lines])
    q = m.astype(np.longdouble) / fileio._POW10[k]
    return q, (q.view(np.uint64)[::2] & 0x7FF) == 0x400


def _taken(values):
    assert values is not None, "the fixed-point path declined a block"
    return values


# 63 fixed-point lines, which let one exponent line in 64 take the fixed-point path
FILLER = [repr(-0.5 - i / 7) for i in range(63)]


@pytest.mark.skipif(not fileio._X87, reason="the fixed-point path needs an x87 long double")
class TestFixedPoint:
    def test_powers_of_ten_are_exact(self):
        assert [int(p) for p in fileio._POW10] == [10**k for k in range(28)]

    @given(st.floats(allow_nan=False, allow_infinity=False), st.booleans())
    @example(0.0, True)
    @example(-0.0, False)
    @example(5e-324, True)
    @example(-1.7976931348623157e308, True)
    @example(1e-05, True)
    @example(-0.0001, True)
    @example(1e16, True)
    @example(-2.699431019146958e-06, True)  # psi3's first weight at n = 10**4
    def test_repr_of_any_float_reads_back_bit_for_bit(self, value, final_newline):
        # repr writes at most 17 digits, and 20 after the dot, or an exponent: every line takes the path
        lines = [*FILLER, repr(value)]
        got = fileio._fixed_point(_body(lines, final_newline))
        assert got is not None
        assert got.tobytes() == _floats(lines).tobytes()

    def test_midpoint_hazards_are_read_again(self):
        lines = _midpoint_hazards(2000)
        q, on_midpoint = _on_x87_midpoint(lines)
        plain = q.astype(float)
        assert on_midpoint.sum() >= 20 and (plain != _floats(lines)).sum() >= 10  # a plain cast misreads some
        assert (plain[~on_midpoint] == _floats(lines)[~on_midpoint]).all()
        got = fileio._fixed_point(_body(lines))
        assert got is not None
        assert got.tobytes() == _floats(lines).tobytes()

    @pytest.mark.parametrize("block", [5, 9, 10, 11, 64])
    @pytest.mark.parametrize("final_newline", [True, False])
    def test_blocks_cut_after_a_newline(self, monkeypatch, block, final_newline):
        # "-0.5\n" ends at byte 4 and "-0.25\n" at byte 10: blocks of 5 and 11 bytes end exactly on a newline
        lines = ["-0.5", "-0.25", "-0.5", "-0.5", "-0.25", "-0.75", "1.5", "-0.5"] * 3
        body = _body(lines, final_newline)
        blocks = []
        real = fileio._fixed_point
        monkeypatch.setattr(fileio, "_BLOCK", block)
        monkeypatch.setattr(fileio, "_fixed_point", lambda text: blocks.append(text) or real(text))
        got = fileio._parse_body(body, len(lines))
        assert got.tobytes() == _floats(lines).tobytes()
        assert b"".join(blocks) == body
        for text in blocks[:-1]:  # each cut just after the first newline at or past its block's last byte
            assert len(text) >= block and text.endswith(b"\n") and b"\n" not in text[block - 1:-1]
        if block in (5, 11):
            assert len(blocks[0]) == block

    @pytest.mark.parametrize("size", [-1, 0, 1])
    @pytest.mark.parametrize("where", ["middle", "end"])
    def test_bodies_on_either_side_of_a_block_boundary(self, monkeypatch, size, where):
        # a block that ends one byte before, on or one byte past a newline in the middle, or the body's end
        lines = [repr(-x) for x in np.random.default_rng(5).uniform(0, 40, 3000).tolist()]
        body = _body(lines)
        cut = body.find(b"\n", len(body) // 2) + 1 if where == "middle" else len(body)
        monkeypatch.setattr(fileio, "_BLOCK", cut + size)
        real = fileio._fixed_point
        monkeypatch.setattr(fileio, "_fixed_point", lambda text: _taken(real(text)))
        got = fileio._parse_body(body, len(lines))
        assert got.tobytes() == _floats(lines).tobytes()

    @pytest.mark.parametrize("exponents, taken", [(1, True), (2, False)])
    def test_exponent_lines_up_to_one_in_64(self, exponents, taken):
        lines = [*FILLER[: 64 - exponents], *["-1.2345678901234567e-07"] * exponents]
        assert len(lines) == 64
        assert (fileio._fixed_point(_body(lines)) is not None) == taken
        assert fileio._parse_body(_body(lines), 64).tobytes() == _floats(lines).tobytes()

    @pytest.mark.parametrize("kind", ["tmss", "psi", "xi", "exact"])
    def test_switched_off_numpy_reads_every_block(self, generated, monkeypatch, kind):
        data = generated[kind].read_bytes()
        monkeypatch.setattr(fileio, "_BLOCK", 4096)  # many blocks, each read by np.fromstring
        fast = fileio._parse(data)[0]
        monkeypatch.setattr(fileio, "_X87", False)
        monkeypatch.setattr(fileio, "_fixed_point", lambda text: pytest.fail("the fixed-point path ran"))
        line_reads = _count_line_reads(monkeypatch)
        assert fileio._parse(data)[0].tobytes() == fast.tobytes()
        assert not line_reads
        assert _outcome(eo.read_spectrum, generated[kind]) == _outcome(_reference_read, generated[kind])

    @pytest.mark.parametrize("literal", [
        "-1.234567890123456789",  # 19 digits
        "-12345678901234567890.5",  # 21 digits, past the int64 range
        "-0.0000000000000000000000000005",  # 28 digits after the dot
        "-400",  # no dot
    ])
    def test_declined_literals_read_as_numpy_reads_them(self, literal):
        lines = [*FILLER, literal]
        assert fileio._fixed_point(_body(lines)) is None
        assert fileio._parse_body(_body(lines), len(lines)).tobytes() == _floats(lines).tobytes()

    @pytest.mark.parametrize("literal, after", [
        *[(literal, ()) for literal in ["5.0+", "-.", ".", "-1e-5-", "1.5e", "-0.5.5", "--0.5", "+-0.5", "-0.5-", "-0+.5"]],
        ("-0.5.5", ("-4",)),  # as many dots as lines, but two in one line
    ])
    def test_declined_lines_give_the_parse_error_and_line(self, generated, tmp_path, literal, after):
        lines = generated["psi"].read_text().splitlines()
        lines[1000:1001 + len(after)] = [literal, *after]
        path = tmp_path / "declined.spec"
        path.write_text("\n".join(lines) + "\n")
        body = path.read_bytes()[fileio._body_start(path.read_bytes()):]
        assert fileio._fixed_point(body) is None
        with pytest.raises(ParseError) as err:
            eo.read_spectrum(path)
        assert str(err.value) == f"line 1001: bad weight literal {literal!r}"
        assert _outcome(eo.read_spectrum, path) == _outcome(_reference_read, path)


def _binade_edges(ulps=40, exponents=range(-8, 10), signs=(-1.0,), scale=1.0):
    """Every double within `ulps` ulp of sign * scale * 2**e on either side, e in `exponents`."""
    out = []
    for e in exponents:
        for sign in signs:
            edge = sign * scale * 2.0 ** e
            if not math.isfinite(edge):
                continue
            for toward in (math.inf, -math.inf):
                x = edge
                for _ in range(ulps):
                    x = math.nextafter(x, toward)
                    out.append(x)
            out.append(edge)
    return np.array(out)


def _every_edge(ulps=8):
    """Every double within `ulps` ulp of each +-2**e and each +-LN10 * 2**e (where x / LN10 is one), e = -1074..1023."""
    return np.concatenate([_binade_edges(ulps, range(-1074, 1024), (1.0, -1.0), scale) for scale in (1.0, LN10)])


class TestLog10Exact:
    def test_matches_scalar_search_bit_for_bit(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([
            rng.uniform(-665.0, -0.007, 10**5),
            _binade_edges(),
            _every_edge(),
        ])
        expected = np.array([_reference_log10_exact(float(v))[0] for v in x])
        assert _log10_exact(x).tobytes() == expected.tobytes()

    def test_only_the_neighbour_away_from_zero_ever_hits(self):
        steps = {(math.copysign(1.0, v), _reference_log10_exact(float(v))[1]) for v in _every_edge()}
        assert steps <= {(1.0, 0), (1.0, None), (1.0, 1), (-1.0, 0), (-1.0, None), (-1.0, -1)}
        assert (1.0, 1) in steps and (-1.0, -1) in steps

    def test_minus_one_ulp_branch_fires_at_binade_edges(self):
        edges = _binade_edges()
        steps = [_reference_log10_exact(float(v))[1] for v in edges]
        hits = [i for i, step in enumerate(steps) if step == -1]
        assert hits
        got = _log10_exact(edges[hits])
        assert np.all(got * LN10 == edges[hits])
        assert np.all(got == np.nextafter(edges[hits] / LN10, -math.inf))

    def test_scalar_input(self):
        # the writer passes the tail bound as a scalar
        assert _log10_exact(-3.5)[0] == _reference_log10_exact(-3.5)[0]


def _ulp_steps(x, steps=(-2, -1, 0, 1, 2)):
    """The doubles `step` ulp from x away from zero, for each step, and their negatives."""
    near = (np.float64(x).view(np.int64) + np.array(steps)).view(float)
    return [*near.tolist(), *(-near).tolist()]


# edges of the writer's fast path (module docstring of fileio)
RANGE_EDGES = _ulp_steps(1e-4) + _ulp_steps(1e16)  # repr's positional range
DECADE_EDGES = [v for e in range(-4, 17) for v in _ulp_steps(float(f"1e{e}"))]  # where np.log10's decade may be off
POWERS_OF_TWO = [sign * 2.0**p for p in range(-16, 56) for sign in (1.0, -1.0)]  # asymmetric rounding intervals
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
WHOLE = [-9571.0, 1.0, -3.0, 10.0, 1e15 + 1, -123456789.0, 9999999999999998.0, -2.0**53 - 2, 4503599627370497.0]
SHORT = [round(x, d) for x in (-88738.36257407, 0.19382003, -1234.5678901234567, 7.77e-4) for d in range(12)]


def _check_repr_lines(values, x87):
    """_repr_lines gives the repr join byte for byte, by its fast path or (x87 False) by repr alone."""
    values = np.array(values, dtype=float)
    expected = ("\n".join(map(repr, values.tolist())) + "\n").encode()
    if x87:
        assert fileio._repr_lines(values) == expected
        return
    with mock.patch.object(fileio, "_X87", False), \
            mock.patch.object(fileio, "_repr_block", side_effect=AssertionError("the fast path ran")):
        assert fileio._repr_lines(values) == expected


class TestReprLines:
    @pytest.mark.parametrize("x87", [True, False], ids=["native", "no_x87"])
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    @example(RANGE_EDGES)
    @example(DECADE_EDGES)
    @example(POWERS_OF_TWO)
    @example(SPECIAL)
    @example(WHOLE)
    @example(SHORT)
    def test_equals_repr_join_on_floats(self, x87, values):
        _check_repr_lines(values, x87)

    @pytest.mark.parametrize("x87", [True, False], ids=["native", "no_x87"])
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
    @example([0x3FF0000000000001, 0xBFF0000000000001, 0x7FF8000000000001, 0xFFF0000000000000, 0x0000000000000001])
    def test_equals_repr_join_on_bit_patterns(self, x87, bits):
        _check_repr_lines(np.array(bits, dtype=np.uint64).view(float), x87)

    @pytest.mark.parametrize("x87", [True, False], ids=["native", "no_x87"])
    def test_every_decade_and_sign_in_blocks(self, monkeypatch, x87):
        rng = np.random.default_rng(17)
        values = 10 ** rng.uniform(-4.5, 16.5, 20000) * rng.choice([-1.0, 1.0], 20000)
        short = values[::7].tolist()  # made short decimals, which keep few digits
        values[::7] = [round(v, d) for v, d in zip(short, rng.integers(0, 12, len(short)).tolist())]
        monkeypatch.setattr(fileio, "_LINES_AT_ONCE", 4099)
        _check_repr_lines(values, x87)

    @pytest.mark.skipif(not fileio._X87, reason="the fast path needs an x87 long double")
    def test_few_tmss_lines_go_to_repr(self):
        # the fast path is what makes the writer fast: a change that sends every line to repr fails here
        values = _log10_exact(eo.tmss(0.6, 200000).log_weights)
        slow = ~fileio._shortest_digits(values)[3]
        assert slow.mean() < 0.05
        _check_repr_lines(values, True)


class TestCanonicalJson:
    def test_sorted_keys_and_newline(self):
        out = emit_report({"b": 1, "a": 2})
        assert out == '{"a":2,"b":1}\n'

    def test_float_formatting(self):
        out = emit_report({"x": 0.1, "y": 1.0, "z": -0.0})
        assert out == '{"x":0.10000000000000001,"y":1,"z":0}\n'

    def test_large_integers(self):
        n = 17093171643561234567890
        assert emit_report({"n": n}) == f'{{"n":{n}}}\n'

    def test_nested_determinism(self):
        rep = {"list": [1, 2.5, None, True], "nested": {"z": "s", "a": [0.25]}}
        assert emit_report(rep) == emit_report(dict(rep))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            emit_report({"x": math.inf})

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            emit_report({1: "x"})
