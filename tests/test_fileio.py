import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import entorder as eo
from entorder import fileio
from entorder.errors import EntOrderError, NonPositive, ParseError, ValidationError
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
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


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
    "plus_sign": (_append("+1.5"), True, ValidationError),
    "two_points": (_append("1.2.3"), False, ParseError),
    "bare_exponent": (_append("1e"), False, ParseError),
    "lone_minus": (_append("-"), False, ParseError),
    "two_values": (_append("-5 -6"), False, ParseError),  # numpy would read two
    "underscore_ten": (_append("1_0"), False, ValidationError),
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
