"""Spectrum files and canonical JSON reports.

Spectrum file, version 1 (text):

    #schmidt-spectrum 1
    #family tmss
    #q 0.5
    #delta 1.3862943611198906
    -0.1249387366082999
    ...

Line 1 is the fixed header. Optional ``#key value`` lines carry family
metadata; recognized keys are family, q, r, k, delta, offset and
tail_bound, numeric values finite. Every following line is one decimal
literal: the base-10 log of a Schmidt weight, in index order (parsers
accept at least 18 significant digits). ``tail_bound`` is likewise a
base-10 log, since linear tails underflow for deep truncations.

The reader accepts whitespace around any line and CRLF endings. It
refuses blank (or whitespace-only) lines, metadata after the first
weight and non-ASCII bytes. Every parse error is a ``ParseError`` (exit
2 in the CLI) that names its 1-based line. The reader then checks the
family metadata once, through ``s.form``: metadata whose closed form
misses the stored tail raises ``ValidationError`` (also exit 2).

The body of weights takes one of two paths, which give the same bits.
A body that holds only the bytes ``0-9 . e + - \n`` (as the writer's
are) is read by one ``np.fromstring(body, sep="\n")`` on the undecoded
bytes, kept only if it raises nothing and returns one value per line.
Those bytes hold no whitespace but ``\n``, and numpy's separator needs
at least one whitespace byte, so each value is one whole line, read by
``PyOS_string_to_double`` as ``float(line)`` reads it. Every other body
(CRLF endings, padding, a blank or bad line, metadata after a weight,
``inf``, ``E``, underscores), or one numpy reads otherwise, is read
after the whole file is decoded, one stripped line at a time by
``float``, and each error names its line there. Either path then scales
the base-10 logs by ln 10 in one multiply; a literal past about 7.8e307
scales to an infinite log, which the constructor refuses.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np

from .errors import ParseError
from .numutil import LN10, NEG_INF
from .spectrum import SchmidtSpectrum, make_spectrum

HEADER = "#schmidt-spectrum 1"
META_KEYS = ("family", "q", "r", "k", "delta", "offset", "tail_bound")
#: the bytes a weight body may hold to be read by one numpy parse (:func:`_parse_body`)
_BODY_BYTES = b"0123456789.e+-\n"
_DIGITS = _BODY_BYTES[:-1]


def _log10_exact(ln_values):
    """Base-10 logs whose parse-back (* ln 10) reproduces each ln value where it can.

    Each entry is v = fl(x / c), c = ln 10. Where v * c misses x, only the
    double one ulp away from zero can hit, and it replaces v where it does.
    About 10 % of ln values have no double v with v * c == x at all; they
    keep the quotient, one ulp or so off on parse-back.

    Why one candidate suffices: x ~ 2.30 v, so ulp(x) is 4 ulp(v) or
    2 ulp(v), and |v c - x| <= 1.15 ulp(v). Where ulp(x) = 4 ulp(v) that
    lies within ulp(x) / 2, so v itself hits. Where ulp(x) = 2 ulp(v),
    every other double v' has |v' c - x| >= 1.15 ulp(v) > ulp(x) / 2, so
    none hits, the toward-zero and 2-ulp neighbours included (below the
    normal range ulp(x) = ulp(v), and the same bound holds). The exception
    is x = +-2**e, whose rounding interval reaches only ulp(x) / 4 toward
    zero: there only the neighbour away from zero can land. At v = +-2**k
    the spacing toward zero halves, but there v itself hits.
    """
    x = np.atleast_1d(np.asarray(ln_values, dtype=float))
    v = x / LN10
    miss = np.flatnonzero(v * LN10 != x)
    cand = np.nextafter(v[miss], np.copysign(np.inf, v[miss]))
    hit = cand * LN10 == x[miss]
    v[miss[hit]] = cand[hit]
    return v


def write_spectrum(s: SchmidtSpectrum, path) -> None:
    """Write a spectrum in file format v1 (deterministic bytes)."""
    lines = [HEADER]
    meta = dict(s.metadata)
    if not s.is_exact:
        meta["tail_bound"] = _log10_exact(s.log_tail_bound)[0]
    for key in META_KEYS:
        if key in meta:
            lines.append(f"#{key} {_fmt_meta(key, meta[key])}")
    lines.extend(map(repr, _log10_exact(s.log_weights).tolist()))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt_meta(key, value):
    if key == "family":
        return str(value)
    if key == "k":
        return repr(int(value))
    return repr(float(value))


def read_spectrum(path) -> SchmidtSpectrum:
    """Parse a v1 spectrum file, then check its family metadata once; parse errors name their line."""
    with open(path, "rb") as fh:
        data = fh.read()
    s = make_spectrum(*_parse(data))
    s.form  # noqa: B018  refuses metadata that misdescribes the tail; the parsed text is freed by now
    return s


def _parse(data):
    """(ln weights, ln tail bound, metadata) from the bytes of a v1 file.

    A body of ``_BODY_BYTES`` after a head of ``#`` lines is read by one
    numpy parse (:func:`_parse_body`); any other file, or a body that
    parse refuses, line by line (:func:`_weights_line_by_line`).
    """
    start = _body_start(data)
    body = data[start:]
    newlines = body.translate(None, _DIGITS)  # all that is left of a body of _BODY_BYTES
    values = None
    if start and body and not newlines.strip(b"\n"):
        head = _ascii(data[:start]).splitlines()  # it ends in \n: the file's first lines, with their errors
        first, log_tail, metadata = _parse_head(head)
        if first == len(head):  # else a line break other than \n split a weight line off a # line
            values = _parse_body(body, len(newlines) + (not body.endswith(b"\n")))
    if values is None:
        raw = _ascii(data).splitlines()
        first, log_tail, metadata = _parse_head(raw)
        if first == len(raw):
            raise ParseError("file contains no weights", line=len(raw))
        values = _weights_line_by_line(raw[first:], first + 1)
    with np.errstate(over="ignore"):  # a literal past 7.8e307 scales to inf, which the constructor refuses
        values *= LN10
    return values, log_tail, metadata


def _body_start(data):
    """Offset of the first line that does not start with ``#``, past a first one that does (0 if none)."""
    start = 0
    while data.startswith(b"#", start):
        start = data.find(b"\n", start) + 1
        if not start:
            return 0
    return start


def _parse_body(body, line_count):
    """The weights of a body of ``_BODY_BYTES`` and ``line_count`` lines, or None where numpy reads it otherwise.

    With those bytes \\n is the only whitespace, and numpy's separator needs
    at least one whitespace byte, so each value numpy reads lies within one
    line; numpy reads it with ``PyOS_string_to_double``, as ``float`` does.
    One value per line therefore means each line was read whole, to the
    bits of ``float(line)``. A blank line gives fewer values, and unmatched
    data raises (numpy 2.4; earlier numpy warns, which is raised here).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(body, sep="\n")
        except (ValueError, DeprecationWarning):
            return None
    return values if values.size == line_count else None


def _ascii(data) -> str:
    """The text of the bytes; a non-ASCII byte raises a ParseError that names its line."""
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("ascii") + "?").splitlines())  # CR and CRLF count as in the reader
        raise ParseError(f"not ASCII text: byte {data[exc.start]:#04x}", line=line) from exc


def _parse_head(raw):
    """(index of the first weight line, ln tail bound, metadata) from the lines of a v1 file.

    The index is ``len(raw)`` when every line after the header is metadata.
    """
    if not raw or raw[0].strip() != HEADER:
        raise ParseError(f"expected header {HEADER!r}", line=1)
    metadata = {}
    log_tail = NEG_INF
    for lineno, line in enumerate(raw[1:], start=2):
        text = line.strip()
        if not text:
            raise ParseError("blank line not allowed", line=lineno)
        if not text.startswith("#"):
            return lineno - 1, log_tail, metadata
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
    return len(raw), log_tail, metadata


def _weights_line_by_line(body, first_lineno):
    """The weights of the lines ``body`` as an array, one line at a time, raising on the first bad line."""
    values = []
    for lineno, line in enumerate(body, start=first_lineno):
        text = line.strip()
        if not text:
            raise ParseError("blank line not allowed", line=lineno)
        if text.startswith("#"):
            raise ParseError("metadata after weight lines", line=lineno)
        try:
            values.append(float(text))
        except ValueError as exc:
            raise ParseError(f"bad weight literal {text!r}", line=lineno) from exc
    return np.array(values)


# ---------------------------------------------------------------------------
# canonical JSON


def _canon(obj, out):
    if obj is None or obj is True or obj is False:
        out.append(json.dumps(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(repr(obj))
    elif isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise ValueError(f"non-finite float {obj!r} in report")
        out.append("0" if obj == 0.0 else format(obj, ".17g"))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError("report keys must be strings")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _canon(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _canon(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")
    return out


def emit_report(report: dict) -> str:
    """Canonical JSON: sorted keys, 17-significant-digit floats, one trailing newline.

    Identical report content always yields byte-identical output.
    """
    return "".join(_canon(report, [])) + "\n"
