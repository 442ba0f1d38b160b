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

The body of weights takes one of three paths, which give the same bits.
A body that holds only the bytes ``0-9 . e + - \n`` (as the writer's
are) is read undecoded, in blocks of about 256 KiB cut after a newline.
Where the long double is x87's, a block whose lines all read
``[+-]digits.digits``, with fewer than 19 digits and at most 27 after
the dot, is read in fixed point: one int64 parse gives each line's
digits m, and m / 10**k, both exact in its 64-bit significand, rounds
once. The double nearest that is ``float(line)`` but on a double
midpoint (low 11 bits 0x400), so ``float`` reads those lines again, and
lines with m == 0 (-0.0) or an ``e`` (at most one in 64, blanked first).
Any other block is read by ``np.fromstring(block, sep="\n")``: it holds
no whitespace but ``\n``, which numpy's separator needs, so each value
is one whole line, read by ``PyOS_string_to_double`` as ``float`` reads
it. A block is kept only if it raises nothing and gives one value per
line. Every other body (CRLF endings, padding, a blank or bad line,
metadata after a weight, ``inf``, ``E``, underscores) is read after the
whole file is decoded, one stripped line at a time by ``float``, and
each error names its line there. A 200,000-line body reads in 18-23 ms
in fixed point and in 50-52 ms by numpy alone (one core of 2 vCPUs).
Every path then scales the base-10 logs by ln 10 in one multiply; a
literal past about 7.8e307 scales to an infinite log, which the
constructor refuses.

The writer gives each weight line ``repr``'s bytes, 2**16 values at a
time (:func:`_repr_lines`). Where the long double is x87's, a value v
with 1e-4 <= |v| < 1e16 (``repr``'s positional range) whose significand
is not a power of two (a symmetric rounding interval) takes a fast path.
Its decade e is np.log10's estimate; x = |v| * 10**k, k = 16 - e, is
rounded once in x87 (error <= 2**-8), and h = ulp(v) / 2 * 10**k is
exact. Where 1e16 <= x < 1e17 - 32 (else e was off), repr's digits are
the multiple of the largest 10**j within h of |v| * 10**k that lies
nearest it; j = 0 has one, as |rint(x) - x| <= 1/2 < 0.55 < h. Level j
runs in int64 and float64 on the values that passed level j - 1. A
distance within 2**-7 of h, or a tie within 2**-7, goes to ``repr``, as
does every value off the path and every line where the long double is
not x87's. About 1 % of a tmss body goes to ``repr``; a 200,000-line
body takes 33 ms against 87 ms by ``repr`` (one core of 2 vCPUs).
"""

from __future__ import annotations

import functools
import json
import math
import sys
import warnings

import numpy as np

from .errors import ParseError
from .numutil import LN10, NEG_INF
from .spectrum import SchmidtSpectrum, make_spectrum

HEADER = "#schmidt-spectrum 1"
META_KEYS = ("family", "q", "r", "k", "delta", "offset", "tail_bound")
#: the bytes a weight body may hold to be read undecoded (:func:`_parse_body`)
_BODY_BYTES = b"0123456789.e+-\n"
_DIGITS = _BODY_BYTES[:-1]
#: x87 extended precision: a 64-bit significand, stored little-endian in 16 bytes
_X87 = np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16 and sys.byteorder == "little"
_POW10 = np.cumprod(np.full(28, 10, dtype=np.longdouble)) / 10  # 10**k for k <= 27, each exact there
_BLOCK = 1 << 18  # bytes of body per fixed-point parse, which bounds its temporaries
_LINES_AT_ONCE = 1 << 16  # values per block of the writer, which bounds its temporaries
_TEN = 10 ** np.arange(18, dtype=np.int64)
_HALF_TEN = _POW10[:21].astype(float) / 2  # half of 10**k, exact
_MARGIN = 2.0**-7  # twice the rounding error of x: a decision nearer than this goes to repr


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
    """Write a spectrum in file format v1 (deterministic bytes, LF line endings on every platform)."""
    lines = [HEADER]
    meta = dict(s.metadata)
    if not s.is_exact:
        meta["tail_bound"] = _log10_exact(s.log_tail_bound)[0]
    for key in META_KEYS:
        if key in meta:
            lines.append(f"#{key} {_fmt_meta(key, meta[key])}")
    head = ("\n".join(lines) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(head + _repr_lines(_log10_exact(s.log_weights)))


@functools.cache
def _line_tables():
    """The fast path's tables, built at its first call: "0000" to "9999", 4 ASCII bytes in each uint32, and
    lines by [negative, decade + 4, digits kept], 40 columns ``-0.000d.d. ... .d\\n`` (17 digits d, here
    the mask 0xff) with NUL where dropped. A process that writes no file builds neither."""
    quads = (np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8).view(np.uint32)
    negative, e, kept, col = np.ix_(range(2), range(-4, 16), range(18), range(40))
    keep = ((col == 0) & (negative == 1) | (e < 0) & (col >= 1) & (col <= 1 - e) | (col == 39)
            | (col >= 6) & (col < 6 + 2 * kept) & (col % 2 == 0) | (e >= 0) & (col == 7 + 2 * e))
    line = np.frombuffer(b"-0.000" + b".".join([b"\xff"] * 17) + b"\n", dtype=np.uint8)
    return quads.ravel(), np.where(keep, line, 0).astype(np.uint8)


def _repr_lines(values) -> bytes:
    """``("\\n".join(map(repr, values.tolist())) + "\\n").encode()``, computed for all values at once (module docstring)."""
    values = np.ascontiguousarray(values, dtype=float)
    if not _X87 or not values.size:
        return ("\n".join(map(repr, values.tolist())) + "\n").encode()
    return b"".join(_repr_block(values[i:i + _LINES_AT_ONCE]) for i in range(0, values.size, _LINES_AT_ONCE))


def _repr_block(values):
    m, e, kept, fast = _shortest_digits(values)
    quads, layouts = _line_tables()
    groups = np.empty((values.size, 5), dtype=np.int64)  # m in 20 digits, 4 a column: "000" and its 17
    for col in range(4, -1, -1):
        m, groups[:, col] = np.divmod(m, 10**4)
    lines = layouts[(values < 0).astype(np.intp), e + 4, kept]
    lines[:, 6:39:2] &= quads[groups].view(np.uint8)[:, 3:]
    slow = np.flatnonzero(~fast)
    if slow.size:
        lines[slow, :39] = np.array(list(map(repr, values[slow].tolist())), dtype="S39").view(np.uint8).reshape(-1, 39)
    return lines.tobytes().translate(None, b"\0")


def _shortest_digits(values):
    """(m, e, kept, fast): where fast, ``repr`` writes m * 10**(e - 16), the first ``kept`` of
    m's 17 digits (its trailing zeros but one after the dot dropped); see the module docstring."""
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1e16) & (values.view(np.uint64) << 12 != 0)
    a[~fast] = 1.5
    e = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.int64)
    x = a.astype(np.longdouble) * _POW10[16 - e]
    fast &= (x >= 1e16) & (x < 1e17 - 32)
    x[~fast] = 1.5e16
    whole = np.rint(x)
    xi = whole.astype(np.int64)
    xf = (x - whole).astype(float)  # exact, and |xf| <= 1/2
    h = np.spacing(a) * _HALF_TEN[16 - e]
    level = np.zeros(values.size, dtype=np.int64)
    live = np.arange(values.size)  # the values with a multiple of 10**(j - 1) within h
    for j in range(1, 18):
        r = xi[live] % _TEN[j]
        near = np.minimum(np.abs(r + xf[live]), _TEN[j] - r - xf[live])  # exact where it is near h
        inside = near < h[live] - _MARGIN
        fast[live[~inside & (near <= h[live] + _MARGIN)]] = False
        live = live[inside]
        if not live.size:
            break
        level[live] = j
    p = _TEN[level]
    r = xi % p
    t = r + xf  # x's distance above the multiple xi - r
    below = t < 0  # only where r == 0: the multiples next to x are xi - p and xi
    t += below * p
    up = t >= p / 2
    fast &= (np.abs(t - p / 2) > _MARGIN) | (np.where(up, t, p - t) > h + _MARGIN)  # no tie of two inside
    m = xi - r + (up.astype(np.int64) - below) * p
    kept = np.where(e >= 0, np.maximum(17 - level, e + 2), 17 - level)
    return m, e, kept, fast


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

    A body of ``_BODY_BYTES`` after a head of ``#`` lines is read in
    blocks (:func:`_parse_body`); any other file, or a body those
    refuse, line by line (:func:`_weights_line_by_line`).
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

    Each block is read in fixed point or by numpy (see the module docstring).
    Unmatched data raises in numpy 2.4; earlier numpy warns, which is raised here.
    """
    parts, start = [], 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        while start < len(body):
            cut = body.find(b"\n", start + _BLOCK - 1) + 1 or len(body)
            part = _fixed_point(body[start:cut]) if _X87 else None
            try:
                parts.append(np.fromstring(body[start:cut], sep="\n") if part is None else part)
            except (ValueError, DeprecationWarning):
                return None
            start = cut
    values = np.concatenate(parts)
    return values if values.size == line_count else None


def _fixed_point(block):
    """``float`` of each line ``[+-]digits.digits`` of a block of ``_BODY_BYTES`` (module docstring), or None."""
    text = digits = block if block.endswith(b"\n") else block + b"\n"
    if b"e" in text:  # at most one line in 64, each blanked to zero digits and read again
        buf = np.frombuffer(text, dtype=np.uint8)
        ends = np.flatnonzero(buf == ord("\n"))
        lines = np.searchsorted(ends, np.flatnonzero(buf == ord("e")))
        if 64 * lines.size > ends.size:
            return None
        edited = bytearray(text)
        for start, end in zip(np.append(0, ends + 1)[lines].tolist(), ends[lines].tolist()):
            edited[start:end] = b"0" * (end - start - 1) + b"."
        digits = bytes(edited)
    buf = np.frombuffer(digits, dtype=np.uint8)
    marks = np.flatnonzero((buf == ord(".")) | (buf == ord("\n")))
    if marks.size % 2 or (buf[marks].reshape(-1, 2) != (ord("."), ord("\n"))).any():
        return None  # not one dot in each line
    dots, ends = marks[::2], marks[1::2]
    starts = np.append(0, ends[:-1] + 1)
    k = ends - dots - 1
    if k.max() > 27:
        return None
    try:  # a sign inside a line is unmatched data
        m = np.fromstring(digits.translate(None, b"."), dtype=np.int64, sep="\n")
    except (ValueError, DeprecationWarning):
        return None
    if m.size != ends.size or m.max() >= 10**18 or m.min() <= -(10**18):
        return None  # a line with no digit merges with the next; numpy clamps an int64 overflow
    q = m.astype(np.longdouble) / _POW10[k]
    values = q.astype(float)
    for i in np.flatnonzero((q.view(np.uint64)[::2] & 0x7FF == 0x400) | (m == 0)).tolist():
        try:
            values[i] = float(text[starts[i]:ends[i]])
        except ValueError:
            return None
    return values


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
