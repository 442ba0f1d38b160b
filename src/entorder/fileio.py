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
"""

from __future__ import annotations

import json
import math

from .errors import ParseError
from .numutil import LN10, NEG_INF
from .spectrum import SchmidtSpectrum, make_spectrum

HEADER = "#schmidt-spectrum 1"
META_KEYS = ("family", "q", "r", "k", "delta", "offset", "tail_bound")


def _log10_exact(ln_value: float) -> float:
    """Base-10 log whose parse-back (* ln 10) reproduces ln_value bit-exactly.

    Division then multiplication by ln 10 can land one ulp off; trying
    the few neighbouring doubles recovers a bit-stable round trip for
    nearly every input and stays within one ulp of the true quotient.
    """
    v = ln_value / LN10
    if v * LN10 == ln_value:
        return v
    for step in (1, -1, 2, -2):
        cand = v
        for _ in range(abs(step)):
            cand = math.nextafter(cand, math.copysign(math.inf, step))
        if cand * LN10 == ln_value:
            return cand
    return v


def write_spectrum(s: SchmidtSpectrum, path) -> None:
    """Write a spectrum in file format v1 (deterministic bytes)."""
    lines = [HEADER]
    meta = dict(s.metadata)
    if not s.is_exact:
        meta["tail_bound"] = _log10_exact(s.log_tail_bound)
    for key in META_KEYS:
        if key in meta:
            lines.append(f"#{key} {_fmt_meta(key, meta[key])}")
    for ln_w in s.log_weights:
        lines.append(repr(_log10_exact(float(ln_w))))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt_meta(key, value):
    if key == "family":
        return str(value)
    if key == "k":
        return repr(int(value))
    return repr(float(value))


def read_spectrum(path) -> SchmidtSpectrum:
    """Parse a v1 spectrum file; errors carry 1-based line numbers."""
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
    return make_spectrum(
        log_weights,
        log_tail,
        metadata,
        cut_certified="family" in metadata,
    )


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
