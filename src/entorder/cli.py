"""Command-line front end.

Subcommands:

    gen tmss|xi|psi ...      generate family spectra into v1 files
    validate <file>          parse a file and report the four conditions
    info <file>              entropy, rank, mean excitation, metadata
    compare <a> <b> --mode locc|prob|slocc
    certify <a> <b>          oscillation certificate search
    estimate-r <psi> --r-min .. --r-max .. --steps ..   (against the xi family)

All reports are canonical JSON on stdout (or -o FILE): identical inputs
produce byte-identical output. Exit codes: 0 success (an Undecided
verdict is data, not failure), 1 usage error, 2 invalid input file,
3 operation error (an output path that cannot be written and an
allocation that fails for want of memory among them).

``run`` builds its argument parser once per process and reuses it, so an
in-process caller that runs many commands pays for the build once.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from dataclasses import fields

from . import __version__
from .convertibility import (
    estimate_r_bounds,
    locc_convertible,
    max_probability,
    slocc_decide,
)
from .errors import EntOrderError, ParseError, ValidationError
from .families import FORM_RTOL, near_equal_steps, psi_state, tmss, xi_state
from .fileio import emit_report, read_spectrum, write_spectrum
from .oscillation import TrendThresholds, incomparability_certificate
from .spectrum import summary_stats, vidal_conditions

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_FILE = 2
EXIT_OPERATION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _finite_float(text):
    """argparse type: a float other than NaN or an infinity."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_output(p):
    p.add_argument("-o", "--output", help="write the report/file here instead of stdout")


def _add_window(p):
    p.add_argument("--window", help="inclusive index window MIN:MAX (default: widest honest window)")


def _add_thresholds(p):
    p.add_argument("--drift-nats", type=_finite_float, default=None, help="required extreme drift over the second half")
    p.add_argument("--min-points", type=int, default=None, help="minimum window points for trend tests")
    p.add_argument("--witness-step", dest="witness_step_nats", type=_finite_float, default=None, help="nats each witness must extend the record by")
    p.add_argument("--min-witnesses", type=int, default=None, help="witnesses required per direction")


def _add_gen_common(p):
    p.add_argument("--n", type=int, default=10000, help="stored horizon (number of weights)")
    p.add_argument("--delta", type=_finite_float, default=1.0, help="grid step of the tail function")
    p.add_argument("--offset", type=_finite_float, default=None, help="profile shift (default: searched)")
    p.add_argument("--offset-grid", type=_finite_float, default=0.01, help="offset search grid step")
    p.add_argument("--offset-margin", type=_finite_float, default=0.0, help="safety margin required of the decrease functional")
    _add_output(p)


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built at the first call and shared by every later one."""
    parser = _Parser(prog="entorder", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"entorder {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("gen", help="generate a family spectrum file")
    gensub = gen.add_subparsers(dest="family", required=True)
    g_tmss = gensub.add_parser("tmss", help="two-mode squeezed state")
    g_tmss.add_argument("--q", type=_finite_float, required=True)
    g_tmss.add_argument("--n", type=int, default=10000)
    _add_output(g_tmss)
    g_xi = gensub.add_parser("xi", help="oscillating reference family, one state per r")
    g_xi.add_argument("--r", type=_finite_float, required=True)
    _add_gen_common(g_xi)
    g_psi = gensub.add_parser("psi", help="profile-power ladder, one state per integer k")
    g_psi.add_argument("--k", type=int, required=True)
    g_psi.add_argument("--r", type=_finite_float, default=1.0)
    _add_gen_common(g_psi)

    val = sub.add_parser("validate", help="check a spectrum file and its conditions")
    val.add_argument("file")
    _add_output(val)

    info = sub.add_parser("info", help="summary statistics of a spectrum file")
    info.add_argument("file")
    _add_output(info)

    cmp_ = sub.add_parser("compare", help="decide convertibility between two spectra")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.add_argument("--mode", choices=("locc", "prob", "slocc"), required=True)
    _add_window(cmp_)
    _add_thresholds(cmp_)
    _add_output(cmp_)

    cert = sub.add_parser("certify", help="search witnesses that neither state converts to the other")
    cert.add_argument("a")
    cert.add_argument("b")
    _add_window(cert)
    _add_thresholds(cert)
    _add_output(cert)

    est = sub.add_parser("estimate-r", help="bracket a state against the reference family")
    est.add_argument("psi")
    est.add_argument("--r-min", type=_finite_float, required=True)
    est.add_argument("--r-max", type=_finite_float, required=True)
    est.add_argument("--steps", type=int, default=21)
    est.add_argument("--delta", type=_finite_float, default=None, help="family grid step (default: from the psi file)")
    est.add_argument("--member-n", type=int, default=10000, help="stored horizon of generated family members")
    _add_window(est)
    _add_thresholds(est)
    _add_output(est)

    return parser


def _parse_window(text):
    if text is None:
        return None
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise _UsageError(f"bad --window {text!r}, expected MIN:MAX") from exc
    if lo < 0 or hi < lo:
        raise _UsageError(f"bad --window {text!r}, need 0 <= MIN <= MAX")
    return (lo, hi)


def _thresholds(args) -> TrendThresholds:
    overrides = {f.name: getattr(args, f.name) for f in fields(TrendThresholds)
                 if getattr(args, f.name) is not None}
    try:
        return TrendThresholds(**overrides)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _check_span(delta, delta_name, n, n_option):
    """Refuse a grid step and horizon whose generated span delta * (n + 1) is not finite.

    The work of a finite span's condition scan is bounded where it is done,
    in the families module, which counts only the points it may evaluate.
    """
    try:
        span = delta * (n + 1)
    except OverflowError:  # n too large for a float
        span = math.inf
    if not math.isfinite(span):
        raise _UsageError(f"{delta_name} * ({n_option} + 1) overflows; give a smaller {delta_name} or {n_option}")


@contextlib.contextmanager
def _writing_output(path):
    """Report a failed write of the output as an operation error naming the path, not as bad input."""
    try:
        yield
    except OSError as exc:
        raise EntOrderError(f"cannot write the output {path}: {exc.strerror or exc}") from exc


def _emit(args, report) -> None:
    text = emit_report(report)
    if args.output:
        with _writing_output(args.output), open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spectrum_summary(s):
    return {
        "length": s.length,
        "metadata": dict(s.metadata),
        "log_tail_bound": None if s.is_exact else s.log_tail_bound,
    }


def _cmd_gen(args) -> int:
    if not args.output:
        raise _UsageError("gen requires -o FILE")
    if args.n < 1:
        raise _UsageError("--n must be >= 1")
    if args.family == "tmss":
        if not (0.0 <= args.q < 1.0):
            raise _UsageError("--q must lie in [0, 1)")
        spectrum = tmss(args.q, args.n)
    else:
        if args.offset_grid <= 0:
            raise _UsageError("--offset-grid must be positive")
        if args.offset_margin < 0:
            raise _UsageError("--offset-margin must be nonnegative")
        if args.r <= 0:
            raise _UsageError("--r must be positive")
        k = 1 if args.family == "xi" else args.k
        if k < 0:
            raise _UsageError("--k must be a nonnegative integer")
        if k > 0 and args.offset is not None and args.offset <= 1.0:
            raise _UsageError("--offset must exceed 1 so that the profile argument stays above 1")
        if args.delta <= 0:
            raise _UsageError("--delta must be positive")
        _check_span(args.delta, "--delta", args.n, "--n")
        kwargs = dict(
            delta=args.delta,
            n=args.n,
            offset=args.offset,
            grid_step=args.offset_grid,
            margin=args.offset_margin,
        )
        if args.family == "xi":
            spectrum = xi_state(args.r, **kwargs)
        else:
            spectrum = psi_state(k, r=args.r, **kwargs)
    with _writing_output(args.output):
        write_spectrum(spectrum, args.output)
    return EXIT_OK


def _cmd_validate(args) -> int:
    spectrum = read_spectrum(args.file)
    report = vidal_conditions(spectrum)
    _emit(args, {
        "type": "validation",
        "valid": True,
        "conditions": report.to_dict(),
        "spectrum": _spectrum_summary(spectrum),
    })
    return EXIT_OK


def _cmd_info(args) -> int:
    spectrum = read_spectrum(args.file)
    _emit(args, {
        "type": "info",
        "stats": summary_stats(spectrum),
        "spectrum": _spectrum_summary(spectrum),
    })
    return EXIT_OK


def _cmd_compare(args) -> int:
    a = read_spectrum(args.a)
    b = read_spectrum(args.b)
    window = _parse_window(args.window)
    th = _thresholds(args)
    if args.mode == "locc":
        body = {"convertible": locc_convertible(a, b)}
    elif args.mode == "prob":
        body = {"probability": max_probability(a, b)}
    else:
        body = slocc_decide(a, b, window=window, thresholds=th).to_dict()
    _emit(args, {
        "type": "comparison",
        "mode": args.mode,
        "a": _spectrum_summary(a),
        "b": _spectrum_summary(b),
        **body,
    })
    return EXIT_OK


def _cmd_certify(args) -> int:
    a = read_spectrum(args.a)
    b = read_spectrum(args.b)
    cert = incomparability_certificate(
        a, b, window=_parse_window(args.window), thresholds=_thresholds(args)
    )
    _emit(args, {
        "type": "certificate",
        "found": cert is not None,
        "certificate": cert.to_dict() if cert else None,
        "a": _spectrum_summary(a),
        "b": _spectrum_summary(b),
    })
    return EXIT_OK


def _cmd_estimate_r(args) -> int:
    psi = read_spectrum(args.psi)
    if args.delta is not None:
        delta, delta_name, bad_delta = args.delta, "--delta", _UsageError
    elif "delta" in psi.metadata:
        delta, delta_name, bad_delta = psi.metadata["delta"], "#delta", ValidationError
    else:
        raise _UsageError("no grid step: give --delta or use a file with a #delta line")
    if delta <= 0:
        raise bad_delta(f"{delta_name} must be positive")
    if psi.form is not None and near_equal_steps(psi.form.delta, delta):
        raise _UsageError(f"--delta {delta!r} differs from the file's grid step {psi.form.delta!r} by no more than "
                          f"FORM_RTOL ({FORM_RTOL:g}), which the metadata check cannot resolve: give --delta that step")
    if args.steps < 1:
        raise _UsageError("--steps must be >= 1")
    if args.member_n < 1:
        raise _UsageError("--member-n must be >= 1")
    _check_span(delta, delta_name, args.member_n, "--member-n")
    if args.r_min <= 0 or args.r_max < args.r_min:
        raise _UsageError("need 0 < --r-min <= --r-max")

    def family_gen(r):
        return xi_state(r, delta=delta, n=args.member_n)

    est = estimate_r_bounds(
        psi, family_gen, args.r_min, args.r_max, args.steps,
        window=_parse_window(args.window), thresholds=_thresholds(args),
    )
    _emit(args, {
        "type": "r_bounds",
        "family": "xi",
        "delta": delta,
        "psi": _spectrum_summary(psi),
        **est.to_dict(),
    })
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "validate": _cmd_validate,
    "info": _cmd_info,
    "compare": _cmd_compare,
    "certify": _cmd_certify,
    "estimate-r": _cmd_estimate_r,
}


def run(argv) -> int:
    """Dispatch a CLI invocation, mapping errors to documented exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.cmd](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ValidationError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    except (EntOrderError, ValueError, OverflowError) as exc:
        print(f"operation failed: {exc}", file=sys.stderr)
        return EXIT_OPERATION
    except MemoryError as exc:  # e.g. an --n or --steps too large to allocate
        print(f"operation failed: not enough memory: {exc}", file=sys.stderr)
        return EXIT_OPERATION


def main() -> None:
    sys.exit(run(sys.argv[1:]))
