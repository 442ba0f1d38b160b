"""Run a fixed set of CLI commands against one source tree and fingerprint the outputs.

Usage::

    python3 tools/report_manifest.py SRC OUT

``SRC`` is the directory that holds the ``entorder`` package (``src`` of
any checkout); ``OUT`` is created if needed and receives every generated
spectrum file and report, plus ``MANIFEST``: one ``exit <code> <command>``
line per command, then one ``<sha256>  <file>`` line per output. Two
trees produce the same reports exactly when their manifests are equal::

    python3 tools/report_manifest.py /path/to/parent/src /tmp/before
    python3 tools/report_manifest.py src /tmp/after
    diff /tmp/before/MANIFEST /tmp/after/MANIFEST

A command whose exception escapes ``entorder.cli.run`` is recorded as
``exit raised <ExceptionType> <command>`` and the rest still run, so a
tree that crashes on one command still yields a full manifest; the tool
then exits 1 instead of 0.

All commands run in one interpreter through ``entorder.cli.run``, which
builds its parser once, at the first command. That command is a usage
error (``compare`` without ``--mode``, exit 1), so every later command
runs on a parser that has already refused a parse. The set then covers
generation (searched and given offsets, on and off the default
check grid, one offset that fails, one member with a 5e6-point lattice,
two members whose closed-form cut-off y* lies far inside the span, a
span of 1e301 that y* bounds and three whose y* lies at 2e6 to 1e10,
below which proven cells leave a few hundred points to evaluate,
r = 110, 150 and 300 members with a squeezed state on their grid,
members at r = 0.5, 1.37 and 2 for the exponent pairs below, and
members that switch the kept grid terms: xi(1.37) at n = 3000 right
after n = 2000, and psi(k 2) at a given offset 3.79 right after the
search on its grid), a member on the step 1e-17, whose weight
differences all lie where exp(x) rounds to 1, members that move the
kept cells of the search lattice (xi(r 1), then xi(r 2), whose range on
it is longer, xi(r 1) again, which reads part of it, xi(r 2) on the
search step 0.02, another lattice, and xi(r 1.5) back on the first),
validation (first of
psi1_d005.spec, on another grid than the last member generated, then
also of edited copies:
psi2.spec with CRLF endings and padded lines, which reads, and with a
blank line, metadata after a
weight, a bad literal or a 0xff byte; psi1_d005.spec, whose tail lies
above its last weight, relabelled ``#family foo``; t999.spec with
``#delta 0.5``, also run through ``estimate-r``; t06.spec given ``#k``
and ``#offset``, psi2.spec given ``#q``, t06.spec with ``#tail_bound
400``, psi2.spec with a last weight ``1e308`` and psi2.spec with a first
weight ``400``; each of these exits 2),
summaries, every ordered pair of the psi ladder, locc/slocc comparisons
(one of them on a 90,000-point window), a certificate on
a fine grid (delta 0.002, 3,145-point probe neighbourhoods), one on a
window that ends at 10**80 + 12345, a certificate and a comparison on a
window past the stored horizon of a pair with no closed-form
continuation, eight ``estimate-r`` runs (among them a squeezed state on
its own grid, whose exponents decide every member, the same state on a
window too short for evidence, xi.spec against xi 1..2, where ties and
one-sided exponents take the windowed evidence, the squeezed state
against members on another grid step, with no closed-form pair, and a
span with r-min = r-max at three steps, which samples its one r once), two
certificates and a comparison
at witness thresholds off their defaults (psi2/psi1 falls short of 7
witnesses 2 nats apart, psi3/psi0 reaches them), the r = 110 pair, whose
closed-form window ends where its profile could overflow (certified in
both orders and compared), the r = 150 and r = 300 pairs, whose windows
end too early for the probe to see the envelope move, so the closed
form's exponent decides them (compared), and three pairs the exponent
alone tells apart from a stable extreme: xi(r 1.37) against psi(k 3,
r 0.5) in both orders, incomparable though the windowed minimum looks
stable, and the tie psi(k 3, r 2) against psi(k 3, r 0.5), whose
exponent minimum is 0 (compared). Last come exact finite-rank states:
t06.spec and t04.spec stripped of their metadata (rank 500) and the first
100 weights of t04.spec (rank 100), validated, summarized and compared in
every mode, and the rank-100 copy against the truncated t04.spec, whose
rank decides it while the trend tests still read its window (compared and
certified). Then a psi2.spec whose ``#delta`` is moved by 1e-12 relative,
which validates but whose pair with psi1.spec no closed form can continue
(compared: exit 2), a truncated copy of t06.spec without its family
metadata, which has no certified excitation remainder (validated and
summarized), and a squeezed pair at q = 0.1 and 0.6 on the window
200:300, whose ``b_to_a`` epsilon exceeds the float range (compared),
the exact rank-500 pair certified, whose tails both reach zero at the
rank, and squeezed members whose remainder bounds need logs: the step
1e-17, where exp(-delta) rounds to 1, and the step 1e-310, whose bound
e^713.8 lies past the float range (summarized), and a member at the step
1e-9, whose sampled weights jitter (exit 3).
Three usage errors follow: ``gen psi --q`` and ``estimate-r
--family``, options that are gone, and an ``estimate-r`` whose ``--delta``
lies within ``FORM_RTOL`` of, but not at, the file's step. Last come
fourteen values out of range, each refused by the library function that
takes it (exit 1, no output): ``gen`` with n 0 at q 0, k -1, a k of
10**400 (past the float range), r 0, delta 0, an offset of 0.5, an offset search step 0 next to a given offset, a
negative margin and a span ``delta * (n + 1)`` past the float range;
``estimate-r`` with no steps, no member weights, a reversed r range and
r-min 0; and ``certify`` asking for fewer witnesses than a certificate
holds. After them come members on coarse search steps, which build a
lattice's whole cell partition or none (``--offset-grid`` 1000 and
1e300, where the partition ends at the float range), a member at the
given offset 1e307, past which every lattice point lies beyond y*
(generated and validated), a certificate on a window that starts at
10**400, past the float range (found false), and a search step of 1e-6,
whose default a_max leaves no candidate (exit 1). Last come two spectra
written by hand, each validated and summarized: 256 weights whose
base-10 logs hold 64 literals of 18 significant digits that lie next to
a midpoint of two doubles, where the digits over their power of ten
round to that midpoint in a 64-bit significand, and three exponent
lines (one in 64 at most, so the fixed-point reader takes the body);
the same with one 20-digit literal, which it declines; and a truncated
state with no family metadata whose tail bound 0.07 lies far above the
0.02 its three weights leave, so its safe horizon is 0. Then the exact
rank-500 pair compared on the window 0:3, which an exact pair ignores,
and the loose-tail state compared with the exact t06.spec in mode locc
both ways: past the safe horizon its stored g rests on its tail bound,
so a violation there proves nothing (exit 3), while against the exact
side its whole stored range counts (false).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import sys
from fractions import Fraction
from pathlib import Path

# run first, before any file exists: the parser refuses it for want of --mode
REFUSED = ("compare_no_mode.json", ["compare", "psi2.spec", "psi1.spec"])

GEN = [
    *[(f"psi{k}.spec", ["gen", "psi", "--k", str(k), "--n", "10000"]) for k in range(5)],
    ("xi.spec", ["gen", "xi", "--r", "1.5"]),
    ("t06.spec", ["gen", "tmss", "--q", "0.6", "--n", "500"]),
    ("t04.spec", ["gen", "tmss", "--q", "0.4", "--n", "500"]),
    ("t999.spec", ["gen", "tmss", "--q", "0.999", "--n", "90000"]),
    ("t998.spec", ["gen", "tmss", "--q", "0.998", "--n", "90000"]),
    # each side of the rescan skip: a grid finer than the search step, a given
    # offset (one that passes, one that fails), a coarser search grid, a margin
    ("psi1_d005.spec", ["gen", "psi", "--k", "1", "--delta", "0.005", "--n", "2000"]),
    ("psi2_a15.spec", ["gen", "psi", "--k", "2", "--offset", "1.5", "--n", "2000"]),
    ("psi4_a2.spec", ["gen", "psi", "--k", "4", "--offset", "2", "--n", "100"]),
    ("xi_g002.spec", ["gen", "xi", "--r", "1.5", "--offset-grid", "0.02", "--n", "2000"]),
    ("psi3_m02.spec", ["gen", "psi", "--k", "3", "--offset-margin", "0.2", "--n", "2000"]),
    # a grid so fine that each probe neighbourhood holds 3,145 points
    *[(f"psi{k}_d0002.spec", ["gen", "psi", "--k", str(k), "--delta", "0.002", "--n", "2000"]) for k in (1, 2)],
    # a long member: a 5e6-point search lattice, evaluated only below y* (about 206)
    ("xi_n50k.spec", ["gen", "xi", "--r", "1.5", "--n", "50000"]),
    # the closed-form cut-off y* inside the span: the largest one in use
    # (k = 4, r = 2, about 5,669) on a search, and about 1,069 at a given offset
    ("psi4_r2.spec", ["gen", "psi", "--k", "4", "--r", "2", "--n", "10000"]),
    ("xi_r2_a3.spec", ["gen", "xi", "--r", "2", "--offset", "3", "--n", "10000"]),
    # a span of 1e301: y* = 46.2 bounds the scan to about 4,620 points; at r = 4, 5
    # and 6, y* = 2.0e6, 1.3e8 and 1.06e10 leave 2e8 to 1.06e12 points below it,
    # of which the cells proven there leave a few hundred to evaluate
    ("psi1_d1e300.spec", ["gen", "psi", "--k", "1", "--delta", "1e300", "--n", "10"]),
    *[(f"xi_r{r}_d1e300.spec", ["gen", "xi", "--r", str(r), "--delta", "1e300", "--n", "10"]) for r in (4, 5, 6)],
    # r = 110: past ln y = 575 a float term of its profile could overflow, so the closed-form
    # window of its pair with a squeezed state on the same grid (delta 1) ends there
    ("xi_r110.spec", ["gen", "xi", "--r", "110", "--n", "200"]),
    ("t_d1.spec", ["gen", "tmss", "--q", "0.6065306597126334", "--n", "200"]),
    # r = 300: the same cap ends the window at ln y = 10.2, and at r = 150 at ln y = 105
    ("xi_r300.spec", ["gen", "xi", "--r", "300", "--n", "200"]),
    ("xi_r150.spec", ["gen", "xi", "--r", "150", "--n", "200"]),
    # a pair whose exponent e(0) = 1.37 - 3 * 0.5 is below 0, so ell falls at the peaks
    # too slowly for the windowed minimum to move, and a tie pair (lo = 0)
    ("psi3_r05.spec", ["gen", "psi", "--k", "3", "--r", "0.5", "--n", "2000"]),
    ("xi_r137.spec", ["gen", "xi", "--r", "1.37", "--n", "2000"]),
    # the last grid's terms are kept: the same grid (delta 1, offset 1.01) one point longer,
    # then a searched member on it and the same member at another offset
    ("xi_r137_n3000.spec", ["gen", "xi", "--r", "1.37", "--n", "3000"]),
    ("psi3_r2.spec", ["gen", "psi", "--k", "3", "--r", "2", "--n", "2000"]),
    ("psi2_n2000.spec", ["gen", "psi", "--k", "2", "--n", "2000"]),
    ("psi2_n2000_a379.spec", ["gen", "psi", "--k", "2", "--n", "2000", "--offset", "3.79"]),
    ("t01.spec", ["gen", "tmss", "--q", "0.1", "--n", "500"]),
    # a step so small that every weight difference lies above -1.1e-16, where exp rounds to 1
    ("psi0_d1e17.spec", ["gen", "psi", "--k", "0", "--delta", "1e-17", "--n", "10"]),
    # the kept cells of one search lattice (step 0.01 from 1.01): built for r = 1, extended for
    # r = 2, whose range is longer, read in part for r = 1 again; then another lattice (the
    # search step 0.02, and the check grid at its offset), and the first one built anew
    ("xi_r1_n2000.spec", ["gen", "xi", "--r", "1", "--n", "2000"]),
    ("xi_r2_n2000.spec", ["gen", "xi", "--r", "2", "--n", "2000"]),
    ("xi_r1_n2000_again.spec", ["gen", "xi", "--r", "1", "--n", "2000"]),
    ("xi_r2_g002_n2000.spec", ["gen", "xi", "--r", "2", "--offset-grid", "0.02", "--n", "2000"]),
    ("xi_r15_n2000.spec", ["gen", "xi", "--r", "1.5", "--n", "2000"]),
]


def _replace_line(prefix, new):
    return lambda lines: "\n".join(new if line.startswith(prefix) else line for line in lines) + "\n"


def _insert_after_header(*new):
    return lambda lines: "\n".join(lines[:1] + list(new) + lines[1:]) + "\n"


def _exact(count=None):
    """The file without its metadata lines, so with no tail bound, cut to its first ``count`` weights."""
    return lambda lines: "\n".join(lines[:1] + [line for line in lines[1:] if not line.startswith("#")][:count]) + "\n"


def _formless(lines):
    """The file without its family metadata, so with no closed form, but with its tail bound."""
    return "\n".join(line for line in lines if not line.startswith("#") or line.startswith(("#schmidt", "#tail_bound"))) + "\n"


def _first_weight(literal):
    """The file with its first weight line replaced by ``literal``."""
    def edit(lines):
        i = next(i for i, line in enumerate(lines) if i and not line.startswith("#"))
        return "\n".join(lines[:i] + [literal] + lines[i + 1:]) + "\n"
    return edit


def _scaled_delta(factor):
    return lambda lines: "\n".join(
        f"#delta {float(line.split()[1]) * factor!r}" if line.startswith("#delta ") else line for line in lines
    ) + "\n"


# edited copies of generated files, written after generation as (source, edit of its
# lines): padding the reader accepts (exit 0); three malformed files, a tail above the
# last weight under a family with no closed form, a tmss #delta that is not -2 ln q,
# a 0xff byte in the third weight line and keys of another family, each of which it
# refuses (exit 2); three exact finite-rank states, a grid step moved by 1e-12 relative
# and a truncated state without a closed form (exit 0); a tail bound of 10^400, past
# the float range, a weight literal 1e308, whose ln is, and a first weight literal 400,
# whose e^921 no float holds as the weights' sum (exit 2)
EDITED = {
    "psi2_padded.spec": ("psi2.spec", lambda lines: "\r\n".join(f" \t{line}\t " for line in lines) + "\r\n"),
    "psi2_blank.spec": ("psi2.spec", lambda lines: "\n".join(lines[:10] + [""] + lines[10:]) + "\n"),
    "psi2_late_meta.spec": ("psi2.spec", lambda lines: "\n".join(lines[:10] + ["#k 2"] + lines[10:]) + "\n"),
    "psi2_bad_literal.spec": ("psi2.spec", lambda lines: "\n".join(lines[:-1] + ["-0.3x"]) + "\n"),
    "psi1_d005_foo.spec": ("psi1_d005.spec", _replace_line("#family ", "#family foo")),
    "t999_delta05.spec": ("t999.spec", _replace_line("#delta ", "#delta 0.5")),
    "psi2_non_ascii.spec": ("psi2.spec", lambda lines: "\n".join(lines[:9] + [lines[9] + "\xff"] + lines[10:]) + "\n"),
    "t06_k_offset.spec": ("t06.spec", _insert_after_header("#k 3", "#offset 7.0")),
    "psi2_q.spec": ("psi2.spec", _insert_after_header("#q 0.5")),
    "t06_exact.spec": ("t06.spec", _exact()),
    "t04_exact.spec": ("t04.spec", _exact()),
    "t04_exact100.spec": ("t04.spec", _exact(100)),
    "psi2_delta_1e12.spec": ("psi2.spec", _scaled_delta(1 + 1e-12)),
    "t06_formless.spec": ("t06.spec", _formless),
    "t06_tail_bound400.spec": ("t06.spec", _replace_line("#tail_bound ", "#tail_bound 400")),
    "psi2_1e308.spec": ("psi2.spec", lambda lines: "\n".join(lines + ["1e308"]) + "\n"),
    "psi2_w400.spec": ("psi2.spec", _first_weight("400")),
}


def _midpoint_hazard(d):
    """The 18-significant-digit literal next to the midpoint of d and its neighbour toward zero, if m / 10**k
    rounds to that midpoint in a 64-bit significand (where a plain long double cast may miss the nearest
    double); else None. Exact rational arithmetic, so the same on every machine."""
    mid = (Fraction(d) + Fraction(math.nextafter(d, 0.0))) / 2
    places = 17 - math.floor(math.log10(abs(d)))
    literal = round(mid * 10**places)
    half_ulp64 = Fraction(2) ** (math.frexp(abs(d))[1] - 65)  # half an ulp of a 64-bit significand at d
    if abs(Fraction(literal, 10**places) - mid) <= half_ulp64:
        text = f"{abs(literal):0{places + 1}d}"
        return f"-{text[:-places]}.{text[-places:]}"
    return None


def _hazard_spectrum(extra=()):
    """An exact 256-weight spectrum written by hand: every fourth of its base-10 logs from -8 down to -30 a
    midpoint hazard where one lies within 200 doubles, two exponent lines at its end and, first, the log
    of 1 less the other weights, which repr writes with an exponent; ``extra`` literals go before the end."""
    lines = []
    for i in range(253):
        d = -(8 + 22 * i / 253)
        hazard = next(filter(None, (_midpoint_hazard(d + j * 2**-48) for j in range(200)))) if i % 4 == 0 else None
        lines.append(hazard or repr(d))
    lines += [*extra, "-3.05e+01", "-3.1e1"]
    rest = math.fsum(10.0 ** float(line) for line in lines)
    return "\n".join(["#schmidt-spectrum 1", repr(math.log10(1.0 - rest)), *lines]) + "\n"


# spectra written by hand: the one above, the same with a 20-digit literal, which the
# fixed-point reader declines, and weights 0.7, 0.2, 0.08 with a loose tail bound of 0.07
WRITTEN = {
    "hazards.spec": _hazard_spectrum(),
    "hazards_d20.spec": _hazard_spectrum(["-30.012345678901234567"]),
    "loose.spec": "\n".join(["#schmidt-spectrum 1", f"#tail_bound {math.log10(0.07)!r}",
                              *[repr(math.log10(w)) for w in (0.7, 0.2, 0.08)]]) + "\n",
}

INSPECTED = ["psi0", "psi2", "xi", "t06", "t999", "xi_n50k"]

PAIRS = [("t06", "t04"), ("t999", "t998"), ("psi0", "xi"), ("psi2", "xi")]


def commands():
    """(output file name, argv with spectrum names still bare) in run order."""
    out = [REFUSED, *GEN]
    # a file on another grid (delta 0.005) than the last member generated
    out.append(("validate_psi1_d005.json", ["validate", "psi1_d005.spec"]))
    for name in INSPECTED:
        out.append((f"validate_{name}.json", ["validate", f"{name}.spec"]))
        out.append((f"info_{name}.json", ["info", f"{name}.spec"]))
    for name in EDITED:
        out.append((f"validate_{name[:-5]}.json", ["validate", name]))
    out.append(("validate_psi4_r2.json", ["validate", "psi4_r2.spec"]))
    out.append(("validate_psi1_d1e300.json", ["validate", "psi1_d1e300.spec"]))
    for i in range(5):
        for j in range(5):
            if i != j:
                a, b = f"psi{i}.spec", f"psi{j}.spec"
                out.append((f"certify_psi{i}_psi{j}.json", ["certify", a, b]))
                out.append((f"slocc_psi{i}_psi{j}.json", ["compare", a, b, "--mode", "slocc"]))
    for a, b in PAIRS:
        for mode in ("locc", "slocc"):
            out.append((f"{mode}_{a}_{b}.json", ["compare", f"{a}.spec", f"{b}.spec", "--mode", mode]))
    out.append(("certify_psi2_d0002_psi1_d0002.json", ["certify", "psi2_d0002.spec", "psi1_d0002.spec"]))
    # a window end that no float holds, far past 2**53: the probe clips to it in exact ints
    out.append(("certify_psi2_psi1_w1e80.json", ["certify", "psi2.spec", "psi1.spec", "--window", f"0:{10**80 + 12345}"]))
    past_horizon = ["t06.spec", "t04.spec", "--window", "0:100000"]
    out.append(("certify_t06_t04_w100000.json", ["certify", *past_horizon]))
    out.append(("slocc_t06_t04_w100000.json", ["compare", *past_horizon, "--mode", "slocc"]))
    out.append(("estimate_psi0.json", ["estimate-r", "psi0.spec", "--r-min", "1", "--r-max", "2",
                                       "--steps", "3", "--member-n", "2000"]))
    out.append(("estimate_psi1.json", ["estimate-r", "psi1.spec", "--r-min", "0.5", "--r-max", "1.5",
                                       "--steps", "5", "--member-n", "2000"]))
    out.append(("estimate_t999_delta05.json", ["estimate-r", "t999_delta05.spec", "--r-min", "1", "--r-max", "2",
                                               "--steps", "3", "--member-n", "2000"]))
    # each way estimate-r decides a member: the exponents alone (tmss on its own grid),
    # too few window points, the windowed evidence (a tie or one-sided exponent), no pair
    est_t_d1 = ["estimate-r", "t_d1.spec", "--r-min", "1", "--r-max", "2", "--steps", "5", "--member-n", "2000"]
    out.append(("estimate_t_d1.json", est_t_d1))
    out.append(("estimate_t_d1_w40.json", [*est_t_d1, "--window", "0:40"]))
    out.append(("estimate_xi.json", ["estimate-r", "xi.spec", "--r-min", "1", "--r-max", "2", "--steps", "5",
                                     "--member-n", "2000"]))
    out.append(("estimate_t_d1_d11.json", [*est_t_d1, "--delta", "1.1"]))
    out.append(("estimate_t_d1_r1.json", ["estimate-r", "t_d1.spec", "--r-min", "1", "--r-max", "1", "--steps", "3"]))
    # thresholds off their defaults: the record lists at other steps and counts
    out.append(("certify_psi2_psi1_step2_min7.json", ["certify", "psi2.spec", "psi1.spec", "--witness-step", "2",
                                                      "--min-witnesses", "7"]))
    out.append(("certify_psi3_psi0_step2_min7.json", ["certify", "psi3.spec", "psi0.spec", "--witness-step", "2",
                                                      "--min-witnesses", "7"]))
    out.append(("slocc_psi3_psi1_step3.json", ["compare", "psi3.spec", "psi1.spec", "--mode", "slocc",
                                               "--witness-step", "3"]))
    out.append(("certify_xi_r110_t_d1.json", ["certify", "xi_r110.spec", "t_d1.spec"]))
    out.append(("certify_t_d1_xi_r110.json", ["certify", "t_d1.spec", "xi_r110.spec"]))
    out.append(("slocc_t_d1_xi_r110.json", ["compare", "t_d1.spec", "xi_r110.spec", "--mode", "slocc"]))
    out.append(("slocc_t_d1_xi_r300.json", ["compare", "t_d1.spec", "xi_r300.spec", "--mode", "slocc"]))
    out.append(("slocc_t_d1_xi_r150.json", ["compare", "t_d1.spec", "xi_r150.spec", "--mode", "slocc"]))
    for a, b in (("xi_r137", "psi3_r05"), ("psi3_r05", "xi_r137"), ("psi3_r2", "psi3_r05")):
        out.append((f"slocc_{a}_{b}.json", ["compare", f"{a}.spec", f"{b}.spec", "--mode", "slocc"]))
    for name in ("t06_exact", "t04_exact", "t04_exact100"):
        out.append((f"info_{name}.json", ["info", f"{name}.spec"]))
    for a, b in (("t06_exact", "t04_exact"), ("t04_exact100", "t04_exact")):
        for mode in ("locc", "prob", "slocc"):
            out.append((f"{mode}_{a}_{b}.json", ["compare", f"{a}.spec", f"{b}.spec", "--mode", mode]))
    # exact against truncated: rank decides, and the trend labels are still reported
    out.append(("slocc_t04_exact100_t04.json", ["compare", "t04_exact100.spec", "t04.spec", "--mode", "slocc"]))
    out.append(("certify_t04_exact100_t04.json", ["certify", "t04_exact100.spec", "t04.spec"]))
    # grid steps no metadata check can tell apart: refused (exit 2)
    out.append(("slocc_psi2_delta_1e12_psi1.json", ["compare", "psi2_delta_1e12.spec", "psi1.spec", "--mode", "slocc"]))
    out.append(("info_t06_formless.json", ["info", "t06_formless.spec"]))
    # g_b/g_a reaches e^716.7 at n = 200: its epsilon reads the float maximum
    out.append(("slocc_t01_t06_w200_300.json", ["compare", "t01.spec", "t06.spec", "--mode", "slocc",
                                                "--window", "200:300"]))
    # ln g_a - ln g_b is -inf - -inf at the common rank 500
    out.append(("certify_t06_exact_t04_exact.json", ["certify", "t06_exact.spec", "t04_exact.spec"]))
    # z = exp(-delta) rounds to 1, and a remainder bound of e^713.8
    out.append(("info_psi0_d1e17.json", ["info", "psi0_d1e17.spec"]))
    out.append(("psi0_d1e310.spec", ["gen", "psi", "--k", "0", "--delta", "1e-310", "--n", "10"]))
    out.append(("info_psi0_d1e310.json", ["info", "psi0_d1e310.spec"]))
    # weights sampled at a step so fine that they jitter: a condition of the curve (exit 3)
    out.append(("xi_d1e9.spec", ["gen", "xi", "--r", "1.5", "--delta", "1e-9", "--n", "2000"]))
    # usage errors (exit 1): options that gave a second way to a grid step or a family,
    # and a --delta within FORM_RTOL of the file's own step
    out.append(("psi1_q06.spec", ["gen", "psi", "--k", "1", "--q", "0.6", "--n", "200"]))
    out.append(("estimate_psi0_family_xi.json", ["estimate-r", "psi0.spec", "--family", "xi", "--r-min", "1",
                                                 "--r-max", "2", "--steps", "3", "--member-n", "2000"]))
    out.append(("estimate_psi1_d1e12.json", ["estimate-r", "psi1.spec", "--delta", "1.000000000001", "--r-min", "1",
                                             "--r-max", "2", "--steps", "3", "--member-n", "2000"]))
    # values out of range, refused where the library takes them (exit 1)
    out.extend([
        ("t0_n0.spec", ["gen", "tmss", "--q", "0", "--n", "0"]),
        ("psi_k-1.spec", ["gen", "psi", "--k", "-1"]),
        ("psi_k1e400.spec", ["gen", "psi", "--k", "1" + "0" * 400]),
        ("xi_r0.spec", ["gen", "xi", "--r", "0"]),
        ("psi1_d0.spec", ["gen", "psi", "--k", "1", "--delta", "0"]),
        ("xi_a05.spec", ["gen", "xi", "--r", "1.5", "--offset", "0.5"]),
        ("xi_a2_g0.spec", ["gen", "xi", "--r", "1.5", "--offset", "2", "--offset-grid", "0"]),
        ("psi1_m-1.spec", ["gen", "psi", "--k", "1", "--offset-margin", "-1"]),
        ("psi1_d1e308.spec", ["gen", "psi", "--k", "1", "--delta", "1e308", "--n", "10"]),
    ])
    est_psi0 = ["estimate-r", "psi0.spec", "--r-min", "1", "--r-max", "2", "--steps", "3", "--member-n", "2000"]
    out.extend([
        ("estimate_psi0_steps0.json", [*est_psi0, "--steps", "0"]),
        ("estimate_psi0_member_n0.json", [*est_psi0, "--member-n", "0"]),
        ("estimate_psi0_r2_1.json", [*est_psi0, "--r-min", "2", "--r-max", "1"]),
        ("estimate_psi0_r0.json", [*est_psi0, "--r-min", "0"]),
        ("certify_psi2_psi1_min3.json", ["certify", "psi2.spec", "psi1.spec", "--min-witnesses", "3"]),
    ])
    # whole cell partitions: none at search steps 1000 and 1e300 for k = 1 (y* = 46 lies below the
    # first candidate), about 3,330 cells at step 1000 for r = 6 (y* = 1.06e10), and at step 1e300
    # for r = 105 (y* = 4.3e301) cells that end where y leaves the float range
    out.extend([
        ("psi1_g1000.spec", ["gen", "psi", "--k", "1", "--n", "10", "--offset-grid", "1000"]),
        ("psi1_g1e300.spec", ["gen", "psi", "--k", "1", "--n", "10", "--offset-grid", "1e300"]),
        ("xi_r6_g1000.spec", ["gen", "xi", "--r", "6", "--n", "10", "--offset-grid", "1000"]),
        ("xi_r105_g1e300.spec", ["gen", "xi", "--r", "105", "--n", "10", "--offset-grid", "1e300"]),
    ])
    # a given offset so large that (y* - offset) / step is -inf: every point lies past y* (exit 0)
    out.append(("psi1_a1e307.spec", ["gen", "psi", "--k", "1", "--n", "10", "--offset", "1e307"]))
    out.append(("validate_psi1_a1e307.json", ["validate", "psi1_a1e307.spec"]))
    # a window that starts past the float range, beyond the closed form's reach: no candidate (found false)
    out.append(("certify_psi2_psi1_w1e400.json", ["certify", "psi2.spec", "psi1.spec",
                                                  "--window", f"{10**400}:{10**400 + 5}"]))
    # a search step whose default a_max (1e6 steps) leaves no candidate above 1 (exit 1)
    out.append(("psi1_g1e-6.spec", ["gen", "psi", "--k", "1", "--n", "10", "--offset-grid", "1e-6"]))
    for name in WRITTEN:
        out.append((f"validate_{name[:-5]}.json", ["validate", name]))
        out.append((f"info_{name[:-5]}.json", ["info", name]))
    out.append(("slocc_t06_exact_t04_exact_w0_3.json", ["compare", "t06_exact.spec", "t04_exact.spec", "--mode", "slocc",
                                                        "--window", "0:3"]))
    # the stored g of loose.spec past its safe horizon 0 exceeds t06_exact's at n = 2 and 3 only through
    # its tail bound (exit 3); the other way, t06_exact's g(1) = 0.36 exceeds loose's 0.33 (false)
    out.append(("locc_t06_exact_loose.json", ["compare", "t06_exact.spec", "loose.spec", "--mode", "locc"]))
    out.append(("locc_loose_t06_exact.json", ["compare", "loose.spec", "t06_exact.spec", "--mode", "locc"]))
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    sys.path.insert(0, str(src))
    from entorder.cli import run

    out.mkdir(parents=True, exist_ok=True)
    lines = []
    written = []
    raised = 0
    for i, (name, argv_cmd) in enumerate(commands()):
        if i == 1 + len(GEN):  # right after the last generated file
            for edited, (source, edit) in EDITED.items():
                source_lines = (out / source).read_text(encoding="ascii").splitlines()
                (out / edited).write_bytes(edit(source_lines).encode("latin-1"))  # ASCII but for the one 0xff
            for written_name, text in WRITTEN.items():
                (out / written_name).write_text(text, encoding="ascii")
        target = out / name
        target.unlink(missing_ok=True)
        full = [str(out / a) if a.endswith(".spec") else a for a in argv_cmd] + ["-o", str(target)]
        with contextlib.redirect_stderr(io.StringIO()):  # the exit code is what is recorded
            try:
                code = run(full)
            except Exception as exc:  # recorded; the remaining commands still run
                code = f"raised {type(exc).__name__}"
                raised += 1
        lines.append(f"exit {code} {' '.join(argv_cmd)}")
        if target.exists():
            written.append(name)
    for name in written:
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        lines.append(f"{digest}  {name}")
    (out / "MANIFEST").write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"{len(written)} outputs, {raised} commands raised, manifest at {out / 'MANIFEST'}")
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
