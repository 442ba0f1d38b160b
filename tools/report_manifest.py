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

All commands run in one interpreter through ``entorder.cli.run``; the set
covers generation (searched and given offsets, on and off the default
check grid, one offset that fails, one member scanned in many evaluation
blocks), validation, summaries, every ordered
pair of the psi ladder, locc/slocc comparisons (one of them on a window
long enough to be subsampled), a certificate on a fine grid (delta 0.002,
3,145-point probe neighbourhoods), a certificate and a comparison on a
window past the stored horizon of a pair with no closed-form
continuation, and two ``estimate-r`` runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

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
    # a long member: its offset search scans 5e6 points in about 800 evaluation blocks
    ("xi_n50k.spec", ["gen", "xi", "--r", "1.5", "--n", "50000"]),
]

INSPECTED = ["psi0", "psi2", "xi", "t06", "t999", "xi_n50k"]

PAIRS = [("t06", "t04"), ("t999", "t998"), ("psi0", "xi"), ("psi2", "xi")]


def commands():
    """(output file name, argv with spectrum names still bare) in run order."""
    out = list(GEN)
    for name in INSPECTED:
        out.append((f"validate_{name}.json", ["validate", f"{name}.spec"]))
        out.append((f"info_{name}.json", ["info", f"{name}.spec"]))
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
    past_horizon = ["t06.spec", "t04.spec", "--window", "0:100000"]
    out.append(("certify_t06_t04_w100000.json", ["certify", *past_horizon]))
    out.append(("slocc_t06_t04_w100000.json", ["compare", *past_horizon, "--mode", "slocc"]))
    out.append(("estimate_psi0.json", ["estimate-r", "psi0.spec", "--r-min", "1", "--r-max", "2",
                                       "--steps", "3", "--member-n", "2000"]))
    out.append(("estimate_psi1.json", ["estimate-r", "psi1.spec", "--r-min", "0.5", "--r-max", "1.5",
                                       "--steps", "5", "--member-n", "2000"]))
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
    for name, argv_cmd in commands():
        target = out / name
        target.unlink(missing_ok=True)
        full = [str(out / a) if a.endswith(".spec") else a for a in argv_cmd] + ["-o", str(target)]
        with contextlib.redirect_stderr(io.StringIO()):  # the exit code is what is recorded
            code = run(full)
        lines.append(f"exit {code} {' '.join(argv_cmd)}")
        if target.exists():
            written.append(name)
    for name in written:
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        lines.append(f"{digest}  {name}")
    (out / "MANIFEST").write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"{len(written)} outputs, manifest at {out / 'MANIFEST'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
