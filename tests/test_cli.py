import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entorder as eo
from entorder import cli
from entorder.cli import run


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


@pytest.fixture(scope="module")
def specdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("specs")
    assert run(["gen", "tmss", "--q", "0.5", "--n", "1000", "-o", str(d / "tmss05.spec")]) == 0
    assert run(["gen", "tmss", "--q", "0.6", "--n", "600", "-o", str(d / "tmss06.spec")]) == 0
    assert run(["gen", "tmss", "--q", "0.4", "--n", "600", "-o", str(d / "tmss04.spec")]) == 0
    assert run(["gen", "psi", "--k", "0", "--n", "2000", "-o", str(d / "psi0.spec")]) == 0
    assert run(["gen", "psi", "--k", "1", "--n", "2000", "-o", str(d / "psi1.spec")]) == 0
    eo.write_spectrum(eo.build_spectrum((0.6, 0.4)), d / "rank2.spec")
    eo.write_spectrum(eo.build_spectrum((0.5, 0.3, 0.2)), d / "rank3.spec")
    return d


class TestGenValidate:
    def test_gen_then_validate(self, specdir, capsys):
        code, rep = run_json(capsys, ["validate", str(specdir / "tmss05.spec")])
        assert code == 0
        assert rep["valid"] is True
        assert rep["conditions"]["all_pass"] is True

    def test_info(self, specdir, capsys):
        code, rep = run_json(capsys, ["info", str(specdir / "tmss05.spec")])
        assert code == 0
        assert rep["stats"]["schmidt_rank"] == "truncated"
        assert rep["stats"]["mean_excitation"] == pytest.approx(1 / 3, abs=1e-9)

    def test_info_exact_file(self, specdir, capsys):
        code, rep = run_json(capsys, ["info", str(specdir / "rank2.spec")])
        assert code == 0
        assert rep["stats"]["schmidt_rank"] == 2
        assert rep["stats"]["excitation_tail_bound"] == 0.0
        assert rep["stats"]["log_excitation_tail_bound"] is None

    def test_gen_requires_output(self, capsys):
        assert run(["gen", "tmss", "--q", "0.5"]) == 1

    def test_missing_output_refused_before_generating(self, monkeypatch, capsys):
        def generate(*args, **kwargs):
            raise RuntimeError("generated although -o is missing")

        for name in ("tmss", "xi_state", "psi_state"):
            monkeypatch.setattr(cli, name, generate)
        assert run(["gen", "psi", "--k", "1", "--n", "100000"]) == 1
        assert run(["gen", "xi", "--r", "1.5"]) == 1
        assert run(["gen", "tmss", "--q", "0.5"]) == 1
        assert capsys.readouterr().err.count("usage error: gen requires -o FILE") == 3


class TestCompare:
    def test_self_slocc_two_way(self, specdir, capsys):
        f = str(specdir / "tmss05.spec")
        code, rep = run_json(capsys, ["compare", f, f, "--mode", "slocc"])
        assert code == 0
        assert rep["verdict"] == "TwoWay"
        assert rep["epsilon"]["a_to_b"] == 1.0

    def test_tmss_one_way(self, specdir, capsys):
        code, rep = run_json(capsys, [
            "compare", str(specdir / "tmss06.spec"), str(specdir / "tmss04.spec"),
            "--mode", "slocc", "--window", "0:500",
        ])
        assert code == 0
        assert rep["verdict"] == "OneWayAtoB"
        assert rep["trend"]["reverse"] == "DivergesDown"

    def test_rank_probability_zero(self, specdir, capsys):
        code, rep = run_json(capsys, [
            "compare", str(specdir / "rank2.spec"), str(specdir / "rank3.spec"),
            "--mode", "prob",
        ])
        assert code == 0
        assert rep["probability"] == 0.0

    def test_locc_modes(self, specdir, capsys):
        code, rep = run_json(capsys, [
            "compare", str(specdir / "tmss04.spec"), str(specdir / "tmss06.spec"),
            "--mode", "locc",
        ])
        assert code == 0 and rep["convertible"] is False
        # the reverse has no in-window violation, so truncation blocks it
        assert run([
            "compare", str(specdir / "tmss06.spec"), str(specdir / "tmss04.spec"),
            "--mode", "locc",
        ]) == 3

    def test_psi_zero_matches_tmss(self, specdir, capsys, tmp_path):
        q = repr(math.exp(-0.5))
        t = tmp_path / "t.spec"
        assert run(["gen", "tmss", "--q", q, "--n", "2000", "-o", str(t)]) == 0
        code, rep = run_json(capsys, [
            "compare", str(specdir / "psi0.spec"), str(t), "--mode", "slocc",
        ])
        assert code == 0
        assert rep["verdict"] == "TwoWay"


    def test_zero_epsilon_logs_null(self, capsys, tmp_path):
        # rank 10 is exhausted at n = 10, so the window holds no finite ratio
        exact, t = tmp_path / "exact10.spec", tmp_path / "t.spec"
        eo.write_spectrum(eo.build_spectrum([0.1] * 10), exact)
        assert run(["gen", "tmss", "--q", "0.5", "--n", "200", "-o", str(t)]) == 0
        code, rep = run_json(capsys, [
            "compare", str(exact), str(t), "--mode", "slocc", "--window", "10:10",
        ])
        assert code == 0
        assert rep["verdict"] == "OneWayBtoA"
        assert rep["epsilon"] == {"a_to_b": 0, "b_to_a": 0, "log_a_to_b": None, "log_b_to_a": None}


class TestCertify:
    def test_psi_pair(self, specdir, capsys):
        code, rep = run_json(capsys, [
            "certify", str(specdir / "psi1.spec"), str(specdir / "psi0.spec"),
        ])
        assert code == 0
        assert rep["found"] is True
        assert len(rep["certificate"]["up_witnesses"]) >= 5
        assert len(rep["certificate"]["down_witnesses"]) >= 5

    def test_window_past_the_horizon_is_refused_as_compare_refuses_it(self, specdir):
        # tmss pairs on different grids have no continuation past their stored horizon
        argv = [str(specdir / "tmss06.spec"), str(specdir / "tmss04.spec"), "--window", "0:100000"]
        assert run(["certify", *argv]) == 3
        assert run(["compare", *argv, "--mode", "slocc"]) == 3

    def test_monotone_pair_not_found(self, specdir, capsys):
        code, rep = run_json(capsys, [
            "certify", str(specdir / "tmss06.spec"), str(specdir / "tmss04.spec"),
        ])
        assert code == 0
        assert rep["found"] is False


class TestEstimateR:
    def test_smoke(self, specdir, capsys):
        code, rep = run_json(capsys, [
            "estimate-r", str(specdir / "psi0.spec"), "--family", "xi",
            "--r-min", "1.0", "--r-max", "2.0", "--steps", "3",
            "--member-n", "2000",
        ])
        assert code == 0
        assert rep["r_minus"] == 1.0
        assert rep["r_plus"] == 2.0
        assert [v for _, v in rep["per_r"]] == ["Incomparable"] * 3


class TestExitCodes:
    def test_missing_file(self):
        assert run(["validate", "/nonexistent/file.spec"]) == 2

    def test_malformed_file(self, tmp_path):
        f = tmp_path / "bad.spec"
        f.write_text("nonsense\n")
        assert run(["validate", str(f)]) == 2
        f.write_bytes(b"#schmidt-spectrum 1\n\xff\n")
        assert run(["validate", str(f)]) == 2

    def test_usage_error(self):
        assert run(["compare", "a", "b", "--mode", "bogus"]) == 1
        assert run(["frobnicate"]) == 1
        assert run(["gen", "tmss", "--q", "1.5", "-o", "/tmp/x.spec"]) == 1
        assert run(["gen", "xi", "--r", "1.5", "--offset", "0.5", "-o", "/tmp/x.spec"]) == 1

    def test_sub_nat_witness_step_rejected(self, specdir):
        assert run([
            "certify", str(specdir / "psi1.spec"), str(specdir / "psi0.spec"),
            "--witness-step", "0.5",
        ]) == 1

    def test_flag_validation(self, specdir, tmp_path):
        out = str(tmp_path / "x.spec")
        assert run(["gen", "tmss", "--q", "0.5", "--n", "0", "-o", out]) == 1
        assert run(["gen", "xi", "--r", "1.5", "--offset-grid", "0", "-o", out]) == 1
        assert run(["estimate-r", str(specdir / "psi0.spec"),
                    "--r-min", "2", "--r-max", "1"]) == 1
        assert run(["compare", str(specdir / "psi1.spec"), str(specdir / "psi0.spec"),
                    "--mode", "slocc", "--window", "-5:100"]) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [
        ["gen", "xi", "--r", "1.5", "--n", "50", "--offset", "{v}", "-o", "{out}"],
        ["gen", "psi", "--k", "1", "--n", "50", "--delta", "{v}", "-o", "{out}"],
        ["gen", "xi", "--r", "{v}", "--n", "50", "-o", "{out}"],
        ["gen", "psi", "--k", "1", "--n", "50", "--offset-margin", "{v}", "-o", "{out}"],
        ["gen", "tmss", "--q", "{v}", "--n", "50", "-o", "{out}"],
        ["estimate-r", "{dir}/psi0.spec", "--r-min", "{v}", "--r-max", "2"],
        ["compare", "{dir}/psi1.spec", "{dir}/psi0.spec", "--mode", "slocc", "--drift-nats", "{v}"],
        ["certify", "{dir}/psi1.spec", "{dir}/psi0.spec", "--witness-step", "{v}"],
    ], ids=["offset", "delta", "r", "offset-margin", "q", "r-min", "drift-nats", "witness-step"])
    def test_non_finite_float_is_usage_error(self, specdir, tmp_path, argv, value):
        out = tmp_path / "x.spec"
        argv = [a.format(v=value, dir=specdir, out=out) for a in argv]
        assert run(argv) == 1
        assert not out.exists()

    def test_too_few_witnesses_rejected(self, specdir, tmp_path):
        # fewer than OscillationCertificate.MIN_ENTRIES can never form a
        # certificate; it used to fail inside the certificate (exit 3)
        psi2 = str(tmp_path / "psi2.spec")
        assert run(["gen", "psi", "--k", "2", "--n", "2000", "-o", psi2]) == 0
        psi1 = str(specdir / "psi1.spec")
        window = ["--window", "0:1000000000", "--min-witnesses", "3"]
        assert run(["certify", psi2, psi1, *window]) == 1
        assert run(["compare", psi2, psi1, "--mode", "slocc", *window]) == 1
        with pytest.raises(ValueError):
            eo.TrendThresholds(min_witnesses=eo.OscillationCertificate.MIN_ENTRIES - 1)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["q", "r", "delta", "offset", "tail_bound"])
    @pytest.mark.parametrize("argv", [
        ["validate", "{f}"],
        ["info", "{f}"],
        ["compare", "{f}", "{dir}/tmss05.spec", "--mode", "slocc"],
        ["estimate-r", "{f}", "--r-min", "1", "--r-max", "2", "--steps", "2"],
    ], ids=["validate", "info", "compare", "estimate-r"])
    def test_non_finite_metadata_is_bad_file(self, specdir, tmp_path, capsys, argv, key, value):
        lines = (specdir / "tmss05.spec").read_text().splitlines()
        lines = [lines[0], f"#{key} {value}"] + [x for x in lines[1:] if not x.startswith(f"#{key} ")]
        f = tmp_path / "bad.spec"
        f.write_text("\n".join(lines) + "\n")
        assert run([a.format(f=f, dir=specdir) for a in argv]) == 2
        assert "invalid input: line 2:" in capsys.readouterr().err

    def test_huge_delta_is_operation_error(self, specdir, tmp_path, capsys):
        # delta * (n + 1) is not finite: the options are refused before any work
        out = str(tmp_path / "x.spec")
        assert run(["gen", "psi", "--k", "1", "--delta", "1e308", "--n", "10", "-o", out]) == 1
        assert run(["gen", "xi", "--r", "1.5", "--delta", "1e306", "--n", "1000", "-o", out]) == 1
        assert run(["gen", "psi", "--k", "1", "--n", str(10**400), "-o", out]) == 1
        assert run(["estimate-r", str(specdir / "tmss05.spec"), "--delta", "1e308",
                    "--r-min", "1", "--r-max", "2", "--steps", "2"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[:3] == ["usage error: --delta * (--n + 1) overflows; give a smaller --delta or --n"] * 3
        assert err[3] == "usage error: --delta * (--member-n + 1) overflows; give a smaller --delta or --member-n"
        assert not (tmp_path / "x.spec").exists()

    @staticmethod
    def _with_delta_line(specdir, tmp_path, line):
        """tmss06.spec with its #delta line replaced by `line` (dropped when None)."""
        lines = (specdir / "tmss06.spec").read_text().splitlines()
        lines = [x if not x.startswith("#delta ") else line for x in lines]
        f = tmp_path / "edited.spec"
        f.write_text("\n".join(x for x in lines if x is not None) + "\n")
        return str(f)

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_file_delta_is_bad_file(self, specdir, tmp_path, capsys, value):
        f = self._with_delta_line(specdir, tmp_path, f"#delta {value}")
        assert run(["estimate-r", f, "--r-min", "1", "--r-max", "2", "--steps", "2"]) == 2
        assert capsys.readouterr().err == "invalid input: #delta must be positive\n"
        # the same step given as an option is the user's error
        assert run(["estimate-r", f, "--delta", "-1", "--r-min", "1", "--r-max", "2", "--steps", "2"]) == 1
        assert capsys.readouterr().err == "usage error: --delta must be positive\n"

    def test_huge_file_delta_names_the_file_line(self, specdir, tmp_path, capsys):
        f = self._with_delta_line(specdir, tmp_path, "#delta 1e308")
        assert run(["estimate-r", f, "--r-min", "1", "--r-max", "2", "--steps", "2"]) == 1
        assert capsys.readouterr().err == (
            "usage error: #delta * (--member-n + 1) overflows; give a smaller #delta or --member-n\n"
        )

    def test_missing_grid_step_is_usage_error(self, specdir, tmp_path, capsys):
        f = self._with_delta_line(specdir, tmp_path, None)
        assert run(["estimate-r", f, "--r-min", "1", "--r-max", "2", "--steps", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "--delta" in err

    @pytest.mark.parametrize("k_from, k_to", [(1, 3), (2, 1)])
    def test_relabelled_family_member_is_bad_file(self, specdir, tmp_path, capsys, k_from, k_to):
        honest, edited = tmp_path / "honest.spec", tmp_path / "edited.spec"
        assert run(["gen", "psi", "--k", str(k_from), "--n", "2000", "-o", str(honest)]) == 0
        edited.write_text(honest.read_text().replace(f"\n#k {k_from}\n", f"\n#k {k_to}\n"))
        assert edited.read_text() != honest.read_text()
        edited, psi1 = str(edited), str(specdir / "psi1.spec")
        for argv in (["validate", edited], ["info", edited], ["certify", edited, psi1],
                     ["compare", edited, psi1, "--mode", "slocc"]):
            assert run(argv) == 2, argv
            assert "does not reproduce the stored tail" in capsys.readouterr().err

    def test_offset_scan_of_nan_conditions_finds_nothing(self, tmp_path, capsys):
        # every condition overflows to NaN at r = 400; no file was read
        out = tmp_path / "x.spec"
        assert run(["gen", "xi", "--r", "400", "--n", "1000", "-o", str(out)]) == 3
        assert capsys.readouterr().err.startswith("operation failed: no offset")
        assert not out.exists()

    def test_huge_scan_lattice_refused_at_once(self, specdir, tmp_path):
        # the span is finite, but its offset scan would not end in any useful time
        env = {**os.environ, "PYTHONPATH": str(Path(eo.__file__).parents[1])}
        out = str(tmp_path / "h.spec")
        for argv in (["gen", "psi", "--k", "1", "--delta", "1e300", "--n", "10", "-o", out],
                     ["gen", "xi", "--r", "1.5", "--offset", "2", "--delta", "1e300", "--n", "10", "-o", out],
                     ["estimate-r", str(specdir / "tmss05.spec"), "--delta", "1e300",
                      "--r-min", "1", "--r-max", "2", "--steps", "2"]):
            proc = subprocess.run([sys.executable, "-m", "entorder", *argv], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 1, proc.stderr
            assert "condition-scan points, more than 1e+09" in proc.stderr
        assert not (tmp_path / "h.spec").exists()
        # a k = 0 member scans nothing, so the same span is generated
        assert run(["gen", "psi", "--k", "0", "--delta", "1e300", "--n", "10", "-o", out]) == 0

    def test_reversed_window(self, specdir):
        psi1, psi0 = str(specdir / "psi1.spec"), str(specdir / "psi0.spec")
        assert run(["certify", psi1, psi0, "--window", "50:10"]) == 1
        assert run(["compare", psi1, psi0, "--mode", "slocc", "--window", "50:10"]) == 1
        assert run(["estimate-r", psi0, "--r-min", "1", "--r-max", "2", "--window", "50:10"]) == 1

    def test_operation_error(self, specdir, monkeypatch):
        # slocc window beyond the truncation-safe horizon
        assert run([
            "compare", str(specdir / "tmss05.spec"), str(specdir / "tmss05.spec"),
            "--mode", "slocc", "--window", "0:1000",
        ]) == 3
        # a numeric failure inside the library is not a usage error

        def fail(*args, **kwargs):
            raise ValueError("numeric failure")

        monkeypatch.setattr(cli, "slocc_decide", fail)
        assert run([
            "compare", str(specdir / "tmss05.spec"), str(specdir / "tmss05.spec"), "--mode", "slocc",
        ]) == 3


class TestDeterminism:
    def test_byte_identical_reports(self, specdir, capsys):
        argv = ["compare", str(specdir / "psi1.spec"), str(specdir / "psi0.spec"), "--mode", "slocc"]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        second = capsys.readouterr().out
        assert first.encode() == second.encode()

    def test_gen_files_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.spec", tmp_path / "b.spec"
        assert run(["gen", "psi", "--k", "1", "--n", "500", "-o", str(a)]) == 0
        assert run(["gen", "psi", "--k", "1", "--n", "500", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
