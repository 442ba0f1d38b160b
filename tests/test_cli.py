import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
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

    @pytest.mark.parametrize("delta, log_bound, bound", [
        ("1e-17", 39.1439, 1e17),  # z = exp(-delta) rounds to 1
        ("1e-310", 713.8014, None),  # e^713.8 lies past the float range
        ("1", -7.6408, 4.8e-4),
    ])
    def test_info_on_a_squeezed_member_of_any_step(self, tmp_path, capsys, delta, log_bound, bound):
        path = str(tmp_path / "psi0.spec")
        assert run(["gen", "psi", "--k", "0", "--delta", delta, "--n", "10", "-o", path]) == 0
        code, rep = run_json(capsys, ["info", path])
        assert code == 0
        assert rep["stats"]["log_excitation_tail_bound"] == pytest.approx(log_bound, abs=1e-4)
        if bound is None:
            assert rep["stats"]["excitation_tail_bound"] is None
        else:
            assert rep["stats"]["excitation_tail_bound"] == pytest.approx(bound, rel=1e-2)
            assert rep["stats"]["excitation_tail_bound"] == math.exp(rep["stats"]["log_excitation_tail_bound"])

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


    def test_large_r_pair_stops_before_its_profile_can_overflow(self, tmp_path, capsys):
        # past ln y = 575 a float term of p_110 could overflow: the window ends there
        xi, tm = str(tmp_path / "xi110.spec"), str(tmp_path / "t.spec")
        assert run(["gen", "xi", "--r", "110", "--n", "200", "-o", xi]) == 0
        assert run(["gen", "tmss", "--q", "0.6065306597126334", "--n", "200", "-o", tm]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning fails the run
            for a, b in ((xi, tm), (tm, xi)):
                code, rep = run_json(capsys, ["certify", a, b])
                assert code == 0 and rep["found"] is True
                assert rep["certificate"]["window"][1] < math.exp(576)
            code, rep = run_json(capsys, ["compare", tm, xi, "--mode", "slocc"])
            assert code == 0 and rep["verdict"] == "Incomparable"
        assert capsys.readouterr().err == ""

    def test_certify_exact_pair_of_one_rank_is_quiet(self, tmp_path, capsys):
        # both tails reach zero at rank 500, where their log ratio is -inf - -inf
        paths = [str(tmp_path / f"t{q}.spec") for q in (0.6, 0.4)]
        for q, path in zip((0.6, 0.4), paths):
            eo.write_spectrum(eo.make_spectrum(eo.tmss(q, 500).log_weights), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_json(capsys, ["certify", *paths])
        assert code == 0 and rep["found"] is False
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("window", [[], ["--window", "0:1000000"]], ids=["default", "past-cut"])
    def test_cut_window_gives_no_stable_extreme(self, tmp_path, capsys, window):
        # for r = 300 the window ends at ln y 10.2, before the trough envelope
        # ln L has risen a nat: a probe that short shows no drift there, and the
        # closed form's exponent (+-1 on that side) decides it, not a stable extreme
        xi, tm = str(tmp_path / "xi300.spec"), str(tmp_path / "t.spec")
        assert run(["gen", "xi", "--r", "300", "--n", "200", "-o", xi]) == 0
        assert run(["gen", "tmss", "--q", "0.6065306597126334", "--n", "200", "-o", tm]) == 0
        capsys.readouterr()
        for a, b, stable in ((tm, xi, "backward"), (xi, tm, "forward")):
            code, rep = run_json(capsys, ["compare", a, b, "--mode", "slocc"] + window)
            assert code == 0 and rep["verdict"] == "Incomparable"
            assert rep["evidence"][stable] == "asymptotic"
        assert capsys.readouterr().err == ""


class TestEstimateR:
    def test_smoke(self, specdir, capsys):
        code, rep = run_json(capsys, [
            "estimate-r", str(specdir / "psi0.spec"),
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
        out = tmp_path / "x.out"
        psi0, psi1 = str(specdir / "psi0.spec"), str(specdir / "psi1.spec")
        for argv in (["gen", "tmss", "--q", "0.5", "--n", "0"],
                     ["gen", "tmss", "--q", "0", "--n", "0"],
                     ["gen", "xi", "--r", "1.5", "--offset-grid", "0"],
                     ["gen", "xi", "--r", "1.5", "--offset", "2", "--offset-grid", "0"],
                     ["gen", "psi", "--k", "0", "--offset-grid", "0"],
                     ["gen", "psi", "--k", "0", "--offset-margin", "-1"],
                     ["gen", "psi", "--k", "1", "--n", "0"],
                     ["estimate-r", psi0, "--r-min", "2", "--r-max", "1"],
                     ["estimate-r", psi0, "--r-min", "0", "--r-max", "2"],
                     ["estimate-r", psi0, "--r-min", "1", "--r-max", "2", "--delta", "0"],
                     ["compare", psi1, psi0, "--mode", "slocc", "--window", "-5:100"],
                     ["compare", psi1, psi0, "--mode", "locc", "--min-witnesses", "3"],
                     ["certify", psi1, psi0, "--drift-nats", "0"]):
            assert run(argv + ["-o", str(out)]) == 1, argv
            assert not out.exists(), argv

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

    @pytest.mark.parametrize("argv, message", [
        (["gen", "psi", "--k", "1", "--delta", "abc"], "argument --delta: expected a finite number, got 'abc'"),
        (["gen", "psi", "--k", "1", "--delta", "0"], "delta must be positive"),
        (["gen", "psi", "--k", "1", "--offset-margin", "-1"], "margin must be finite and nonnegative"),
        (["gen", "xi", "--r", "0"], "r must be positive"),
        (["gen", "psi", "--k", "-1"], "k must be a nonnegative integer"),
        (["estimate-r", "{dir}/psi0.spec", "--r-min", "1", "--r-max", "2", "--steps", "0"], "steps must be >= 1"),
        (["estimate-r", "{dir}/psi0.spec", "--r-min", "1", "--r-max", "2", "--member-n", "0"],
         "n must be >= 1: need at least one stored weight"),
        (["estimate-r", "{dir}/psi1.spec", "--r-min", "1", "--r-max", "2", "--delta", "1.000000000001"],
         "--delta 1.000000000001 differs from the file's grid step 1.0 by no more than FORM_RTOL (1e-09), "
         "which the metadata check cannot resolve: give --delta that step"),
        (["gen", "psi", "--k", "1", "--n", "200", "--q", "0.6"], "unrecognized arguments: --q 0.6"),
        (["gen", "xi", "--r", "1.5", "--delta-convention", "amplitude"],
         "unrecognized arguments: --delta-convention amplitude"),
        (["estimate-r", "{dir}/psi0.spec", "--family", "xi", "--r-min", "1", "--r-max", "2"],
         "unrecognized arguments: --family xi"),
        # range refusals of the library, each in the function that takes the parameter
        (["gen", "tmss", "--q", "0", "--n", "0"], "n must be >= 1: need at least one stored weight"),
        (["gen", "tmss", "--q", "1.5"], "q=1.5 outside [0, 1)"),
        (["gen", "xi", "--r", "1.5", "--offset", "0.5"], "k >= 1 members need offset > 1 so that x + offset > 1"),
        (["gen", "xi", "--r", "1.5", "--offset", "2", "--offset-grid", "0"],
         "grid_step and horizon must be positive and finite"),
        (["gen", "psi", "--k", "1", "--delta", "1e308", "--n", "10"],
         "delta * (n + 1) overflows; give a smaller delta or n"),
        (["estimate-r", "{dir}/psi0.spec", "--r-min", "2", "--r-max", "1"], "need finite r_min <= r_max, got [2.0, 1.0]"),
        (["estimate-r", "{dir}/psi0.spec", "--r-min", "0", "--r-max", "2"], "r must be positive"),
        (["certify", "{dir}/psi1.spec", "{dir}/psi0.spec", "--min-witnesses", "3"],
         "a certificate needs at least 5 witnesses"),
        (["certify", "{dir}/psi1.spec", "{dir}/psi0.spec", "--witness-step", "0.5"],
         "witness step below one nat cannot form a certificate"),
        (["gen", "psi", "--k", "1" + "0" * 400], "k must be a nonnegative integer within the float range"),
    ], ids=["delta-abc", "delta-0", "offset-margin--1", "r-0", "k--1", "steps-0", "member-n-0",
            "near-equal-delta", "gen-q", "delta-convention", "family", "tmss-q-0-n-0", "q-1.5", "offset-0.5",
            "offset-grid-0-at-offset", "span", "r-range", "r-min-0", "min-witnesses-3", "witness-step-0.5",
            "k-1e400"])
    def test_refused_input_is_usage_error(self, specdir, tmp_path, capsys, argv, message):
        out = tmp_path / "x.out"
        assert run([a.format(dir=specdir) for a in argv] + ["-o", str(out)]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, generator", [
        (["gen", "tmss", "--q", "0.5", "--n", "1000000000000"], "tmss"),
        (["estimate-r", "{dir}/psi0.spec", "--r-min", "1", "--r-max", "2"], "xi_state"),
    ], ids=["gen", "estimate-r"])
    def test_failed_allocation_is_operation_error(self, specdir, tmp_path, capsys, monkeypatch, argv, generator):
        # the generator refuses instead of allocating: a real 8 TB request
        # may be granted by an overcommitting kernel and then killed
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000000001,) and data type float64"

        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, generator, refuse)
        out = tmp_path / "x.out"
        assert run([a.format(dir=specdir) for a in argv] + ["-o", str(out)]) == 3
        assert capsys.readouterr().err == f"operation failed: not enough memory: {message}\n"
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
        # delta * (n + 1) is not finite: the generator refuses it before any work
        out = str(tmp_path / "x.spec")
        assert run(["gen", "psi", "--k", "1", "--delta", "1e308", "--n", "10", "-o", out]) == 1
        assert run(["gen", "xi", "--r", "1.5", "--delta", "1e306", "--n", "1000", "-o", out]) == 1
        assert run(["gen", "psi", "--k", "1", "--n", str(10**400), "-o", out]) == 1
        assert run(["estimate-r", str(specdir / "tmss05.spec"), "--delta", "1e308",
                    "--r-min", "1", "--r-max", "2", "--steps", "2", "-o", out]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["usage error: delta * (n + 1) overflows; give a smaller delta or n"] * 4
        assert not (tmp_path / "x.spec").exists()

    @staticmethod
    def _with_delta_line(specdir, tmp_path, line):
        """tmss06.spec with its #delta line replaced by `line` (dropped when None).

        The #family line is dropped too: a tmss file whose #delta is not
        -2 ln q is refused when read, before estimate-r sees the step.
        """
        lines = (specdir / "tmss06.spec").read_text().splitlines()
        lines = [x if not x.startswith("#delta ") else line for x in lines if x != "#family tmss"]
        f = tmp_path / "edited.spec"
        f.write_text("\n".join(x for x in lines if x is not None) + "\n")
        return str(f)

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_file_delta_is_bad_file(self, specdir, tmp_path, capsys, value):
        f = self._with_delta_line(specdir, tmp_path, f"#delta {value}")
        assert run(["estimate-r", f, "--r-min", "1", "--r-max", "2", "--steps", "2"]) == 2
        assert capsys.readouterr().err == "invalid input: #delta must be positive\n"
        # the same step given as an option is the user's error
        out = tmp_path / "x.out"
        assert run(["estimate-r", f, "--delta", "-1", "--r-min", "1", "--r-max", "2", "--steps", "2",
                    "-o", str(out)]) == 1
        assert capsys.readouterr().err == "usage error: delta must be positive\n"
        assert not out.exists()

    def test_huge_file_delta_names_the_file_line(self, specdir, tmp_path, capsys):
        # a finite file step whose span overflows is refused by the member generator, which names its parameters
        f = self._with_delta_line(specdir, tmp_path, "#delta 1e308")
        out = tmp_path / "x.out"
        assert run(["estimate-r", f, "--r-min", "1", "--r-max", "2", "--steps", "2", "-o", str(out)]) == 1
        assert capsys.readouterr().err == "usage error: delta * (n + 1) overflows; give a smaller delta or n\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("edit, message", [
        # e^921 overflowed math.exp in the normalization check
        (lambda lines: [lines[0], "#tail_bound 400", *lines[1:]], "tail bound e^921.0340371976183 lies past the largest float"),
        # scaled by ln 10, each literal overflowed numpy's multiply: the one numpy parse, then line by line
        (lambda lines: [*lines, "1e308"], "all weights must be strictly positive and finite"),
        (lambda lines: [*lines, "1E308"], "all weights must be strictly positive and finite"),
    ], ids=["tail-bound-400", "weight-1e308", "weight-1E308"])
    def test_values_past_the_float_range_are_refused_without_a_warning(self, specdir, tmp_path, edit, message):
        path = tmp_path / "edited.spec"
        path.write_text("\n".join(edit((specdir / "rank3.spec").read_text().splitlines())) + "\n")
        env = {**os.environ, "PYTHONPATH": str(Path(eo.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "entorder", "validate", str(path)],
                              env=env, capture_output=True, text=True, timeout=60)
        # the message is all of stderr: no warning was printed
        assert (proc.returncode, proc.stderr) == (2, f"invalid input: {message}\n")

    def test_huge_scan_lattice_refused_at_once(self, specdir, tmp_path):
        # each span is finite and its lattice huge; the scan is bounded by y* and
        # by the cells proven below it where y* is finite, and refused at once otherwise
        env = {**os.environ, "PYTHONPATH": str(Path(eo.__file__).parents[1])}
        out = tmp_path / "h.spec"

        def entorder(argv, timeout):
            return subprocess.run([sys.executable, "-m", "entorder", *argv], env=env,
                                  capture_output=True, text=True, timeout=timeout)

        # y* = 1.06e10 at r = 6 leaves 1.06e12 lattice points below it, nearly all in proven cells
        for argv in (["gen", "psi", "--k", "1", "--delta", "1e300", "--n", "10", "-o", str(out)],
                     ["gen", "xi", "--r", "1.5", "--offset", "2", "--delta", "1e300", "--n", "10", "-o", str(out)],
                     ["gen", "xi", "--r", "6", "--delta", "1e300", "--n", "10", "-o", str(out)],
                     ["estimate-r", str(specdir / "tmss05.spec"), "--delta", "1e300",
                      "--r-min", "1", "--r-max", "2", "--steps", "2"]):
            proc = entorder(argv, 60)
            assert proc.returncode == 0, proc.stderr
            if argv[0] == "gen":
                assert run(["validate", str(out)]) == 0
                out.unlink()
        # no y* at a margin of 1, nor where L^r may overflow (r >= 106): 1.1e303 points
        for argv in (["gen", "xi", "--r", "120", "--delta", "1e300", "--n", "10", "-o", str(out)],
                     ["gen", "psi", "--k", "1", "--offset-margin", "1", "--delta", "1e300", "--n", "10",
                      "-o", str(out)]):
            proc = entorder(argv, 30)
            assert proc.returncode == 3, proc.stderr
            assert proc.stderr.startswith("operation failed: the condition scan may evaluate 1.1e+303")
            assert "lattice points, more than 1e+09" in proc.stderr
            assert not out.exists()
        # a k = 0 member scans nothing, so the same span is generated
        assert run(["gen", "psi", "--k", "0", "--delta", "1e300", "--n", "10", "-o", str(out)]) == 0

    def test_scan_cap_is_operation_error(self, tmp_path, capsys):
        # the cap is an internal limit, not a parameter out of range: exit 3, not 1
        out = tmp_path / "x.spec"
        assert run(["gen", "psi", "--k", "1", "--offset-margin", "1", "--delta", "1e10", "--n", "10",
                    "-o", str(out)]) == 3
        assert capsys.readouterr().err.startswith("operation failed: the condition scan may evaluate")
        assert not out.exists()

    def test_cut_off_past_2_53_lattice_steps_named(self, tmp_path, capsys):
        # y* = 1.2e14 is finite but 1.2e16 steps of 0.01 out, where lattice indices are no
        # longer exact floats: no cell is tried, and the refusal names that cause
        out = tmp_path / "x.spec"
        assert run(["gen", "xi", "--r", "8", "--delta", "1e300", "--n", "10", "-o", str(out)]) == 3
        assert capsys.readouterr().err == (
            "operation failed: the condition scan may evaluate 1.1e+303 lattice points, more than 1e+09: "
            "y* = 1.2e+14 lies more than 2**53 lattice steps out, so no cell is tried\n")
        assert not out.exists()
        # with no y* at all the refusal names none
        assert run(["gen", "xi", "--r", "120", "--delta", "1e300", "--n", "10", "-o", str(out)]) == 3
        assert capsys.readouterr().err == (
            "operation failed: the condition scan may evaluate 1.1e+303 lattice points, more than 1e+09\n")

    def test_library_scan_past_the_cap_refused_at_once(self):
        # the cap is the scanner's own, so a library caller cannot start an endless scan:
        # at a margin of 1 the proven cells hold 5.6e6 of the 1.1e13 lattice points
        env = {**os.environ, "PYTHONPATH": str(Path(eo.__file__).parents[1])}
        code = (
            "import time\n"
            "from entorder import psi_state\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    psi_state(1, 1e10, 10, margin=1.0)\n"
            "except ValueError as exc:\n"
            "    print(time.perf_counter() - start, exc)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        seconds, message = proc.stdout.split(" ", 1)
        assert float(seconds) < 5.0
        assert message.startswith("the condition scan may evaluate 1.1e+13 lattice points")

    @pytest.mark.parametrize("argv", [
        ["gen", "tmss", "--q", "0.5", "--n", "10", "-o", "{out}"],
        ["validate", "{dir}/tmss05.spec", "-o", "{out}"],
    ], ids=["gen", "validate"])
    def test_unwritable_output_is_operation_error(self, specdir, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "x"
        assert run([a.format(dir=specdir, out=out) for a in argv]) == 3
        assert capsys.readouterr().err.startswith(f"operation failed: cannot write the output {out}: ")

    def test_directory_input_is_bad_file(self, tmp_path, capsys):
        assert run(["validate", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("invalid input: ")

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


def _drop_lines(*prefixes):
    return lambda text: "".join(x for x in text.splitlines(True) if not x.startswith(prefixes))


class TestMetadataCheckedOnRead:
    """Every command reads a file's family metadata once, through ``s.form``."""

    @pytest.fixture(scope="class")
    def above(self, tmp_path_factory):
        """Generated files whose tail bound lies at or above their last weight."""
        d = tmp_path_factory.mktemp("above")
        for name, argv in (("psi1_d005", ["psi", "--k", "1", "--delta", "0.005", "--n", "2000"]),
                           ("psi1_d002", ["psi", "--k", "1", "--delta", "0.002", "--n", "2000"]),
                           ("t999", ["tmss", "--q", "0.999", "--n", "2000"])):
            assert run(["gen", *argv, "-o", str(d / f"{name}.spec")]) == 0
        return d

    @pytest.mark.parametrize("name", ["psi1_d005", "psi1_d002", "t999"])
    def test_generated_cut_above_last_weight_validates(self, above, capsys, name):
        s = eo.read_spectrum(above / f"{name}.spec")
        assert not s.log_tail_bound < s.log_weights[-1]
        assert s.form is not None
        code, rep = run_json(capsys, ["validate", str(above / f"{name}.spec")])
        assert code == 0 and rep["valid"] is True

    @pytest.mark.parametrize("name, edit", [
        ("psi1_d005", lambda text: text.replace("#family psi\n", "#family foo\n")),
        ("psi1_d005", _drop_lines("#k ", "#r ", "#delta ", "#offset ")),
        ("t999", _drop_lines("#q ")),
    ], ids=["family_foo", "psi_without_parameters", "tmss_without_q"])
    def test_cut_without_verified_form_is_bad_file(self, above, tmp_path, capsys, name, edit):
        text = (above / f"{name}.spec").read_text()
        edited = tmp_path / "edited.spec"
        edited.write_text(edit(text))
        assert edited.read_text() != text
        assert run(["validate", str(edited)]) == 2
        assert "tail bound is not below the last stored weight" in capsys.readouterr().err

    def test_tmss_delta_must_be_minus_two_ln_q(self, tmp_path, capsys):
        honest, edited = tmp_path / "honest.spec", tmp_path / "edited.spec"
        assert run(["gen", "tmss", "--q", "0.6065306597126334", "--n", "10000", "-o", str(honest)]) == 0
        text = honest.read_text()
        edited.write_text(re.sub("#delta .*", "#delta 0.5", text))
        estimate = ["--r-min", "1", "--r-max", "2", "--steps", "3", "--member-n", "2000"]
        code, rep = run_json(capsys, ["estimate-r", str(honest), *estimate])
        assert code == 0 and [v for _, v in rep["per_r"]] == ["Incomparable"] * 3
        assert run(["validate", str(honest)]) == 0
        capsys.readouterr()
        for argv in (["validate", str(edited)], ["estimate-r", str(edited), *estimate]):
            assert run(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("invalid input: the tmss delta 0.5 is not -2 ln q = "), err

    def test_near_equal_grid_steps_are_bad_files(self, specdir, tmp_path, capsys):
        # #delta moved by 1e-12 relative: the file itself passes, its pair with psi0 cannot be continued
        text = (specdir / "psi1.spec").read_text()
        delta = eo.read_spectrum(specdir / "psi1.spec").metadata["delta"]
        edited = tmp_path / "edited.spec"
        edited.write_text(text.replace(f"#delta {delta!r}\n", f"#delta {delta * (1 + 1e-12)!r}\n"))
        assert run(["validate", str(edited)]) == 0
        capsys.readouterr()
        for cmd in (["compare", "--mode", "slocc"], ["certify"]):
            assert run([*cmd, str(edited), str(specdir / "psi0.spec")]) == 2
            assert "differ by no more than FORM_RTOL" in capsys.readouterr().err

    @pytest.mark.parametrize("source, keys", [
        ("tmss06.spec", ["#k 3", "#offset 7.0"]),
        ("tmss06.spec", ["#r 1.0"]),
        ("psi1.spec", ["#q 0.5"]),
    ], ids=["tmss_k_offset", "tmss_r", "psi_q"])
    def test_keys_of_another_family_are_refused(self, specdir, tmp_path, capsys, source, keys):
        header, rest = (specdir / source).read_text().split("\n", 1)
        edited = tmp_path / "edited.spec"
        edited.write_text("\n".join([header, *keys, rest]))
        assert run(["validate", str(edited)]) == 2
        family = "tmss" if source.startswith("tmss") else "psi"
        names = ", ".join(key.split()[0][1:] for key in keys)
        assert f"a {family} file does not use the metadata key(s) {names}" in capsys.readouterr().err


class TestDeterminism:
    def test_byte_identical_reports(self, specdir, capsys):
        argv = ["compare", str(specdir / "psi1.spec"), str(specdir / "psi0.spec"), "--mode", "slocc"]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        second = capsys.readouterr().out
        assert first.encode() == second.encode()

    def test_output_file_holds_the_stdout_bytes(self, specdir, capsys, tmp_path):
        argv = ["compare", str(specdir / "psi1.spec"), str(specdir / "psi0.spec"), "--mode", "slocc"]
        assert run(argv) == 0
        out = capsys.readouterr().out.encode()
        assert run([*argv, "-o", str(tmp_path / "report.json")]) == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "report.json").read_bytes() == out

    def test_gen_files_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.spec", tmp_path / "b.spec"
        assert run(["gen", "psi", "--k", "1", "--n", "500", "-o", str(a)]) == 0
        assert run(["gen", "psi", "--k", "1", "--n", "500", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def _stdout(capsys, argv):
    """Standard output of one run, which may end in SystemExit(0) (--help, --version)."""
    try:
        run(argv)
    except SystemExit as exc:
        assert exc.code == 0
    return capsys.readouterr().out.encode()


class TestParserReuse:
    """run builds its parser once per process; no run leaves a trace in the next."""

    @pytest.fixture
    def fresh_parser(self):
        cli.build_parser.cache_clear()
        yield
        cli.build_parser.cache_clear()

    def test_built_once_across_runs(self, specdir, monkeypatch, capsys, fresh_parser):
        built = []

        class Counting(cli._Parser):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.prog)

        monkeypatch.setattr(cli, "_Parser", Counting)
        argv = ["validate", str(specdir / "rank2.spec")]
        assert run(argv) == 0
        first = list(built)
        assert first.count("entorder") == 1
        assert run(argv) == 0
        assert run(["compare", "a", "b"]) == 1
        assert run(argv) == 0
        assert built == first

    @pytest.mark.parametrize("between", [
        ["compare", "{dir}/psi1.spec", "{dir}/psi0.spec"],
        ["compare", "{dir}/psi1.spec", "{dir}/psi0.spec", "--mode", "slocc", "--window", "5"],
        ["--version"],
        ["compare", "--help"],
        ["certify", "{dir}/psi1.spec", "{dir}/psi0.spec", "--min-witnesses", "7"],
    ], ids=["no-mode", "bad-window", "version", "help", "min-witnesses"])
    def test_no_run_changes_a_later_compare(self, specdir, capsys, between):
        argv = ["compare", str(specdir / "psi1.spec"), str(specdir / "psi0.spec"), "--mode", "slocc"]
        before = _stdout(capsys, argv)
        _stdout(capsys, [a.format(dir=specdir) for a in between])
        assert _stdout(capsys, argv) == before

    def test_overridden_option_does_not_leak_into_defaults(self, specdir, capsys):
        argv = ["certify", str(specdir / "psi1.spec"), str(specdir / "psi0.spec")]
        before = _stdout(capsys, argv)
        assert _stdout(capsys, [*argv, "--min-witnesses", "7"]) != before
        assert _stdout(capsys, argv) == before

    def test_help_unchanged_by_earlier_runs(self, specdir, capsys, fresh_parser):
        first = _stdout(capsys, ["compare", "--help"])
        assert first.startswith(b"usage: entorder compare")
        _stdout(capsys, ["compare", str(specdir / "psi1.spec"), str(specdir / "psi0.spec"), "--mode", "locc"])
        _stdout(capsys, ["compare", "a", "b"])
        assert _stdout(capsys, ["compare", "--help"]) == first


class TestStartUp:
    """A fresh CLI process imports no module its command does not use."""

    @pytest.mark.parametrize("argv", [
        ["gen", "psi", "--k", "2", "--n", "2000", "-o", "{tmp}/psi2.spec"],
        # two grids and no closed-form pair: the certificate is sought on the stored window
        ["certify", "{dir}/tmss06.spec", "{dir}/psi1.spec", "-o", "{tmp}/cert.json"],
    ], ids=["gen-psi", "certify"])
    def test_no_masked_arrays(self, specdir, tmp_path, argv):
        # np.unique imports numpy.ma at its first call, 17 ms in a fresh interpreter
        env = {**os.environ, "PYTHONPATH": str(Path(eo.__file__).parents[1])}
        code = "import sys\nfrom entorder.cli import run\nprint(run(sys.argv[1:]), 'numpy.ma' in sys.modules)\n"
        argv = [a.format(dir=specdir, tmp=tmp_path) for a in argv]
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.stdout.split() == ["0", "False"], proc.stderr


class TestReportManifest:
    def test_a_command_that_raises_is_recorded_and_the_rest_run(self, tmp_path, monkeypatch, capsys):
        spec = importlib.util.spec_from_file_location(
            "report_manifest", Path(__file__).parents[1] / "tools" / "report_manifest.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        monkeypatch.setattr(tool, "GEN", [])
        monkeypatch.setattr(tool, "EDITED", {})
        monkeypatch.setattr(tool, "commands", lambda: [
            ("a.json", ["info", "a.spec"]), ("b.json", ["info", "b.spec"]), ("c.json", ["info", "c.spec"])])

        def fake_run(argv):
            if argv[1].endswith("b.spec"):
                raise ZeroDivisionError("float division by zero")
            Path(argv[-1]).write_text("{}\n")
            return 0

        monkeypatch.setattr(cli, "run", fake_run)
        monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts its source tree first
        assert tool.main([str(Path(eo.__file__).parents[1]), str(tmp_path)]) == 1
        lines = (tmp_path / "MANIFEST").read_text().splitlines()
        assert lines[:3] == ["exit 0 info a.spec", "exit raised ZeroDivisionError info b.spec", "exit 0 info c.spec"]
        assert [line.split()[1] for line in lines[3:]] == ["a.json", "c.json"]
        assert "1 commands raised" in capsys.readouterr().out


def _load(name, relative, monkeypatch):
    """A module of this checkout outside the package (tools/, perfbench/), imported from its file."""
    spec = importlib.util.spec_from_file_location(name, Path(__file__).parents[1] / relative)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


class TestFastPathsCoverTheCorpus:
    """Every file the report manifest and the benchmark read is read by one numpy parse, and
    every spectrum they build is checked by the pairwise sum, bar the files edited to need more."""

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        counts = {"lines": 0, "sequential": 0}
        read_lines, bounded = eo.fileio._weights_line_by_line, eo.spectrum._bounded_normalization

        def counted_lines(body, first):
            counts["lines"] += 1
            return read_lines(body, first)

        def counted_bounded(*args):
            verdict = bounded(*args)
            counts["sequential"] += verdict is None
            return verdict

        monkeypatch.setattr(eo.fileio, "_weights_line_by_line", counted_lines)
        monkeypatch.setattr(eo.spectrum, "_bounded_normalization", counted_bounded)
        return counts

    def test_report_manifest(self, tmp_path, monkeypatch, capsys, fallbacks):
        tool = _load("report_manifest", "tools/report_manifest.py", monkeypatch)
        line_reads = {}

        def counted_run(argv):
            before = fallbacks["lines"]
            try:
                return run(argv)
            finally:
                if fallbacks["lines"] > before:
                    line_reads[" ".join(Path(a).name for a in argv[:-2])] = fallbacks["lines"] - before

        monkeypatch.setattr(cli, "run", counted_run)
        monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts its source tree first
        assert tool.main([str(Path(eo.__file__).parents[1]), str(tmp_path)]) == 0
        assert "0 commands raised" in capsys.readouterr().out
        # CRLF and padding, a blank line, metadata after a weight and a bad literal (a 0xff byte
        # is refused before any line is read)
        assert line_reads == {f"validate psi2_{edit}.spec": 1 for edit in ("padded", "blank", "late_meta", "bad_literal")}
        assert fallbacks["sequential"] == 0

    @pytest.mark.parametrize("workload", ["ladder", "estimate-r", "stored"])
    def test_benchmark_pass(self, tmp_path, monkeypatch, fallbacks, workload):
        # one pass at full size on the first seed perfbench/compare.py runs; seeds change values only
        workloads = _load("perfbench_workloads", "perfbench/workloads.py", monkeypatch)
        bench = workloads.WORKLOADS[workload](1000)
        bench.setup(tmp_path)
        ops = bench.run_pass(tracer=type("Untimed", (), {"recording": False})())
        assert [op.problem for op in ops if op.problem] == []
        assert fallbacks == {"lines": 0, "sequential": 0}
