import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import entorder as eo
from entorder.cli import run
from entorder.errors import EntOrderError, NonPositive, NotNormalized, ValidationError
from entorder.numutil import LOG_FLOAT_MAX, NEG_INF, log1mexp
from entorder import spectrum
from entorder.spectrum import ORDER_LOG_TOL, make_spectrum

weights_lists = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=12
).map(lambda ws: [w / sum(ws) for w in ws])


class TestInputChecks:
    @pytest.mark.parametrize("call, message", [
        (lambda: make_spectrum([]), "at least one weight"),
        (lambda: make_spectrum(np.log([0.4, 0.6])), "increase at index 0"),
        (lambda: make_spectrum(np.log([0.6, 0.4]), math.nan), "tail bound must be finite"),
        (lambda: eo.build_spectrum([]), "at least one weight"),
        (lambda: eo.build_spectrum([math.nan]), "strictly positive and finite"),
    ], ids=["make-empty", "make-increasing", "make-nan-tail", "build-empty", "build-nan"])
    def test_refused_with_validation_error(self, call, message):
        with pytest.raises(ValidationError, match=message):
            call()

    @pytest.mark.parametrize("args, error, message", [
        ((np.log([0.4, 0.6]),), ValidationError, "increase at index 0"),
        ((np.log([0.5, 0.4]),), NotNormalized, "residual"),
        ((np.log([0.6, 0.4]), math.log(0.5)), ValidationError, "not below the last stored weight"),
        (([0.0, -math.inf],), NonPositive, "strictly positive"),
    ], ids=["increasing", "unnormalized", "tail-above-last", "zero-weight"])
    def test_constructor_checks_as_make_spectrum(self, args, error, message):
        # no spectrum exists unchecked: the constructor itself refuses what make_spectrum refuses
        for build in (eo.SchmidtSpectrum, make_spectrum):
            with pytest.raises(error, match=message):
                build(*args)


class TestTailBoundRange:
    """A tail bound is refused, naming it, where no float holds it; every bound a float holds is read as before."""

    # one weight of a squeezed state with q^2 = 1 - 1e-10: its closed form reproduces
    # the stored tail under any tail bound, so only the bound's size can refuse it
    Q = math.sqrt(1.0 - 1e-10)

    def _spectrum(self, log_tail):
        return make_spectrum([math.log(1e-10)], log_tail, {"family": "tmss", "q": self.Q})

    def test_a_bound_above_one_with_a_matching_form_is_accepted(self):
        s = self._spectrum(0.5)
        assert s.form is not None and s.log_tail_bound == 0.5

    @pytest.mark.parametrize("log_tail", [math.nextafter(LOG_FLOAT_MAX, math.inf), 400 * math.log(10), 1e308])
    def test_a_bound_past_the_float_range_is_refused(self, log_tail):
        with pytest.raises(ValidationError, match=f"tail bound e\\^{re.escape(repr(log_tail))} lies past"):
            self._spectrum(log_tail)

    def test_the_largest_float_bound_sums_without_overflow(self):
        ok, residual, total, tail = spectrum._normalization(np.array([math.log(1e-10)]), LOG_FLOAT_MAX)
        assert ok and math.isfinite(residual) and tail == math.exp(LOG_FLOAT_MAX)
        assert spectrum._bounded_normalization(np.array([math.log(1e-10)]), LOG_FLOAT_MAX) is True
        # read as before: its ln g(1) rounds to ln g(0), which the tail function refuses
        with pytest.raises(ValidationError, match="not strictly decreasing"):
            self._spectrum(LOG_FLOAT_MAX)


class TestBuildSpectrum:
    def test_symmetric_two_term(self):
        s = eo.build_spectrum((0.5, 0.5))
        assert np.allclose(s.weights(), [0.5, 0.5])
        assert s.is_exact

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            eo.build_spectrum((0.5, 0.4))

    def test_non_positive(self):
        with pytest.raises(NonPositive):
            eo.build_spectrum((1.1, -0.1))

    def test_unsorted_input_is_sorted(self):
        s = eo.build_spectrum((0.2, 0.5, 0.3))
        assert np.all(np.diff(s.weights()) <= 0)

    @given(weights_lists)
    def test_accepted_spectra_pass_convexity(self, ws):
        s = eo.build_spectrum(ws)
        assert eo.vidal_conditions(s)["convexity"]["ok"]

    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_array_list_and_generator_give_one_spectrum(self, n):
        w = np.random.default_rng(n).random(n)
        w /= w.sum()
        given = w.copy()
        spectra = [eo.build_spectrum(src) for src in (w, w.tolist(), (v for v in w.tolist()), tuple(w))]
        for s in spectra:
            assert s.log_weights.tobytes() == spectra[0].log_weights.tobytes()
        assert w.tobytes() == given.tobytes()  # the caller's array is not sorted in place

    def test_truncation_proxy_rejected_without_certification(self):
        # squeezed state at q = 0.8 cut after two weights: the tail q^4 = 0.4096
        # lies above the last weight 0.2304, so only a verified closed form admits it
        q = 0.8
        log_w = math.log1p(-q * q) + 2.0 * math.log(q) * np.arange(2.0)
        log_tail = 4.0 * math.log(q)
        with pytest.raises(ValidationError, match="not below the last stored weight"):
            make_spectrum(log_w, log_tail)
        meta = {"family": "tmss", "q": q, "delta": -2.0 * math.log(q)}
        s = make_spectrum(log_w, log_tail, meta)
        assert not s.is_exact and s.form.delta == meta["delta"]


class TestTailFunction:
    def test_uniform_rank_four(self):
        s = eo.build_spectrum([0.25] * 4)
        assert np.allclose(np.exp(s.log_g[:4]), [1.0, 0.75, 0.5, 0.25])
        assert s.log_g[4] == NEG_INF

    def test_tmss_geometric_tail(self):
        # oracle: brute linear sum of the dropped geometric weights
        q, n = 0.5, 40
        s = eo.tmss(q, n)
        lam = (1 - q * q) * q ** (2 * np.arange(n + 200))
        oracle = float(lam[2:].sum())
        assert math.exp(s.log_g[2]) == pytest.approx(oracle, rel=1e-12)
        assert math.exp(s.log_g[2]) == pytest.approx(q**4, rel=1e-12)

    @given(weights_lists)
    def test_g0_is_one(self, ws):
        assert eo.build_spectrum(ws).log_g[0] == 0.0

    def test_consistency_with_weights(self):
        # weight(n) = g(n) - g(n+1)
        s = eo.tmss(0.8, 500)
        lg = s.log_g
        rec = lg[:-1] + log1mexp(lg[1:] - lg[:-1])
        assert np.max(np.abs(rec - s.log_weights)) < 1e-12

    def test_log_matches_linear_sums_small_n(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = rng.random(rng.integers(2, 50)) + 1e-3
            w = np.sort(w / w.sum())[::-1]
            s = eo.build_spectrum(w)
            linear = np.concatenate((np.cumsum(w[::-1])[::-1], [0.0]))
            finite = linear > 0
            assert np.allclose(np.exp(s.log_g[finite]), linear[finite], rtol=1e-12)

    def test_log_g_memoised(self, monkeypatch):
        # one tail function per spectrum across a comparison and a certificate search
        calls = []
        original = eo.spectrum.tail_function
        monkeypatch.setattr(eo.spectrum, "tail_function", lambda s: calls.append(s) or original(s))
        a, b = eo.tmss(0.6, 400), eo.tmss(0.4, 400)
        eo.slocc_decide(a, b, window=(0, 300))
        eo.incomparability_certificate(a, b)
        assert sorted(map(id, calls)) == sorted((id(a), id(b)))
        assert a.log_g is a.log_g
        assert not a.log_g.flags.writeable


def _head_and_tail(ws, cut, slack):
    # the weights past the cut, summed and loosened by the slack, become the tail bound
    w = np.sort(np.asarray(ws) / sum(ws))[::-1]
    cut = min(cut, w.size - 1)
    return make_spectrum(np.log(w[:cut]), math.log(slack * w[cut:].sum()))


def _member(family, k, r, delta, n):
    if family == "tmss":
        return eo.tmss(math.exp(-delta / 2), n)
    if family == "xi":
        return eo.xi_state(r, delta, n)
    return eo.psi_state(k, delta, n, r=r)


_SOURCES = {"build": eo.build_spectrum, "cut": lambda a: _head_and_tail(*a), "member": lambda a: _member(*a)}

spectrum_sources = st.one_of(
    st.tuples(st.just("build"), weights_lists),
    st.tuples(st.just("cut"), st.tuples(
        st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=30), st.integers(1, 29), st.floats(1.0, 2.0))),
    st.tuples(st.just("member"), st.tuples(
        st.sampled_from(["tmss", "xi", "psi"]), st.integers(0, 4), st.floats(0.5, 3.0), st.floats(0.005, 2.0),
        st.integers(1, 300))),
)


class TestVidalConditions:
    def test_validate_sums_the_weights_once(self, tmp_path, monkeypatch):
        # the constructor's normalization is kept, and vidal_conditions reads it
        path = tmp_path / "psi2.spec"
        eo.write_spectrum(eo.psi_state(2, 1.0, 500), path)
        calls = []
        real = eo.spectrum.logsumexp
        monkeypatch.setattr(eo.spectrum, "logsumexp", lambda v: calls.append(len(v)) or real(v))
        assert run(["validate", str(path), "-o", str(tmp_path / "report.json")]) == 0
        assert calls == [500]
        assert json.loads((tmp_path / "report.json").read_text())["conditions"]["normalization"]["ok"]

    @settings(max_examples=200)
    @given(spectrum_sources, st.booleans())
    def test_constructor_holds_all_but_positivity(self, source, via_file):
        # estimate_r_bounds checks a member only for exactness: every spectrum the
        # constructor accepts passes the other three conditions, and positivity
        # exactly when a tail lies past its stored horizon
        kind, args = source
        try:
            s = _SOURCES[kind](args)
        except EntOrderError:  # refused; the property concerns accepted spectra
            return
        if via_file:
            with tempfile.TemporaryDirectory() as d:
                eo.write_spectrum(s, Path(d) / "s.spec")
                s = eo.read_spectrum(Path(d) / "s.spec")
        # the reference: each condition checked on its own, not through the constructor
        assert np.all(np.diff(s.log_g) < 0)
        assert np.all(np.diff(s.log_weights) <= ORDER_LOG_TOL)
        norm_ok, residual, _, _ = spectrum._normalization(s.log_weights, s.log_tail_bound)
        assert norm_ok
        positive = not s.is_exact
        assert eo.vidal_conditions(s) == {
            "positivity": {"ok": positive, "first_failing": None if positive else s.length},
            "strict_monotonicity": {"ok": True, "first_failing": None},
            "convexity": {"ok": True, "first_failing": None},
            "normalization": {"ok": True, "residual": residual},
            "all_pass": positive,
        }

    @settings(max_examples=200)
    @given(spectrum_sources, st.sampled_from([0.0, 5e-10, 1e-9, 2e-9, -1e-9, -2e-9]))
    def test_bounded_decision_is_the_sequential_one(self, source, shift):
        # every spectrum the sources make is decided by the pairwise sum, as the sequential
        # sum decides it; scaled by 1 + shift near a threshold it may defer, never differ
        kind, args = source
        try:
            s = _SOURCES[kind](args)
        except EntOrderError:
            return
        log_weights = s.log_weights + math.log1p(shift)
        got = spectrum._bounded_normalization(log_weights, s.log_tail_bound)
        want = spectrum._normalization(log_weights, s.log_tail_bound)[0]
        assert got is None or got is want
        if shift == 0.0:
            assert got is True

    def test_tmss_all_pass(self):
        assert eo.vidal_conditions(eo.tmss(0.5, 100))["all_pass"] is True

    def test_finite_rank_positivity_fails_at_rank(self):
        rep = eo.vidal_conditions(eo.build_spectrum([0.25] * 4))
        assert rep["positivity"] == {"ok": False, "first_failing": 4}
        assert rep["strict_monotonicity"]["ok"]
        assert rep["convexity"]["ok"]
        assert rep["normalization"]["ok"]
        assert rep["all_pass"] is False

    def test_tied_weights_keep_tails_strictly_decreasing(self):
        # a tie in the weights is not a defect of the tail function:
        # g still drops by the (positive) weight at every index
        rep = eo.vidal_conditions(eo.build_spectrum((0.4, 0.3, 0.3)))
        assert rep["strict_monotonicity"]["ok"]
        assert rep["convexity"]["ok"]
        assert rep["positivity"] == {"ok": False, "first_failing": 3}

    def test_report_dict_round(self):
        d = eo.vidal_conditions(eo.tmss(0.5, 50))
        assert d["all_pass"] is True
        assert set(d) == {
            "positivity", "strict_monotonicity", "convexity",
            "normalization", "all_pass",
        }


class TestSummaryStats:
    def test_bell_pair(self):
        st_ = eo.summary_stats(eo.build_spectrum((0.5, 0.5)))
        assert st_["entropy_bits"] == pytest.approx(1.0, abs=1e-12)
        assert st_["schmidt_rank"] == 2
        assert st_["mean_excitation"] == pytest.approx(0.5, abs=1e-12)

    def test_product_state(self):
        st_ = eo.summary_stats(eo.build_spectrum((1.0,)))
        assert st_["entropy_bits"] == 0.0
        assert st_["schmidt_rank"] == 1
        assert st_["mean_excitation"] == 0.0

    def test_tmss_excitation_closed_form(self):
        # oracle: partial sums of n (1-q^2) q^(2n) until convergence
        q = 0.5
        n = np.arange(2000)
        oracle = float(np.sum(n * (1 - q * q) * q ** (2 * n)))
        st_ = eo.summary_stats(eo.tmss(q, 1000))
        assert st_["mean_excitation"] == pytest.approx(oracle, abs=1e-12)
        assert st_["mean_excitation"] == pytest.approx(q**2 / (1 - q**2), abs=1e-9)
        assert st_["schmidt_rank"] == "truncated"
        assert st_["excitation_tail_bound"] < 1e-9

    def test_excitation_grows_moving_weight_outward(self):
        base = np.array([0.4, 0.3, 0.2, 0.1])
        for i in range(3):
            for j in range(i + 1, 4):
                moved = base.copy()
                moved[i] -= 0.01
                moved[j] += 0.01
                moved = np.sort(moved)[::-1]
                got = eo.summary_stats(eo.build_spectrum(moved))["mean_excitation"]
                ref = eo.summary_stats(eo.build_spectrum(base))["mean_excitation"]
                assert got > ref


class TestSafeHorizon:
    def test_exact_spectra_fully_safe(self):
        s = eo.build_spectrum([0.5, 0.5])
        assert eo.safe_horizon(s) == 2

    def test_truncated_margin(self):
        s = eo.tmss(0.5, 1000)
        h = eo.safe_horizon(s)
        assert h < 1000
        assert s.log_tail_bound - s.log_g[h] <= math.log(1e-6)
        assert s.log_tail_bound - s.log_g[h + 1] > math.log(1e-6)


def _flat(n, total):
    """n equal log weights summing to total, and the bound the constructor allows their sum."""
    log_weights = np.full(n, math.log(total / n))
    reach = max(abs(log_weights[0]), abs(math.log(total))) + 1.0
    return log_weights, spectrum._sum_bound(n, reach)


class TestBoundedNormalization:
    @pytest.mark.parametrize("side", ["upper", "lower", "lower-with-tail"])
    @pytest.mark.parametrize("n", [1, 1000, 100000])
    @pytest.mark.parametrize("j", [-1.9, -1.0, -0.3, 0.0, 0.3, 1.0, 1.9])
    def test_sums_within_twice_the_bound_take_the_sequential_sum(self, monkeypatch, side, n, j):
        # the sum lies j bounds from a threshold: the constructor defers to the sequential
        # sum, and takes its verdict and, refusing, its message
        rtol = spectrum.NORMALIZATION_RTOL
        log_tail = math.log(0.25 / n) if side == "lower-with-tail" else NEG_INF
        tail = math.exp(log_tail)
        threshold = 1.0 + rtol if side == "upper" else 1.0 - rtol
        _, bound = _flat(n, threshold)
        log_weights, _ = _flat(n, threshold * (1.0 + j * bound) - tail)
        assert spectrum._bounded_normalization(log_weights, log_tail) is None
        calls = []
        real = spectrum._normalization
        monkeypatch.setattr(spectrum, "_normalization", lambda *a: calls.append(a) or real(*a))
        ok, residual, total, tail_value = real(log_weights, log_tail)
        if ok:
            assert make_spectrum(log_weights, log_tail).normalization[0] is True
        else:
            with pytest.raises(NotNormalized) as err:
                make_spectrum(log_weights, log_tail)
            assert str(err.value) == (f"stored weights sum to {total!r} with tail bound {tail_value!r}; "
                                      f"residual {residual!r} exceeds {rtol}")
        assert len(calls) == 1

    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("n", [1, 1000, 100000])
    @pytest.mark.parametrize("j", [-3.0, 3.0])
    def test_sums_past_twice_the_bound_are_decided_without_it(self, monkeypatch, side, n, j):
        threshold = 1.0 + spectrum.NORMALIZATION_RTOL if side == "upper" else 1.0 - spectrum.NORMALIZATION_RTOL
        _, bound = _flat(n, threshold)
        log_weights, _ = _flat(n, threshold * (1.0 + j * bound))
        want = spectrum._normalization(log_weights, NEG_INF)[0]
        assert want is (j < 0 if side == "upper" else j > 0)
        assert spectrum._bounded_normalization(log_weights, NEG_INF) is want
        monkeypatch.setattr(spectrum, "logsumexp", lambda v: pytest.fail("the sequential sum ran"))
        if want:  # a refusal sums sequentially for its message
            make_spectrum(log_weights)

    def test_estimate_r_never_sums_sequentially(self, monkeypatch):
        # 21 members and their target, each checked by the pairwise sum alone
        calls = []
        monkeypatch.setattr(eo.spectrum, "logsumexp", lambda v: calls.append(len(v)))
        target = eo.tmss(math.exp(-0.5), 2000)
        delta = target.metadata["delta"]
        members = []
        est = eo.estimate_r_bounds(target, lambda r: members.append(r) or eo.xi_state(r, delta, 2000), 1.0, 2.0, 21)
        assert len(members) == 21 and len(est.per_r) == 21
        assert calls == []

    def test_weight_above_e_is_refused_without_the_pairwise_sum(self):
        # exp(m) would overflow past m = 709.78; the sequential sum still gives the message
        assert spectrum._bounded_normalization(np.array([800.0]), NEG_INF) is False
        with pytest.raises(NotNormalized, match="residual"):
            make_spectrum([1.5])
