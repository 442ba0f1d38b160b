import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import entorder as eo
from entorder import families
from entorder.errors import ConditionViolated, DomainError, OffsetNotFound, QOutOfRange
from entorder.families import analytic_form, pair_ratio

DELTA = 1.0


class TestTmss:
    def test_q_zero_is_product_state(self):
        s = eo.tmss(0.0)
        assert s.length == 1
        assert s.weights()[0] == 1.0

    def test_leading_weight(self):
        assert eo.tmss(0.5, 50).weights()[0] == pytest.approx(0.75, rel=1e-15)

    def test_log_tail_linear_in_n(self):
        s = eo.tmss(0.9, 200)
        lg = s.log_g
        n = np.arange(201)
        assert np.allclose(lg, 2 * n * math.log(0.9), atol=1e-9)

    def test_q_out_of_range(self):
        with pytest.raises(QOutOfRange):
            eo.tmss(1.0)
        with pytest.raises(QOutOfRange):
            eo.tmss(-0.1)

    def test_delta_conventions(self):
        assert eo.delta_from_q(0.5) == pytest.approx(2 * math.log(2), rel=1e-15)
        assert eo.delta_from_q(0.5, "amplitude") == pytest.approx(math.log(2), rel=1e-15)
        with pytest.raises(QOutOfRange):
            eo.delta_from_q(0.0)
        with pytest.raises(ValueError):
            eo.delta_from_q(0.5, "bogus")


class TestEvalP:
    def test_peak_value(self):
        # sin(ln x) = 1 at ln x = pi/2: p = L^r * 2 + 1/L with L = pi/2
        p, _, _ = eo.eval_p(1.0, math.exp(math.pi / 2))
        assert p == pytest.approx(math.pi + 2 / math.pi, rel=1e-12)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_floor_value_independent_of_r(self, r):
        # sin(ln x) = -1 kills the oscillating term entirely
        p, _, _ = eo.eval_p(r, math.exp(3 * math.pi / 2))
        assert p == pytest.approx(2 / (3 * math.pi), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            eo.eval_p(1.0, 1.0)
        with pytest.raises(DomainError):
            eo.eval_p(1.0, 0.5)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_first_derivative_matches_central_difference(self, r):
        # relative to the local derivative scale p/x: p' crosses zero
        x = np.geomspace(2.0, 1e4, 400)
        h = 1e-5 * np.maximum(1.0, x)
        p, p1, _ = eo.eval_p(r, x)
        fd = (eo.eval_p(r, x + h)[0] - eo.eval_p(r, x - h)[0]) / (2 * h)
        assert np.max(np.abs(fd - p1) / np.maximum(np.abs(p1), p / x)) < 1e-6

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_second_derivative_matches_central_difference(self, r):
        # wider step: the second difference loses ~eps/h^2 to rounding
        x = np.geomspace(2.0, 1e4, 400)
        h = 3e-4 * np.maximum(1.0, x)
        p0, _, p2 = eo.eval_p(r, x)
        pp, _, _ = eo.eval_p(r, x + h)
        pm, _, _ = eo.eval_p(r, x - h)
        fd = (pp - 2 * p0 + pm) / h**2
        assert np.max(np.abs(fd - p2) / np.maximum(np.abs(p2), p0 / x**2)) < 1e-6


class TestCurveConditions:
    def test_k_zero_trivial(self):
        assert families._profile_conditions(0, 1.0, 5.0)[1:] == (1.0, 1.0)

    def test_k_one_matches_direct_functionals(self):
        x = np.linspace(0.5, 300.0, 4001)
        _, M, C = families._profile_conditions(1, 1.0, x + 1.01)
        p, p1, p2 = eo.eval_p(1.0, x + 1.01)
        assert np.all(np.sign(M) == np.sign(p - p1))
        assert np.all(np.sign(C) == np.sign(p - 2 * p1 + p2))
        scalar = families._profile_conditions(1, 1.0, float(x[7]) + 1.01)[1:]
        assert scalar == pytest.approx((M[7], C[7]), rel=1e-12)

    def test_conditions_fail_below_offset_for_k4(self):
        # grid scan oracle: the searched offset is minimal, so some point
        # below it violates decrease or convexity
        a = eo.find_offset(4, 1.0, 0.01, horizon=200.0)
        assert a > 1.02
        x = np.arange(0, 200.0, 0.01)
        _, M, C = families._profile_conditions(4, 1.0, x + (a - 0.01))
        assert np.any((M <= 0) | (C < 0))


class TestFindOffset:
    def test_k_zero_needs_no_shift(self):
        assert eo.find_offset(0, 1.0, 0.01, horizon=100.0) == 0.0

    def test_k_one_verified_by_dense_rescan(self):
        a = eo.find_offset(1, 1.0, 0.01, horizon=200.0)
        assert a > 1.0
        x = np.arange(0, 200.0005, 0.001)
        _, M, C = families._profile_conditions(1, 1.0, x + a)
        assert np.all(M > 0) and np.all(C >= 0)

    def test_margin_monotone(self):
        offsets = [
            eo.find_offset(4, 1.0, 0.01, horizon=100.0, margin=m)
            for m in (0.0, 0.1, 0.3)
        ]
        assert offsets[0] <= offsets[1] <= offsets[2]

    def test_not_found(self):
        with pytest.raises(OffsetNotFound):
            eo.find_offset(1, 1.0, 0.01, horizon=50.0, margin=1.0, a_max=5.0)

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            eo.find_offset(1, 1.0, 0.01, horizon=10.0, margin=-0.1)

    def test_nan_conditions_are_not_clean(self):
        # L**400 overflows, so every M and C of every window is NaN
        with pytest.raises(OffsetNotFound):
            eo.find_offset(1, 400.0, 0.01, horizon=1001.0)


def brute_force_offset(k, r, g, horizon, margin, a_max):
    """find_offset by definition: test each candidate's whole window in turn."""
    W = math.ceil(horizon / g)
    for m in range(math.floor(1.0 / g) + 1, math.floor(a_max / g) + 1):
        p, M, C = families._profile_conditions(k, r, np.arange(m, m + W + 1, dtype=float) * g)
        if np.all((p > 0) & (M > margin) & (C >= 0)):
            return m * g
    return None


def assert_blocks_equal_one_call(k, r, base, step, first, last):
    """(p, M, C) on base + i*step, i = first..last: the scanner's EVAL_BLOCK blocks equal one call."""
    block = families.EVAL_BLOCK
    assert (last + 1 - first) // block >= 1 and (last + 1 - first) % block  # a short last block
    whole = families._profile_conditions(k, r, base + np.arange(first, last + 1, dtype=float) * step)
    parts = [
        families._profile_conditions(k, r, base + np.arange(i, min(i + block, last + 1), dtype=float) * step)
        for i in range(first, last + 1, block)
    ]
    for one, blocked in zip(whole, zip(*parts)):
        assert np.concatenate(blocked).tobytes() == one.tobytes()


class TestScanner:
    @settings(max_examples=200)  # most draws are clean at the first candidate
    @given(
        k=st.integers(1, 4),
        r=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
        g=st.sampled_from([0.02, 0.05, 0.1, 0.25]),
        horizon=st.floats(0.1, 20.0),
        margin=st.floats(0.0, 0.5),
        extra=st.integers(-1, 150),
    )
    # the k = 4 curve below is first clean at 3.8 = 76 * 0.05, so its
    # candidate 75 fails: extra = 55 puts that failure just before the
    # last candidate, extra = 54 makes it the last and nothing is found
    @example(k=4, r=1.0, g=0.05, horizon=5.0, margin=0.0, extra=55)
    @example(k=4, r=1.0, g=0.05, horizon=5.0, margin=0.0, extra=54)
    def test_find_offset_matches_brute_force(self, k, r, g, horizon, margin, extra):
        # the last candidate is the first one above 1 plus `extra` steps
        a_max = (math.floor(1.0 / g) + 1 + extra + 0.5) * g
        expected = brute_force_offset(k, r, g, horizon, margin, a_max)
        if expected is None:
            with pytest.raises(OffsetNotFound):
                eo.find_offset(k, r, g, horizon, margin, a_max)
        else:
            assert eo.find_offset(k, r, g, horizon, margin, a_max) == expected

    @given(
        bad=st.sets(st.integers(0, 60), max_size=12),
        first=st.integers(0, 20),
        span=st.integers(-2, 25),
        W=st.integers(0, 10),
        chunk=st.integers(1, 8),
    )
    def test_first_clean_on_synthetic_failures(self, bad, first, span, W, chunk):
        # lattice point i is y = i (base 0, step 1); M fails exactly on `bad`
        calls = []

        def conditions(k, r, y):
            calls.append(y)
            return np.ones_like(y), np.where(np.isin(y, list(bad)), -1.0, 1.0), np.ones_like(y)

        last = first + span
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(families, "_profile_conditions", conditions)
            mp.setattr(families, "EVAL_BLOCK", chunk)
            got = families._first_clean(1, 1.0, 0.0, 1.0, first, last, W, 0.0)
        expected = next(
            (j for j in range(first, last + 1) if not bad & set(range(j, j + W + 1))), None
        )
        assert got == expected
        points = np.concatenate(calls) if calls else np.zeros(0)
        assert np.unique(points).size == points.size  # each point evaluated once
        assert all(c.size <= chunk for c in calls)
        assert points.size == 0 or points.max() <= last + W

    @pytest.fixture
    def scanned(self, monkeypatch):
        """Every argument array the curve conditions are evaluated on."""
        calls = []
        real = families._profile_conditions

        def recording(k, r, y):
            calls.append(np.array(y))
            return real(k, r, y)

        monkeypatch.setattr(families, "_profile_conditions", recording)
        return calls

    def test_searched_member_scans_each_point_once(self, scanned):
        spec = eo.psi_state(2, 1.0, 2000)
        points = np.concatenate(scanned)
        assert np.unique(points).size == points.size
        assert max(c.size for c in scanned) <= families.EVAL_BLOCK
        # the search window already reaches delta*(n+1) = 2001 past the offset,
        # the end of discretize's check grid
        assert points.max() >= spec.metadata["offset"] + 2001 - 1e-9

    def test_finer_check_grid_is_scanned(self, scanned):
        # delta 0.005 checks on step 0.005, the offset search on step 0.01
        spec = eo.psi_state(1, 0.005, 2000)
        a = spec.metadata["offset"]
        last = math.ceil(0.005 * 2001 / 0.005)
        assert any(c.size == last + 1 and c[0] == a for c in scanned)

    @pytest.mark.parametrize("r", [1.0, 1.37, 2.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_blocked_search_equals_one_call(self, k, r):
        # find_offset's lattice for a delta = 1, n = 2000 member: from the
        # first candidate above 1 to the end of the found window
        g, horizon = 0.01, DELTA * 2001
        offset = eo.find_offset(k, r, g, horizon)
        assert_blocks_equal_one_call(k, r, 0.0, g, math.floor(1.0 / g) + 1,
                                     round(offset / g) + math.ceil(horizon / g))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_blocked_fine_check_equals_one_call(self, k):
        # discretize's check lattice on the step-0.002 grid of a delta = 0.002,
        # n = 1e5 member at its ladder offset
        delta, n = 0.002, 100_000
        offset = eo.find_offset(k, 1.0, 0.01, delta * (n + 1))
        assert_blocks_equal_one_call(k, 1.0, offset, delta, 0, math.ceil(delta * (n + 1) / delta))


class TestDiscretize:
    def test_k0_equals_tmss(self):
        spec = eo.discretize(eo.AnalyticForm(0, 1.0, 0.0, 1.0), 500)
        ref = eo.tmss(math.exp(-0.5), 500)
        assert np.max(np.abs(spec.log_weights - ref.log_weights)) < 1e-12

    def test_g0_exactly_one(self):
        spec = eo.xi_state(1.5, DELTA, 300)
        assert spec.log_g[0] == 0.0

    def test_ratio_between_k1_and_k0_is_profile(self, psi_family):
        # definitional: ln g1 - ln g0 = ln p(delta n + a) - ln p(a)
        s1, s0 = psi_family[1], psi_family[0]
        a = s1.metadata["offset"]
        n = np.arange(0, 2001)
        ell = s1.log_g - s0.log_g
        p, _, _ = eo.eval_p(1.0, DELTA * n + a)
        p0, _, _ = eo.eval_p(1.0, a)
        assert np.max(np.abs(ell - (np.log(p) - math.log(p0)))) < 1e-9

    def test_condition_violation_raises(self):
        # offset 2.0 puts the k=4 convexity dip inside the range
        with pytest.raises(ConditionViolated):
            eo.discretize(eo.AnalyticForm(4, 1.0, 2.0, 1.0), 100)

    def test_generated_spectra_pass_conditions(self, psi_family):
        for k, s in psi_family.items():
            rep = eo.vidal_conditions(s)
            assert rep.all_pass, (k, rep.to_dict())

    def test_metadata_tags(self, psi_family):
        assert psi_family[2].metadata["family"] == "psi"
        xi = eo.xi_state(1.25, DELTA, 200)
        assert xi.metadata["family"] == "xi"
        assert xi.metadata["k"] == 1


class TestAnalyticForm:
    def test_matches_stored_tail(self, psi_family):
        for s in psi_family.values():
            form = analytic_form(s)
            n = np.array([0, 1, 17, 500, 1999, 2000])
            stored = s.log_g[n]
            assert np.max(np.abs(form.log_g(n) - stored)) < 1e-9

    def test_pair_ratio_requires_matching_grid(self):
        a, b = eo.tmss(0.6, 100), eo.tmss(0.4, 100)
        assert pair_ratio(a, b) is None
        c, d = eo.tmss(0.5, 100), eo.tmss(0.5, 200)
        pr = pair_ratio(c, d)
        assert pr is not None and not pr.oscillating

    @pytest.mark.parametrize("patch", [{"k": 3}, {"k": 0}, {"r": 1.5}, {"offset": 2.5}, {"delta": 1.5}])
    def test_metadata_must_reproduce_the_stored_tail(self, patch):
        base = eo.psi_state(1, DELTA, 2000)
        meta = {**base.metadata, **patch}
        edited = eo.make_spectrum(base.log_weights, base.log_tail_bound, meta, cut_certified=True)
        eo.AnalyticForm(meta["k"], meta["r"], meta["offset"], meta["delta"])  # the constructor accepts it
        with pytest.raises(eo.ValidationError, match="does not reproduce the stored tail"):
            analytic_form(edited)

    def test_residual_checked_past_the_safe_horizon(self):
        # at delta = 0.002 the safe horizon is 0, so the whole stored range is what tells
        base = eo.psi_state(1, 0.002, 2000)
        assert eo.safe_horizon(base) == 0
        edited = eo.make_spectrum(base.log_weights, base.log_tail_bound, {**base.metadata, "k": 2},
                                  cut_certified=True)
        with pytest.raises(eo.ValidationError):
            analytic_form(edited)

    def test_plain_spectra_have_no_form(self):
        assert analytic_form(eo.build_spectrum([0.5, 0.5])) is None

    def test_corrupt_metadata_has_no_form(self):
        base = eo.xi_state(1.5, DELTA, 100)
        for patch in (
            {"delta": math.inf},
            {"delta": -1.0},
            {"k": -2},
            {"r": 0.0},
            {"offset": 0.5},
            {"k": "many"},
            {"r": math.nan},
            {"offset": math.nan},
            {"k": 1, "offset": 1.0},
            {"k": 0, "offset": -1.0},
        ):
            meta = {**base.metadata, **patch}
            broken = eo.make_spectrum(base.log_weights, base.log_tail_bound, meta, cut_certified=True)
            assert analytic_form(broken) is None
            # the constructor is where the refusal comes from
            with pytest.raises((TypeError, ValueError)):
                eo.AnalyticForm(meta["k"], meta["r"], meta["offset"], meta["delta"])

    @pytest.mark.parametrize("offset", [None, 7.25])
    @pytest.mark.parametrize("delta", [1.0, 0.005])
    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("k", range(5))
    def test_generating_form_round_trips(self, tmp_path, k, r, delta, offset):
        # 7.25 lies above the last condition failure of every k <= 4, r <= 2
        n = 300
        s = eo.psi_state(k, delta, n, r=r, offset=offset)
        if k == 0:
            offset = 0.0
        elif offset is None:
            offset = eo.find_offset(k, r, 0.01, delta * (n + 1))
        form = eo.AnalyticForm(k, r, offset, delta)
        assert analytic_form(s) == form
        path = tmp_path / "member.spec"
        eo.write_spectrum(s, path)
        assert analytic_form(eo.read_spectrum(path)) == form

    @pytest.mark.parametrize("make", [
        lambda: eo.psi_state(-1, 1.0, 10000),
        lambda: eo.psi_state(1.5, 1.0, 10000),
        lambda: eo.psi_state(1, 0.0, 10000),
        lambda: eo.xi_state(1.5, 0.0, 10000),
        lambda: eo.xi_state(0.0, 1.0, 10000),
    ], ids=["k=-1", "k=1.5", "psi-delta=0", "xi-delta=0", "r=0"])
    def test_bad_parameters_refused_before_the_scan(self, monkeypatch, make):
        calls = []
        real = families.eval_p

        def counting(r, x):
            calls.append(np.size(x))
            return real(r, x)

        monkeypatch.setattr(families, "eval_p", counting)
        with pytest.raises(ValueError):
            make()
        assert calls == []

    def test_excitation_remainder_certified(self, psi_family):
        for k in range(1, 5):
            stats = eo.summary_stats(psi_family[k])
            assert math.isfinite(stats["mean_excitation"])
            assert stats["excitation_tail_bound"] is not None
            assert stats["excitation_tail_bound"] < 1e-9
