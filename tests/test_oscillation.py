import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import entorder as eo
from entorder import families, oscillation
from entorder.errors import TooShort, TruncationUnsafe
from entorder.families import pair_ratio
from entorder.oscillation import OscillationCertificate, TrendClass, trend_flags

DELTA = 1.0


class TestLogRatioSequence:
    def test_identical_spectra_all_zero(self):
        s = eo.tmss(0.5, 300)
        ns, vals = eo.log_ratio_sequence(s, s, (0, 250))
        assert np.all(vals == 0.0)
        assert ns[0] == 0 and ns[-1] == 250

    def test_tmss_pair_closed_form(self):
        a, b = eo.tmss(0.6, 400), eo.tmss(0.4, 400)
        ns, vals = eo.log_ratio_sequence(a, b, (0, 300))
        expect = 2 * ns * (math.log(0.6) - math.log(0.4))
        assert np.max(np.abs(vals - expect)) < 1e-9

    def test_profile_ratio_definitional(self, psi_family):
        s1, s0 = psi_family[1], psi_family[0]
        a = s1.metadata["offset"]
        ns, vals = eo.log_ratio_sequence(s1, s0, (0, 1500))
        p, _, _ = eo.eval_p(1.0, DELTA * ns + a)
        p0, _, _ = eo.eval_p(1.0, a)
        assert np.max(np.abs(vals - (np.log(p) - math.log(p0)))) < 1e-9

    def test_truncation_unsafe_beyond_horizon(self):
        s = eo.tmss(0.5, 200)
        with pytest.raises(TruncationUnsafe):
            eo.log_ratio_sequence(s, s, (0, 200))

    def test_subsampled_indices(self):
        s1, s0 = eo.tmss(0.6, 400), eo.tmss(0.5, 400)
        idx = [0, 10, 100, 300]
        ns, vals = eo.log_ratio_sequence(s1, s0, (0, 300), indices=idx)
        assert list(ns) == idx


class TestClassifyTrend:
    def test_linear_descent(self):
        assert eo.classify_trend(-0.1 * np.arange(500)) is TrendClass.DivergesDown

    def test_constant(self):
        assert eo.classify_trend(np.zeros(200)) is TrendClass.BoundedBelow

    def test_linear_ascent(self):
        assert eo.classify_trend(0.1 * np.arange(500)) is TrendClass.DivergesUp

    def test_slow_creep_is_undecided(self):
        # falls 3 nats over the second half: too much for stability,
        # not enough for certified divergence at the default 5
        assert eo.classify_trend(-np.linspace(0, 6.0, 512)) is TrendClass.Undecided

    def test_too_short(self):
        with pytest.raises(TooShort):
            eo.classify_trend(np.zeros(10))

    def test_profile_extreme_ladder_oscillates(self, psi_family):
        # evaluate the k=1/k=0 ratio at a geometric ladder of peak and
        # floor phases; its running extremes diverge both ways
        pr = pair_ratio(psi_family[1], psi_family[0])
        a = pr.max_offset
        ladder = []
        L = 3 * math.pi / 2
        while L < 690.0:
            for phase in (math.pi / 2, 3 * math.pi / 2):
                target = 2 * math.pi * round((L - phase) / (2 * math.pi)) + phase
                if target > math.log(a + DELTA):
                    ladder.append(max(1, int(round((math.exp(target) - a) / DELTA))))
            L *= 1.25
        ns = np.array(sorted(set(ladder)), dtype=float)
        vals = pr.values(ns)
        th = eo.TrendThresholds(drift_nats=2.0, min_points=32)
        assert eo.classify_trend(vals, th) is TrendClass.Oscillating

    def test_mirror_specific(self):
        seqs = [
            -0.1 * np.arange(500),
            0.1 * np.arange(500),
            np.zeros(200),
            np.sin(np.arange(300)) * 0.1,
        ]
        for v in seqs:
            got = eo.classify_trend(-v)
            mirror = {
                TrendClass.DivergesDown: TrendClass.DivergesUp,
                TrendClass.DivergesUp: TrendClass.DivergesDown,
            }
            base = eo.classify_trend(v)
            if base in mirror:
                assert got is mirror[base]
            elif base is TrendClass.Oscillating or base is TrendClass.Undecided:
                assert got is base

    @given(
        st.lists(st.floats(min_value=-40, max_value=40), min_size=64, max_size=200),
    )
    def test_mirror_property_random(self, vals):
        # divergence labels mirror exactly; the two non-divergent labels
        # may swap because BoundedBelow describes only the minimum side
        # (e.g. a flat run ending in a one-sided 2-nat step)
        v = np.array(vals)
        th = eo.TrendThresholds()
        assert trend_flags(-v, th) == trend_flags(v, th).mirrored()
        base = eo.classify_trend(v)
        flipped = eo.classify_trend(-v)
        mirror = {
            TrendClass.DivergesDown: TrendClass.DivergesUp,
            TrendClass.DivergesUp: TrendClass.DivergesDown,
            TrendClass.Oscillating: TrendClass.Oscillating,
        }
        if base in mirror:
            assert flipped is mirror[base]
        else:
            assert flipped in (TrendClass.BoundedBelow, TrendClass.Undecided)


class TestCertificates:
    def test_psi_pair_certificate(self, psi_family):
        cert = eo.incomparability_certificate(psi_family[2], psi_family[1])
        assert cert is not None
        assert len(cert.up_witnesses) >= 5
        assert len(cert.down_witnesses) >= 5
        ups = [v for _, v in cert.up_witnesses]
        downs = [v for _, v in cert.down_witnesses]
        assert all(b - a >= 1.0 - 1e-9 for a, b in zip(ups, ups[1:]))
        assert all(a - b >= 1.0 - 1e-9 for a, b in zip(downs, downs[1:]))
        eo.verify_certificate(cert, psi_family[2], psi_family[1])

    def test_monotone_ratio_not_found(self):
        a, b = eo.tmss(0.6, 500), eo.tmss(0.4, 500)
        assert eo.incomparability_certificate(a, b) is None

    def test_identical_not_found(self):
        s = eo.tmss(0.5, 500)
        assert eo.incomparability_certificate(s, s) is None

    def test_swap_symmetry(self, psi_family):
        c_ab = eo.incomparability_certificate(psi_family[3], psi_family[1])
        c_ba = eo.incomparability_certificate(psi_family[1], psi_family[3])
        assert c_ab is not None and c_ba is not None
        assert [(n, -v) for n, v in c_ab.up_witnesses] == list(c_ba.down_witnesses)
        assert [(n, -v) for n, v in c_ab.down_witnesses] == list(c_ba.up_witnesses)

    def test_in_range_witnesses_match_stored_tails(self, psi_family):
        s2, s0 = psi_family[2], psi_family[0]
        cert = eo.incomparability_certificate(s2, s0)
        for n, v in cert.up_witnesses + cert.down_witnesses:
            if n <= 2000:
                assert abs((s2.log_g[n] - s0.log_g[n]) - v) < 1e-9

    def test_witness_growth_scales_with_k_gap(self, psi_family):
        # wider ladder separation packs more 1-nat records into the same span
        near = eo.incomparability_certificate(psi_family[2], psi_family[1])
        far = eo.incomparability_certificate(psi_family[4], psi_family[0])
        assert len(far.up_witnesses) > len(near.up_witnesses)
        assert len(far.down_witnesses) > len(near.down_witnesses)

    def test_tiny_grid_step_reaches_float_cap(self):
        # below delta ~ 1e-3 the default window ends past 1e307
        a, b = eo.psi_state(1, 0.0005, 2000), eo.psi_state(0, 0.0005, 2000)
        cert = eo.incomparability_certificate(a, b)
        assert cert is not None and cert.window[1] >= 10**307
        eo.verify_certificate(cert, a, b)

    def test_certificate_validation(self):
        good = [(i, float(i)) for i in range(5)]
        down = [(i, float(-i)) for i in range(5)]
        OscillationCertificate(good, down, (0, 100))
        with pytest.raises(ValueError):
            OscillationCertificate(good[:4], down, (0, 100))
        with pytest.raises(ValueError):
            OscillationCertificate([(i, 0.5 * i) for i in range(5)], down, (0, 100))
        with pytest.raises(ValueError):
            OscillationCertificate([(0, 0.0), (0, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)], down, (0, 100))

    def test_witnesses_must_lie_inside_the_window(self):
        good = [(i, float(i)) for i in range(10, 60, 10)]
        down = [(i, float(-i)) for i in range(10, 60, 10)]
        OscillationCertificate(good, down, (10, 50))
        for window in ((100, 200), (0, 49), (11, 60)):
            with pytest.raises(ValueError, match="inside the window"):
                OscillationCertificate(good, down, window)

    def test_verify_rejects_tampering(self, psi_family):
        cert = eo.incomparability_certificate(psi_family[1], psi_family[0])
        bad = OscillationCertificate(
            [(n, v + 2.0) for n, v in cert.up_witnesses],
            cert.down_witnesses,
            cert.window,
        )
        with pytest.raises(ValueError):
            eo.verify_certificate(bad, psi_family[1], psi_family[0])

    def test_verify_refuses_relabelled_metadata(self, psi_family):
        cert = eo.incomparability_certificate(psi_family[2], psi_family[1])
        s = psi_family[2]
        relabelled = eo.make_spectrum(s.log_weights, s.log_tail_bound, {**s.metadata, "k": 3}, cut_certified=True)
        with pytest.raises(ValueError, match="does not reproduce the stored tail"):
            eo.verify_certificate(cert, relabelled, psi_family[1])

    def test_verify_needs_analytic_form_beyond_storage(self, psi_family):
        cert = eo.incomparability_certificate(psi_family[1], psi_family[0])
        assert any(n > 2000 for n, _ in cert.up_witnesses)
        stripped = [
            eo.make_spectrum(s.log_weights, s.log_tail_bound, {}, cut_certified=True)
            for s in (psi_family[1], psi_family[0])
        ]
        with pytest.raises(ValueError):
            eo.verify_certificate(cert, *stripped)


def per_target_candidates(pair, n_min, n_max):
    """Reference for the grouped probe: one closed-form evaluation per phase target."""
    delta = pair.delta
    a_ref = max(pair.max_offset, 1.0)
    lo = max(n_min, 1)
    L_hi = math.log(delta * n_max + a_ref)
    L_lo = math.log(delta * lo + a_ref)
    targets = []
    for base in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
        p = max(0, math.ceil((L_lo - base) / (2 * math.pi)))
        L = base + 2 * math.pi * p
        while L <= L_hi:
            targets.append(L)
            L += 2 * math.pi
    targets.sort()
    radius = min(int(math.ceil((math.pi + pair.offset_gap) / delta)) + 1, 20000)
    cands_max, cands_min = [], []
    for L in targets:
        n0 = int(round((math.exp(L) - a_ref) / delta))
        n0 = max(lo, min(n0, n_max))
        start, stop = max(lo, n0 - radius), min(n_max, n0 + radius)
        ns = np.arange(start, stop + 1, dtype=float)
        vs = pair.values(ns)
        cands_max.append((int(ns[np.argmax(vs)]), float(np.max(vs))))
        cands_min.append((int(ns[np.argmin(vs)]), float(np.min(vs))))
    return sorted(set(cands_max)), sorted(set(cands_min))


@pytest.fixture(scope="module")
def probe_pairs(psi_family, tmss_match):
    fine = 0.002  # radius 1572: 3,145 points per neighbourhood, most of a 4096-point group
    return {
        "psi2/psi1": pair_ratio(psi_family[2], psi_family[1]),
        "psi3/psi0": pair_ratio(psi_family[3], psi_family[0]),
        "tmss/xi": pair_ratio(tmss_match, eo.xi_state(1.5, DELTA, 2000)),
        "fine psi2/psi1": pair_ratio(eo.psi_state(2, fine, 2000), eo.psi_state(1, fine, 2000)),
    }


class TestGroupedProbe:
    @pytest.mark.parametrize("points", [1, 7, 4096, 6144, 32768])
    @pytest.mark.parametrize("name", ["psi2/psi1", "psi3/psi0", "tmss/xi", "fine psi2/psi1"])
    def test_matches_per_target_evaluation(self, probe_pairs, monkeypatch, name, points):
        monkeypatch.setattr(families, "EVAL_BLOCK", points)
        pair = probe_pairs[name]
        for n_min, n_max in ((0, pair.max_index()), (50, 5000)):
            got = oscillation._analytic_candidates(pair, n_min, n_max)
            want = per_target_candidates(pair, n_min, n_max)
            assert [[(n, v.hex()) for n, v in c] for c in got] == \
                [[(n, v.hex()) for n, v in c] for c in want]

    def test_probe_evaluates_in_few_grouped_calls(self, monkeypatch):
        a, b = eo.psi_state(2, DELTA, 10000), eo.psi_state(1, DELTA, 10000)
        pair = pair_ratio(a, b)
        cw = oscillation.comparison_window(a, b)  # its metadata check evaluates both forms once
        radius = min(int(math.ceil((math.pi + pair.offset_gap) / DELTA)) + 1, 20000)
        sizes = []
        real = families.eval_p

        def counting(r, x):
            sizes.append(np.size(x))
            return real(r, x)

        monkeypatch.setattr(families, "eval_p", counting)
        probe = oscillation.probe_pair(cw, eo.TrendThresholds())
        assert probe.analytic and len(probe.up_records) >= 5
        # one grouped PairRatio.values call: per form, p at its offset and on the grid
        assert 0 < len(sizes) <= 4
        assert max(sizes) <= max(families.EVAL_BLOCK, 2 * radius + 1)


class TestComparisonWindow:
    def test_default_window_follows_the_continuation(self, psi_family, tmss_match):
        cw = oscillation.comparison_window(psi_family[2], psi_family[1])
        assert cw.pair is not None and cw.window == (0, cw.pair.max_index())
        horizon = min(eo.safe_horizon(psi_family[2]), eo.safe_horizon(psi_family[1]))
        assert cw.ns[-1] == horizon
        # same grid, but the ratio of two k = 0 forms does not oscillate
        flat = oscillation.comparison_window(psi_family[0], tmss_match)
        assert flat.pair is None
        assert flat.window == (0, min(eo.safe_horizon(psi_family[0]), eo.safe_horizon(tmss_match)))
        a, b = eo.tmss(0.6, 600), eo.tmss(0.4, 600)
        plain = oscillation.comparison_window(a, b)
        assert plain.pair is None and plain.window == (0, min(eo.safe_horizon(a), eo.safe_horizon(b)))
        assert np.array_equal(plain.values, a.log_g[plain.ns] - b.log_g[plain.ns])

    def test_refuses_dishonest_windows(self, psi_family):
        a, b = eo.tmss(0.6, 600), eo.tmss(0.4, 600)
        for window in ((-1, 10), (50, 10)):
            with pytest.raises(ValueError):
                oscillation.comparison_window(a, b, window)
        horizon = oscillation.comparison_window(a, b).window[1]
        assert oscillation.comparison_window(a, b, (0, horizon)).ns.size == horizon + 1
        with pytest.raises(TruncationUnsafe):
            oscillation.comparison_window(a, b, (0, horizon + 1))
        with pytest.raises(TruncationUnsafe):
            eo.incomparability_certificate(a, b, window=(0, 100000))
        # a pair with a continuation may look past its stored horizon
        cw = oscillation.comparison_window(psi_family[1], psi_family[0], (0, 10**6))
        assert cw.window == (0, 10**6) and cw.ns[-1] < 2000

    def test_verify_resolves_the_certificate_window(self):
        a, b = eo.tmss(0.6, 600), eo.tmss(0.4, 600)
        cw = oscillation.comparison_window(a, b)
        n_max = cw.window[1]
        ups = [(n, float(cw.values[n])) for n in range(n_max - 8, n_max + 1, 2)]
        downs = [(n, -float(cw.values[n])) for n in range(n_max - 8, n_max + 1, 2)]
        # the values are wrong for the down side, but the window is refused first
        cert = OscillationCertificate(ups, downs, (0, n_max + 10))
        with pytest.raises(ValueError, match="window"):
            eo.verify_certificate(cert, a, b)
