import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import entorder as eo
from entorder import families, oscillation
from entorder.errors import TruncationUnsafe, WindowTooSmall
from entorder.families import PairRatio, pair_ratio
from entorder.numutil import log1mexp, run_starts
from entorder.oscillation import (
    ComparisonWindow, OscillationCertificate, ProbeReport, TrendClass, comparison_window, trend_flags,
)

DELTA = 1.0
TH = eo.TrendThresholds()


def _formless(log_g):
    """The metadata-free spectrum whose ln g(0..N) is ``log_g`` (shifted to g(0) = 1), tail bound g(N)."""
    log_g = log_g - log_g[0]
    return eo.make_spectrum(log_g[:-1] + log1mexp(np.diff(log_g)), log_g[-1])


class TestComparisonWindowValues:
    def test_identical_spectra_all_zero(self):
        s = eo.tmss(0.5, 300)
        cw = comparison_window(s, s, (0, 250))
        assert np.all(cw.values == 0.0)
        assert cw.ns[0] == 0 and cw.ns[-1] == 250

    def test_tmss_pair_closed_form(self):
        a, b = eo.tmss(0.6, 400), eo.tmss(0.4, 400)
        cw = comparison_window(a, b, (0, 300))
        expect = 2 * cw.ns * (math.log(0.6) - math.log(0.4))
        assert np.max(np.abs(cw.values - expect)) < 1e-9

    def test_profile_ratio_definitional(self, psi_family):
        s1, s0 = psi_family[1], psi_family[0]
        a = s1.metadata["offset"]
        cw = comparison_window(s1, s0, (0, 1500))
        p, _, _ = eo.eval_p(1.0, DELTA * cw.ns + a)
        p0, _, _ = eo.eval_p(1.0, a)
        assert np.max(np.abs(cw.values - (np.log(p) - math.log(p0)))) < 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exact_pair_of_one_rank_ends_in_nan_without_a_warning(self):
        a, b = eo.build_spectrum((0.5, 0.3, 0.2)), eo.build_spectrum((0.6, 0.3, 0.1))
        cw = comparison_window(a, b)
        assert np.all(np.isfinite(cw.values[:-1])) and math.isnan(cw.values[-1])
        assert eo.incomparability_certificate(a, b) is None

    def test_truncation_unsafe_beyond_horizon(self):
        s = eo.tmss(0.5, 200)
        with pytest.raises(TruncationUnsafe):
            comparison_window(s, s, (0, 200))


class TestTrendLabel:
    def test_linear_descent(self):
        assert trend_flags(-0.1 * np.arange(500), TH).label() is TrendClass.DivergesDown

    def test_constant(self):
        assert trend_flags(np.zeros(200), TH).label() is TrendClass.BoundedBelow

    def test_linear_ascent(self):
        assert trend_flags(0.1 * np.arange(500), TH).label() is TrendClass.DivergesUp

    def test_slow_creep_is_undecided(self):
        # falls 3 nats over the second half: too much for stability,
        # not enough for certified divergence at the default 5
        assert trend_flags(-np.linspace(0, 6.0, 512), TH).label() is TrendClass.Undecided

    def test_thresholds_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            eo.TrendThresholds(drift_nats=0)

    def test_too_short(self):
        with pytest.raises(WindowTooSmall):
            trend_flags(np.zeros(10), TH)

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
        assert trend_flags(vals, th).label() is TrendClass.Oscillating

    def test_mirror_specific(self):
        seqs = [
            -0.1 * np.arange(500),
            0.1 * np.arange(500),
            np.zeros(200),
            np.sin(np.arange(300)) * 0.1,
        ]
        for v in seqs:
            got = trend_flags(-v, TH).label()
            mirror = {
                TrendClass.DivergesDown: TrendClass.DivergesUp,
                TrendClass.DivergesUp: TrendClass.DivergesDown,
            }
            base = trend_flags(v, TH).label()
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
        base = trend_flags(v, th).label()
        flipped = trend_flags(-v, th).label()
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

    def test_certificate_of_a_pair_without_closed_form(self):
        # ell(n) = (n / 1000) sin(2 pi n / 2000) against a plain exponential,
        # both stored without metadata: the witnesses are stored points
        n = np.arange(12201.0)
        a = _formless(-n + n / 1000 * np.sin(2 * np.pi * n / 2000))
        b = _formless(-n)
        assert pair_ratio(a, b) is None
        cert = eo.incomparability_certificate(a, b)
        assert cert is not None
        assert min(len(cert.up_witnesses), len(cert.down_witnesses)) >= 5
        assert eo.verify_certificate(cert, a, b)
        (n0, v0), *rest = cert.up_witnesses
        tampered = OscillationCertificate([(n0, v0 - 0.5), *rest], cert.down_witnesses, cert.window)
        with pytest.raises(ValueError, match=f"up witness at {n0}"):
            eo.verify_certificate(tampered, a, b)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["up", "down"])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_witness_values_must_be_finite(self, bad, side, at):
        # a NaN passes every ordering check, and an inf one passes the 1-nat step
        wit = {"up": [(i, float(i)) for i in range(5)], "down": [(i, float(-i)) for i in range(5)]}
        wit[side][at] = (at, bad)
        with pytest.raises(ValueError, match=f"{side} witnesses: values must be finite"):
            OscillationCertificate(wit["up"], wit["down"], (0, 100))

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
        relabelled = eo.make_spectrum(s.log_weights, s.log_tail_bound, {**s.metadata, "k": 3})
        with pytest.raises(ValueError, match="does not reproduce the stored tail"):
            eo.verify_certificate(cert, relabelled, psi_family[1])

    def test_verify_needs_analytic_form_beyond_storage(self, psi_family):
        cert = eo.incomparability_certificate(psi_family[1], psi_family[0])
        assert any(n > 2000 for n, _ in cert.up_witnesses)
        stripped = [
            eo.make_spectrum(s.log_weights, s.log_tail_bound, {})
            for s in (psi_family[1], psi_family[0])
        ]
        with pytest.raises(ValueError):
            eo.verify_certificate(cert, *stripped)


def neighbourhoods(pair, n_min, n_max):
    """Reference for the probe's grid: one float arange per phase target, clipped to the window."""
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
    grids = []
    for L in targets:
        n0 = int(round((math.exp(L) - a_ref) / delta))
        n0 = max(lo, min(n0, n_max))
        start, stop = max(lo, n0 - radius), min(n_max, n0 + radius)
        grids.append(np.arange(start, stop + 1, dtype=float))
    return grids


def per_target_candidates(pair, n_min, n_max):
    """Reference for the grouped probe: one closed-form evaluation per phase target."""
    cands_max, cands_min = [], []
    for ns in neighbourhoods(pair, n_min, n_max):
        vs = pair.values(ns)
        cands_max.append((int(ns[np.argmax(vs)]), float(np.max(vs))))
        cands_min.append((int(ns[np.argmin(vs)]), float(np.min(vs))))
    return sorted(set(cands_max)), sorted(set(cands_min))


def hexed(sides):
    """Candidate lists per side as (int index, float.hex value): equal exactly when bit for bit."""
    return [[(n, v.hex()) for n, v in side] for side in sides]


def array_sides(sides):
    """The probe's (indices, values) float arrays per side as lists of (int, float) pairs."""
    for ns, vs in sides:
        assert ns.dtype == vs.dtype == np.float64 and ns.shape == vs.shape
    return [list(zip(map(int, ns.tolist()), vs.tolist())) for ns, vs in sides]


def probe_windows(pair):
    """The full window, an inner one, and windows whose end neighbourhoods are clipped."""
    top = pair.max_index()
    # n0 of the phase target at ln y = 12.5 pi (y near 1.1e17): windows that cut one index
    # off either end of its neighbourhood, where float steps are 0 or 16 and more
    n0 = int(round((math.exp(math.pi / 2 + 12 * math.pi) - max(pair.max_offset, 1.0)) / pair.delta))
    radius = min(int(math.ceil((math.pi + pair.offset_gap) / pair.delta)) + 1, 20000)
    return ((0, top), (50, 5000), (0, top - 1), (3, 2**53 + 1), (2**53 - 7, 2**53 + 9),
            (10**16, 10**18), (0, 10**80 + 12345), (n0 - radius + 1, 2 * n0), (0, n0 + radius - 1))


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
        for n_min, n_max in probe_windows(pair):
            got = oscillation._analytic_candidates(pair, n_min, n_max)
            want = per_target_candidates(pair, n_min, n_max)
            assert hexed(array_sides(got)) == hexed(want)

    @pytest.mark.parametrize("name", ["psi2/psi1", "psi3/psi0", "tmss/xi", "fine psi2/psi1"])
    def test_windows_clip_neighbourhoods_past_2_53(self, probe_pairs, name):
        pair = probe_pairs[name]
        full = 2 * min(int(math.ceil((math.pi + pair.offset_gap) / pair.delta)) + 1, 20000) + 1
        *_, starts_below, ends_past = probe_windows(pair)
        for window, end in ((starts_below, 0), (ends_past, -1)):
            grid = neighbourhoods(pair, *window)[end]
            assert grid.size == full - 1 and grid[0] > 2**53 and np.any(np.diff(grid) != 1.0)

    @pytest.mark.parametrize("points", [1, 7, 6144])
    @pytest.mark.parametrize("name", ["psi2/psi1", "psi3/psi0", "tmss/xi", "fine psi2/psi1"])
    def test_evaluates_each_distinct_index_once(self, probe_pairs, monkeypatch, name, points):
        monkeypatch.setattr(families, "EVAL_BLOCK", points)
        real = probe_pairs[name]
        calls = []
        pair = SimpleNamespace(delta=real.delta, max_offset=real.max_offset, offset_gap=real.offset_gap,
                               values=lambda n: calls.append(n) or real.values(n))
        for window in probe_windows(real):
            calls.clear()
            oscillation._analytic_candidates(pair, *window)
            grids = neighbourhoods(real, *window)
            assert bool(calls) == bool(grids)
            if grids:  # each group's call holds distinct floats, together those of every arange
                assert all(np.unique(n).size == n.size for n in calls)
                assert np.array_equal(np.unique(np.concatenate(calls)), np.unique(np.concatenate(grids)))

    @pytest.mark.parametrize("points", [1, 7, 6144])
    def test_ties_take_the_first_index(self, probe_pairs, monkeypatch, points):
        # the ratio rounded to whole nats: below 2**53 too, most neighbourhoods
        # tie at their extreme, and the first tied index must be the candidate
        monkeypatch.setattr(families, "EVAL_BLOCK", points)
        real = probe_pairs["psi2/psi1"]
        pair = SimpleNamespace(delta=real.delta, max_offset=real.max_offset, offset_gap=real.offset_gap,
                               values=lambda n: np.round(real.values(n)))
        for n_min, n_max in probe_windows(real):
            got = oscillation._analytic_candidates(pair, n_min, n_max)
            assert hexed(array_sides(got)) == hexed(per_target_candidates(pair, n_min, n_max))

    @pytest.mark.parametrize("points", [1, 7, 6144])
    def test_overlapping_neighbourhoods_keep_one_entry_per_index(self, probe_pairs, monkeypatch, points):
        # the pairs above never share an extreme between neighbourhoods (targets lie e^(pi/2) apart
        # in y); an offset gap of 60 at offset 1 widens each to 131 points, so early ones overlap
        monkeypatch.setattr(families, "EVAL_BLOCK", points)
        real = probe_pairs["psi2/psi1"]
        pair = SimpleNamespace(delta=real.delta, max_offset=1.0, offset_gap=60.0, values=real.values)
        for n_min, n_max in ((0, 10**6), (2, 300), (0, real.max_index())):
            want = per_target_candidates(pair, n_min, n_max)
            assert len(want[0]) < len(neighbourhoods(pair, n_min, n_max))  # some extremes repeat
            got = oscillation._analytic_candidates(pair, n_min, n_max)
            assert hexed(array_sides(got)) == hexed(want)

    def test_probe_evaluates_in_few_grouped_calls(self, monkeypatch):
        a, b = eo.psi_state(2, DELTA, 10000), eo.psi_state(1, DELTA, 10000)
        pair = pair_ratio(a, b)
        cw = oscillation.comparison_window(a, b)  # its metadata check evaluates both forms once
        radius = min(int(math.ceil((math.pi + pair.offset_gap) / DELTA)) + 1, 20000)
        sizes = []
        real = families.profile

        def counting(r, x):
            sizes.append(np.size(x))
            return real(r, x)

        monkeypatch.setattr(families, "profile", counting)
        probe = oscillation.probe_pair(cw, eo.TrendThresholds())
        assert cw.pair is not None and len(probe.up_records) >= 5
        # one grouped PairRatio.values call: per form, p at its offset and on the grid
        assert 0 < len(sizes) <= 4
        assert max(sizes) <= max(families.EVAL_BLOCK, 2 * radius + 1)
        # the grid is each distinct float of the neighbourhoods, once: past 2**53 most repeat
        grid = np.concatenate(neighbourhoods(pair, *cw.window))
        assert (grid.size, np.unique(grid).size) == (4893, 673)
        assert sorted(sizes) == [1, 1, 673, 673]


def tuple_probe(cw, thresholds):
    """Reference for ``probe_pair``: the probe that kept its candidates as sorted (int, float) lists.

    The analytic candidates are ``per_target_candidates``', which that
    probe's grouped evaluation matched bit for bit; records and the
    envelope follow its code.
    """
    (n_min, n_max), pair = cw.window, cw.pair
    if pair is not None:
        cmax, cmin = per_target_candidates(pair, n_min, min(n_max, pair.max_index()))
    else:
        finite = np.isfinite(cw.values)
        ns, v = cw.ns[finite], cw.values[finite]
        if v.size < 3:
            idx = np.arange(v.size)
        else:
            left, right = v[1:-1] - v[:-2], v[1:-1] - v[2:]
            interior = 1 + np.nonzero((left >= 0) & (right >= 0) | ((left <= 0) & (right <= 0)))[0]
            idx = np.unique(np.concatenate(([0], interior, [v.size - 1])))
        cmax = cmin = [(int(ns[i]), float(v[i])) for i in idx]

    def records(cands, sign):
        out = []
        for n, v in cands:
            s = sign * v
            if not out:
                out.append((n, v))
            elif len(out) == 1 and s < sign * out[0][1]:
                out[0] = (n, v)
            elif s >= sign * out[-1][1] + thresholds.witness_step_nats:
                out.append((n, v))
        return tuple(out)

    up_gain = max((v for _, v in cmax), default=0.0) - cmax[0][1] if cmax else 0.0
    down_drop = cmin[0][1] - min((v for _, v in cmin), default=0.0) if cmin else 0.0
    return ProbeReport(records(cmax, +1.0), records(cmin, -1.0), float(up_gain), float(down_drop))


def report_bits(probe):
    """A ProbeReport with every float as its hex and every index checked to be a Python int."""
    for n, v in probe.up_records + probe.down_records:
        assert type(n) is int and type(v) is float
    return (hexed((probe.up_records, probe.down_records)), probe.up_env_gain.hex(), probe.down_env_drop.hex())


PROBE_THRESHOLDS = (eo.TrendThresholds(), eo.TrendThresholds(witness_step_nats=2.0, min_witnesses=7))


class TestArrayProbe:
    """probe_pair against the tuple-list probe it replaced: every report equal bit for bit."""

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("name", ["psi2/psi1", "psi3/psi0", "tmss/xi", "fine psi2/psi1"])
    def test_analytic_probe_matches_tuple_reference(self, probe_pairs, name, swap):
        pair = probe_pairs[name]
        if swap:
            pair = PairRatio(pair.b, pair.a)
        empty = np.arange(0)
        found = 0
        for window in probe_windows(pair):
            cw = ComparisonWindow(window, empty, empty.astype(float), pair)
            for thresholds in PROBE_THRESHOLDS:
                got = oscillation.probe_pair(cw, thresholds)
                assert report_bits(got) == report_bits(tuple_probe(cw, thresholds))
                found += oscillation.certificate_from_probe(got, window, thresholds) is not None
        assert found  # some windows give certificates, so the record lists are exercised

    @pytest.mark.parametrize("swap", [False, True])
    def test_materialized_probe_matches_tuple_reference(self, psi_family, tmss_match, swap):
        bare = [eo.make_spectrum(s.log_weights, s.log_tail_bound, {}) for s in (psi_family[2], psi_family[1])]
        exact = [eo.build_spectrum((0.6, 0.4)), eo.build_spectrum((0.5, 0.3, 0.2))]
        grids = [eo.tmss(0.6, 500), eo.tmss(0.4, 500)]
        cases = [(bare, None), (bare, (50, 1500)), (bare, (7, 9)), (bare, (3, 3)), (exact, None),
                 (grids, None), ([bare[0], tmss_match], None)]
        for (a, b), window in cases:
            if swap:
                a, b = b, a
            cw = oscillation.comparison_window(a, b, window)
            assert cw.pair is None
            for thresholds in PROBE_THRESHOLDS:
                got = oscillation.probe_pair(cw, thresholds)
                assert report_bits(got) == report_bits(tuple_probe(cw, thresholds))

    def test_nan_candidates_keep_the_python_envelope(self, probe_pairs):
        # a NaN is its neighbourhood's extreme; Python max and min skip it past the first value
        real = probe_pairs["psi2/psi1"]
        (up_ns, _), (down_ns, _) = oscillation._analytic_candidates(real, 0, real.max_index())
        holes = np.concatenate((up_ns[[5, 40]], down_ns[[7, 60]]))
        pair = SimpleNamespace(delta=real.delta, max_offset=real.max_offset, offset_gap=real.offset_gap,
                               max_index=real.max_index,
                               values=lambda n: np.where(np.isin(n, holes), np.nan, real.values(n)))
        cw = ComparisonWindow((0, real.max_index()), np.arange(0), np.zeros(0), pair)
        for thresholds in PROBE_THRESHOLDS:
            got = oscillation.probe_pair(cw, thresholds)
            assert math.isfinite(got.up_env_gain) and math.isfinite(got.down_env_drop)
            assert report_bits(got) == report_bits(tuple_probe(cw, thresholds))


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


class TestDistinctIndices:
    """The sort-and-mask code that replaced ``np.unique`` gives its arrays, bit for bit."""

    @given(st.lists(st.lists(st.integers(0, 40), max_size=30), max_size=6), st.integers(0, 2**60))
    def test_one_per_index_is_unique_with_first_index(self, parts, shift):
        # float indices as the probe makes them, past 2**53 too, with repeats inside and across parts
        ns_parts = [np.array(p, dtype=float) + float(shift) for p in parts]
        vs_parts = [np.arange(len(p), dtype=float) + 100.0 * i for i, p in enumerate(parts)]
        ns, vs = oscillation._one_per_index(ns_parts, vs_parts)
        want_ns, first = np.unique(np.concatenate([np.empty(0), *ns_parts]), return_index=True)
        assert ns.tobytes() == want_ns.tobytes()
        assert vs.tobytes() == np.concatenate([np.empty(0), *vs_parts])[first].tobytes()

    @given(st.lists(st.floats(-1e300, 1e300).map(lambda v: v + 0.0), max_size=60))  # -0.0 + 0.0 is 0.0
    def test_run_starts_keep_what_unique_keeps(self, values):
        x = np.sort(np.array(values, dtype=float))
        assert x[run_starts(x)].tobytes() == np.unique(x).tobytes()
