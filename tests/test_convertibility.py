import math

import numpy as np
import pytest

import entorder as eo
from entorder import convertibility, families, oscillation
from entorder.convertibility import Verdict
from entorder.errors import InvalidFamily, TruncationUnsafe, ValidationError
from entorder.oscillation import TrendClass

DELTA = 1.0


def brute_tails(w, n):
    t = np.concatenate((np.cumsum(w[::-1])[::-1], [0.0]))
    return np.pad(t, (0, n - t.size))


def brute_probability(wa, wb):
    n = max(len(wa), len(wb)) + 1
    ta, tb = brute_tails(np.asarray(wa), n), brute_tails(np.asarray(wb), n)
    sup = tb > 0
    if np.any(ta[sup] == 0):
        return 0.0
    return min(1.0, float(np.min(ta[sup] / tb[sup])))


def brute_majorizes(wa, wb):
    n = max(len(wa), len(wb))
    ca = np.pad(np.cumsum(wa), (0, n - len(wa)), constant_values=np.sum(wa))
    cb = np.pad(np.cumsum(wb), (0, n - len(wb)), constant_values=np.sum(wb))
    return bool(np.all(ca <= cb + 1e-15))


def random_pairs(count, seed=20250810):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        ra, rb = rng.integers(1, 9), rng.integers(1, 9)
        wa = np.sort(rng.random(ra) + 1e-3)[::-1]
        wb = np.sort(rng.random(rb) + 1e-3)[::-1]
        yield wa / wa.sum(), wb / wb.sum()


class TestLocc:
    def test_bell_to_product(self):
        assert eo.locc_convertible(eo.build_spectrum((0.5, 0.5)), eo.build_spectrum((1.0,)))

    def test_skewed_to_bell_fails(self):
        assert not eo.locc_convertible(eo.build_spectrum((0.8, 0.2)), eo.build_spectrum((0.5, 0.5)))

    def test_partial_sums_oracle(self):
        a = eo.build_spectrum((0.4, 0.4, 0.2))
        b = eo.build_spectrum((0.5, 0.5))
        assert brute_majorizes([0.4, 0.4, 0.2], [0.5, 0.5])
        assert eo.locc_convertible(a, b)

    def test_truncated_needs_exactness(self):
        t = eo.tmss(0.5, 100)
        with pytest.raises(TruncationUnsafe):
            eo.locc_convertible(t, t)
        # but an in-window violation is still decisive
        assert not eo.locc_convertible(eo.tmss(0.4, 100), eo.tmss(0.6, 100))


class TestMaxProbability:
    def test_skewed_to_bell(self):
        p = eo.max_probability(eo.build_spectrum((0.8, 0.2)), eo.build_spectrum((0.5, 0.5)))
        assert p == pytest.approx(brute_probability([0.8, 0.2], [0.5, 0.5]), abs=1e-15)
        assert p == pytest.approx(0.4, abs=1e-15)

    def test_majorizing_pair_is_one(self):
        assert eo.max_probability(eo.build_spectrum((0.4, 0.4, 0.2)), eo.build_spectrum((0.5, 0.5))) == 1.0

    def test_rank_increase_impossible(self):
        r2 = eo.build_spectrum((0.6, 0.4))
        r3 = eo.build_spectrum((0.5, 0.3, 0.2))
        assert eo.max_probability(r2, r3) == 0.0

    def test_oracle_equivalence_seeded(self):
        for wa, wb in random_pairs(1000):
            a, b = eo.build_spectrum(wa), eo.build_spectrum(wb)
            p = eo.max_probability(a, b)
            assert abs(p - brute_probability(wa, wb)) <= 1e-12
            assert (p == 1.0) == eo.locc_convertible(a, b)

    def test_monotone_bound_property(self):
        pairs = [(wa, wb) for wa, wb in random_pairs(400, seed=99)]
        targets = [eo.build_spectrum(w) for w, _ in pairs[:10]]
        checked = 0
        for wa, wb in pairs:
            a, b = eo.build_spectrum(wa), eo.build_spectrum(wb)
            if not eo.locc_convertible(a, b):
                continue
            for t in targets:
                assert eo.max_probability(a, t) >= eo.max_probability(b, t) - 1e-15
            checked += 1
        assert checked > 5


class TestSloccDecide:
    def test_self_two_way(self):
        s = eo.tmss(0.5, 500)
        rep = eo.slocc_decide(s, s)
        assert rep.verdict is Verdict.TwoWay
        assert rep.log_epsilon_a_to_b == 0.0
        assert rep.epsilon_a_to_b == 1.0

    def test_tmss_one_way(self):
        a, b = eo.tmss(0.6, 600), eo.tmss(0.4, 600)
        rep = eo.slocc_decide(a, b, window=(0, 500))
        assert rep.verdict is Verdict.OneWayAtoB
        assert rep.trend_forward is TrendClass.DivergesUp
        assert rep.trend_reverse is TrendClass.DivergesDown
        rev = eo.slocc_decide(b, a, window=(0, 500))
        assert rev.verdict is Verdict.OneWayBtoA

    def test_epsilon_covers_the_whole_window(self):
        # a one-index dip at an odd n: the trend tests see every second
        # point of this window, epsilon must still see the dip
        a = eo.tmss(0.999, 90000)
        w = a.weights()
        e = (w[1000] - w[1001]) / 4
        lw = a.log_weights.copy()
        lw[1000], lw[1001] = math.log(w[1000] - e), math.log(w[1001] + e)
        b = eo.make_spectrum(lw, a.log_tail_bound, cut_certified=True)
        rep = eo.slocc_decide(a, b)
        lo, hi = rep.window
        assert hi - lo + 1 > 65536
        ell = a.log_g[lo:hi + 1] - b.log_g[lo:hi + 1]
        assert int(np.argmin(ell)) + lo == 1001
        assert rep.log_epsilon_a_to_b == float(np.min(ell)) < -1e-7

    def test_stored_window_built_once(self, monkeypatch):
        calls = []
        real = oscillation.comparison_window

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(oscillation, "comparison_window", counting)
        monkeypatch.setattr(convertibility, "comparison_window", counting)
        rep = eo.slocc_decide(eo.tmss(0.6, 600), eo.tmss(0.4, 600))
        assert rep.verdict is Verdict.OneWayAtoB
        assert len(calls) == 1

    def test_pair_resolved_once_per_decision(self, monkeypatch, psi_family, tmss_match):
        calls = []
        real = families.pair_ratio

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        for module in (families, oscillation, convertibility):
            monkeypatch.setattr(module, "pair_ratio", counting)
        eo.slocc_decide(psi_family[2], psi_family[1])
        eo.incomparability_certificate(psi_family[2], psi_family[1])
        assert len(calls) == 2
        eo.estimate_r_bounds(tmss_match, lambda r: eo.xi_state(r, DELTA, 2000), 1.0, 2.0, 3)
        assert len(calls) == 2 + 3

    def test_psi_pair_incomparable(self, psi_family):
        rep = eo.slocc_decide(psi_family[2], psi_family[1])
        assert rep.verdict is Verdict.Incomparable
        assert rep.witnesses is not None
        eo.verify_certificate(rep.witnesses, psi_family[2], psi_family[1])

    def test_mirrored_verdicts(self, psi_family, tmss_match):
        cases = [
            (psi_family[1], psi_family[0]),
            (psi_family[3], psi_family[2]),
            (eo.tmss(0.6, 600), eo.tmss(0.4, 600)),
            (tmss_match, tmss_match),
            (psi_family[2], tmss_match),
        ]
        mirror = {
            Verdict.OneWayAtoB: Verdict.OneWayBtoA,
            Verdict.OneWayBtoA: Verdict.OneWayAtoB,
        }
        for a, b in cases:
            va = eo.slocc_decide(a, b).verdict
            vb = eo.slocc_decide(b, a).verdict
            assert vb is mirror.get(va, va)

    def test_exact_pairs_by_rank(self):
        bell = eo.build_spectrum((0.5, 0.5))
        skew = eo.build_spectrum((0.8, 0.2))
        r3 = eo.build_spectrum((0.5, 0.3, 0.2))
        assert eo.slocc_decide(bell, skew).verdict is Verdict.TwoWay
        assert eo.slocc_decide(bell, skew).probability == 1.0
        assert eo.slocc_decide(skew, bell).probability == pytest.approx(0.4, abs=1e-15)
        assert eo.slocc_decide(r3, bell).verdict is Verdict.OneWayAtoB
        assert eo.slocc_decide(bell, r3).verdict is Verdict.OneWayBtoA

    def test_psi_vs_matching_tmss_incomparable(self, psi_family, tmss_match):
        rep = eo.slocc_decide(psi_family[1], tmss_match)
        assert rep.verdict is Verdict.Incomparable

    def test_small_exact_vs_truncated_by_rank(self):
        small = eo.build_spectrum([2 ** -i for i in range(1, 30)] + [2 ** -29])
        deep = eo.tmss(0.5, 1000)
        rep = eo.slocc_decide(small, deep)
        assert rep.verdict is Verdict.OneWayBtoA
        assert rep.evidence == {"forward": "rank", "backward": "rank"}
        assert eo.slocc_decide(deep, small).verdict is Verdict.OneWayAtoB


class TestEstimateRBounds:
    def test_intra_family_pinpoints_r(self):
        ref = eo.xi_state(1.5, DELTA, 4000)

        def gen(r):
            return eo.xi_state(r, DELTA, 4000)

        est = eo.estimate_r_bounds(ref, gen, 1.0, 2.0, 11)
        assert est.r_minus == pytest.approx(1.5, abs=0.1 + 1e-12)
        assert est.r_plus == pytest.approx(1.5, abs=0.1 + 1e-12)
        assert est.r_minus <= est.r_plus
        verdicts = dict(est.per_r)
        assert verdicts[1.5] is Verdict.TwoWay

    def test_family_orientation_consistent(self):
        # spot check of the total order: higher r converts to lower r
        members = {r: eo.xi_state(r, DELTA, 3000) for r in (1.0, 1.5, 2.0)}
        for hi, lo in [(2.0, 1.5), (1.5, 1.0), (2.0, 1.0)]:
            rep = eo.slocc_decide(members[hi], members[lo])
            assert rep.verdict is Verdict.OneWayAtoB, (hi, lo, rep.verdict)

    def test_small_window_degrades_to_span(self, tmss_match):
        def gen(r):
            return eo.xi_state(r, DELTA, 3000)

        est = eo.estimate_r_bounds(tmss_match, gen, 1.0, 2.0, 3, window=(0, 40))
        assert est.undecided_band == (1.0, 1.5, 2.0)
        assert est.r_minus == 1.0
        assert est.r_plus == 2.0

    def test_invalid_family_rejected(self, tmss_match):
        def gen(r):
            return eo.build_spectrum((0.6, 0.4))

        with pytest.raises(InvalidFamily):
            eo.estimate_r_bounds(tmss_match, gen, 1.0, 2.0, 3)


def _relabelled(s, key, change):
    meta = {**s.metadata, key: change(s.metadata[key])}
    return eo.make_spectrum(s.log_weights, s.log_tail_bound, meta, cut_certified=True)


_BELOW_TOLERANCE = 1 + 1e-12  # moves ln g by less than FORM_RTOL: the check must accept it


@pytest.mark.parametrize("key, change", [
    ("k", lambda k: k + 1),
    ("k", lambda k: k - 1),
    ("r", lambda r: 1.5 * r),
    ("r", lambda r: r * (1 + 1e-6)),
    ("r", lambda r: r * _BELOW_TOLERANCE),
    ("offset", lambda a: a + 1.0),
    ("offset", lambda a: a * (1 + 1e-6)),
    ("offset", lambda a: a * _BELOW_TOLERANCE),
    ("delta", lambda d: 1.5 * d),
    ("delta", lambda d: d * (1 + 1e-6)),
    pytest.param("delta", lambda d: d * _BELOW_TOLERANCE, marks=pytest.mark.xfail(
        strict=True, reason="pair_ratio compares grid steps exactly, so the pair loses its "
        "continuation and the verdict falls to Undecided")),
], ids=["k+1", "k-1", "r*1.5", "r*(1+1e-6)", "r*(1+1e-12)", "offset+1", "offset*(1+1e-6)",
        "offset*(1+1e-12)", "delta*1.5", "delta*(1+1e-6)", "delta*(1+1e-12)"])
@pytest.mark.parametrize("member", ["psi2", "xi"])
def test_edited_metadata_is_refused_or_harmless(psi_family, member, key, change):
    s, partner = (psi_family[2], psi_family[1]) if member == "psi2" else (eo.xi_state(1.5, DELTA, 2000), psi_family[0])
    want = eo.slocc_decide(s, partner).verdict
    edited = _relabelled(s, key, change)
    try:
        got = eo.slocc_decide(edited, partner).verdict
    except ValidationError:
        return
    assert got is want
