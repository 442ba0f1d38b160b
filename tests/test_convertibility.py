import functools
import math
import sys

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


def _padded_log_g(a, b):
    """ln g of both spectra padded with ln 0 to a common horizon: the reference for exact pairs."""
    ga, gb = a.log_g, b.log_g
    n = max(ga.size, gb.size)
    pad = lambda g: np.concatenate((g, np.full(n - g.size, -np.inf)))
    return pad(ga), pad(gb)


def _padded_locc(a, b):
    ga, gb = _padded_log_g(a, b)
    return bool(np.all(ga >= gb))


def _padded_probability(a, b):
    ga, gb = _padded_log_g(a, b)
    support = gb > -np.inf
    if np.any(ga[support] == -np.inf):
        return 0.0
    m = float(np.min(ga[support] - gb[support]))
    return 1.0 if m >= 0.0 else min(math.exp(m), math.nextafter(1.0, 0.0))


def _exact_pairs(seed=31):
    """Exact pairs of every rank order: random weights of ranks 1 to 40 (equal ranks, rank 1,
    a longer than b and b longer than a), each also against itself and against a flattened copy
    (a mix with the uniform weights of its rank), which majorizes one way."""
    rng = np.random.default_rng(seed)
    ranks = [1, 2, 3, 7, 40]
    for ra in ranks:
        for rb in ranks:
            for _ in range(4):
                wa, wb = rng.random(ra) ** 3 + 1e-3, rng.random(rb) ** 3 + 1e-3
                a, b = eo.build_spectrum(wa / wa.sum()), eo.build_spectrum(wb / wb.sum())
                flat = eo.build_spectrum(0.5 * wa / wa.sum() + 0.5 / ra)
                yield from ((a, b), (a, a), (a, flat), (flat, a))


class TestExactPairsAgainstPaddedTails:
    def test_bit_for_bit(self):
        seen = set()
        for a, b in _exact_pairs():
            want_locc, want_p = _padded_locc(a, b), _padded_probability(a, b)
            assert eo.locc_convertible(a, b) is want_locc
            assert eo.max_probability(a, b).hex() == want_p.hex()
            rep = eo.slocc_decide(a, b)
            assert rep.probability.hex() == want_p.hex()
            assert rep.window == (0, max(a.length, b.length))
            assert rep.evidence == {"forward": "rank", "backward": "rank"}
            ga, gb = _padded_log_g(a, b)
            both = (ga > -np.inf) & (gb > -np.inf)
            assert rep.log_epsilon_a_to_b.hex() == float(np.min(ga[both] - gb[both])).hex()
            assert rep.log_epsilon_b_to_a.hex() == float(-np.max(ga[both] - gb[both])).hex()
            seen.add((want_locc, 0.0 < want_p < 1.0, want_p == 0.0, (a.length > b.length) - (a.length < b.length)))
        # every outcome of both comparisons, under every rank order
        assert {(locc, rank) for locc, _, _, rank in seen} == {(t, r) for t in (True, False) for r in (-1, 0, 1)} - {(True, -1)}
        assert {(p_open, p_zero) for _, p_open, p_zero, _ in seen} == {(True, False), (False, True), (False, False)}

    def test_exact_against_truncated(self):
        # a violation inside the stored ranges is decisive; without one the truncated side is unsafe
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(12):
            w = rng.random(int(rng.integers(1, 12))) + 1e-3
            exact = eo.build_spectrum(w / w.sum())
            truncated = eo.tmss(float(rng.uniform(0.05, 0.95)), int(rng.integers(1, 30)))
            for a, b in ((exact, truncated), (truncated, exact)):
                m = min(a.log_g.size, b.log_g.size)
                violated = bool(np.any(a.log_g[:m] < b.log_g[:m]))
                if violated:
                    assert eo.locc_convertible(a, b) is False
                else:
                    with pytest.raises(TruncationUnsafe):
                        eo.locc_convertible(a, b)
                with pytest.raises(TruncationUnsafe):
                    eo.max_probability(a, b)
                seen.add((a is exact, violated))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}


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

    def test_overflowing_epsilon_reads_the_float_maximum(self):
        # g_a/g_b falls below e^-709 over this window, so its inverse has no float
        rep = eo.slocc_decide(eo.tmss(0.1, 400), eo.tmss(0.6, 400), window=(200, 300))
        assert rep.log_epsilon_b_to_a == pytest.approx(716.70, abs=0.01)
        assert rep.epsilon_b_to_a == sys.float_info.max
        assert rep.to_dict()["epsilon"]["b_to_a"] == sys.float_info.max

    @pytest.mark.parametrize("log_eps, eps", [
        (709.5, math.exp(709.5)),  # representable, though past 709
        (709.79, sys.float_info.max),  # past ln of the largest float, 709.7827
    ])
    def test_epsilon_is_exact_up_to_the_float_range(self, log_eps, eps):
        assert convertibility._safe_exp(log_eps) == eps

    def test_epsilon_covers_the_whole_window(self):
        # a one-index dip at an odd n in a window of more than 65,536
        # points: epsilon must see the dip, as the trend tests do
        a = eo.tmss(0.999, 90000)
        w = a.weights()
        e = (w[1000] - w[1001]) / 4
        lw = a.log_weights.copy()
        lw[1000], lw[1001] = math.log(w[1000] - e), math.log(w[1001] + e)
        b = eo.make_spectrum(lw, lw[-1] - 1.0)  # no metadata: its tail bound must lie below its last weight
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

    def test_rank_decided_pair_reports_its_trends(self):
        # the first 100 weights of a squeezed state, exact, against the
        # truncated state: rank decides, the trend tests read the window
        deep = eo.tmss(0.4, 500)
        exact = eo.make_spectrum(deep.log_weights[:100])
        rep = eo.slocc_decide(exact, deep)
        assert rep.verdict is Verdict.OneWayBtoA
        assert rep.evidence == {"forward": "rank", "backward": "rank"}
        assert rep.window == (0, 100)
        assert (rep.trend_forward, rep.trend_reverse) == (TrendClass.BoundedBelow, TrendClass.BoundedBelow)
        assert rep.witnesses is None

    # one MANIFEST pair per report grade (gen defaults: delta 1, r 1), its window,
    # and its (verdict, forward grade, backward grade)
    _GRADED_PAIRS = {
        "rank": (lambda: (eo.make_spectrum(eo.tmss(0.4, 500).log_weights[:100]), eo.tmss(0.4, 500)), None,
                 (Verdict.OneWayBtoA, "rank", "rank")),
        "witnesses": (lambda: (eo.psi_state(0, DELTA), eo.psi_state(1, DELTA)), None,
                      (Verdict.Incomparable, "witnesses", "witnesses")),
        "trend-asymptotic": (lambda: (eo.tmss(math.exp(-0.5), 200), eo.xi_state(150, DELTA, 200)), None,
                             (Verdict.Incomparable, "trend", "asymptotic")),
        "asymptotic-witnesses": (lambda: (eo.xi_state(1.37, DELTA, 2000), eo.psi_state(3, DELTA, 2000, r=0.5)),
                                 None, (Verdict.Incomparable, "asymptotic", "witnesses")),
        "stable-minimum": (lambda: (eo.tmss(0.6, 500), eo.tmss(0.4, 500)), None,
                           (Verdict.OneWayAtoB, "stable-minimum", "trend")),
        "stable-maximum": (lambda: (eo.tmss(0.1, 500), eo.tmss(0.6, 500)), (200, 300),
                           (Verdict.OneWayBtoA, "trend", "stable-maximum")),
        "insufficient": (lambda: (eo.psi_state(3, DELTA, 2000, r=2), eo.psi_state(3, DELTA, 2000, r=0.5)), None,
                         (Verdict.Undecided, "insufficient", "witnesses")),
    }

    @pytest.mark.parametrize("pair", list(_GRADED_PAIRS))
    def test_every_evidence_grade(self, pair):
        make, window, want = self._GRADED_PAIRS[pair]
        rep = eo.slocc_decide(*make(), window=window)
        assert (rep.verdict, rep.evidence["forward"], rep.evidence["backward"]) == want

    @pytest.mark.parametrize("pair", ["rank", "stored", "closed-form"])
    def test_trend_tests_run_once_per_decision(self, monkeypatch, psi_family, pair):
        deep = eo.tmss(0.4, 500)
        a, b = {
            "rank": (eo.make_spectrum(deep.log_weights[:100]), deep),
            "stored": (eo.tmss(0.6, 500), deep),
            "closed-form": (psi_family[2], psi_family[1]),
        }[pair]
        calls = []
        real = convertibility.trend_flags

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(convertibility, "trend_flags", counting)
        eo.slocc_decide(a, b)
        assert len(calls) == 1


@pytest.fixture(scope="module")
def oracle_members():
    """41 psi members on one grid: k = 0, and k = 1..4 at five r, each at its searched offset and at 10."""
    members = {(0, None, None): eo.psi_state(0, DELTA, 2000)}
    for k in range(1, 5):
        for r in (0.5, 1.0, 1.37, 2.0, 3.0):
            for offset in (None, 10.0):
                members[k, r, offset] = eo.psi_state(k, DELTA, 2000, r=r, offset=offset)
    return members


class TestExponentOracle:
    """Verdicts against the closed form's exponents (lo, hi): liminf ell = -inf iff lo < 0, limsup = +inf iff hi > 0."""

    def test_every_ordered_pair_agrees_with_the_exponents(self, oracle_members):
        wrong = []
        for ka, a in oracle_members.items():
            for kb, b in oracle_members.items():
                if ka == kb:
                    continue
                lo, hi = families.pair_ratio(a, b).exponents()
                rep = eo.slocc_decide(a, b)
                fwd, bwd = rep.evidence["forward"], rep.evidence["backward"]
                ok = [
                    # a trend or witness NO sees the limit the exponent gives; the exponent
                    # gives the other NOs, so no stable extreme stands against one
                    (fwd in ("trend", "witnesses", "asymptotic")) == (lo < 0),
                    (bwd in ("trend", "witnesses", "asymptotic")) == (hi > 0),
                    # the probe finds two-sided witnesses only where both limits diverge
                    lo < 0 < hi or eo.incomparability_certificate(a, b) is None,
                ]
                if not all(ok):
                    wrong.append((ka, kb, (lo, hi), rep.verdict.value, fwd, bwd, ok))
        assert wrong == []

    @pytest.mark.parametrize("swap", [False, True])
    def test_exponent_no_wins_over_a_stable_extreme(self, oracle_members, swap):
        # e(0) = 1.37 - 3 * 0.5 = -0.13: ell falls like -0.13 ln L at the peaks, under one nat
        # by ln y = 700, so the windowed minimum looks stable
        a, b = oracle_members[1, 1.37, None], oracle_members[3, 0.5, None]
        if swap:
            a, b = b, a
        rep = eo.slocc_decide(a, b)
        assert rep.verdict is Verdict.Incomparable and rep.witnesses is None
        assert rep.evidence == ({"forward": "witnesses", "backward": "asymptotic"} if swap
                                else {"forward": "asymptotic", "backward": "witnesses"})


@pytest.fixture
def form_calls(monkeypatch):
    """Every spectrum families.analytic_form is called on, in order."""
    calls = []
    real = families.analytic_form

    def counted(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(families, "analytic_form", counted)
    return calls


class TestFormOncePerSpectrum:
    def test_estimate_r_reads_each_form_once(self, form_calls):
        psi = eo.tmss(math.exp(-DELTA / 2), 2000)
        eo.estimate_r_bounds(psi, lambda r: eo.xi_state(r, DELTA, 2000), 1.0, 2.0, 21)
        assert len(form_calls) == 22  # psi once, each of the 21 members once
        assert sum(s is psi for s in form_calls) == 1

    def test_repeated_decisions_reuse_the_forms(self, form_calls):
        a, b = eo.psi_state(2, DELTA, 2000), eo.psi_state(1, DELTA, 2000)
        first = eo.slocc_decide(a, b)
        assert eo.slocc_decide(a, b).to_dict() == first.to_dict()
        assert len(form_calls) == 2


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

    @pytest.mark.parametrize("r, bound, verdict", [(2.5, 2.0, Verdict.OneWayAtoB), (0.5, 1.0, Verdict.OneWayBtoA)])
    def test_state_outside_the_span_pins_the_nearer_end(self, r, bound, verdict):
        # higher r converts to lower r, so a state above the sampled span
        # converts to every member and every member converts to one below it
        def gen(r):
            return eo.xi_state(r, DELTA, 10_000)

        est = eo.estimate_r_bounds(gen(r), gen, 1.0, 2.0, 5)
        assert est.r_minus == est.r_plus == bound
        assert [v for _, v in est.per_r] == [verdict] * 5
        assert est.undecided_band == ()

    def test_family_orientation_consistent(self):
        # spot check of the total order: higher r converts to lower r
        members = {r: eo.xi_state(r, DELTA, 3000) for r in (1.0, 1.5, 2.0)}
        for hi, lo in [(2.0, 1.5), (1.5, 1.0), (2.0, 1.0)]:
            rep = eo.slocc_decide(members[hi], members[lo])
            assert rep.verdict is Verdict.OneWayAtoB, (hi, lo, rep.verdict)

    def test_constant_family_pins_both_ends_at_r_min(self):
        # every member is the state itself: each converts both ways, so r_plus = r_min
        # and r_minus, with no vanishing liminf anywhere, is clamped down to it
        psi = eo.xi_state(1.5, DELTA, 2000)
        est = eo.estimate_r_bounds(psi, lambda r: psi, 1.0, 2.0, 5)
        assert est.r_minus == est.r_plus == 1.0
        assert [v for _, v in est.per_r] == [Verdict.TwoWay] * 5

    def test_reversed_estimate_refused(self):
        with pytest.raises(ValueError, match="r_minus must not exceed r_plus"):
            eo.MonotoneEstimate(2, 1, (), ())

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

    def test_members_are_not_rechecked(self, tmss_match, monkeypatch):
        # the constructor holds every condition but positivity, which only an exact member fails
        reports = []
        real = eo.spectrum.vidal_conditions
        monkeypatch.setattr(eo.spectrum, "vidal_conditions", lambda s: reports.append(s) or real(s))
        est = eo.estimate_r_bounds(tmss_match, lambda r: eo.xi_state(r, DELTA, 2000), 1.0, 2.0, 3)
        assert len(est.per_r) == 3
        assert reports == []

    @pytest.mark.parametrize("r_min, r_max", [(2.0, 1.0), (math.nan, 2.0), (1.0, math.nan),
                                              (-math.inf, 2.0), (1.0, math.inf)],
                             ids=["reversed", "nan-min", "nan-max", "inf-min", "inf-max"])
    def test_reversed_or_non_finite_range_refused(self, tmss_match, r_min, r_max):
        generated = []

        def gen(r):
            generated.append(r)
            return eo.xi_state(r, DELTA, 2000)

        with pytest.raises(ValueError, match="r_min <= r_max"):
            eo.estimate_r_bounds(tmss_match, gen, r_min, r_max, 5)
        assert generated == []

    def test_no_steps_refused(self, tmss_match):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            eo.estimate_r_bounds(tmss_match, lambda r: eo.xi_state(r, DELTA, 2000), 1.0, 2.0, 0)

    @pytest.mark.parametrize("r_max, steps, members", [
        (1.0, 3, [1.0]),
        (math.nextafter(1.0, 2.0), 4, [1.0, math.nextafter(1.0, 2.0)]),
    ], ids=["equal", "one-ulp"])
    def test_each_distinct_r_sampled_once(self, tmss_match, r_max, steps, members):
        generated = []

        def gen(r):
            generated.append(r)
            return eo.xi_state(r, DELTA, 2000)

        est = eo.estimate_r_bounds(tmss_match, gen, 1.0, r_max, steps)
        assert generated == members
        assert est.per_r == tuple((r, Verdict.Incomparable) for r in members)


@functools.lru_cache(maxsize=None)
def _xi_member(r, delta):
    return eo.xi_state(r, delta, 2000)


def _estimate_outcome(psi, delta, window):
    """The estimate of psi over xi members r in [1, 2] on grid step delta, or the error it raises."""
    try:
        return eo.estimate_r_bounds(psi, lambda r: _xi_member(r, delta), 1.0, 2.0, 5, window=window)
    except TruncationUnsafe as exc:  # both paths must fail alike where they fail
        return type(exc), str(exc)


def _without_metadata(s):
    return eo.make_spectrum(s.log_weights, s.log_tail_bound, {})


_rule_walk = convertibility._rule_walk


def _evidence_everywhere(cw, th, exponent_shortcut):
    """Reference member evidence: the whole rule walk at every step, as slocc_decide runs it."""
    return _rule_walk(cw, th, exponent_shortcut=False)


_ESTIMATE_TARGETS = {
    # squeezed states on the psi grid at three steps: lo = -r < 0 < hi = 1, all fast path
    **{f"tmss-d{d}": (lambda d=d: eo.tmss(math.exp(-d / 2), 2000), d) for d in (0.5, 1.0, 2.0)},
    # xi targets inside and on either side of the span: ties and one-sided exponents
    **{f"xi-r{r}": (lambda r=r: eo.xi_state(r, DELTA, 2000), DELTA) for r in (0.5, 1.5, 2.5)},
    **{f"psi{k}": (lambda k=k: eo.psi_state(k, DELTA, 2000), DELTA) for k in range(1, 5)},
    # no closed form on one side, and members on another grid step: no pair
    "formless": (lambda: _without_metadata(eo.tmss(math.exp(-DELTA / 2), 2000)), DELTA),
    "off-grid": (lambda: eo.tmss(math.exp(-DELTA / 2), 2000), 1.1),
    # an exact state of rank 30: the rank facts decide every member
    "exact": (lambda: eo.build_spectrum([2 ** -i for i in range(1, 30)] + [2 ** -29]), DELTA),
}


class TestEstimateFastPath:
    """estimate_r_bounds skips the trend tests and the probe exactly where the exponents settle both limits."""

    @pytest.mark.parametrize("window", [(0, 40), (0, 1000), None, (0, 10**80)],
                             ids=["w40", "w1000", "default", "w1e80"])
    @pytest.mark.parametrize("target", list(_ESTIMATE_TARGETS))
    def test_same_estimate_as_full_evidence_at_every_step(self, monkeypatch, target, window):
        make, delta = _ESTIMATE_TARGETS[target]
        psi = make()
        got = _estimate_outcome(psi, delta, window)
        monkeypatch.setattr(convertibility, "_rule_walk", _evidence_everywhere)
        want = _estimate_outcome(psi, delta, window)
        assert got == want  # MonotoneEstimate equality: per_r, undecided_band, r_minus and r_plus

    @staticmethod
    def _count_calls(monkeypatch):
        calls = {"probe_pair": 0, "trend_flags": 0}
        for name in calls:
            real = getattr(convertibility, name)

            def counted(*args, name=name, real=real, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(convertibility, name, counted)
        return calls

    def test_criterion_6_pass_runs_no_trend_test_or_probe(self, monkeypatch, tmss_match):
        calls = self._count_calls(monkeypatch)
        est = eo.estimate_r_bounds(tmss_match, lambda r: _xi_member(r, DELTA), 1.0, 2.0, 21)
        assert [v for _, v in est.per_r] == [Verdict.Incomparable] * 21
        assert calls == {"probe_pair": 0, "trend_flags": 0}

    def test_tie_and_one_sided_exponents_take_the_windowed_evidence(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        psi = eo.xi_state(1.5, DELTA, 2000)
        est = eo.estimate_r_bounds(psi, lambda r: _xi_member(r, DELTA), 1.0, 2.0, 5)
        # lo = 0 below r = 1.5 and hi = 0 above it; both at r = 1.5
        for r, _ in est.per_r:
            lo, hi = families.pair_ratio(psi, _xi_member(r, DELTA)).exponents()
            assert lo == 0 or hi == 0
        assert dict(est.per_r)[1.5] is Verdict.TwoWay
        assert calls == {"probe_pair": 5, "trend_flags": 5}


def _relabelled(s, key, change):
    meta = {**s.metadata, key: change(s.metadata[key])}
    return eo.make_spectrum(s.log_weights, s.log_tail_bound, meta)


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
    ("delta", lambda d: d * _BELOW_TOLERANCE),  # pair_ratio refuses steps FORM_RTOL cannot resolve
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
