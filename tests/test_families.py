import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import entorder as eo
from entorder import families
from entorder.errors import ConditionViolated, OffsetNotFound, ParameterError, QOutOfRange
from entorder.families import PairRatio, analytic_form, pair_ratio
from entorder.numutil import log1mexp

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


class TestInputChecks:
    @pytest.mark.parametrize("call, message", [
        (lambda: eo.find_offset(1, grid_step=0), "grid_step and horizon must be positive"),
        (lambda: eo.discretize(eo.AnalyticForm(1, 1.0, 2.0, DELTA), 0), "need at least one stored weight"),
        (lambda: eo.tmss(0.5, 0), "need at least one stored weight"),
    ], ids=["find_offset-grid_step-0", "discretize-n-0", "tmss-n-0"])
    def test_refused_with_value_error(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @staticmethod
    def count_work(monkeypatch):
        """Names of the offset searches, condition scans and member samplings run, in order."""
        calls = []
        for name in ("find_offset", "_first_clean", "_sample"):
            real = getattr(families, name)
            monkeypatch.setattr(families, name, lambda *a, real=real, name=name, **kw: calls.append(name) or real(*a, **kw))
        return calls

    @pytest.mark.parametrize("call", [
        lambda: eo.AnalyticForm(1, math.nan, 2.0, DELTA),
        lambda: eo.AnalyticForm(-1, 1.0, 2.0, DELTA),
        lambda: eo.AnalyticForm(10**400, 1.0, 2.0, DELTA),
        lambda: eo.AnalyticForm(1, 10**400, 2.0, DELTA),
        lambda: families.profile(0.0, 2.0),
        lambda: eo.AnalyticForm(1, 0.0, 2.0, DELTA),
        lambda: eo.AnalyticForm(1, 1.0, 2.0, 0.0),
        lambda: eo.AnalyticForm(0, 1.0, -1.0, DELTA),
        lambda: eo.AnalyticForm(1, 1.0, 1.0, DELTA),
        lambda: eo.find_offset(1, grid_step=0.0),
        lambda: eo.find_offset(1, horizon=math.inf),
        lambda: eo.find_offset(1, margin=-0.1),
        lambda: eo.tmss(0.0, 0),
        lambda: eo.tmss(1.0),
        lambda: eo.discretize(eo.AnalyticForm(1, 1.0, 2.0, DELTA), 0),
        lambda: eo.xi_state(1.5, DELTA, 0),
        lambda: eo.xi_state(1.5, 1e308, 10),
        lambda: eo.psi_state(1, DELTA, 10**400),
        lambda: eo.xi_state(1.5, DELTA, 10, offset=2.0, grid_step=0.0),
        lambda: eo.psi_state(0, DELTA, 10, margin=-1.0),
        lambda: eo.estimate_r_bounds(eo.tmss(0.5, 100), lambda r: eo.xi_state(r, DELTA, 100), 2.0, 1.0, 3),
        lambda: eo.estimate_r_bounds(eo.tmss(0.5, 100), lambda r: eo.xi_state(r, DELTA, 100), 1.0, 2.0, 0),
        lambda: eo.estimate_r_bounds(eo.tmss(0.5, 100), lambda r: eo.xi_state(r, DELTA, 100), 0.0, 2.0, 3),
        lambda: eo.oscillation.comparison_window(eo.tmss(0.5, 100), eo.tmss(0.4, 100), (5, 1)),
        lambda: eo.TrendThresholds(drift_nats=0.0),
        lambda: eo.TrendThresholds(drift_nats=math.nan),
        lambda: eo.TrendThresholds(witness_step_nats=0.5),
        lambda: eo.TrendThresholds(min_witnesses=3),
    ], ids=["form-nan", "form-k", "form-k-huge", "form-r-huge", "profile-r-0", "form-r", "form-delta", "form-offset", "form-offset-1", "grid_step",
            "horizon-inf", "margin", "tmss-q-0-n-0", "tmss-q", "discretize-n", "xi-n", "xi-span", "psi-n-huge",
            "grid_step-at-offset", "margin-at-k-0", "r-range", "steps", "r-min-0", "window", "drift", "drift-nan",
            "witness-step", "min-witnesses"])
    def test_parameter_refused_before_any_work(self, monkeypatch, call):
        # tmss(0.0, 0) no longer returns the product state, and xi_state(1.5, 1.0, 0) runs no offset search
        calls = self.count_work(monkeypatch)
        with pytest.raises(eo.ParameterError) as err:
            call()
        assert isinstance(err.value, ValueError)
        assert calls == []

    def test_scan_cap_is_not_a_parameter_error(self):
        # an internal limit, not a caller's value: a plain ValueError (1.1e13 points to scan)
        with pytest.raises(ValueError, match="lattice points") as err:
            eo.psi_state(1, 1e10, 10, margin=1.0)
        assert not isinstance(err.value, eo.ParameterError)


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
        with pytest.raises(ParameterError):
            eo.eval_p(1.0, 1.0)
        with pytest.raises(ParameterError):
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


# x from just above 1 to 1e300: near 1, L = ln x is tiny and 1/L dominates
PROFILE_X = np.concatenate([1.0 + np.geomspace(1e-12, 1.0, 120), np.geomspace(2.5, 1e300, 480)])


class TestProfile:
    @pytest.mark.parametrize("r", [0.5, 1.0, 1.37, 2.0, 3.0, 4.0])
    def test_equals_the_value_of_eval_p(self, r):
        got, want = families.profile(r, PROFILE_X), eo.eval_p(r, PROFILE_X)[0]
        assert got.shape == PROFILE_X.shape
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
        for x in PROFILE_X[::7].tolist():
            p = families.profile(r, x)
            assert type(p) is float and p.hex() == eo.eval_p(r, x)[0].hex()

    @pytest.mark.parametrize("r, x, error", [
        (0.0, 2.0, ParameterError), (-1.0, 2.0, ParameterError), (math.nan, 2.0, ParameterError),
        (1.0, 1.0, ParameterError), (1.0, 0.5, ParameterError), (1.0, np.array([2.0, 1.0]), ParameterError),
    ])
    def test_refuses_what_eval_p_refuses(self, r, x, error):
        for f in (families.profile, eo.eval_p):
            with pytest.raises(error) as info:
                f(r, x)
            assert type(info.value) is error

    @pytest.mark.parametrize("k, r, offset, delta", [
        (1, 1.0, 2.5, 1.0), (2, 1.37, 7.25, 0.005), (4, 2.0, 1.01, 1.0), (3, 4.0, 3.0, 1e-3),
    ])
    def test_analytic_form_values_unchanged(self, k, r, offset, delta):
        # the reference builds ln g and ln d on eval_p, as they were before profile existed
        form = eo.AnalyticForm(k, r, offset, delta)
        n = np.concatenate([np.arange(0.0, 2001.0), np.geomspace(2001.0, 1e300, 400)])
        log_g = -delta * n + k * (np.log(eo.eval_p(r, delta * n + offset)[0]) - math.log(eo.eval_p(r, offset)[0]))
        x = delta * n[:2001]
        log_d = -x + k * np.log(eo.eval_p(r, x + offset)[0])
        for got, want in ((form.log_g(n), log_g), (form.log_d(x), log_d)):
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


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


def full_scan(k, r, base, step, first, last, W, margin):
    """_first_clean by the plain lattice walk: every point evaluated, no y* and no cells."""
    j = i = first
    while j <= last:
        stop = min(i + 100_000, j + W + 1)
        p, M, C = families._profile_conditions(k, r, base + np.arange(i, stop, dtype=float) * step)
        bad = np.flatnonzero(~((p > 0) & (M > margin) & (C >= 0)))
        if bad.size:
            j = i + int(bad[-1]) + 1
        elif stop == j + W + 1:
            return j
        i = stop
    return None


def cell_indices(cells):
    """Every lattice index inside the proven cells (a, b), end points included, once each."""
    a, b = cells
    idx = np.sort(np.concatenate([np.arange(x, y + 1) for x, y in zip(a.tolist(), b.tolist())] or [[]]))
    return idx[np.diff(idx, prepend=-1) != 0]  # np.unique, whose hashing takes seconds on millions


def assert_covered(k, r, margin, base, step, first, stop, points):
    """Every index of [first, stop) was evaluated (its float point is in points), lies in a proven
    cell, or lies at or past y*; and no evaluated point lies in a proven cell."""
    end = min(families._cut_index(k, r, margin, base, step), stop)
    proven = cell_indices(families._proven_cells(k, r, margin, base, step, first, end))
    idx = np.arange(first, end)
    evaluated = np.isin(base + idx * step, points)
    assert not np.any(evaluated & np.isin(idx, proven))
    assert np.all(evaluated | np.isin(idx, proven))


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

    @staticmethod
    def cells_from(edges, flags, first, end):
        """Proven cells (a, b) between consecutive drawn edges whose flag is set, clipped to [first, end)."""
        edges = sorted(e for e in edges if first <= e < end)
        cells = [(a, b) for (a, b), keep in zip(zip(edges, edges[1:]), flags) if keep]
        return np.array([a for a, _ in cells], dtype=np.int64), np.array([b for _, b in cells], dtype=np.int64)

    @given(
        bad=st.sets(st.integers(0, 60), max_size=12),
        first=st.integers(0, 20),
        span=st.integers(-2, 25),
        W=st.integers(0, 10),
        chunk=st.integers(1, 8),
        cut=st.one_of(st.none(), st.integers(0, 80)),
        edges=st.sets(st.integers(0, 80), max_size=12),
        flags=st.lists(st.booleans(), max_size=12),
    )
    # a block ends just below the cut, on the one failing point left
    @example(bad={3}, first=0, span=10, W=5, chunk=3, cut=4, edges=set(), flags=[])
    # proven cells [2, 5] and [5, 9] hide the failures at 4 and 5: once 0 and 1 are
    # evaluated, candidate 2's window 2..8 lies in them and 12 is never reached
    @example(bad={1, 4, 5, 12}, first=0, span=20, W=6, chunk=2, cut=None, edges={2, 5, 9}, flags=[True, True])
    def test_first_clean_on_synthetic_failures(self, bad, first, span, W, chunk, cut, edges, flags):
        # lattice point i is y = i (base 0, step 1); M fails exactly on `bad`,
        # y* = cut makes every index from `cut` on clean unevaluated, and the
        # drawn proven cells make every index inside them clean unevaluated
        calls = []

        def conditions(k, r, y):
            calls.append(y)
            return np.ones_like(y), np.where(np.isin(y, list(bad)), -1.0, 1.0), np.ones_like(y)

        last = first + span
        y_star = math.inf if cut is None else float(cut)
        seen = []

        def proven_cells(k, r, margin, base, step, lo, end):
            seen.append((lo, end))
            return self.cells_from(edges, flags, lo, end)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(families, "_profile_conditions", conditions)
            mp.setattr(families, "EVAL_BLOCK", chunk)
            mp.setattr(families, "_y_star", lambda k, r, margin: y_star)
            mp.setattr(families, "_proven_cells", proven_cells)
            got = families._first_clean(1, 1.0, 0.0, 1.0, first, last, W, 0.0)
        proven = set()
        for lo, end in seen:
            proven |= set(cell_indices(self.cells_from(edges, flags, lo, end)).tolist())
        failing = {i for i in bad if i < y_star and i not in proven}
        expected = next(
            (j for j in range(first, last + 1) if not failing & set(range(j, j + W + 1))), None
        )
        assert got == expected
        points = np.concatenate(calls) if calls else np.zeros(0)
        assert np.unique(points).size == points.size  # each point evaluated once
        assert all(c.size <= chunk for c in calls)
        assert points.size == 0 or points.max() <= last + W
        assert points.size == 0 or points.max() < y_star  # nothing at or past the cut
        assert not proven & set(points.tolist())  # nothing inside a proven cell

    @staticmethod
    def first_clean_under_cap(monkeypatch, first, last, W, cut, cells, refused):
        # lattice point i is y = i; every point is clean, and at most 10 may be evaluated
        calls = []

        def conditions(k, r, y):
            calls.append(y)
            return np.ones_like(y), np.ones_like(y), np.ones_like(y)

        y_star = math.inf if cut is None else float(cut)
        proven = np.array([a for a, _ in cells], dtype=np.int64), np.array([b for _, b in cells], dtype=np.int64)
        monkeypatch.setattr(families, "_profile_conditions", conditions)
        monkeypatch.setattr(families, "_y_star", lambda k, r, margin: y_star)
        monkeypatch.setattr(families, "_proven_cells", lambda *args: proven)
        monkeypatch.setattr(families, "MAX_SCAN_POINTS", 10)
        if refused:
            with pytest.raises(ValueError, match=r"may evaluate 11 lattice points, more than 1e\+01"):
                families._first_clean(1, 1.0, 0.0, 1.0, first, last, W, 0.0)
            assert not calls
        else:
            assert families._first_clean(1, 1.0, 0.0, 1.0, first, last, W, 0.0) == first
            assert sum(c.size for c in calls) <= 10

    @pytest.mark.parametrize("first, last, W, cut, refused", [
        (0, 0, 9, None, False),  # 10 points, the cap
        (0, 0, 10, None, True),
        (5, 6, 9, None, True),  # the window of candidate 6 ends at index 16
        (3, 3, 10**6, 13, False),  # points from the cut on are not counted
        (3, 3, 10**6, 14, True),
    ])
    def test_scan_past_the_cap_refused_before_evaluating(self, monkeypatch, first, last, W, cut, refused):
        self.first_clean_under_cap(monkeypatch, first, last, W, cut, [], refused)

    @pytest.mark.parametrize("W, cells, refused", [
        (20, [(3, 13)], False),  # 21 points, the 11 of a proven cell not counted
        (20, [(3, 8), (8, 12)], True),  # cells that meet share their end point 8
        (20, [(3, 8), (8, 13)], False),
        (21, [(3, 8), (8, 13)], True),
    ])
    def test_points_in_proven_cells_are_not_counted(self, monkeypatch, W, cells, refused):
        self.first_clean_under_cap(monkeypatch, 0, 0, W, None, cells, refused)

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
        # the found window, offset/0.01 + 0..200100, is evaluated or proven
        # (in a cell or past y*) at every point, and no point is both
        m = round(spec.metadata["offset"] / 0.01)
        assert_covered(2, 1.0, 0.0, 0.0, 0.01, m, m + 200_101, points)
        assert points.max() < m * 0.01 + 2001

    def test_finer_check_grid_is_scanned(self, scanned, monkeypatch):
        # delta 0.005 checks on step 0.005, the offset search on step 0.01:
        # the check grid is scanned after the search, each of its points
        # evaluated or proven
        checks = []
        real = families._first_clean

        def first_clean(k, r, base, step, first, last, W, margin):
            before = len(scanned)
            got = real(k, r, base, step, first, last, W, margin)
            checks.append((base, step, first, last, W, scanned[before:]))
            return got

        monkeypatch.setattr(families, "_first_clean", first_clean)
        spec = eo.psi_state(1, 0.005, 2000)
        (search, check) = checks
        assert search[1] == 0.01
        base, step, first, last, W, calls = check
        assert (base, step, first, last, W) == (spec.metadata["offset"], 0.005, 0, 0, math.ceil(0.005 * 2001 / 0.005))
        assert calls
        assert_covered(1, 1.0, 0.0, base, step, 0, W + 1, np.concatenate(calls))

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


def mp_conditions(k, r, y):
    """p, M and C at y to 50 digits, from p_r written in L = ln y and the chain rule."""
    with mpmath.workdps(50):
        y, r = mpmath.mpf(y), mpmath.mpf(r)
        L = mpmath.log(y)
        c, s = mpmath.cos_sin(L)
        Lr = L**r
        # p(L) and its first two L-derivatives; d/dy = (d/dL) / y
        f = Lr * (s + 1) + 1 / L
        f1 = r * Lr / L * (s + 1) + Lr * c - L**-2
        f2 = r * (r - 1) * Lr / L**2 * (s + 1) + 2 * r * Lr / L * c - Lr * s + 2 * L**-3
        u = f1 / (y * f)
        w = (f2 - f1) / (y * y * f)
        M = 1 - k * u
        return f, M, M * M + k * (w - u * u)


CUT_CASES = [(k, r, m) for k in (1, 2, 3, 4) for r in (0.5, 1.0, 1.37, 2.0, 3.0) for m in (0.0, 0.2)]


class TestCutOff:
    """y*: past it the conditions are proven, below it the lattice is scanned."""

    @pytest.mark.parametrize("k,r,margin", CUT_CASES)
    def test_bound_holds_at_50_digits(self, k, r, margin):
        y_star = families._y_star(k, r, margin)
        rng = np.random.default_rng(k * 100 + round(r * 10) + round(margin * 10))
        for L in [math.log(y_star), *rng.uniform(math.log(y_star), 700.0, 30)]:
            _, M, C = mp_conditions(k, r, mpmath.exp(L))
            assert M > margin and C >= 0, (L, M, C)

    @pytest.mark.parametrize("k,r,margin", CUT_CASES)
    def test_float_conditions_pass_past_the_cut(self, k, r, margin):
        y_star = families._y_star(k, r, margin)
        lattice = y_star + np.arange(100_001) * 0.01
        geometric = np.geomspace(y_star, math.exp(700.0), 20_000)
        for y in (lattice, geometric):
            p, M, C = families._profile_conditions(k, r, y)
            assert np.all((p > 0) & (M > margin) & (C >= 0))

    def test_largest_finite_exponent_stays_finite_in_float(self):
        # r = 105 is the largest integer r with a cut-off below e^700; its float
        # conditions must not overflow anywhere up to the float range's end
        y_star = families._y_star(1, 105.0, 0.0)
        assert y_star < math.exp(700.0)
        p, M, C = families._profile_conditions(1, 105.0, np.geomspace(y_star, 1e308, 2000))
        assert np.all((p > 0) & (M > 0) & (C >= 0))

    @pytest.mark.parametrize("k,r,margin", [(1, 400.0, 0.0), (4, 400.0, 0.2), (1, 106.0, 0.0),
                                            (1, 1.0, 1.0), (4, 2.0, 1.5), (1, 1.0, 1.0 - 1e-7)])
    def test_no_cut_off_is_inf(self, k, r, margin):
        assert families._y_star(k, r, margin) == math.inf

    def test_cut_index_is_the_first_float_point_at_or_past_y_star(self, monkeypatch):
        # y* on a float lattice point and one ulp either side of it; the
        # estimate ceil((y* - base) / step) misses the first index both ways
        misses = set()
        for base, step in [(0.0, 0.01), (1.01, 0.002), (3.7, 0.3), (101.3, 0.07)]:
            lattice = base + np.arange(600, dtype=float) * step
            for point in lattice[:500]:
                for y in (np.nextafter(point, -np.inf), point, np.nextafter(point, np.inf)):
                    y = float(y)
                    monkeypatch.setattr(families, "_y_star", lambda k, r, margin: y)
                    expected = int(np.searchsorted(lattice, y, side="left"))
                    assert families._cut_index(1, 1.0, 0.0, base, step) == expected, (base, step, y)
                    estimate = max(0, math.ceil((y - base) / step))
                    misses.add((estimate > expected) - (estimate < expected))
        assert misses == {-1, 0, 1}  # both corrections were needed

    @pytest.mark.parametrize("k,r,margin", CUT_CASES + [(1, 105.0, 0.0), (4, 50.0, 0.2), (1, 0.01, 0.0)])
    def test_cut_is_proven_within_its_width_above_the_full_bisection(self, k, r, margin):
        lo, hi = r + 1.0, families.LOG_ARG_CAP  # the same bracket, bisected to the last ulp
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if families._proven_past(k, r, margin, mid) else (mid, hi)
        y_star = families._y_star(k, r, margin)
        assert families._proven_past(k, r, margin, math.log(y_star))
        assert math.exp(hi) <= y_star <= math.exp(hi + families.Y_STAR_WIDTH)

    @pytest.mark.parametrize("k,r,table", [(1, 1.0, 47), (4, 1.0, 255), (1, 2.0, 1075), (4, 2.0, 5720)])
    def test_matches_the_roadmap_table(self, k, r, table):
        assert families._y_star(k, r, 0.0) == pytest.approx(table, rel=0.02)

    @pytest.mark.parametrize("margin", [0.0, 0.2])
    @pytest.mark.parametrize("r", [1.0, 1.37, 2.0, 3.0, 4.0, 6.0, 50.0, 100.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_search_equals_the_full_scan(self, k, r, margin):
        # find_offset for a delta = 1, n = 2000 member against the plain lattice walk
        W = math.ceil(DELTA * 2001 / 0.01)
        m = full_scan(k, r, 0.0, 0.01, 101, 10**6, W, margin)
        assert eo.find_offset(k, r, 0.01, DELTA * 2001, margin) == m * 0.01

    @pytest.mark.parametrize("offset", [None, 3.0])
    @pytest.mark.parametrize("delta", [0.002, 0.005])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_check_equals_the_full_check(self, k, delta, offset):
        # discretize's check at a searched or a given offset (3.0 fails for k = 4),
        # over a span that holds y*, against the plain lattice walk
        n = 150_000
        if offset is None:
            offset = eo.find_offset(k, 1.0, 0.01, delta * (n + 1))
        assert families._y_star(k, 1.0, 0.0) < offset + delta * (n + 1)
        form = eo.AnalyticForm(k, 1.0, offset, delta)
        try:
            eo.discretize(form, n)
            passed = True
        except ConditionViolated:
            passed = False
        full = full_scan(k, 1.0, offset, delta, 0, 0, math.ceil(delta * (n + 1) / delta), 0.0)
        assert passed == (full is not None) == (not (k == 4 and offset == 3.0))


CELL_CASES = [(k, r, m) for k in (1, 2, 3, 4) for r in (0.5, 1.0, 1.37, 2.0, 3.0, 4.0, 6.0) for m in (0.0, 0.2)]


def search_cells(k, r, margin):
    """The proven cells of find_offset's lattice (step 0.01, from the first candidate above 1) below y*."""
    return families._proven_cells(k, r, margin, 0.0, 0.01, 101, families._cut_index(k, r, margin, 0.0, 0.01))


class TestCells:
    """Below y*: cells whose closed-form enclosure proves the conditions at every real y in them."""

    @pytest.mark.parametrize("k,r,margin", CELL_CASES)
    def test_enclosure_holds_at_50_digits(self, k, r, margin):
        # 50-digit values at both ends and a random point of proven cells: the
        # thinnest ones by M and by C, those next to an unproven run, and a random
        # sample (each 50-digit point takes about 0.3 ms, so not all ~1,000 cells)
        a, b = search_cells(k, r, margin)
        y = 0.01 * np.array((a, b), dtype=float)
        p, M, C = families._cell_bounds(k, r, y)
        assert np.all((p > 0) & (M > margin) & (C > 0))
        rng = np.random.default_rng(k * 1000 + round(r * 100) + round(margin * 10))
        edge = np.flatnonzero(np.diff(a) != (b - a)[:-1])  # a proven cell whose successor starts apart
        pick = np.unique(np.concatenate([np.argsort(M)[:8], np.argsort(C)[:8], edge, edge + 1, [0, a.size - 1],
                                         rng.choice(a.size, 16, replace=False)]))
        for c in pick.tolist():
            lo, hi = float(y[0, c]), float(y[1, c])
            for point in (lo, hi, lo + (hi - lo) * rng.random()):
                mp_p, mp_M, mp_C = mp_conditions(k, r, point)
                assert mp_M > margin and mp_C >= 0, (k, r, margin, point)
                assert p[c] <= mp_p and M[c] <= mp_M and C[c] <= mp_C, (k, r, margin, point)

    @pytest.mark.parametrize("k,r,margin", CELL_CASES)
    def test_proven_points_evaluate_clean_in_float(self, k, r, margin):
        # every lattice point of every proven cell where they number under 2e6,
        # else both ends and 8 random points of each cell
        a, b = search_cells(k, r, margin)
        if int(np.sum(b - a + 1)) < 2_000_000:
            idx = cell_indices((a, b))
        else:
            rng = np.random.default_rng(k * 1000 + round(r * 100))
            idx = np.concatenate([a, b, (a[:, None] + rng.random((a.size, 8)) * (b - a)[:, None]).astype(np.int64).ravel()])
        for block in np.array_split(idx, max(1, idx.size // 100_000)):
            p, M, C = families._profile_conditions(k, r, block * 0.01)
            assert np.all((p > 0) & (M > margin) & (C >= 0))

    @pytest.mark.parametrize("margin", [0.0, 0.9])
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("r", [50.0, 100.0])
    def test_proven_points_evaluate_clean_in_float_at_large_r(self, r, k, margin):
        # Below y*, u and w are O(1) and L^r (sin L + 1) loses relative accuracy
        # near each trough of sin L, more so as y grows. Every lattice point of
        # every proven cell: on the search lattice up to the default a_max and
        # horizon 100, on a check grid across the trough at e^(7 pi/2) ~ 59,874,
        # and on a coarse lattice across the one at e^(11 pi/2) ~ 3.2e7
        for base, step, first, stop in [(0.0, 0.01, 101, 10**6 + 10**4 + 1), (50_000.0, 0.01, 0, 2_000_000),
                                        (3.0e7, 1.0, 0, 2_000_000)]:
            end = min(families._cut_index(k, r, margin, base, step), stop)
            idx = cell_indices(families._proven_cells(k, r, margin, base, step, first, end))
            assert idx.size > (end - first) // 2
            for block in np.array_split(idx, idx.size // 100_000):
                p, M, C = families._profile_conditions(k, r, base + block * step)
                assert np.all((p > 0) & (M > margin) & (C >= 0)), (base, step)

    @pytest.mark.parametrize("offset,passes", [(None, True), (200.0, True), (50_000.0, False)])
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("r", [50.0, 100.0])
    def test_check_at_large_r_equals_the_full_check(self, r, k, offset, passes):
        # discretize's check at a searched or a given offset against the plain
        # lattice walk; from 50,000 the span holds the trough at y ~ 59,874
        n, delta = 150_000, 0.01 if offset != 50_000.0 else 0.1
        if offset is None:
            offset = eo.find_offset(k, r, 0.01, delta * (n + 1))
        try:
            eo.discretize(eo.AnalyticForm(k, r, offset, delta), n)
            passed = True
        except ConditionViolated:
            passed = False
        step = min(0.01, delta)
        full = full_scan(k, r, offset, step, 0, 0, math.ceil(delta * (n + 1) / step), 0.0)
        assert passed == (full is not None) == passes

    @pytest.mark.parametrize("r", [4.0, 5.0, 6.0])
    def test_far_cut_off_generates_after_few_evaluations(self, monkeypatch, r):
        # y* is 2.0e6, 1.3e8 and 1.06e10: the search lattice below it holds 2e8 to 1.06e12
        # points, yet the cells leave fewer than 1e4 to evaluate
        count = []
        real = families._profile_conditions
        monkeypatch.setattr(families, "_profile_conditions", lambda k, r, y: count.append(np.size(y)) or real(k, r, y))
        spec = eo.xi_state(r, 1e300, 10)
        assert eo.vidal_conditions(spec)["all_pass"] is True
        assert 0 < sum(count) < 10_000

    def test_unproven_cells_are_split_before_the_lattice(self, monkeypatch):
        # r = 6 fails near y = 114 and its cells there hold over 100 lattice points
        # each; split, the unproven lattice is far smaller than the unproven first cells
        seen = []
        real = families._cell_bounds
        monkeypatch.setattr(families, "_cell_bounds", lambda k, r, y: seen.append(y.shape[1]) or real(k, r, y))
        a, b = search_cells(1, 6.0, 0.0)
        assert len(seen) > 1
        cut = families._cut_index(1, 6.0, 0.0, 0.0, 0.01)
        unproven = (cut - 101) - int(np.sum(b - a + 1)) + int(np.sum(a[1:] == b[:-1]))
        assert unproven < 1_000


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
            assert rep["all_pass"] is True, (k, rep)

    def test_metadata_tags(self, psi_family):
        assert psi_family[2].metadata["family"] == "psi"
        xi = eo.xi_state(1.25, DELTA, 200)
        assert xi.metadata["family"] == "xi"
        assert xi.metadata["k"] == 1


def two_branch_log1mexp(x):
    """log1mexp as it was before its far-only path: both branches over the whole array."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):  # log1p(-1) above -1.1e-16, on entries np.where drops
        out = np.where(x > -math.log(2.0), np.log(-np.expm1(x)), np.log1p(-np.exp(x)))
    return float(out) if out.ndim == 0 else out


def hexes(a):
    return [v.hex() for v in np.atleast_1d(a).tolist()]


class TestGridTerms:
    """Members sampled and checked on the kept grid terms give the bits of AnalyticForm's closed form."""

    GIVEN_OFFSET = 9.25  # above every searched offset at k <= 4, r <= 3

    @staticmethod
    def assert_as_the_closed_form(s, n):
        # the weights and tail of _sample, and the residual of analytic_form, built on log_d and log_g
        form = eo.AnalyticForm(s.metadata["k"], s.metadata["r"], s.metadata["offset"], s.metadata["delta"])
        log_g = form.log_d(np.arange(n + 1, dtype=float) * form.delta)
        log_g = log_g - log_g[0]
        want = log_g[:-1] + two_branch_log1mexp(log_g[1:] - log_g[:-1])
        assert hexes(s.log_weights) == hexes(want)
        assert s.log_tail_bound.hex() == float(log_g[-1]).hex()
        stored = s.log_g
        gap = np.abs(form.log_g(np.arange(stored.size)) - stored) / np.maximum(1.0, np.abs(stored))
        assert families._tail_residual(form, stored).hex() == float(np.max(gap)).hex()
        assert s.form == form

    @pytest.mark.parametrize("n", [10, 2000])
    @pytest.mark.parametrize("given", [False, True], ids=["searched", "given"])
    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("r", [0.5, 1.0, 1.37, 2.0, 3.0])
    def test_bits_after_every_change_of_the_kept_grid(self, r, k, given, n):
        offset = self.GIVEN_OFFSET if given else None
        a = offset or eo.find_offset(k, r, 0.01, DELTA * (n + 1)) or 1.01  # k = 0 reads no grid; any will do
        other_r = 2.5 if r != 2.5 else 1.5
        warm = {
            "fresh": None,
            "hit from another r": (DELTA, a, n + 1),
            "evicted by another offset": (DELTA, a + 0.5, n + 1),
            "size changed": (DELTA, a, n + 2),
        }
        for case, key in warm.items():
            families._grid_terms.cache_clear()
            families._log_p_on_grid.cache_clear()
            if key is not None:
                families._log_p_on_grid(other_r, *key)
            before = families._grid_terms.cache_info()
            s = eo.psi_state(k, DELTA, n, r=r, offset=offset)
            after = families._grid_terms.cache_info()
            if k == 0:  # the bare exponential needs no profile
                assert after == before, case
            else:
                hit = case == "hit from another r"
                assert (after.misses - before.misses, after.hits - before.hits) == (1 - hit, hit), case
            self.assert_as_the_closed_form(s, n)
            self.assert_as_the_closed_form(eo.make_spectrum(s.log_weights, s.log_tail_bound, s.metadata), n)

    def test_kept_arrays_are_read_only(self):
        families._grid_terms.cache_clear()
        families._log_p_on_grid.cache_clear()
        eo.xi_state(1.5, DELTA, 100)
        terms = families._grid_terms(DELTA, 1.01, 101)
        log_p = families._log_p_on_grid(1.5, DELTA, 1.01, 101)
        assert families._grid_terms.cache_info().misses == 1
        assert families._log_p_on_grid.cache_info().misses == 1
        for t in (*terms, log_p):
            assert not t.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                t[0] = 0.0

    def test_estimate_r_members_build_the_grid_once(self, tmss_match):
        families._grid_terms.cache_clear()
        est = eo.estimate_r_bounds(tmss_match, lambda r: eo.xi_state(r, DELTA, 2000), 1.0, 2.0, 21)
        assert len(est.per_r) == 21
        info = families._grid_terms.cache_info()
        # one ln p_r per member, which its metadata check reads again
        assert (info.misses, info.hits) == (1, 21 - 1)

    @pytest.mark.parametrize("family, k, r", [("xi", 1, 1.37), ("psi", 3, 2.0), ("psi", 2, 0.5)])
    def test_member_and_its_metadata_check_evaluate_ln_p_once(self, family, k, r):
        families._log_p_on_grid.cache_clear()
        s = eo.xi_state(r, DELTA, 2000) if family == "xi" else eo.psi_state(k, DELTA, 2000, r=r)
        assert s.form is not None  # the metadata check, which reads the sampled ln p_r
        info = families._log_p_on_grid.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        self.assert_as_the_closed_form(s, 2000)

    @pytest.mark.parametrize("x", [
        -np.geomspace(0.7, 700.0, 200),
        -np.geomspace(1e-15, 0.69, 200),
        -np.geomspace(1e-15, 700.0, 400),
        np.array(-3.0),
        np.array(-0.25),
        -math.inf,
        np.array([-math.inf, -1.0, -1e-3]),
        np.array([-math.inf, -5.0]),
        -2.0,
        # above -1.1e-16, exp(x) rounds to 1: the far branch would be log1p(-1)
        np.array([-1e-16, -5e-17, -1e-300, -5e-324]),
        np.array([-1e-17, -0.25, -5.0, -math.inf]),
        np.array(-1e-17),
    ], ids=["far", "near", "mixed", "0d-far", "0d-near", "neg-inf", "mixed-neg-inf", "far-neg-inf", "scalar",
            "near-zero", "mixed-near-zero", "0d-near-zero"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_log1mexp_matches_both_branches(self, x):
        got, want = log1mexp(x), two_branch_log1mexp(x)
        assert type(got) is type(want)
        assert hexes(got) == hexes(want)


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

    def test_near_equal_grid_steps_refused(self, psi_family):
        # a step moved by 1e-12 relative passes the metadata check, yet the pair cannot be continued
        s = psi_family[2]
        delta = s.metadata["delta"] * (1 + 1e-12)
        edited = eo.make_spectrum(s.log_weights, s.log_tail_bound, {**s.metadata, "delta": delta})
        assert edited.form is not None
        for a, b in ((edited, psi_family[0]), (psi_family[1], edited)):
            with pytest.raises(eo.ValidationError, match=f"grid steps {a.form.delta!r} and {b.form.delta!r}"):
                pair_ratio(a, b)
            with pytest.raises(eo.ValidationError, match="differ by no more than FORM_RTOL"):
                eo.slocc_decide(a, b)

    @pytest.mark.parametrize("delta_a, delta_b, near", [
        (1.0, 1.0, False), (1.0, 1.0 + 1e-12, True), (1.0 + 1e-12, 1.0, True), (1.0, 1.0 + 1e-8, False),
    ], ids=["equal", "above", "below", "apart"])
    def test_near_equal_steps(self, delta_a, delta_b, near):
        # one test serves pair_ratio and the CLI's --delta check
        assert families.near_equal_steps(delta_a, delta_b) is near

    def test_near_equal_squeezed_steps_keep_the_stored_window(self):
        a, b = eo.tmss(0.5, 200), eo.tmss(0.5 * (1 + 1e-12), 200)
        assert a.form.delta != b.form.delta
        assert abs(a.form.delta - b.form.delta) <= families.FORM_RTOL * a.form.delta
        assert pair_ratio(a, b) is None
        assert eo.slocc_decide(a, b).window == (0, min(eo.safe_horizon(a), eo.safe_horizon(b)))

    @pytest.mark.parametrize("patch", [{"k": 3}, {"k": 0}, {"r": 1.5}, {"offset": 2.5}, {"delta": 1.5}])
    def test_metadata_must_reproduce_the_stored_tail(self, patch):
        base = eo.psi_state(1, DELTA, 2000)
        meta = {**base.metadata, **patch}
        edited = eo.make_spectrum(base.log_weights, base.log_tail_bound, meta)
        eo.AnalyticForm(meta["k"], meta["r"], meta["offset"], meta["delta"])  # the constructor accepts it
        with pytest.raises(eo.ValidationError, match="does not reproduce the stored tail"):
            analytic_form(edited)

    def test_residual_checked_past_the_safe_horizon(self):
        # at delta = 0.002 the safe horizon is 0, so the whole stored range is what tells
        base = eo.psi_state(1, 0.002, 2000)
        assert eo.safe_horizon(base) == 0
        # its tail lies above its last weight, so construction reads the form and refuses it
        with pytest.raises(eo.ValidationError, match="does not reproduce the stored tail"):
            eo.make_spectrum(base.log_weights, base.log_tail_bound, {**base.metadata, "k": 2})

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
            broken = eo.make_spectrum(base.log_weights, base.log_tail_bound, meta)
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
        for name in ("eval_p", "profile"):
            real = getattr(families, name)
            monkeypatch.setattr(families, name, lambda r, x, real=real: calls.append(np.size(x)) or real(r, x))
        with pytest.raises(ValueError):
            make()
        assert calls == []

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.5, 6.0, 50.0, 106.0])
    def test_max_index_is_the_float_cap_up_to_r_106(self, r):
        member, tm = eo.AnalyticForm(1, r, 120.0, DELTA), eo.AnalyticForm(0, 1.0, 0.0, DELTA)
        # a k = 0 form never evaluates its profile, so its r caps nothing
        flat = eo.AnalyticForm(0, 500.0, 0.0, DELTA)
        for pair in (PairRatio(member, tm), PairRatio(tm, member), PairRatio(member, flat)):
            assert pair.max_index() == int(math.exp(families.LOG_ARG_CAP) / DELTA)

    @pytest.mark.parametrize("r", [107.0, 110.0, 150.0, 200.0, 300.0])
    def test_max_index_stops_where_a_profile_term_could_overflow(self, r):
        cap = families._log_arg_cap(r)
        assert cap < families.LOG_ARG_CAP
        # the cap is the L where 4 max(1, 2r, r|r-1|) L^r reaches the float maximum
        assert math.isclose(math.log(families._term_bound(r)) + r * math.log(cap), math.log(np.finfo(float).max),
                            rel_tol=1e-12)
        big, other = eo.AnalyticForm(1, r, 120.0, DELTA), eo.AnalyticForm(2, 1.5, 10.0, DELTA)
        for pair in (PairRatio(big, other), PairRatio(other, big)):
            top = pair.max_index()
            assert top == int(math.exp(cap) / DELTA)
            assert pair.log_arg_cap == cap
            n = np.array([1.0, top / 2, float(top)])
            with np.errstate(all="raise"):  # every profile term stays finite, derivatives too
                assert np.all(np.isfinite(pair.values(n)))
                assert all(np.all(np.isfinite(v)) for v in families.eval_p(r, DELTA * n + big.offset))

    @pytest.mark.parametrize("make", [
        lambda: eo.make_spectrum(eo.tmss(0.6, 50).log_weights, eo.tmss(0.6, 50).log_tail_bound),
        lambda: eo.psi_state(4, 0.1, 5, r=3.0),
        lambda: eo.psi_state(1, 0.3, 5, r=3.0),
    ], ids=["no-form", "ln-y-below-1", "ratio-at-least-1"])
    def test_excitation_remainder_without_a_certified_form(self, make):
        s = make()
        assert not s.is_exact
        assert families.excitation_remainder_bound(s) is None
        stats = eo.summary_stats(s)
        assert stats["excitation_tail_bound"] is None and stats["log_excitation_tail_bound"] is None

    def test_excitation_remainder_certified(self, psi_family):
        for k in range(1, 5):
            stats = eo.summary_stats(psi_family[k])
            assert math.isfinite(stats["mean_excitation"])
            assert stats["excitation_tail_bound"] is not None
            assert stats["excitation_tail_bound"] < 1e-9

    @pytest.mark.parametrize("delta", [1e-310, 1e-17, 1e-3, 0.5, 1.0, 5.0, 40.0])
    @pytest.mark.parametrize("n", [1, 10, 2000])
    def test_squeezed_excitation_remainder_matches_its_closed_form(self, delta, n):
        # ln z^N (N + z/(1-z)) with z = exp(-delta) at 50 digits; below delta ~1.1e-16, z rounds to 1
        with mpmath.workdps(50):
            z = mpmath.exp(-mpmath.mpf(delta))
            ref = float(mpmath.log(z**n * (n + z / -mpmath.expm1(-mpmath.mpf(delta)))))
        assert families.excitation_remainder_bound(eo.psi_state(0, delta, n)) == pytest.approx(ref, rel=1e-14)


class TestExponents:
    """PairRatio.exponents: the extremes over s >= 0 of e(s) = k_a max(r_a - s, -1) - k_b max(r_b - s, -1)."""

    @staticmethod
    def pair(a, b):
        """The PairRatio of two (k, r) members on one grid; the offsets do not enter e(s)."""
        return PairRatio(*(eo.AnalyticForm(k, r, 5.0 if k else 0.0, DELTA) for k, r in (a, b)))

    @pytest.mark.parametrize("a, b, want", [
        ((2, 1.0), (1, 1.5), (Fraction(-3, 2), Fraction(1, 2))),
        ((0, 1.0), (1, 1.5), (Fraction(-3, 2), Fraction(1))),
        ((3, 2.0), (3, 0.5), (Fraction(0), Fraction(9, 2))),
        ((1, 300.0), (1, 200.0), (Fraction(0), Fraction(100))),
    ], ids=["psi2/xi", "tmss/xi", "psi(k3,r2)/psi(k3,r0.5)", "xi300/xi200"])
    def test_exact_values(self, a, b, want):
        assert self.pair(a, b).exponents() == want
        assert self.pair(b, a).exponents() == (-want[1], -want[0])

    def test_sign_is_exact_a_few_ulps_from_zero(self):
        # e(0) = 0.3 - 3 * 0.1 is -2.8e-17 in the exact values of the two floats
        lo, hi = self.pair((1, 0.3), (3, 0.1)).exponents()
        assert lo == Fraction(0.3) - 3 * Fraction(0.1) and -1e-16 < lo < 0
        assert hi == Fraction(0.3) - Fraction(0.1) + 2  # e(r_b + 1) = (r_a - r_b - 1) + 3

    @given(st.integers(0, 4), st.floats(0.05, 400.0), st.integers(0, 4), st.floats(0.05, 400.0),
           st.lists(st.fractions(0, 500), min_size=1, max_size=20))
    def test_bounds_e_everywhere_and_are_attained(self, ka, ra, kb, rb, ss):
        lo, hi = self.pair((ka, ra), (kb, rb)).exponents()
        fa, fb = Fraction(ra), Fraction(rb)
        e = lambda s: ka * max(fa - s, -1) - kb * max(fb - s, -1)
        far = max(fa, fb) + 1  # e is constant from the last breakpoint on
        assert all(lo <= e(s) <= hi for s in [*ss, far])
        attained = {e(s) for s in (0, fa + 1, fb + 1, far)}
        assert lo in attained and hi in attained

    @staticmethod
    def fraction_exponents(pair):
        """(lo, hi) by Fraction arithmetic on k and the exact float r, the formula of the docstring."""
        (ka, ra), (kb, rb) = ((Fraction(f.k), Fraction(f.r)) for f in (pair.a, pair.b))
        e = [ka * max(ra - s, -1) - kb * max(rb - s, -1) for s in (0, ra + 1, rb + 1)] + [kb - ka]
        return min(e), max(e)

    R_EDGES = [5e-324, 1e-300, 0.1, 1.37, 1e300]

    @given(st.integers(0, 60), st.one_of(st.sampled_from(R_EDGES), st.floats(5e-324, 1e300)),
           st.integers(0, 60), st.one_of(st.sampled_from(R_EDGES), st.floats(5e-324, 1e300)))
    @example(60, 5e-324, 0, 1e300)
    @example(17, 1e-300, 60, 0.1)
    @example(1, 1.37, 1, 1.37)
    def test_integer_exponents_equal_the_fraction_formula(self, ka, ra, kb, rb):
        pair = self.pair((ka, ra), (kb, rb))
        got, want = pair.exponents(), self.fraction_exponents(pair)
        assert got == want
        assert all(type(v) is Fraction for v in got)
        assert [(v.numerator, v.denominator) for v in got] == [(v.numerator, v.denominator) for v in want]
