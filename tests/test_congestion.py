import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweet2traffic.config import CongestionParams
from tweet2traffic.congestion import (
    N_SLOTS,
    CongestionMeasurements,
    TtiSeries,
    congestion_measurements,
    detect_congested_periods,
    fill_speed_gaps,
    morning_pti,
    percentile,
    reference_speed,
)
from tweet2traffic.errors import EmptyInput, IncompleteDay


def brute_force_periods(flags, min_slots, gap_slots):
    """Independent enumerator: scan every maximal run, filter, then re-scan gaps."""
    n = len(flags)
    runs = []
    i = 0
    while i < n:
        if flags[i]:
            j = i
            while j < n and flags[j]:
                j += 1
            if j - i >= min_slots:
                runs.append((i, j))
            i = j
        else:
            i += 1
    out = []
    for run in runs:
        if out and run[0] - out[-1][1] < gap_slots:
            out[-1] = (out[-1][0], run[1])
        else:
            out.append(run)
    return out


class TestPercentile:
    def test_constant_list(self):
        assert percentile([5, 5, 5], 0.85) == 5

    def test_two_point_interpolation(self):
        # rank = 0.85 between 10 and 20
        assert percentile([10, 20], 0.85) == pytest.approx(18.5)

    def test_hundred_values(self):
        # rank 84.15 between order stats 85 and 86
        assert percentile(list(range(1, 101)), 0.85) == pytest.approx(85.15)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            percentile([], 0.5)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
           st.floats(0.0, 1.0))
    def test_bounded_by_extremes(self, values, q):
        p = percentile(values, q)
        assert min(values) - 1e-9 <= p <= max(values) + 1e-9

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30))
    def test_monotone_in_q(self, values):
        qs = [0.0, 0.25, 0.5, 0.75, 1.0]
        ps = [percentile(values, q) for q in qs]
        assert all(a <= b + 1e-9 for a, b in zip(ps, ps[1:]))


class TestReferenceSpeed:
    def test_constant(self):
        assert reference_speed([60] * 10) == 60

    def test_five_values(self):
        # rank 0.85*(5-1) = 3.4 between order stats 60 and 70 -> 60 + 0.4*10
        assert reference_speed([30, 40, 50, 60, 70]) == pytest.approx(64.0)
        assert reference_speed([30, 40, 50, 60, 70]) == pytest.approx(
            float(np.percentile([30, 40, 50, 60, 70], 85)))

    def test_single_observation(self):
        assert reference_speed([55]) == 55


def tti_series(segment_id, day, speeds, v_ref):
    """The split pipeline's path: the prepared gap-fill of one morning, then the ratio."""
    filled, incomplete = fill_speed_gaps(np.asarray(speeds, dtype=float)[None, :])
    assert not incomplete[0]
    return TtiSeries(segment_id, day, v_ref / filled[0])


def ffill_one_day(speeds, max_ffill=3):
    """Reference gap-fill of one morning: a slot loop that raises on a long run."""
    out = np.asarray(speeds, dtype=float).copy()
    last = np.nan
    run = 0
    for i in range(out.size):
        if np.isfinite(out[i]):
            last = out[i]
            run = 0
        else:
            run += 1
            if run > max_ffill or not np.isfinite(last):
                raise IncompleteDay(f"unfillable gap ending at slot {i}")
            out[i] = last
    return out


class TestTtiSeries:
    def test_identity(self):
        s = tti_series("T1", "2014-03-04", [60.0] * N_SLOTS, 60.0)
        assert np.allclose(s.values, 1.0)

    def test_half_speed(self):
        speeds = np.full(N_SLOTS, 60.0)
        speeds[10] = 30.0
        s = tti_series("T1", "d", speeds, 60.0)
        assert s.values[10] == pytest.approx(2.0)

    def test_above_reference(self):
        speeds = np.full(N_SLOTS, 60.0)
        speeds[3] = 120.0
        s = tti_series("T1", "d", speeds, 60.0)
        assert s.values[3] == pytest.approx(0.5)

    def test_gap_fill_small(self):
        speeds = np.full(N_SLOTS, 50.0)
        speeds[20:23] = np.nan
        s = tti_series("T1", "d", speeds, 60.0)
        assert np.allclose(s.values, 60.0 / 50.0)

    def test_gap_fill_too_long(self):
        speeds = np.full(N_SLOTS, 50.0)
        speeds[20:24] = np.nan
        filled, incomplete = fill_speed_gaps(speeds[None, :])
        assert incomplete.tolist() == [True]
        assert np.isnan(filled).all()

    def test_leading_gap_rejected(self):
        speeds = np.full(N_SLOTS, 50.0)
        speeds[0] = np.nan
        filled, incomplete = fill_speed_gaps(speeds[None, :])
        assert incomplete.tolist() == [True]
        assert np.isnan(filled).all()

    def test_wrong_length(self):
        with pytest.raises(IncompleteDay):
            tti_series("T1", "d", [50.0] * 10, 60.0)


@st.composite
def gappy_days(draw):
    """(days, 72) speeds with NaN runs placed around the fill cap, and the cap."""
    max_ffill = draw(st.integers(0, 4))
    n_days = draw(st.integers(1, 6))
    arr = np.asarray(draw(st.lists(st.floats(1.0, 90.0), min_size=n_days * N_SLOTS,
                                   max_size=n_days * N_SLOTS))).reshape(n_days, N_SLOTS)
    for _ in range(draw(st.integers(0, 3 * n_days))):
        day = draw(st.integers(0, n_days - 1))
        length = draw(st.sampled_from([1, max_ffill, max_ffill + 1, max_ffill + 2, 8]))
        start = draw(st.sampled_from([0, 1, draw(st.integers(0, N_SLOTS - 1))]))
        arr[day, start:start + length] = draw(st.sampled_from([np.nan, np.inf]))
    return arr, max_ffill


class TestFillMatchesOneDayLoop:
    @settings(max_examples=300, deadline=None)
    @given(case=gappy_days())
    def test_filled_and_incomplete(self, case):
        arr, max_ffill = case
        filled, incomplete = fill_speed_gaps(arr, max_ffill)
        assert filled.shape == arr.shape and incomplete.shape == (arr.shape[0],)
        for day, row in enumerate(arr):
            try:
                want = ffill_one_day(row, max_ffill)
            except IncompleteDay:
                assert incomplete[day] and np.isnan(filled[day]).all()
                continue
            assert not incomplete[day]
            assert np.array_equal(filled[day], want)


PARAMS = CongestionParams()


def tti_from_flags(flags):
    vals = np.ones(N_SLOTS)
    vals[: len(flags)] = np.where(np.asarray(flags, dtype=bool), 3.0, 1.0)
    return vals


class TestDetectPeriods:
    def test_short_qualifying_run(self):
        vals = np.ones(N_SLOTS)
        vals[0:3] = 2.0  # 3 slots = 15 min, qualifies at threshold
        assert detect_congested_periods(vals, PARAMS) == [(0, 3)]

    def test_run_too_short(self):
        vals = np.ones(N_SLOTS)
        vals[10:12] = 2.5  # 10 min < t_min
        assert detect_congested_periods(vals, PARAMS) == []

    def test_merge_small_gap(self):
        vals = np.ones(N_SLOTS)
        vals[0:3] = 2.5
        vals[5:8] = 2.5  # 2-slot gap = 10 min < merge_gap
        assert detect_congested_periods(vals, PARAMS) == [(0, 8)]

    def test_keep_large_gap(self):
        vals = np.ones(N_SLOTS)
        vals[0:3] = 2.5
        vals[7:10] = 2.5  # 4-slot gap = 20 min >= merge_gap
        assert detect_congested_periods(vals, PARAMS) == [(0, 3), (7, 10)]

    @pytest.mark.parametrize("t_min,merge_gap", [(15, 15), (10, 20), (5, 10)])
    def test_matches_brute_force_sample(self, t_min, merge_gap):
        params = CongestionParams(t_min=t_min, merge_gap=merge_gap)
        rng = np.random.default_rng(0)
        for _ in range(200):
            flags = rng.integers(0, 2, size=12).astype(bool)
            got = detect_congested_periods(tti_from_flags(flags), params)
            want = brute_force_periods(list(flags) + [False] * (N_SLOTS - 12),
                                       params.min_slots, params.gap_slots)
            assert got == want

    @given(st.lists(st.booleans(), min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_property(self, flags):
        got = detect_congested_periods(tti_from_flags(flags), PARAMS)
        want = brute_force_periods(list(flags) + [False] * (N_SLOTS - len(flags)),
                                   PARAMS.min_slots, PARAMS.gap_slots)
        assert got == want


class TestMeasurements:
    def make(self, vals):
        return TtiSeries("T1", "d", np.asarray(vals, dtype=float))

    def test_start_at_five_am(self):
        vals = np.ones(N_SLOTS)
        vals[0:6] = 2.5
        m = congestion_measurements(self.make(vals), PARAMS)
        assert m.cs and m.cst == 72

    def test_no_congestion(self):
        m = congestion_measurements(self.make(np.ones(N_SLOTS)), PARAMS)
        assert not m.cs and m.cst == 0 and m.cd is None and m.pti is None

    def test_constant_one_diagnostic(self):
        assert morning_pti(np.ones(N_SLOTS)) == pytest.approx(1.0)

    def test_cd_spans_first_to_last(self):
        vals = np.ones(N_SLOTS)
        vals[10:13] = 2.5
        vals[20:24] = 2.5
        m = congestion_measurements(self.make(vals), PARAMS)
        assert m.cd == 24 - 10
        assert m.cst == 72 - 10

    def test_invariants_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            vals = np.where(rng.random(N_SLOTS) < 0.3, 2.5, 1.0)
            m = congestion_measurements(self.make(vals), PARAMS)
            assert 0 <= m.cst <= 72
            if m.cs:
                assert PARAMS.min_slots <= m.cd <= 72
                assert m.cst >= 1

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            vals = 1.0 + 3.0 * rng.random(N_SLOTS)
            lo = congestion_measurements(self.make(vals), CongestionParams(tti_thres=1.5))
            hi = congestion_measurements(self.make(vals), CongestionParams(tti_thres=2.5))
            assert (hi.cd or 0) <= (lo.cd or 0)
            assert hi.cst <= lo.cst

    def test_pti_permutation_invariant_cst_not(self):
        rng = np.random.default_rng(3)
        vals = 1.0 + 2.0 * rng.random(N_SLOTS)
        vals[40:50] = 3.0
        perm = rng.permutation(vals)
        assert morning_pti(vals) == pytest.approx(morning_pti(perm))
        m1 = congestion_measurements(self.make(vals), PARAMS)
        vals2 = np.roll(vals, 5)
        m2 = congestion_measurements(self.make(vals2), PARAMS)
        assert m1.cst != m2.cst  # shifting the day moves the start

    def test_quadruple_consistency_enforced(self):
        with pytest.raises(ValueError):
            CongestionMeasurements(cs=False, cst=3, cd=None, pti=None)
        with pytest.raises(ValueError):
            CongestionMeasurements(cs=True, cst=0, cd=5, pti=1.2)


def test_exhaustive_small_patterns():
    """All binary patterns up to length 12 match the brute-force enumerator."""
    for settings_ in [(15, 15), (10, 20), (5, 10)]:
        params = CongestionParams(t_min=settings_[0], merge_gap=settings_[1])
        for length in range(1, 13):
            for bits in itertools.product([False, True], repeat=length):
                got = detect_congested_periods(tti_from_flags(bits), params)
                want = brute_force_periods(list(bits) + [False] * (N_SLOTS - length),
                                           params.min_slots, params.gap_slots)
                assert got == want, (bits, settings_)
