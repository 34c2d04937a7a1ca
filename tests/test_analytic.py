"""Closed-form eigenvalues, flow approximation, phases, per-road diagrams."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadphases.analytic import (
    PhaseLabel,
    classify_phase_analytic,
    eigen_candidates,
    flow_approx,
    phase_boundaries,
    remark_case,
    road_diagrams,
)


class TestPhaseBoundaries:
    def test_45_15(self):
        b = phase_boundaries(45, 15)
        assert b.d1 == Fraction(15, 59)
        assert b.d2 == Fraction(37, 59)
        assert b.r == Fraction(45, 59)
        assert b.rho == Fraction(1, 59)

    def test_5_5(self):
        b = phase_boundaries(5, 5)
        assert b.d1 == Fraction(5, 18)
        assert b.d2 == Fraction(18, 36)  # == (3n + m - 2) / (4 (n + m - 1))
        assert b.r == Fraction(5, 9)

    def test_40_20(self):
        b = phase_boundaries(40, 20)
        assert b.d1 == Fraction(15, 59)
        assert b.d2 == Fraction(69, 118)
        assert b.r == Fraction(40, 59)

    def test_ordering_whenever_m_above_one(self):
        for n in range(2, 40, 3):
            for m in range(2, 40, 3):
                b = phase_boundaries(n, m)
                assert 0 < b.d1 < b.d2 < 1


class TestEigenCandidates:
    def test_free_branch(self):
        res = eigen_candidates(0.1, 45, 15)
        assert res.case == "A"
        assert res.multiplicity == 1
        assert res.selected == pytest.approx(0.1 * 59 / 60, abs=1e-15)

    def test_saturation_branch(self):
        res = eigen_candidates(0.5, 45, 15)
        assert res.case == "C"
        assert res.candidates == (0.25,)
        assert res.selected == 0.25

    def test_multivalued_region_selects_zero(self):
        res = eigen_candidates(0.5, 15, 45)
        assert 0.0 in res.candidates
        assert res.selected == 0.0

    def test_capacity_two_drops_quarter_cap(self):
        res = eigen_candidates(0.5, 45, 15, capacity=2)
        assert all(c != 0.25 or res.multiplicity > 1 for c in res.candidates)
        assert res.selected == pytest.approx(float(
            (Fraction(45, 59) - Fraction(1, 2))
            / (2 * Fraction(45, 59) - 1 + Fraction(1, 59))))

    def test_fixed_point_residual_on_grid(self):
        cases = [(n, m, cap) for n, m in [(45, 15), (15, 45), (5, 5),
                                          (40, 20), (10, 30), (30, 10)]
                 for cap in (1, 2)]
        checked = 0
        for n, m, cap in cases:
            b = phase_boundaries(n, m)
            for k in range(11):
                d = Fraction(k, 10)
                res = eigen_candidates(d, n, m, cap)
                for lam in res.candidates:
                    lamf = Fraction(lam)
                    terms = [d - (1 + b.rho) * lamf,
                             b.r - d - (2 * b.r - 1 + b.rho) * lamf]
                    if cap == 1:
                        terms.insert(1, Fraction(1, 4) - lamf)
                    residual = max(min(terms), -lamf)
                    assert abs(residual) <= Fraction(1, 10**12)
                    checked += 1
        assert checked >= 100

    def test_recession_branch_value(self):
        b = phase_boundaries(45, 15)
        res = eigen_candidates(0.7, 45, 15)
        expected = (b.r - Fraction(7, 10)) / (2 * b.r - 1 + b.rho)
        assert res.selected == pytest.approx(float(expected))


class TestFlowApprox:
    @pytest.mark.parametrize("d,r,cap,expected", [
        (0.5, 0.75, 1, 0.25),
        (0.7, 0.75, 1, 0.1),
        (0.6, 0.5, 1, 0.0),
        (0.5, 0.75, 2, 0.5),
        (0.1, 0.75, 1, 0.1),
        (0.2, 0.5, 1, 0.2),
        (0.3, 0.5, 1, 0.25),
        (0.9, 0.75, 1, 0.0),
        (0.4, 0.2, 1, 0.0),
        (0.1, 0.2, 1, 0.1),
    ])
    def test_values(self, d, r, cap, expected):
        assert flow_approx(d, r, cap) == pytest.approx(expected, abs=1e-12)

    @given(d=st.integers(0, 200), r=st.integers(1, 199))
    @settings(max_examples=300, deadline=None)
    def test_caps(self, d, r):
        f1 = flow_approx(Fraction(d, 200), Fraction(r, 200), 1)
        f2 = flow_approx(Fraction(d, 200), Fraction(r, 200), 2)
        assert 0 <= f1 <= 0.25
        assert 0 <= f2 <= 0.5

    @pytest.mark.parametrize("r", [0.55, 0.6, 0.75, 0.9, 0.99])
    def test_continuity_above_half(self, r):
        grid = [k / 1000 for k in range(1001)]
        vals = [flow_approx(d, r, 1) for d in grid]
        max_slope = max(1.0, (1 / 4) / (r - (2 * r + 1) / 4))
        for lo, hi in zip(vals, vals[1:]):
            assert abs(hi - lo) <= max_slope / 1000 + 1e-12

    def test_kinks_match_phase_boundaries(self):
        n, m = 45, 15
        b = phase_boundaries(n, m)
        step = Fraction(1, n + m - 1)
        grid = [k * step for k in range(n + m)]
        vals = [flow_approx(d, b.r, 1) for d in grid]
        second = {i: abs((vals[i + 1] - vals[i]) - (vals[i] - vals[i - 1]))
                  for i in range(1, len(vals) - 1)}
        kinks: list[int] = []
        for i in sorted(second, key=lambda i: -second[i]):
            if all(abs(i - j) > 1 for j in kinks):
                kinks.append(i)
            if len(kinks) == 3:
                break
        kink_ds = sorted(float(grid[i]) for i in kinks)
        targets = sorted(float(v) for v in (b.d1, b.d2, b.r))
        for got, want in zip(kink_ds, targets):
            assert abs(got - want) <= float(step) + 1e-12


class TestClassifyPhase:
    @pytest.mark.parametrize("d,n,m,expected", [
        (0.5, 45, 15, PhaseLabel.SATURATION),
        (0.7, 45, 15, PhaseLabel.RECESSION),
        (0.3, 15, 75, PhaseLabel.FREEZE),
        (0.1, 45, 15, PhaseLabel.FREE),
        (0.8, 45, 15, PhaseLabel.FREEZE),
        (0.2, 15, 75, PhaseLabel.FREEZE),  # d above r even below d1
        (0.1, 15, 75, PhaseLabel.FREE),
    ])
    def test_examples(self, d, n, m, expected):
        assert classify_phase_analytic(d, n, m) is expected

    @pytest.mark.parametrize("d", [2, -1, Fraction(11, 10)])
    def test_rejects_density_outside_unit_interval(self, d):
        with pytest.raises(ValueError, match=r"density must lie in \[0, 1\]"):
            classify_phase_analytic(d, 5, 5)

    def test_small_r_has_no_saturation(self):
        n, m = 15, 75  # r < 1/4
        b = phase_boundaries(n, m)
        assert b.r < Fraction(1, 4)
        labels = {classify_phase_analytic(Fraction(k, 100), n, m)
                  for k in range(101)}
        assert PhaseLabel.SATURATION not in labels
        assert PhaseLabel.RECESSION not in labels

    def test_boundaries_consistent_with_cases(self):
        b = phase_boundaries(45, 15)
        assert remark_case(b.d1 - Fraction(1, 1000), b) == "A"
        assert remark_case(b.d1, b) == "C"
        assert remark_case(b.d2, b) == "E"
        assert remark_case(b.r, b) == "F"


class TestRoadDiagrams:
    def test_saturation_point(self):
        p = road_diagrams(Fraction(1, 2), Fraction(3, 4))
        assert p.phase is PhaseLabel.SATURATION
        assert p.d_m == Fraction(1, 4)
        assert p.d_n == Fraction(7, 12)
        assert p.f == Fraction(1, 4)

    def test_free_point(self):
        p = road_diagrams(Fraction(1, 10), Fraction(3, 4))
        assert (p.d_m, p.d_n, p.f) == (Fraction(1, 10),) * 3

    def test_freeze_point(self):
        p = road_diagrams(Fraction(9, 10), Fraction(3, 4))
        assert p.d_n == 1
        assert p.d_m == Fraction(3, 5)
        assert p.f == 0

    def test_recession_point(self):
        p = road_diagrams(Fraction(7, 10), Fraction(3, 4))
        assert p.phase is PhaseLabel.RECESSION
        assert p.d_m == p.f == Fraction(1, 10)
        assert p.d_n == Fraction(9, 10)

    @given(dk=st.integers(0, 400), rk=st.integers(201, 399))
    @settings(max_examples=400, deadline=None)
    def test_relation_exact(self, dk, rk):
        d, r = Fraction(dk, 400), Fraction(rk, 400)
        p = road_diagrams(d, r)
        assert r * p.d_n + (1 - r) * p.d_m == d
        assert 0 <= p.d_m <= 1 and 0 <= p.d_n <= 1

    def test_rejects_low_r(self):
        with pytest.raises(ValueError):
            road_diagrams(Fraction(1, 2), Fraction(1, 2))
