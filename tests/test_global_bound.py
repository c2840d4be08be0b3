"""Efficiency vectors, the corrected high-overlap regime, and feasibility."""

from __future__ import annotations

import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcpd import (
    build_gram,
    critical_overlap,
    global_efficiencies,
    global_success,
    optimal_global,
    validate_unambiguous,
)
from qcpd import global_bound, online_opt
from qcpd.global_bound import (
    _end_powers,
    _end_widths,
    _gram_powers,
    _optimal_success,
    _primed_efficiencies,
    _primed_success,
    _scaled_gamma_two,
    _tent_efficiencies,
    _unambiguous_spectra,
)
from qcpd.online_opt import _closed_form_xs
from qcpd.verification import GRAM_TOL
from oracles import (
    GOLDEN,
    _bisect_root,
    closed_form_xs_full,
    gamma_two_reference,
    global_efficiencies_direct,
    primed_efficiencies_full,
    tent_efficiencies_full,
)


class TestEfficiencies:
    @settings(deadline=None, max_examples=80)
    @given(n=st.integers(2, 40), c=st.floats(0.0, 1.0, allow_nan=False))
    def test_closed_form_matches_direct_row_sums(self, n, c):
        closed = global_efficiencies(n, c)
        direct = global_efficiencies_direct(n, c)
        assert np.max(np.abs(closed - direct)) <= 1e-12

    def test_four_positions_at_half_overlap(self):
        vec = global_efficiencies(4, 0.5)
        assert vec == pytest.approx((0.625, 0.25, 0.25, 0.625), abs=1e-15)
        assert global_success(4, 0.5) == pytest.approx(0.4375, abs=1e-15)

    def test_vector_is_palindromic(self):
        for n, c in [(5, 0.3), (8, 0.7), (11, 0.95)]:
            vals = global_efficiencies(n, c)
            assert np.allclose(vals, vals[::-1], atol=1e-15)

    def test_mean_matches_success_formula(self):
        for n in (2, 3, 7, 20, 31):
            for c in (0.0, 0.2, 0.5, 0.8, 1.0):
                assert np.mean(global_efficiencies(n, c)) == pytest.approx(
                    global_success(n, c), abs=1e-13
                )

    def test_zero_overlap_is_perfect(self):
        vec = global_efficiencies(6, 0.0)
        assert vec.tolist() == [1.0] * 6
        assert global_success(6, 0.0) == 1.0


class TestPrimedRegime:
    def test_position_two_and_mirror_vanish(self):
        # exact zeros: the plain vector is not mirror-symmetric in floats,
        # so the subtraction alone leaves rounding noise there, sometimes
        # negative (-6.9e-18 at both for the first pinned case, -5.6e-17 at
        # n-1 for the second)
        rng = np.random.default_rng(20261019)
        cases = [(5, 0.6), (300, 0.9)]
        for n in range(3, 400):
            root = critical_overlap(n)
            if root is not None:
                cs = [k / 100 for k in range(1, 100)]
                cs += (root + (1.0 - root) * rng.random(10)).tolist()
                cases += [(n, c) for c in cs if c > root]
        assert len(cases) == 2 + 19_016
        for n, c in cases:
            for vals in (_primed_efficiencies(n, c), optimal_global(n, c)[0]):
                assert vals[1] == 0.0 and vals[n - 2] == 0.0, (n, c)
                assert vals.min() >= 0.0, (n, c)

    def test_mean_matches_primed_success(self):
        for n, c in [(6, 0.8), (9, 0.7), (31, 0.9)]:
            assert np.mean(_primed_efficiencies(n, c)) == pytest.approx(
                _primed_success(n, c), abs=1e-13
            )

    def test_gamma_two_is_within_two_units_of_the_reference(self):
        # the corrected form's one position-2 efficiency, and the plain
        # vector's entry 2, against 60-digit decimal arithmetic (worst
        # measured: 0.88 * 2**-52); the pinned cases are ones where the two
        # float routes differ in the last bit
        rng = np.random.default_rng(20261018)
        cases = list(zip(range(3, 3001), rng.random(2998).tolist()))
        cases += [(652, 0.5101796874998467), (92, 0.7039120891401701),
                  (2316, 0.6582804299109531), (5, 0.8394614196935628)]
        cases += [(n, critical_overlap(n)) for n in range(3, 400, 2)]
        bound = 2 * Decimal(2) ** -52
        for n, c in cases:
            reference = gamma_two_reference(n, c)
            for route in (_scaled_gamma_two(n, c) / (1.0 + c), global_efficiencies(n, c)[1]):
                assert abs(Decimal(float(route)) - reference) <= bound, (n, c)

    def test_correction_never_helps(self):
        for n, c in [(6, 0.8), (9, 0.75), (31, 0.95)]:
            assert _primed_success(n, c) <= global_success(n, c) + 1e-15

    def test_the_corrected_form_is_taken_only_where_it_is_finite(self):
        # its denominator 1 + (-c)^(n-3) vanishes only at c = 1 with n even,
        # where the plain entry 2 is exactly 0 and the plain form is taken
        below_one = float(np.nextafter(1.0, 0.0))
        for n in range(2, 201):
            for c in (below_one, 1.0):
                vec, value = optimal_global(n, c)
                assert np.isfinite(vec).all() and np.isfinite(value), (n, c)
                assert np.isfinite(_optimal_success(n, c)), (n, c)
            if n % 2 == 0:
                vec, value = optimal_global(n, 1.0)
                assert vec.tolist() == [0.0] * n and value == 0.0, n
                assert _optimal_success(n, 1.0) == 0.0, n
        assert _primed_success(7, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert _primed_success(6, 0.999999) == pytest.approx(0.0, abs=1e-3)

    def test_branches_agree_at_the_threshold(self):
        for n in (5, 9, 31):
            cstar = critical_overlap(n)
            assert cstar is not None
            for c in (cstar - 1e-9, cstar, cstar + 1e-9):
                assert _primed_success(n, c) == pytest.approx(
                    global_success(n, c), abs=1e-8
                )


class TestCriticalOverlap:
    def test_four_positions_have_no_interior_root(self):
        assert critical_overlap(4) is None

    def test_two_positions_have_no_threshold_and_three_cross_at_half(self):
        # n = 2: f = 1 - c^2 stays positive; n = 3: f = (1 - 2c)(1 + c)
        assert critical_overlap(2) is None
        assert critical_overlap(3) == 0.5

    def test_binary_search_matches_the_full_scan(self):
        # a sign scan over every grid point k/4096, then a bisection of the
        # first bracket that changes sign, down to a width of 1e-12: the
        # route the one 40-step bisection of [0, 1] replaced
        grid = np.linspace(0.0, 1.0, 4097)[1:-1]
        for n in [*range(2, 3001), 10**5, 10**6, 3 * 10**6, 10**7, 10**8]:

            def f(cv, n=n):
                return 1.0 - cv - cv * cv - (-cv) ** (n - 1)

            signs = np.sign(1.0 - grid - grid * grid - (-grid) ** (n - 1))
            crossings = np.nonzero(signs[:-1] * signs[1:] <= 0)[0]
            want = None
            if len(crossings):
                i = int(crossings[0])
                want = _bisect_root(f, float(grid[i]), float(grid[i + 1]))
            assert critical_overlap(n) == want

    def test_five_positions_pinned_value(self):
        assert critical_overlap(5) == pytest.approx(0.569840290998, abs=1e-9)

    def test_matches_polynomial_roots_oracle(self):
        # independent check: companion-matrix roots of 1 - c - c^2 - (-c)^(n-1)
        for n in (5, 6, 7, 9, 12, 31):
            got = critical_overlap(n)
            coeffs = np.zeros(n, dtype=np.float64)
            coeffs[0] = -((-1.0) ** (n - 1))
            coeffs[-3] += -1.0
            coeffs[-2] += -1.0
            coeffs[-1] += 1.0
            roots = np.roots(coeffs)
            real = roots[np.abs(roots.imag) < 1e-9].real
            interior = sorted(r for r in real if 1e-12 < r < 1 - 1e-12)
            if got is None:
                assert not interior
            else:
                assert interior
                assert got == pytest.approx(interior[0], abs=1e-9)

    def test_vectorised_scan_matches_the_scalar_scan(self):
        grid = np.linspace(0.0, 1.0, 4097)[1:-1]
        for n in range(4, 401):

            def f(cv, n=n):
                return 1.0 - cv - cv * cv - (-cv) ** (n - 1)

            signs = np.sign([f(float(g)) for g in grid])
            crossings = np.nonzero(signs[:-1] * signs[1:] <= 0)[0]
            want = None
            if len(crossings):
                i = int(crossings[0])
                want = _bisect_root(f, float(grid[i]), float(grid[i + 1]))
            assert critical_overlap(n) == want

    def test_converges_to_the_golden_ratio(self):
        for n in (30, 31, 40, 61, 101):
            assert critical_overlap(n) == pytest.approx(GOLDEN, abs=1e-4)
        assert critical_overlap(61) == pytest.approx(GOLDEN, abs=1e-10)


class TestOptimalGlobal:
    def test_dispatches_by_regime(self):
        n = 9
        cstar = critical_overlap(n)
        below, above = cstar - 0.05, cstar + 0.05
        vec, value = optimal_global(n, below)
        assert np.array_equal(vec, global_efficiencies(n, below))
        assert value == pytest.approx(global_success(n, below), abs=1e-15)
        vec, value = optimal_global(n, above)
        assert np.array_equal(vec, _primed_efficiencies(n, above))
        assert value == pytest.approx(_primed_success(n, above), abs=1e-15)

    def test_three_positions_switch_to_the_primed_form_above_half(self):
        for c in (0.1, 0.5):
            vec, value = optimal_global(3, c)
            assert np.array_equal(vec, global_efficiencies(3, c))
        for c in (0.55, 0.6, 0.75, 0.9, 0.999):
            vec, value = optimal_global(3, c)
            # the plain entry 2, 1 - 2c, would be negative here
            assert vec.tolist() == pytest.approx([1 - c * c, 0.0, 1 - c * c], abs=1e-15)
            assert value == pytest.approx(2.0 * (1 - c * c) / 3.0, abs=1e-15)
            assert validate_unambiguous(build_gram(3, c), vec).feasible

    def test_primed_vector_is_feasible_above_the_threshold(self):
        # every p_global above critical_overlap(n) is a primed mean; its
        # vector must leave G - diag(gamma) positive semidefinite, and the
        # same vector scaled by 1.001 (the negative control) must not
        infeasible, scaled_feasible, cases = [], [], 0
        for n in range(3, 61):
            cstar = critical_overlap(n)
            if cstar is None:
                continue
            for c in np.linspace(cstar, 0.999, 40)[1:].tolist():
                vec, _ = optimal_global(n, c)
                gram = build_gram(n, c)
                cases += 1
                if not validate_unambiguous(gram, vec).feasible:
                    infeasible.append((n, c))
                if validate_unambiguous(gram, 1.001 * vec).feasible:
                    scaled_feasible.append((n, c))
        assert cases == 57 * 39
        assert infeasible == [] and scaled_feasible == []

    def test_regime_follows_the_sign_of_the_plain_entry(self):
        # second route to the regime: the plain vector's own entry 2, from
        # np.power, against the branch optimal_global takes; and the
        # success against which side of critical_overlap(n) c lies on.
        # The grid straddles each root by 1e-10 and 1e-11; closer than
        # 2**-40 the two routes may round to different signs.
        for n in range(2, 301):
            root = critical_overlap(n)
            cs = [k / 100 for k in range(1, 100)]
            if root is not None:
                cs += [root + d for d in (-1e-10, -1e-11, 1e-11, 1e-10)]
                cs = [c for c in cs if abs(c - root) > 2.0**-40]
            else:
                # n = 2 and 4: 1 - c^2 and (1-c)^2 (1+c) must not round
                # negative anywhere up to c = 1
                cs += [1.0 - 2.0**-k for k in range(1, 54)] + [1.0]
            for c in cs:
                plain = global_efficiencies(n, c)
                vec, value = optimal_global(n, c)
                want = _primed_efficiencies(n, c) if plain[1] < 0.0 else plain
                assert np.array_equal(vec, want), (n, c)
                success = _optimal_success(n, c)
                above = root is not None and c > root
                assert success == value
                assert success == (_primed_success if above else global_success)(n, c), (n, c)

    def test_continuous_across_the_threshold(self):
        n = 31
        cstar = critical_overlap(n)
        lo = optimal_global(n, cstar - 1e-8)[1]
        hi = optimal_global(n, cstar + 1e-8)[1]
        assert lo == pytest.approx(hi, abs=1e-7)


class TestGramFeasibility:
    def test_gram_entries_are_overlap_powers(self):
        gram = build_gram(4, 0.5)
        expected = np.array(
            [
                [1.0, 0.5, 0.25, 0.125],
                [0.5, 1.0, 0.5, 0.25],
                [0.25, 0.5, 1.0, 0.5],
                [0.125, 0.25, 0.5, 1.0],
            ]
        )
        assert np.array_equal(gram, expected)
        assert not gram.flags.writeable

    def test_two_positions_sit_on_the_boundary(self):
        # G - diag(gamma) has eigenvalues {0, 2c}: feasible with a zero mode
        c = 0.3
        report = validate_unambiguous(build_gram(2, c), global_efficiencies(2, c))
        assert report.feasible
        assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_feasible_below_and_range_fail_above_threshold(self):
        for n in (5, 9, 15, 31):
            cstar = critical_overlap(n)
            below = validate_unambiguous(
                build_gram(n, cstar - 0.02), global_efficiencies(n, cstar - 0.02)
            )
            assert below.feasible and below.gamma_range_ok
            above = validate_unambiguous(
                build_gram(n, cstar + 0.02), global_efficiencies(n, cstar + 0.02)
            )
            assert not above.gamma_range_ok
            assert not above.feasible

    def test_even_lengths_meet_the_suite_criteria(self):
        # gram_feasibility runs odd lengths only; every even n = 6..30 has
        # an interior threshold too and meets the same two criteria there
        for n in range(6, 31, 2):
            threshold = critical_overlap(n)
            assert threshold is not None
            for c in np.linspace(0.05, threshold - 0.011, 5).tolist():
                report = validate_unambiguous(build_gram(n, c), global_efficiencies(n, c))
                assert report.gamma_range_ok, (n, c)
                assert report.min_eigenvalue >= -GRAM_TOL, (n, c)
            for c in np.linspace(threshold + 0.011, 0.99, 5).tolist():
                report = validate_unambiguous(build_gram(n, c), global_efficiencies(n, c))
                assert not report.gamma_range_ok, (n, c)

    def test_known_cases(self):
        ok = validate_unambiguous(build_gram(10, 0.4), global_efficiencies(10, 0.4))
        assert ok.feasible
        bad = validate_unambiguous(build_gram(9, 0.9), global_efficiencies(9, 0.9))
        assert not bad.gamma_range_ok

    def test_asymmetric_gram_is_rejected(self):
        # the eigensolver reads one triangle only, so it would pass this
        gram = build_gram(4, 0.3).copy()
        gram[0, 3] += 0.1
        with pytest.raises(ValueError, match="Gram matrix must be symmetric"):
            validate_unambiguous(gram, global_efficiencies(4, 0.3))

    def test_dimension_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            validate_unambiguous(build_gram(4, 0.3), global_efficiencies(5, 0.3))


class TestStackedFeasibility:
    """``_unambiguous_spectra`` on a stack, one matrix per row."""

    CS = np.array([0.05, 0.3, 0.45, 0.6, 0.9])

    def _stack(self, n):
        cs = self.CS[:, None]
        return _gram_powers(n, cs[..., None]), _tent_efficiencies(cs, _end_powers(n, cs))

    def test_each_row_is_the_one_matrix_report_bit_for_bit(self):
        for n in (2, 5, 16, 31):
            grams, gammas = self._stack(n)
            min_eigs, range_ok = _unambiguous_spectra(grams, gammas)
            for i, c in enumerate(self.CS.tolist()):
                gram, vec = build_gram(n, c), global_efficiencies(n, c)
                assert grams[i].tobytes() == gram.tobytes()
                assert gammas[i].tobytes() == vec.tobytes()
                report = validate_unambiguous(gram, vec)
                assert min_eigs[i].tobytes() == np.float64(report.min_eigenvalue).tobytes()
                assert range_ok[i] == report.gamma_range_ok

    def test_a_wrong_number_of_efficiency_rows_is_rejected(self):
        grams, gammas = self._stack(5)
        with pytest.raises(ValueError, match="dimension mismatch"):
            _unambiguous_spectra(grams, gammas[:-1])

    def test_one_asymmetric_matrix_in_a_stack_is_rejected(self):
        grams, gammas = self._stack(5)
        grams = grams.copy()
        grams[3, 0, 4] += 0.1
        with pytest.raises(ValueError, match="Gram matrix must be symmetric"):
            _unambiguous_spectra(grams, gammas)


def _cutoff(c: float, top: int = 200_000) -> int | None:
    """The first exponent whose power of ``-c`` lies below the floor
    ``min(1 - c, 1/16) * 2**-56`` of ``_end_widths``, if one is below ``top``."""
    powers = np.abs(np.float_power(-c, np.arange(1, top + 1)))
    below = np.flatnonzero(powers < min(1.0 - c, 1 / 16) * 2.0**-56)
    return int(below[0]) + 1 if len(below) else None


class TestPowerCutoff:
    """The tent, the closed-form schedule and the corrected vector from the
    end powers of ``_end_powers``, with 0.0 for every power between the
    exponents ``K`` and ``n + 1 - K``, against every power by ``np.float_power``,
    bit for bit: at one overlap and along a column, with n on both sides
    of ``2K``, where the cut first removes a power."""

    CS = [0.0, 5e-324, 1e-300, 1e-8, 0.1, 0.3, 0.5, float(GOLDEN),
          float(np.nextafter(GOLDEN, 1.0)), 0.7245, 0.9, 0.95, 0.9901, 0.995,
          0.999, 1.0 - 2.0**-20, float(np.nextafter(1.0, 0.0)), 1.0]
    SHORT = [2, 3, 4, 5, 31, 64, 65, 128, 129]

    @staticmethod
    def _lengths(k):
        near = [] if k is None or 2 * k + 2 > 200_000 else [2 * k + d for d in range(-2, 3)]
        return [n for n in TestPowerCutoff.SHORT + near if n >= 2]

    @staticmethod
    def _mismatches(cases):
        bad = []
        with np.errstate(divide="ignore", invalid="ignore"):  # at c = 1
            for n, cs in cases:
                # looked up at each call, so a mutant patched in is the one used
                ends = global_bound._end_powers(n, cs)
                if _tent_efficiencies(cs, ends).tobytes() != tent_efficiencies_full(n, cs).tobytes():
                    bad.append(("tent", n, cs))
                if _closed_form_xs(cs, ends).tobytes() != closed_form_xs_full(n, cs).tobytes():
                    bad.append(("closed form", n, cs))
                if np.ndim(cs) == 0 and n >= 3 and _scaled_gamma_two(n, cs) < 0.0:
                    if _primed_efficiencies(n, cs).tobytes() != primed_efficiencies_full(n, cs).tobytes():
                        bad.append(("primed", n, cs))
        return bad

    def _scalar_cases(self):
        return [(n, c) for c in self.CS for n in self._lengths(_cutoff(c))]

    def _column(self, top):
        rng = np.random.default_rng(26)
        return np.concatenate([[c for c in self.CS if c <= top], rng.uniform(0.0, top, 20)])

    def _column_cases(self):
        cases = []
        for top in (0.5, 0.95):
            col = self._column(top)
            k = max(filter(None, map(_cutoff, col.tolist())))
            cases += [(n, col[:, None]) for n in self._lengths(k)]
        return cases + [(n, np.empty((0, 1))) for n in (2, 300)]

    def test_scalar_overlaps_equal_the_full_powers(self):
        cases = self._scalar_cases()
        # the corrected vector is checked above the critical overlap too
        assert sum(n >= 3 and _scaled_gamma_two(n, c) < 0.0 for n, c in cases) >= 60
        assert self._mismatches(cases) == []

    def test_columns_equal_the_full_powers(self):
        assert self._mismatches(self._column_cases()) == []

    def test_table_online_rows_up_to_half_are_the_bound(self):
        # up to 1/2 the online schedule reaches the bound, so the table
        # prints the bound's column for it and builds no schedule there
        # (no subnormal overlap: the sl rows' ceiling 1/c would overflow)
        grid = np.unique([c for c in self._column(0.5).tolist() if c == 0.0 or c >= 2.0**-1022])
        ks = {_cutoff(c) for c in grid.tolist()}
        lengths = sorted({2 * k + d for k in ks for d in (-1, 0, 1) if 2 * k + d >= 2} | {301, 1001})
        assert {69, 70, 71, 121, 122, 123} <= set(lengths)
        for n in lengths:
            table = online_opt._exact_table(n, grid)
            assert table[2].tobytes() == table[1].tobytes(), n
            assert table[1, 1:].tolist() == [global_success(n, c) for c in grid[1:].tolist()], n

    def test_widths_are_the_first_power_below_the_floor(self):
        rng = np.random.default_rng(37)
        cs = np.concatenate([[c for c in self.CS if c < 0.99], rng.uniform(0.0, 0.99, 200)])
        for n in (2, 3, 70, 71, 1001, 10**6):
            want = [min(_cutoff(c, 5_000), (n + 1) // 2) for c in cs.tolist()]
            assert _end_widths(n, cs).tolist() == want, n
        assert _end_widths(10**6, np.array([1.0, float(np.nextafter(1.0, 0.0))])).tolist() == [500_000] * 2

    def test_the_cut_starts_past_twice_the_cutoff(self):
        for c in (0.3, 0.5, 0.95, 0.999):
            k = _cutoff(c)
            # n = 2K keeps every exponent, K at each end; n = 2K + 1 cuts K + 1
            for n in (2 * k, 2 * k + 1):
                head, tail = _end_powers(n, c)[1][:, 0]
                assert head.tolist() == np.float_power(-c, np.arange(1, k + 1)).tolist()
                assert tail.tolist() == np.float_power(-c, n - np.arange(k)).tolist()
            assert _end_powers(10 * k, c)[1].shape == (2, 1, k)
        assert _end_widths(10_000, np.array([1.0])).tolist() == [5_000]

    def test_a_cut_at_two_to_the_minus_50_fails(self, monkeypatch):
        # negative control: a mutant that cuts past the first power below
        # 2**-50 drops powers that still move 1 - c - (.) and 1 -+ (.)
        def mutant(n, cs):
            below = np.abs(np.power(-cs[:, None], np.arange(1, n + 1))) < 2.0**-50
            first = np.where(below.any(axis=1), below.argmax(axis=1) + 1, n)
            return np.minimum(first, (n + 1) // 2)

        monkeypatch.setattr(global_bound, "_end_widths", mutant)
        bad = self._mismatches(self._scalar_cases())
        assert {kind for kind, _, _ in bad} == {"tent", "closed form", "primed"}
        assert self._mismatches(self._column_cases()) != []

    @pytest.mark.parametrize(
        "build, c",
        [(global_efficiencies, 0.3), (online_opt._optimal_strengths, 0.3), (_primed_efficiencies, 0.7)],
        ids=["tent", "closed-form", "primed"],
    )
    def test_a_long_closed_form_peaks_at_its_output(self, build, c):
        # one vector and O(K) end entries; a full power table, or a copy of
        # the vector, would double the peak
        build(10**6, c)
        tracemalloc.start()
        try:
            out = build(10**6, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.nbytes, f"{peak / out.nbytes:.2f} times the output"


class TestEndPowerRoutine:
    """Every power of ``-c`` that ``_end_powers`` keeps is libm's ``pow``,
    bit for bit Python's ``(-c) ** e``, at c = k/100, in the head and the
    tail, at one overlap and along a column."""

    # powers that libm rounds correctly and numpy's negative-base np.power
    # one ulp off
    ONE_ULP = [(0.35, 10), (0.7, 10), (0.93, 9), (0.55, 64)]
    LENGTHS = [2, 3, 11, 12, 65, 66, 1001]

    @staticmethod
    def _mismatches():
        cs = [k / 100 for k in range(101)]
        bad = []
        for n in TestEndPowerRoutine.LENGTHS:
            widths = _end_widths(n, np.array(cs)).tolist()
            # looked up at each call, so a mutant patched in is the one used
            column = global_bound._end_powers(n, np.array(cs)[:, None])[1]
            for c, k, powers in zip(cs, widths, column.swapaxes(0, 1)):
                head = [(-c) ** e for e in range(1, k + 1)]
                tail = [(-c) ** (n - i) for i in range(k)]
                for got in (powers, global_bound._end_powers(n, c)[1][:, 0]):
                    if got[0, :k].tolist() != head or got[1, :k].tolist() != tail:
                        bad.append((n, c))
        return bad

    def test_the_kept_powers_are_python_powers(self):
        assert self._mismatches() == []

    @pytest.mark.parametrize("c, e", ONE_ULP)
    def test_powers_that_numpy_rounds_one_ulp_off(self, c, e):
        exact = float(Fraction(-c) ** e)  # correctly rounded
        assert (-c) ** e == exact
        assert abs(np.power(-c, e) - exact) == math.ulp(exact)
        # in the head at a long chain, and second in the tail at n = e + 1
        assert _end_powers(1001, c)[1][0, 0, e - 1] == exact
        assert _end_powers(e + 1, c)[1][1, 0, 1] == exact

    def test_numpy_negative_base_power_fails(self, monkeypatch):
        # negative control: _end_powers through np.power
        monkeypatch.setattr(np, "float_power", np.power)
        bad = self._mismatches()
        assert {(1001, c) for c, _ in self.ONE_ULP} <= set(bad)
