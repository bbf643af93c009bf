import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fransim import quantum
from fransim.quantum import (
    STANDARD_SETTINGS,
    ChshSettings,
    UndefinedCorrelationError,
    PAIR_LAWS,
    cell_law,
    chsh_s,
    coincidence_probability,
    correlation,
    correlation_from_rates,
    lhv_chsh_s,
    lhv_cell_law,
    lhv_correlation,
    min_violating_visibility,
    reduce_phase,
)

S_MAX = 2.0 * math.sqrt(2.0)


class TestCoincidenceProbability:
    def test_maximal_constructive(self):
        assert coincidence_probability(1, 1, 0.0, 0.0, 1.0) == 0.25

    def test_zero_visibility_is_flat(self):
        for i, j in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            assert coincidence_probability(i, j, 0.3, 1.7, 0.0) == 0.125

    def test_direct_evaluation(self):
        # (1/8) * (1 - 0.957 * cos(pi/4)), frozen from the closed form
        got = coincidence_probability(1, -1, math.pi / 4, 0.0, 0.957)
        assert got == pytest.approx(0.0404122, abs=1e-6)

    def test_invalid_visibility_rejected(self):
        with pytest.raises(ValueError):
            coincidence_probability(1, 1, 0.0, 0.0, 1.2)
        with pytest.raises(ValueError):
            coincidence_probability(1, 1, 0.0, 0.0, -0.1)

    def test_invalid_sign_rejected(self):
        with pytest.raises(ValueError):
            coincidence_probability(0, 1, 0.0, 0.0, 0.5)

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0, 1))
    def test_normalization_sums_to_half(self, d1, d2, vis):
        total = sum(
            coincidence_probability(i, j, d1, d2, vis)
            for i in (1, -1) for j in (1, -1)
        )
        assert total == pytest.approx(0.5, abs=1e-12)

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0, 1))
    def test_range(self, d1, d2, vis):
        p = coincidence_probability(1, -1, d1, d2, vis)
        assert (1 - vis) / 8 - 1e-15 <= p <= (1 + vis) / 8 + 1e-15


class TestCorrelation:
    def test_perfect(self):
        assert correlation(0.0, 0.0, 1.0) == 1.0

    def test_quarter_waves_cancel(self):
        assert correlation(math.pi / 4, math.pi / 4, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_paper_scale_value(self):
        assert correlation(math.pi / 4, 0.0, 0.957) == pytest.approx(0.676702, abs=1e-5)

    @given(st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20), st.floats(0, 1))
    def test_depends_only_on_phase_sum(self, d1, d2, x, vis):
        assert correlation(d1, d2, vis) == pytest.approx(
            correlation(d1 + x, d2 - x, vis), abs=1e-9
        )

    def test_identity_with_rate_form(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d1, d2 = rng.uniform(-10, 10, 2)
            vis = rng.uniform(0, 1)
            rates = [coincidence_probability(i, j, d1, d2, vis)
                     for i, j in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
            assert correlation_from_rates(*rates) == pytest.approx(
                correlation(d1, d2, vis), abs=1e-12
            )


class TestCorrelationFromRates:
    def test_perfect_correlation(self):
        assert correlation_from_rates(1, 0, 0, 1) == 1.0

    def test_balanced_rates(self):
        assert correlation_from_rates(1, 1, 1, 1) == 0.0

    def test_closed_form_values(self):
        # Rates from the probability law at d1 = pi/4, d2 = 0, V = 0.957.
        assert correlation_from_rates(0.209588, 0.040412, 0.040412, 0.209588) == \
            pytest.approx(0.676702, abs=1e-5)

    def test_all_zero_is_an_error(self):
        with pytest.raises(UndefinedCorrelationError):
            correlation_from_rates(0, 0, 0, 0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            correlation_from_rates(1, -1, 0, 0)


class TestChsh:
    def test_ideal_value(self):
        assert chsh_s(STANDARD_SETTINGS, 1.0) == pytest.approx(2.828427, abs=1e-6)

    def test_classical_boundary_visibility(self):
        assert chsh_s(STANDARD_SETTINGS, 1 / math.sqrt(2)) == pytest.approx(2.0, abs=1e-12)

    def test_published_visibility(self):
        assert chsh_s(STANDARD_SETTINGS, 0.957) == pytest.approx(2.7068, abs=1e-4)

    def test_linearity_in_visibility(self):
        for vis in np.linspace(0, 1, 101):
            assert chsh_s(STANDARD_SETTINGS, vis) == pytest.approx(S_MAX * vis, abs=1e-12)

    def test_min_violating_visibility(self):
        v = min_violating_visibility()
        assert v == pytest.approx(0.70710678, abs=1e-8)
        assert chsh_s(STANDARD_SETTINGS, v) == pytest.approx(2.0, abs=1e-12)
        assert chsh_s(STANDARD_SETTINGS, v + 0.01) > 2.0


class TestLhv:
    def test_aligned(self):
        assert lhv_correlation(0.0, 0.0) == 1.0

    def test_antialigned(self):
        assert lhv_correlation(math.pi, 0.0) == pytest.approx(-1.0)

    def test_eighth_turn(self):
        assert lhv_correlation(math.pi / 4, 0.0) == pytest.approx(0.5)

    def test_standard_settings_saturate_classical_bound(self):
        assert lhv_chsh_s(STANDARD_SETTINGS) == pytest.approx(2.0, abs=1e-12)

    def test_bound_on_settings_grid(self):
        # Offsets mirror the structure of the standard settings.
        a = np.linspace(0, 2 * math.pi, 360, endpoint=False)[:, None]
        b = np.linspace(0, 2 * math.pi, 360, endpoint=False)[None, :]
        s = np.abs(lhv_correlation(a, b) - lhv_correlation(a, b + math.pi / 2)) \
            + lhv_correlation(a - math.pi / 2, b) \
            + lhv_correlation(a - math.pi / 2, b + math.pi / 2)
        assert float(s.max()) <= 2.0 + 1e-9

    @settings(max_examples=300)
    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
    def test_bound_for_arbitrary_settings(self, a, ap, b, bp):
        s = lhv_chsh_s(ChshSettings(a, ap, b, bp))
        assert s <= 2.0 + 1e-9


def test_reduce_phase_idempotent():
    for x in (-7.3, 0.0, 1.0, 12 * math.pi + 0.4):
        r = reduce_phase(x)
        assert 0.0 <= r < 2 * math.pi
        assert reduce_phase(r) == pytest.approx(r, abs=1e-15)


# Cell bits: 3 start arm, 2 stop arm (set = long), 1 start port, 0 stop port
# (set = the -1 port).
CELL = np.arange(16)
START_ARM, STOP_ARM = CELL >> 3 & 1, CELL >> 2 & 1
START_PORT, STOP_PORT = CELL >> 1 & 1, CELL & 1
SIGN = {1: 0, -1: 1}  # port sign -> port bit
phases = st.floats(-50, 50)


class TestPairLaws:
    @pytest.mark.parametrize("name", sorted(PAIR_LAWS))
    @given(phases, phases, st.floats(0, 1))
    def test_cells_are_a_distribution(self, name, d1, d2, vis):
        p = PAIR_LAWS[name](d1, d2, vis)
        assert p.shape == (16,)
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(PAIR_LAWS))
    @given(phases, phases, st.floats(0, 1))
    def test_per_side_marginals_are_uniform(self, name, d1, d2, vis):
        # One-sided events are drawn from these marginals, so every law must
        # give a uniform port and the long arm with probability 1/2 per side.
        p = PAIR_LAWS[name](d1, d2, vis)
        for bit in (START_ARM, STOP_ARM, START_PORT, STOP_PORT):
            assert p[bit == 1].sum() == pytest.approx(0.5, abs=1e-12)

    @given(phases, phases, st.floats(0, 1))
    def test_same_arm_cells_add_up_to_coincidence_probability(self, d1, d2, vis):
        p = cell_law(d1, d2, vis)
        same_arm = START_ARM == STOP_ARM
        for i in (1, -1):
            for j in (1, -1):
                cells = same_arm & (START_PORT == SIGN[i]) & (STOP_PORT == SIGN[j])
                assert p[cells].sum() == pytest.approx(
                    coincidence_probability(i, j, d1, d2, vis), abs=1e-15)

    @given(phases, phases, st.floats(0, 1))
    def test_local_law_correlation_is_the_sawtooth_in_each_arm_pair(self, d1, d2, vis):
        p = lhv_cell_law(d1, d2, vis)
        ij = np.where(START_PORT == STOP_PORT, 1, -1)
        for arms in ((0, 0), (0, 1), (1, 0), (1, 1)):
            cells = (START_ARM == arms[0]) & (STOP_ARM == arms[1])
            e = (ij[cells] * p[cells]).sum() / p[cells].sum()
            assert e == pytest.approx(lhv_correlation(d1, d2), abs=1e-12)

    def test_quantum_law_rejects_a_visibility_past_one(self):
        with pytest.raises(ValueError, match="visibility"):
            cell_law(0.0, 0.0, 1.2)
