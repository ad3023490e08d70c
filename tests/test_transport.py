import numpy as np
import pytest

from sedopt.errors import InputError
from sedopt.regime import RegimeChain
from sedopt.transport import (
    SedimentProperties,
    normalized_rate,
    rates_for_chain,
    shear_stress,
    transport_rate_physical,
)

PROPS = SedimentProperties()  # typical gravel-bed defaults

# frozen one-line oracle: rho*g*n^0.6*l^0.7*B^-0.6*q^0.6 at q=50
SHEAR_AT_50 = 15.802573951889697
# frozen oracles for the default properties (hand evaluation of the
# transport formula before the module was written)
RATE_PHYS_AT_6_25 = 3.155113389006065e-4   # m^3/s
RATE_DAY_AT_6_25 = 0.27260179681012403     # 1/day
RATE_DAY_AT_107_5 = 34.28588826502639      # 1/day


class TestProperties:
    def test_defaults_positive_and_sigma(self):
        assert PROPS.sigma == pytest.approx(1.6)

    def test_density_ordering_enforced(self):
        with pytest.raises(InputError):
            SedimentProperties(rho=1000.0, rho_s=900.0)
        with pytest.raises(InputError):
            SedimentProperties(B=-1.0)

    @pytest.mark.parametrize("entry", [{"capacity": np.inf}, {"theta_c": np.nan}],
                             ids=["infinite-capacity", "nan-theta-c"])
    def test_non_finite_rejected(self, entry):
        with pytest.raises(InputError, match="finite"):
            SedimentProperties(**entry)

    def test_from_json_missing_keys_default(self, tmp_path):
        f = tmp_path / "props.json"
        f.write_text('{"B": 30.0, "capacity": 50.0}')
        props = SedimentProperties.from_json(f)
        assert props.B == 30.0
        assert props.capacity == 50.0
        assert props.n == PROPS.n  # default fills the rest

    def test_from_json_unknown_key(self, tmp_path):
        f = tmp_path / "props.json"
        f.write_text('{"slope": 0.001}')
        with pytest.raises(InputError):
            SedimentProperties.from_json(f)


class TestShearStress:
    def test_zero_discharge(self):
        assert shear_stress(0.0, PROPS) == 0.0

    def test_power_law_homogeneity(self):
        q = 12.3
        assert shear_stress(2 * q, PROPS) == pytest.approx(
            2 ** 0.6 * shear_stress(q, PROPS), rel=1e-14
        )

    def test_frozen_oracle(self):
        # independent single-line evaluation of the Manning stress formula
        oracle = 1000.0 * 9.81 * 0.035 ** 0.6 * 0.001 ** 0.7 * 25.0 ** -0.6 * 50.0 ** 0.6
        assert oracle == pytest.approx(SHEAR_AT_50, rel=1e-15)
        assert shear_stress(50.0, PROPS) == pytest.approx(SHEAR_AT_50, rel=1e-12)

    def test_negative_discharge(self):
        with pytest.raises(InputError):
            shear_stress(-1.0, PROPS)

    @pytest.mark.parametrize("q", [np.nan, np.inf, [1.0, np.nan]])
    @pytest.mark.parametrize("formula", [shear_stress, transport_rate_physical, normalized_rate])
    def test_non_finite_discharge(self, formula, q):
        # NaN used to come back as a NaN stress and rate
        with pytest.raises(InputError, match="finite"):
            formula(q, PROPS)


class TestTransportRate:
    def test_below_threshold_vanishes(self):
        # lowest two regimes of the 2.5-width binning carry no sediment
        assert transport_rate_physical(1.25, PROPS) == 0.0
        assert transport_rate_physical(3.75, PROPS) == 0.0

    def test_frozen_oracle_above_threshold(self):
        assert transport_rate_physical(6.25, PROPS) == pytest.approx(
            RATE_PHYS_AT_6_25, rel=1e-12
        )

    def test_large_discharge_scaling_exponent(self):
        # ratio -> 2^(9/10) since stress ~ q^(3/5) and rate ~ excess^(3/2)
        q = 1e7
        ratio = transport_rate_physical(2 * q, PROPS) / transport_rate_physical(q, PROPS)
        assert ratio == pytest.approx(2 ** 0.9, rel=1e-3)

    def test_continuous_and_nondecreasing(self):
        q = np.linspace(0.0, 120.0, 2401)
        s = transport_rate_physical(q, PROPS)
        assert np.all(np.diff(s) >= 0.0)
        # continuity across the incipient-motion point: no jumps
        assert np.max(np.abs(np.diff(s))) < 1e-3


class TestNormalizedRate:
    def test_zero_below_threshold(self):
        assert normalized_rate(1.25, PROPS) == 0.0

    def test_frozen_values(self):
        assert normalized_rate(6.25, PROPS) == pytest.approx(RATE_DAY_AT_6_25, rel=1e-12)
        assert normalized_rate(107.5, PROPS) == pytest.approx(RATE_DAY_AT_107_5, rel=1e-12)

    def test_highest_regimes_magnitude(self):
        # order 1e1..1e2 per day at the top of the realistic discharge range
        top = normalized_rate(107.5, PROPS)
        assert 10.0 < top < 500.0

    def test_inverse_capacity_scaling(self):
        doubled = SedimentProperties(capacity=2 * PROPS.capacity)
        assert normalized_rate(50.0, doubled) == pytest.approx(
            0.5 * normalized_rate(50.0, PROPS), rel=1e-14
        )


class TestRatesForChain:
    def test_single_zero_regime(self):
        chain = RegimeChain(discharges=np.array([1.0]), rates=np.zeros((1, 1)))
        np.testing.assert_array_equal(rates_for_chain(chain, PROPS), [0.0])

    def test_realistic_43_regime_profile(self):
        centers = 1.25 + 2.5 * np.arange(43)
        rates = np.zeros((43, 43))
        for i in range(42):
            rates[i, i + 1] = rates[i + 1, i] = 0.1
        chain = RegimeChain(discharges=centers, rates=rates)
        s = rates_for_chain(chain, PROPS)
        assert s[0] == 0.0 and s[1] == 0.0
        assert np.all(s[2:] > 0.0)
        assert np.all(np.diff(s) >= 0.0)
