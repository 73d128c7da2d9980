import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fhefft.error_model import (
    ErrorParams,
    GateCostModel,
    butterfly_error,
    cpmult_error,
    fft2d_error_bound,
    fft_error_bound,
    nand_cost,
    signal_headroom,
    space_cost,
)
from fhefft.errors import ParameterError

DELTA16 = 2.0**-16


def test_cpmult_error_zero_delta():
    assert cpmult_error(0.3, 0.4, 0.5, 0.6, 0.0) == (0.0, 0.0)


def test_cpmult_error_direct_formula():
    re, im = cpmult_error(1.0, 0.0, 1.0, 0.0, 0.5)
    assert (re, im) == (1.0, 1.0)


def test_cpmult_error_symmetric_components_cancel_real():
    re, im = cpmult_error(0.7, 0.7, 0.7, 0.7, DELTA16)
    assert re == 0.0
    assert im == pytest.approx(DELTA16 * 2.8)


def test_butterfly_error_zero_delta():
    assert butterfly_error(1 + 0j, 1 + 0j, 0.0) == 0.0


def test_butterfly_error_direct_formula():
    assert butterfly_error(1 + 0j, 1 + 0j, DELTA16) == pytest.approx(3 * DELTA16)


def test_butterfly_error_flipped_output():
    plain = butterfly_error(0.5 + 0.5j, 0.25 + 0.25j, DELTA16)
    flip = butterfly_error(0.5 + 0.5j, 0.25 + 0.25j, DELTA16, flipped=True)
    assert plain == pytest.approx(DELTA16 * 2.5)
    assert flip == pytest.approx(DELTA16 * -0.5)


def test_fft_error_bound_matches_closed_form():
    # delta = 1/65536 ~ 1.5259e-5, 8 points, unit-bounded signal
    bound = fft_error_bound(ErrorParams(DELTA16, 1.0, 8))
    assert bound == pytest.approx(DELTA16 * 4 * (3 + 1 + 1))
    assert bound == pytest.approx(3.052e-4, rel=1e-3)


def test_fft_error_bound_single_point_degenerates():
    bound = fft_error_bound(ErrorParams(DELTA16, 1.0, 1))
    assert bound == pytest.approx(DELTA16 * 0.5 * 2)


def test_fft_error_bound_size_ratio():
    b128 = fft_error_bound(ErrorParams(DELTA16, 1.0, 128))
    b8 = fft_error_bound(ErrorParams(DELTA16, 1.0, 8))
    assert b128 / b8 == pytest.approx(28.8)


@pytest.mark.parametrize("m_points", [0, 3, 6, 12, -8])
def test_m_points_must_be_a_power_of_two(m_points):
    with pytest.raises(ParameterError, match="power of two"):
        ErrorParams(DELTA16, 1.0, m_points)


@pytest.mark.parametrize("x_bound", [math.nan, math.inf, -math.inf, -1.0])
def test_x_bound_must_be_finite_and_non_negative(x_bound):
    with pytest.raises(ParameterError, match="x_bound"):
        ErrorParams(DELTA16, x_bound, 8)


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=10),
       st.floats(min_value=0.0, max_value=0.01), st.floats(min_value=0.0, max_value=0.01),
       st.floats(min_value=0.1, max_value=4.0), st.floats(min_value=0.1, max_value=4.0))
def test_bound_monotone_in_all_params(logm1, logm2, d1, d2, x1, x2):
    m_lo, m_hi = sorted((2**logm1, 2**logm2))
    d_lo, d_hi = sorted((d1, d2))
    x_lo, x_hi = sorted((x1, x2))
    assert fft_error_bound(ErrorParams(d_lo, x_lo, m_lo)) <= \
        fft_error_bound(ErrorParams(d_hi, x_hi, m_hi))


def test_fft2d_bound_positive_and_dominates_1d():
    two_d = fft2d_error_bound(16, 16, DELTA16, 1.0)
    one_d = fft_error_bound(ErrorParams(DELTA16, 1.0, 16))
    assert two_d > one_d


MODEL32 = GateCostModel(fixed_width=32, ct_side=64, signal_len=8, signal_total=8)


def test_nand_cost_add():
    assert nand_cost(MODEL32, "add") == 1152


def test_nand_cost_mul():
    assert nand_cost(MODEL32, "mul") == 1_474_560


def test_nand_cost_fft_composition():
    per_fly = 4 * 1_474_560 + 6 * 1152
    assert nand_cost(MODEL32, "fft") == 4 * 3 * per_fly


def test_nand_cost_unknown_op():
    with pytest.raises(ParameterError):
        nand_cost(MODEL32, "div")


def test_space_cost_product():
    assert space_cost(GateCostModel(32, 64, 8, 8)) == 1_048_576


def test_space_cost_zero_and_linear():
    base = space_cost(GateCostModel(32, 64, 8, 8))
    assert space_cost(GateCostModel(64, 64, 8, 8)) == 2 * base


def test_signal_headroom_ratio():
    # 32.16 format leaves 2^15 of integer range; 128 unit points use 128/32768
    assert signal_headroom(32, 16, 128, 1.0) == pytest.approx(128 / 32768)
    assert signal_headroom(16, 8, 128, 1.0) == pytest.approx(1.0)
