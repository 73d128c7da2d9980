import dataclasses
import math
import warnings

import numpy as np
import pytest

from fhefft.arith import FixedFormat
from fhefft.errors import RangeError, UsageError
from fhefft.harness import (
    format_report_table,
    reference_fft,
    reference_fft2d,
    run_1d_experiment,
    run_2d_experiment,
)

F32 = FixedFormat(32, 16)


@pytest.mark.parametrize("m", [2, 4, 8, 16, 64])
def test_oracle_matches_numpy(m, rng):
    x = rng.normal(size=m) + 1j * rng.normal(size=m)
    assert np.allclose(reference_fft(x), np.fft.fft(x), atol=1e-9)


@pytest.mark.parametrize("m", [1, 2, 8, 128])
def test_batched_oracle_equals_row_by_row(m, rng):
    x = rng.uniform(0, 1, (100, m)) + 1j * rng.uniform(0, 1, (100, m))
    batch = reference_fft(x)
    assert batch.shape == (100, m)
    assert np.allclose(batch, [reference_fft(row) for row in x], rtol=0, atol=1e-12)
    assert np.allclose(batch, np.fft.fft(x), rtol=0, atol=1e-9 * m)


def test_oracle_2d_matches_numpy(rng):
    img = rng.normal(size=(8, 8))
    assert np.allclose(reference_fft2d(img), np.fft.fft2(img), atol=1e-9)


def test_oracle_2d_of_a_stack_equals_image_by_image(rng):
    stack = rng.uniform(0, 1, (3, 4, 16))
    want = [np.array([reference_fft(c) for c in np.array([reference_fft(r) for r in img]).T]).T
            for img in stack]
    assert np.allclose(reference_fft2d(stack), want, rtol=0, atol=1e-12)
    assert np.allclose(reference_fft2d(stack), np.fft.fft2(stack), rtol=0, atol=1e-9)


def test_oracle_rejects_non_power_of_two():
    for values in ([1.0, 2.0, 3.0], np.ones((4, 3)), np.ones((2, 6))):
        with pytest.raises(UsageError):
            reference_fft(values)


def test_report_invariants_single_trial():
    r = run_1d_experiment(8, trials=1, seed=3)
    assert r.mean_error == pytest.approx(r.total_error / 16)
    assert r.variance >= 0
    assert r.std_dev == pytest.approx(math.sqrt(r.variance))
    assert r.mean_error <= r.max_error <= r.error_bound
    assert r.nand_count > 0


def test_measured_gate_count_never_exceeds_cost_model():
    from fhefft.error_model import GateCostModel, nand_cost
    for m in (8, 16):
        r = run_1d_experiment(m, trials=1, seed=0)
        model = GateCostModel(fixed_width=32, ct_side=1, signal_len=m, signal_total=m)
        assert r.nand_count <= nand_cost(model, "fft")


def test_report_mean_is_total_over_components():
    r = run_1d_experiment(8, trials=5, seed=3)
    assert r.mean_error == pytest.approx(r.total_error / (2 * 8 * 5))


def test_reports_deterministic_on_clear_backend():
    a = run_1d_experiment(8, trials=4, seed=11).as_dict()
    b = run_1d_experiment(8, trials=4, seed=11).as_dict()
    a.pop("wall_time"), b.pop("wall_time")
    assert a == b


def test_mean_error_in_expected_band():
    r = run_1d_experiment(8, trials=32, seed=0)
    assert 1.294e-5 / 3 <= r.mean_error <= 1.294e-5 * 3


def test_error_grows_with_size_matched_seed():
    means = [run_1d_experiment(m, trials=8, seed=5).mean_error for m in (8, 16, 32)]
    assert means[0] < means[1] < means[2]


def test_finer_fraction_strictly_reduces_error():
    coarse = run_1d_experiment(8, fmt=FixedFormat(32, 16), trials=8, seed=2)
    fine = run_1d_experiment(8, fmt=FixedFormat(32, 24), trials=8, seed=2)
    assert fine.mean_error < coarse.mean_error


def test_fhe_backend_size_guard():
    with pytest.raises(UsageError):
        run_1d_experiment(16, trials=1, backend="fhe")


def test_fhe_backend_small_run_within_bound():
    r = run_1d_experiment(2, fmt=FixedFormat(16, 8), trials=1, seed=9, backend="fhe")
    assert r.max_error <= r.error_bound


def test_unknown_backend_rejected():
    with pytest.raises(UsageError):
        run_1d_experiment(8, backend="gpu")


def test_zero_image_zero_error():
    r = run_2d_experiment(images=[np.zeros((4, 4))], shape=(4, 4))
    assert r.total_error == 0.0


def test_constant_image_error_concentrated_at_dc():
    img = np.full((4, 4), 0.75)
    r = run_2d_experiment(images=[img], shape=(4, 4))
    assert r.max_error <= r.error_bound
    # every non-DC oracle coefficient is exactly zero and the circuit agrees
    assert r.total_error == pytest.approx(r.max_error, abs=1e-12)


def test_2d_report_shape_and_bound(rng):
    r = run_2d_experiment(images=2, shape=(4, 4), seed=1)
    assert r.size == (4, 4)
    assert r.trials == 2
    assert r.max_error <= r.error_bound


def test_format_report_table_lines_up():
    reports = [run_1d_experiment(8, trials=2, seed=0),
               run_2d_experiment(images=1, shape=(4, 4))]
    text = format_report_table(reports)
    lines = text.splitlines()
    assert len(lines) == 4
    assert len({len(l) for l in lines}) == 1  # aligned columns
    assert "4x4" in lines[3]


def test_headroom_warning_on_tight_format():
    with pytest.warns(UserWarning):
        run_1d_experiment(128, fmt=FixedFormat(16, 8), trials=1, seed=0)


@pytest.mark.parametrize("run", [
    lambda: run_1d_experiment(8, fmt=FixedFormat(2, 1), trials=4, seed=0),
    lambda: run_2d_experiment([[[10**400, 0], [0, 0]]], shape=(2, 2)),
], ids=["1d-values-past-2.1", "2d-int-past-float64"])
def test_values_off_the_format_raise_its_range_error_first(run):
    """Signals the format cannot hold raise its ``RangeError`` before the
    headroom warns or the error model refuses their bound."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match="does not fit"):
            run()


def test_fhe_report_equals_the_clear_report():
    """The encrypted backend reports what the cleartext one does, field for
    field, but for its timing and name."""
    fhe, clear = (dataclasses.asdict(run_1d_experiment(4, fmt=FixedFormat(16, 8), trials=2,
                                                       backend=backend))
                  for backend in ("fhe", "clear"))
    assert fhe.pop("backend") == "fhe" and clear.pop("backend") == "clear"
    del fhe["wall_time"], clear["wall_time"]
    assert fhe == clear
