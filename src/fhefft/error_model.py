"""Analytical error bounds and gate/space cost model.

The only error source in the pipeline is fixed-point representation:
every real value carries at most delta = 2^-f of it.  The bounds below
track how that error moves through a complex multiplication, through
one butterfly, and through a whole transform; dropped delta^2 terms
follow the derivation (delta < 1).

Costs: a width-F addition is counted at 36*F NANDs and a width-F
fixed-point multiplication at 288 * F^2 * log2(F); both are worst-case
ceilings that the shipped circuits stay under, asserted by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ParameterError, _is_count, _is_pow2


@dataclass(frozen=True)
class ErrorParams:
    """Inputs of the transform error bound.

    delta    per-value representation error (2^-f for f fractional bits)
    x_bound  bound on |Re| and |Im| of every signal point
    m_points signal length, a power of two (the radix-2 transform's)
    """

    delta: float
    x_bound: float
    m_points: int

    def __post_init__(self):
        if not 0 <= self.delta < 1:
            raise ParameterError("delta must lie in [0, 1)")
        if not 0 <= self.x_bound < math.inf:  # NaN fails too
            raise ParameterError(f"x_bound must be finite and >= 0, got {self.x_bound}")
        if not _is_pow2(self.m_points):
            raise ParameterError(f"m_points must be a power of two, got {self.m_points}")


@dataclass(frozen=True)
class GateCostModel:
    """Shape of one encrypted transform for cost accounting.

    fixed_width F, ciphertext side length N, signal length M for the
    transform, and total stored points L (all dimensions multiplied out).
    """

    fixed_width: int
    ct_side: int
    signal_len: int
    signal_total: int

    def __post_init__(self):
        for field in fields(self):
            if not _is_count(getattr(self, field.name)):
                raise ParameterError(f"{field.name} must be a positive integer")
        if self.signal_total < self.signal_len:
            raise ParameterError(f"total stored points {self.signal_total} are fewer than "
                                 f"the transform's {self.signal_len}")


def cpmult_error(a: float, b: float, c: float, d: float,
                 delta: float) -> tuple[float, float]:
    """Error bound of (a+bi)(c+di) when every component carries +delta.

    Returns the (real, imaginary) bounds delta*(a+c-b-d) and
    delta*(a+b+c+d); second-order delta terms are dropped.
    """
    return delta * (a + c - b - d), delta * (a + b + c + d)


def butterfly_error(w: complex, xj: complex, delta: float,
                    flipped: bool = False) -> float:
    """Error bound of one butterfly output x_i + W*x_j.

    delta * (Re W + Im W + Re x_j + Im x_j + 1); for the second output the
    product's component signs flip while the additive 1 stays positive.
    """
    w, xj = complex(w), complex(xj)
    sign = -1.0 if flipped else 1.0
    return delta * (sign * (w.real + w.imag + xj.real + xj.imag) + 1.0)


def fft_error_bound(p: ErrorParams) -> float:
    """Processing-error bound of a full 1D transform.

    delta * (W_S + (M/2) * (X_b + 1)), with the summed twiddle magnitudes
    W_S at their ceiling (M/2) * log2 M: the closed form
    delta * (M/2) * (log2 M + X_b + 1).
    """
    half = p.m_points / 2
    return p.delta * (half * math.log2(p.m_points) + half * (p.x_bound + 1))


def fft2d_error_bound(rows: int, cols: int, delta: float, x_bound: float) -> float:
    """Row-column composition of the 1D bound for a 2D transform.

    The column pass amplifies errors carried out of the row pass by at
    most the column length (unnormalized transform, unit-bounded
    coefficients) and adds its own processing error at the grown signal
    magnitude cols * x_bound.
    """
    row_err = fft_error_bound(ErrorParams(delta, x_bound, cols))
    col_err = fft_error_bound(ErrorParams(delta, cols * x_bound, rows))
    return rows * row_err + col_err


def nand_cost(model: GateCostModel, op: str) -> int:
    """Worst-case NAND count of one operation: 'add', 'mul', or 'fft'."""
    f_width = model.fixed_width
    if op == "add":
        return 36 * f_width
    if op == "mul":
        return math.ceil(288 * f_width**2 * math.log2(f_width))
    if op == "fft":
        per_butterfly = 4 * nand_cost(model, "mul") + 6 * nand_cost(model, "add")
        m = model.signal_len
        return (m // 2) * int(math.log2(m)) * per_butterfly
    raise ParameterError(f"unknown op {op!r}")


def space_cost(model: GateCostModel) -> int:
    """Ciphertext-matrix entries held for the whole signal: L * F * N^2."""
    return model.signal_total * model.fixed_width * model.ct_side**2


def signal_headroom(total_bits: int, frac_bits: int, m_points: int,
                    x_bound: float) -> float:
    """Worst-case output magnitude over the format's integer range.

    The unnormalized transform can grow values to M * X_b; ratios at or
    above 1 will wrap and callers should warn well before that.
    """
    return (m_points * x_bound) / float(1 << (total_bits - frac_bits - 1))
