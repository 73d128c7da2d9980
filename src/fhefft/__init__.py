"""FFT on encrypted data via NAND circuits over a lattice FHE scheme."""

from .arith import FixedFormat, FixedWord, add, decode, encode, mul_const, mul_fixed, mul_integer, sub
from .engine import CleartextEngine, FheEngine, GateStats
from .errors import (
    CapabilityError,
    FhefftError,
    NoiseOverflowError,
    ParameterError,
    ParseError,
    RangeError,
    UsageError,
)
from .fft import ComplexFixed, SignalBuffer, TwiddleTable, fft_1d, fft_2d
from .fhe import DEFAULT_PARAMS, EXACT_PARAMS, Ciphertext, GswScheme, KeyPair, SchemeParams
from .harness import ErrorReport, run_1d_experiment, run_2d_experiment

__all__ = [
    "CapabilityError",
    "Ciphertext",
    "CleartextEngine",
    "ComplexFixed",
    "DEFAULT_PARAMS",
    "EXACT_PARAMS",
    "ErrorReport",
    "FheEngine",
    "FhefftError",
    "FixedFormat",
    "FixedWord",
    "GateStats",
    "GswScheme",
    "KeyPair",
    "NoiseOverflowError",
    "ParameterError",
    "ParseError",
    "RangeError",
    "SchemeParams",
    "SignalBuffer",
    "TwiddleTable",
    "UsageError",
    "add",
    "decode",
    "encode",
    "fft_1d",
    "fft_2d",
    "mul_const",
    "mul_fixed",
    "mul_integer",
    "run_1d_experiment",
    "run_2d_experiment",
    "sub",
]
