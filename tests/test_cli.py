import dataclasses
import hashlib
import json
import math
import struct

import numpy as np
import pytest

from fhefft import fft, fileio, netlist
from fhefft.arith import FixedFormat
from fhefft.cli import main
from fhefft.engine import CleartextEngine
from fhefft.error_model import fft2d_error_bound
from fhefft.errors import ParseError
from fhefft.fft import fft_1d, input_signal, read_signal
from fhefft.fhe import EXACT_PARAMS, SchemeParams
from fhefft.harness import reference_fft


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def exact_params_file(tmp_path):
    path = tmp_path / "params.json"
    fileio.write_params(path, EXACT_PARAMS)
    return path


@pytest.fixture()
def keys_file(tmp_path, exact_params_file):
    path = tmp_path / "keys.json"
    assert run_cli("keygen", "--params", exact_params_file,
                   "--seed", 1, "--out", path) == 0
    return path


def test_keygen_with_preset(tmp_path):
    out = tmp_path / "keys.json"
    assert run_cli("keygen", "--preset", "exact", "--seed", 5, "--out", out) == 0
    params, _ = fileio.read_keys(out)
    assert params == EXACT_PARAMS


def test_keygen_names_the_parameter_file_whose_field_is_refused(tmp_path, capsys):
    """A parameter file with n = 2.5 exits 2 with the rule's message and the
    file's path."""
    path = _params_with_n(tmp_path, "2.5")
    capsys.readouterr()
    assert run_cli("keygen", "--params", path, "--out", tmp_path / "k.json") == 2
    assert capsys.readouterr().err == f"error: {path}: n and m must be positive integers\n"
    assert not (tmp_path / "k.json").exists()


def test_pipeline_m4_matches_in_process_circuit(tmp_path, keys_file, capsys):
    """keygen -> encrypt -> fft -> decrypt -> verify, against the engine path."""
    fmt = FixedFormat(16, 8)
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 1, 4) + 1j * rng.uniform(0, 1, 4)
    plain = tmp_path / "signal.txt"
    fileio.write_signal_text(plain, values)

    ct, ct2, spec = tmp_path / "sig.eft", tmp_path / "out.eft", tmp_path / "spec.txt"
    assert run_cli("encrypt", plain, "--keys", keys_file, "--bits", 16,
                   "--frac", 8, "--seed", 7, "--out", ct) == 0
    assert run_cli("fft", ct, "--out", ct2, "--stats") == 0
    assert run_cli("decrypt", ct2, "--keys", keys_file, "--out", spec) == 0

    got, meta = fileio.read_signal_text(spec)
    assert meta.dims == 4

    # the decrypted spectrum is bit-for-bit the cleartext engine's result
    eng = CleartextEngine()
    expected = read_signal(eng, fft_1d(input_signal(eng, values, fmt)))[0]
    assert list(got) == list(expected)

    assert run_cli("verify", plain, spec) == 0


def test_parses_in_one_process_are_independent(tmp_path, keys_file, capsys):
    """The parser is built once per process; an option given to one
    ``main`` call does not carry over to the next."""
    plain, ct = tmp_path / "signal.txt", tmp_path / "sig.eft"
    fileio.write_signal_text(plain, [0.5 + 0.25j, -0.75 + 0.5j])
    assert run_cli("encrypt", plain, "--keys", keys_file, "--bits", 16,
                   "--frac", 8, "--seed", 7, "--out", ct) == 0
    capsys.readouterr()
    assert run_cli("fft", ct, "--out", tmp_path / "a.eft", "--stats") == 0
    with_stats = capsys.readouterr().out.splitlines()
    assert run_cli("fft", ct, "--out", tmp_path / "b.eft") == 0
    without = capsys.readouterr().out.splitlines()
    assert len(with_stats) == 2 and json.loads(with_stats[1])["nand_count"] > 0
    assert len(without) == 1 and without[0] == with_stats[0].replace("a.eft", "b.eft")
    assert (tmp_path / "a.eft").read_bytes() == (tmp_path / "b.eft").read_bytes()


def test_pipeline_ciphertexts_golden(tmp_path):
    """Fixed seeds give the same input ciphertexts, the same output
    ciphertexts and levels, bit for bit, whatever order the server
    evaluates the gates in, and the spectrum they decrypt to."""
    plain, keys = tmp_path / "p.txt", tmp_path / "k.json"
    ct, out, spec = tmp_path / "in.eft", tmp_path / "out.eft", tmp_path / "s.txt"
    fileio.write_signal_text(plain, [0.5 + 0.25j, -0.75 + 0.5j, 0.125 - 1j, 1.0 + 0.0j])
    assert run_cli("keygen", "--preset", "exact", "--seed", 11, "--out", keys) == 0
    assert run_cli("encrypt", plain, "--keys", keys, "--bits", 16, "--frac", 8,
                   "--seed", 12, "--out", ct) == 0
    assert hashlib.sha256(fileio._read_container(ct)[1]).hexdigest()[:16] == "dac634c6420b5b5b"
    assert run_cli("fft", ct, "--out", out) == 0
    header, payload = fileio._read_container(out)
    assert hashlib.sha256(payload).hexdigest()[:16] == "a4766cb3f39fa1a6"
    assert hashlib.sha256(json.dumps(list(header.levels)).encode()).hexdigest()[:16] == \
        "add43b219a35afb4"
    assert run_cli("decrypt", out, "--keys", keys, "--out", spec) == 0
    assert list(fileio.read_signal_text(spec)[0]) == \
        [0.875 - 0.25j, 0.875 + 3.0j, 0.375 - 1.25j, -0.125 - 0.5j]


def test_verify_report_fields(tmp_path, keys_file, capsys):
    values = [0.5 + 0.5j, 0.25 + 0.0j]
    plain = tmp_path / "p.txt"
    fileio.write_signal_text(plain, values)
    ct, ct2, spec = tmp_path / "a.eft", tmp_path / "b.eft", tmp_path / "s.txt"
    run_cli("encrypt", plain, "--keys", keys_file, "--bits", 16, "--frac", 8,
            "--seed", 2, "--out", ct)
    run_cli("fft", ct, "--out", ct2)
    run_cli("decrypt", ct2, "--keys", keys_file, "--out", spec)
    capsys.readouterr()
    assert run_cli("verify", plain, spec) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_error"] <= report["error_bound"]
    assert report["size"] == 2


def test_decrypt_with_wrong_key_exits_3(tmp_path, keys_file):
    plain = tmp_path / "p.txt"
    fileio.write_signal_text(plain, [0.5 + 0.5j, 0.25 + 0.75j])
    ct = tmp_path / "sig.eft"
    run_cli("encrypt", plain, "--keys", keys_file, "--bits", 16, "--frac", 8,
            "--seed", 2, "--out", ct)
    wrong = tmp_path / "wrong.json"
    run_cli("keygen", "--preset", "exact", "--seed", 999, "--out", wrong)
    assert run_cli("decrypt", ct, "--keys", wrong,
                   "--out", tmp_path / "x.txt") == 3


def test_verify_bound_violation_exits_4(tmp_path, capsys):
    plain, spec = tmp_path / "p.txt", tmp_path / "s.txt"
    values = np.array([0.5 + 0.5j, 0.25 + 0.75j])
    fileio.write_signal_text(plain, values)
    corrupted = np.array(reference_fft(values)) + 0.25
    fileio.write_signal_text(spec, corrupted, dims=2, fmt=FixedFormat(16, 8))
    assert run_cli("verify", plain, spec) == 4


def _container(header: dict, cts=32) -> bytes:
    """EFT1 bytes with the payload of `cts` exact-preset ciphertexts (one 16-bit point)."""
    head = json.dumps(header).encode()
    payload = bytes(cts * math.ceil(EXACT_PARAMS.n_ct ** 2 / 8))
    return fileio.MAGIC + struct.pack("<II", fileio.CONTAINER_VERSION, len(head)) + \
        head + payload


def _spectrum_of_4(d):
    path = d / "spec4.txt"
    fileio.write_signal_text(path, np.zeros(4))
    return path


def _plain_of_8(d):
    path = d / "plain8.txt"
    fileio.write_signal_text(path, np.zeros(8))
    return path


def _file(path, data):
    path.write_bytes(data)
    return path


def _signal(d, text):
    return _file(d / "sig.txt", text.encode())


def _pgm(path, cols, rows):
    """A P5 image of the given size with pixels 0, 1, 2, ..."""
    return _file(path, b"P5\n%d %d\n255\n" % (cols, rows) + bytes(range(rows * cols)))


NOT_UTF8 = b"\xff\xfe\x00"


def _params_with_n(d, n: str):
    """A copy of the exact preset's parameter file whose ``n`` is the JSON text ``n``."""
    body = json.dumps({**fileio.params_to_dict(EXACT_PARAMS), "n": "@"}).replace('"@"', n)
    return _file(d / "bad-params.json", body.encode())


def _keys_with(d, keys, **edits):
    """A copy of the key file ``keys`` with ``edit(matrix)`` in place of
    each matrix named in ``edits``."""
    params, pair = fileio.read_keys(keys)
    path = d / "bad-keys.json"
    fileio.write_keys(path, params, dataclasses.replace(
        pair, **{name: edit(getattr(pair, name)) for name, edit in edits.items()}))
    return path


def _encrypt_with(d, keys):
    """argv of ``encrypt`` of one point with the key file ``keys``."""
    return ["encrypt", _signal(d, "0.5,0\n"), "--keys", keys, "--out", d / "x.eft"]


def _decrypt_with(d, keys, other_keys):
    """argv of ``decrypt`` with the key file ``other_keys`` of one point
    encrypted with ``keys``."""
    ct = d / "ct.eft"
    assert run_cli("encrypt", _signal(d, "0.5,0\n"), "--keys", keys, "--bits", 16,
                   "--frac", 8, "--seed", 1, "--out", ct) == 0
    return ["decrypt", ct, "--keys", other_keys, "--out", d / "x.txt"]


_HEADER = {"params": fileio.params_to_dict(EXACT_PARAMS),
           "params_digest": EXACT_PARAMS.digest(),
           "fixed_format": {"total_bits": 16, "frac_bits": 8},
           "dims": 1, "points": 1, "ct_side": EXACT_PARAMS.n_ct, "levels": [0] * 32,
           "noise": [0] * 32}

# each case builds the argv of one CLI call on a malformed input
MALFORMED = {
    "signal-text": lambda d, keys: [
        "encrypt", _file(d / "bad.txt", b"this is not a signal\n"),
        "--keys", keys, "--out", d / "x.eft"],
    "pgm-comment-without-newline": lambda d, keys: [
        "encrypt", _file(d / "bad.pgm", b"P2 # c"), "--keys", keys, "--out", d / "x.eft"],
    "pgm-16bit-raster-ends-mid-pixel": lambda d, keys: [
        "encrypt", _file(d / "bad.pgm", b"P5\n2 2\n65535\n\x01\x02\x03"),
        "--keys", keys, "--out", d / "x.eft"],
    "signal-text-nan": lambda d, keys: [
        "encrypt", _signal(d, "0.5,0\nnan,0\n"), "--keys", keys, "--out", d / "x.eft"],
    "signal-text-inf": lambda d, keys: [
        "encrypt", _signal(d, "0.5,0\n0,-inf\n"), "--keys", keys, "--out", d / "x.eft"],
    "signal-text-overflows-fixed-point": lambda d, keys: [
        "encrypt", _signal(d, "0.5,0\n1e308,0\n"), "--keys", keys, "--out", d / "x.eft"],
    "signal-text-out-of-range": lambda d, keys: [
        "encrypt", _signal(d, "0.5,0\n0,40000\n"), "--keys", keys, "--out", d / "x.eft"],
    "verify-nan-spectrum": lambda d, keys: [
        "verify", _signal(d, "0.5,0\n0.25,0\n"), _file(d / "spec.txt", b"nan,nan\nnan,nan\n")],
    "params-not-utf8": lambda d, keys: [
        "keygen", "--params", _file(d / "bad.json", NOT_UTF8), "--out", d / "k.json"],
    "keys-not-utf8": lambda d, keys: [
        "encrypt", _signal(d, "0.5,0\n"), "--keys", _file(d / "bad.json", NOT_UTF8),
        "--out", d / "x.eft"],
    "verify-not-utf8": lambda d, keys: [
        "verify", _file(d / "bad.txt", NOT_UTF8), _spectrum_of_4(d)],
    "keys-without-params": lambda d, keys: [
        "decrypt", d / "x.eft", "--out", d / "x.txt",
        "--keys", _file(d / "bad.json", b'{"format": "fhefft-keys-v1"}')],
    "params-a-list": lambda d, keys: [
        "keygen", "--params", _file(d / "bad.json", b"[1,2]"), "--out", d / "k.json"],
    "params-a-string": lambda d, keys: [
        "keygen", "--params", _file(d / "bad.json", b'"str"'), "--out", d / "k.json"],
    "params-n-a-string": lambda d, keys: [
        "keygen", "--params", _params_with_n(d, '"x"'), "--out", d / "k.json"],
    "params-n-null": lambda d, keys: [
        "keygen", "--params", _params_with_n(d, "null"), "--out", d / "k.json"],
    "params-n-overflows-float": lambda d, keys: [
        "keygen", "--params", _params_with_n(d, "2.5e400"), "--out", d / "k.json"],
    "keys-public-key-3x3": lambda d, keys: _encrypt_with(
        d, _keys_with(d, keys, public_key=lambda a: a[:3])),
    "keys-public-entries-2^62": lambda d, keys: _encrypt_with(
        d, _keys_with(d, keys, public_key=lambda a: np.full_like(a, 2**62))),
    # A @ s gains s[-1] = 1 in its first entry, past the exact preset's noise_bound 0
    "keys-public-errors-past-noise-bound": lambda d, keys: _encrypt_with(
        d, _keys_with(d, keys, public_key=lambda a: (a + np.eye(
            *a.shape, k=a.shape[1] - 1, dtype=np.int64)) % EXACT_PARAMS.q)),
    "keys-secret-key-5-entries": lambda d, keys: _decrypt_with(
        d, keys, _keys_with(d, keys, secret_key=lambda s: np.resize(s, 5))),
    "keys-secret-negative-entry": lambda d, keys: _decrypt_with(
        d, keys, _keys_with(d, keys, secret_key=lambda s: np.append(-1, s[1:]))),
    "keys-secret-last-entry-not-1": lambda d, keys: _decrypt_with(
        d, keys, _keys_with(d, keys, secret_key=lambda s: np.append(s[:-1], 2))),
    "keys-not-an-object": lambda d, keys: [
        "decrypt", d / "x.eft", "--out", d / "x.txt", "--keys", _file(d / "bad.json", b"[1]")],
    "truncated-container": lambda d, keys: [
        "fft", _file(d / "bad.eft", b"EFT1\x01"), "--out", d / "x.eft"],
    "container-without-params": lambda d, keys: [
        "fft", _file(d / "bad.eft", _container(
            {k: v for k, v in _HEADER.items() if k != "params"})), "--out", d / "x.eft"],
    "container-without-levels": lambda d, keys: [
        "fft", _file(d / "bad.eft", _container(
            {k: v for k, v in _HEADER.items() if k != "levels"})), "--out", d / "x.eft"],
    "container-negative-levels": lambda d, keys: [
        "fft", _file(d / "bad.eft", _container({**_HEADER, "levels": [-7] * 32})),
        "--out", d / "x.eft"],
    # a plan adds NAND depths to int64 levels, so levels stop below 2^62;
    # 2^70 does not fit int64 at all
    "container-level-2^62": lambda d, keys: [
        "fft", _file(d / "bad.eft", _container({**_HEADER, "levels": [2**62] + [0] * 31})),
        "--out", d / "x.eft"],
    "container-level-2^70": lambda d, keys: [
        "fft", _file(d / "bad.eft", _container({**_HEADER, "levels": [2**70] + [0] * 31})),
        "--out", d / "x.eft"],
    "verify-length-mismatch": lambda d, keys: [
        "verify", _plain_of_8(d), _spectrum_of_4(d)],
    "verify-meta-frac-overflows": lambda d, keys: [
        "verify", _signal(d, "0.5,0\n"),
        _file(d / "spec.txt", b"# fhefft bits=32 frac=-2000\n0.5,0\n")],
    "verify-negative-frac-option": lambda d, keys: [
        "verify", _signal(d, "0.5,0\n"), _file(d / "spec.txt", b"0.5,0\n"), "--frac", -2000],
    "bound-negative-frac": lambda d, keys: ["bound", "--points", 8, "--frac", -2000],
    "bound-points-not-power-of-two": lambda d, keys: ["bound", "--points", 3],
    "bound-xb-nan": lambda d, keys: ["bound", "--points", 8, "--xb", "nan"],
    "bound-xb-inf": lambda d, keys: ["bound", "--points", 8, "--xb", "inf"],
    "bound-total-zero": lambda d, keys: ["bound", "--points", 8, "--total", 0],
    "bound-total-below-points": lambda d, keys: ["bound", "--points", 8, "--total", 4],
    "encrypt-bits-past-float64": lambda d, keys: [
        "encrypt", _signal(d, "0.5,0\n"), "--keys", keys, "--bits", 1100, "--frac", 8,
        "--out", d / "x.eft"],
    "bench-bits-past-float64": lambda d, keys: [
        "bench", "--sizes", 8, "--trials", 1, "--bits", 1100, "--frac", 8],
    "verify-meta-negative-bits": lambda d, keys: [
        "verify", _signal(d, "0.5,0\n"),
        _file(d / "spec.txt", b"# fhefft bits=-3 frac=99\n0.5,0\n")],
    "bench-zero-trials": lambda d, keys: ["bench", "--sizes", 8, "--trials", 0],
    "bench-2d-zero-images": lambda d, keys: [
        "bench", "--dims", 2, "--sizes", 16, "--trials", 0],
    "bench-sizes-not-integers": lambda d, keys: ["bench", "--sizes", "8,abc"],
    "bench-2d-size-not-square": lambda d, keys: [
        "bench", "--dims", 2, "--sizes", 8, "--trials", 1],
    "bench-2d-on-fhe": lambda d, keys: [
        "bench", "--dims", 2, "--backend", "fhe", "--sizes", 4, "--trials", 1],
    "bench-pgm-shapes-differ": lambda d, keys: [
        "bench", _pgm(d / "a.pgm", 4, 4), _pgm(d / "b.pgm", 2, 2), "--dims", 2],
    "bench-pgm-side-not-power-of-two": lambda d, keys: [
        "bench", _pgm(d / "a.pgm", 3, 2), "--dims", 2],
    "bench-pgm-without-dims-2": lambda d, keys: ["bench", _pgm(d / "a.pgm", 2, 2)],
    "keygen-negative-seed": lambda d, keys: [
        "keygen", "--preset", "exact", "--seed", -1, "--out", d / "k.json"],
    "encrypt-negative-seed": lambda d, keys: [
        "encrypt", _signal(d, "0.5,0\n"), "--keys", keys, "--seed", -1, "--out", d / "x.eft"],
    "bench-negative-seed": lambda d, keys: [
        "bench", "--sizes", 8, "--trials", 1, "--seed", -1],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(case, tmp_path, keys_file, capsys):
    capsys.readouterr()
    assert run_cli(*MALFORMED[case](tmp_path, keys_file)) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error: ") for line in err.splitlines()), err


def test_container_levels_past_the_budget_exit_3(tmp_path, keys_file):
    """Levels are only parsed as counts; one past the depth budget, up to
    2^62 - 1, the largest a container accepts, fails where it is used, in
    the server's NANDs and in decryption."""
    plain, ct, over = tmp_path / "p.txt", tmp_path / "a.eft", tmp_path / "over.eft"
    fileio.write_signal_text(plain, [0.5 + 0.25j, -0.75 + 0.5j])
    assert run_cli("encrypt", plain, "--keys", keys_file, "--bits", 16, "--frac", 8,
                   "--seed", 5, "--out", ct) == 0
    blob = ct.read_bytes()
    head_len = struct.unpack("<I", blob[8:12])[0]
    header = json.loads(blob[12:12 + head_len])
    for level in (EXACT_PARAMS.depth_budget + 1, 2**62 - 1):
        header["levels"] = [level] * len(header["levels"])
        head = json.dumps(header).encode()
        over.write_bytes(blob[:8] + struct.pack("<I", len(head)) + head + blob[12 + head_len:])
        assert run_cli("fft", over, "--out", tmp_path / "b.eft") == 3
        assert run_cli("decrypt", over, "--keys", keys_file, "--out", tmp_path / "s.txt") == 3


def test_fft_past_the_depth_budget_exits_3(tmp_path):
    """On the default preset a transform far deeper than the depth budget
    is refused by the server with exit 3, while its plan compiles: no plan
    of it is kept."""
    keys, plain, ct = tmp_path / "keys.json", tmp_path / "p.txt", tmp_path / "a.eft"
    assert run_cli("keygen", "--preset", "default", "--seed", 1, "--out", keys) == 0
    fileio.write_signal_text(plain, [0.5 + 0.25j, -0.75 + 0.5j])
    assert run_cli("encrypt", plain, "--keys", keys, "--bits", 16, "--frac", 8,
                   "--seed", 5, "--out", ct) == 0
    plans = set(netlist.PLANS)
    assert run_cli("fft", ct, "--out", tmp_path / "b.eft") == 3
    assert not (tmp_path / "b.eft").exists()
    assert set(netlist.PLANS) == plans


def test_fft_compiles_from_the_header_before_the_payload(tmp_path, keys_file, monkeypatch):
    """``fhefft fft`` compiles the plan from the container's header: on the
    default preset it refuses the transform with exit 3 without reading the
    payload, and on the exact preset the transform replays that plan."""
    keys, plain, ct = tmp_path / "default-keys.json", tmp_path / "p.txt", tmp_path / "a.eft"
    assert run_cli("keygen", "--preset", "default", "--seed", 1, "--out", keys) == 0
    fileio.write_signal_text(plain, [0.5 + 0.25j, -0.75 + 0.5j])
    assert run_cli("encrypt", plain, "--keys", keys, "--bits", 16, "--frac", 8,
                   "--seed", 5, "--out", ct) == 0
    read = fileio.read_ciphertext_signal

    def unread(*args):
        raise AssertionError("the payload was read")

    monkeypatch.setattr(fileio, "read_ciphertext_signal", unread)
    assert run_cli("fft", ct, "--out", tmp_path / "b.eft") == 3
    monkeypatch.setattr(fileio, "read_ciphertext_signal", read)
    assert run_cli("encrypt", plain, "--keys", keys_file, "--bits", 16, "--frac", 8,
                   "--seed", 5, "--out", ct) == 0
    monkeypatch.setattr(fft, "PLANS", {})
    assert run_cli("fft", ct, "--out", tmp_path / "b.eft") == 0
    assert len(fft.PLANS) == 1


def test_fft_refuses_a_short_payload_before_it_compiles(tmp_path, monkeypatch):
    """A container cut to its header (here 256 points at 32.16 on the exact
    preset, whose plan takes seconds to compile) exits 2 from the file's
    size, before ``fhefft fft`` compiles any plan."""
    wires = 256 * 2 * 32
    header = {**_HEADER, "fixed_format": {"total_bits": 32, "frac_bits": 16},
              "dims": 256, "points": 256, "levels": [0] * wires, "noise": [0] * wires}
    path = _file(tmp_path / "short.eft", _container(header, 0))

    def uncompiled(*args):
        raise AssertionError("a plan was compiled")

    monkeypatch.setattr(fft, "PLANS", {})
    monkeypatch.setattr(fft, "_compile", uncompiled)
    assert run_cli("fft", path, "--out", tmp_path / "x.eft") == 2


_HUGE = SchemeParams(n=300, q=9, m=8, noise_bound=0, depth_budget=1)


@pytest.mark.parametrize("header, cts", [
    ({**_HEADER, "params": fileio.params_to_dict(_HUGE), "params_digest": _HUGE.digest(),
      "ct_side": _HUGE.n_ct, "dims": 0, "points": 0, "levels": [], "noise": []}, 0),
    ({**_HEADER, "dims": 2}, 32),
    ({**_HEADER, "dims": [2, 2]}, 32),
], ids=["zero-points", "dims-2", "dims-2x2"])
def test_container_dims_must_hold_points(header, cts, tmp_path):
    """The header's points must be positive and match dims, before any scheme is built."""
    path = _file(tmp_path / "bad.eft", _container(header, cts))
    with pytest.raises(ParseError):
        fileio.read_ciphertext_header(path)
    assert run_cli("fft", path, "--out", tmp_path / "x.eft") == 2


def test_verify_xb_zero_is_a_bound_not_a_default(tmp_path, capsys):
    """``--xb 0`` bounds the signal by 0; only a missing ``--xb`` falls back
    to the data's largest component."""
    plain, spec = tmp_path / "p.txt", tmp_path / "s.txt"
    values = [0.5 + 0.25j, -0.75 + 0.5j, 0.125 - 1j, 1.0 + 0.0j]
    fileio.write_signal_text(plain, values)
    fileio.write_signal_text(spec, reference_fft(values), dims=4, fmt=FixedFormat(16, 8))
    bounds = {}
    for xb in ("0", "1e-9", None):
        capsys.readouterr()
        assert run_cli("verify", plain, spec, *(("--xb", xb) if xb else ())) == 0
        bounds[xb] = json.loads(capsys.readouterr().out)["error_bound"]
    assert bounds["0"] == 0.0234375
    assert bounds["0"] < bounds["1e-9"] < bounds[None] == 0.03125


def test_pgm_image_pipeline_verifies(tmp_path, keys_file, capsys):
    """encrypt -> fft -> decrypt -> verify on a 2x2 PGM: verify reads the
    image it was encrypted from and checks the 2D bound, also on a spectrum
    file without metadata."""
    pgm, ct, ct2, spec = (tmp_path / f for f in ("img.pgm", "a.eft", "b.eft", "s.txt"))
    pgm.write_bytes(b"P2\n2 2\n255\n0 64\n128 255\n")
    assert run_cli("encrypt", pgm, "--keys", keys_file, "--bits", 16,
                   "--frac", 8, "--seed", 4, "--out", ct) == 0
    assert run_cli("fft", ct, "--out", ct2) == 0
    assert run_cli("decrypt", ct2, "--keys", keys_file, "--out", spec) == 0
    bare = tmp_path / "bare.txt"  # the spectrum without its metadata line
    bare.write_text(spec.read_text().split("\n", 1)[1])
    assert spec.read_text().startswith("# fhefft dims=2x2") and "#" not in bare.read_text()
    for spectrum, frac in ((spec, ()), (bare, ("--frac", 8))):
        capsys.readouterr()
        assert run_cli("verify", pgm, spectrum, *frac) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["size"] == [2, 2]  # the image's dims when the spectrum has none
        assert report["error_bound"] == fft2d_error_bound(2, 2, 2.0**-8, 1.0)
        assert report["max_error"] <= report["error_bound"]


def test_verify_fails_closed_on_overflowing_oracle(tmp_path, capsys):
    """Components near 1e308 overflow the oracle; verify must not pass, and
    must blame the plain signal, not the spectrum."""
    plain, spec = tmp_path / "p.txt", tmp_path / "s.txt"
    fileio.write_signal_text(plain, np.full(4, 1e308 + 1e308j))
    fileio.write_signal_text(spec, np.zeros(4), dims=4, fmt=FixedFormat(16, 8))
    capsys.readouterr()
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_cli("verify", plain, spec) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(plain) in err


def test_missing_file_exits_2(tmp_path):
    assert run_cli("verify", tmp_path / "nope.txt", tmp_path / "nope2.txt") == 2


def test_bound_command_value(capsys):
    assert run_cli("bound", "--points", 8, "--frac", 16, "--xb", 1.0) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["error_bound"] == pytest.approx(3.052e-4, rel=1e-3)
    assert out["nand_cost"]["add"] == 36 * 32
    assert out["nand_cost"]["mul"] == 1_474_560


def test_bench_table_and_json(capsys):
    assert run_cli("bench", "--sizes", "8", "--trials", 4, "--json") == 0
    out = capsys.readouterr().out
    assert "Mean Error" in out
    record = json.loads(out.strip().splitlines()[-1])
    assert record["size"] == 8
    assert record["mean_error"] <= record["error_bound"]


def test_bench_2d_on_pgm_images(tmp_path, capsys):
    """PGM paths replace the random images: one report over both images."""
    images = [_pgm(tmp_path / "a.pgm", 4, 2), _pgm(tmp_path / "b.pgm", 4, 2)]
    assert run_cli("bench", *images, "--dims", 2, "--bits", 16, "--frac", 8, "--json") == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["size"] == [2, 4] and record["trials"] == 2
    assert 0 < record["max_error"] <= record["error_bound"]


@pytest.mark.slow
def test_pipeline_m8_full_format_error_level(tmp_path, keys_file, capsys):
    """Encrypted 8-point pipeline at 32.16 lands in the 1e-5 mean-error range."""
    rng = np.random.default_rng(42)
    values = rng.uniform(0, 1, 8) + 1j * rng.uniform(0, 1, 8)
    plain = tmp_path / "p.txt"
    fileio.write_signal_text(plain, values)
    ct, ct2, spec = tmp_path / "a.eft", tmp_path / "b.eft", tmp_path / "s.txt"
    assert run_cli("encrypt", plain, "--keys", keys_file, "--bits", 32,
                   "--frac", 16, "--seed", 2, "--out", ct) == 0
    assert run_cli("fft", ct, "--out", ct2) == 0
    assert run_cli("decrypt", ct2, "--keys", keys_file, "--out", spec) == 0
    capsys.readouterr()
    assert run_cli("verify", plain, spec) == 0
    report = json.loads(capsys.readouterr().out)
    assert 1e-6 < report["mean_error"] < 1e-4
    assert report["max_error"] <= report["error_bound"]


def test_pgm_image_encrypt_roundtrip(tmp_path, keys_file):
    pgm = tmp_path / "img.pgm"
    pgm.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255]))
    ct = tmp_path / "img.eft"
    assert run_cli("encrypt", pgm, "--keys", keys_file, "--bits", 16,
                   "--frac", 8, "--seed", 4, "--out", ct) == 0
    assert run_cli("fft", ct, "--out", tmp_path / "img2.eft") == 0
    assert run_cli("decrypt", tmp_path / "img2.eft", "--keys", keys_file,
                   "--out", tmp_path / "spec.txt") == 0
    _, meta = fileio.read_signal_text(tmp_path / "spec.txt")
    assert meta.dims == (2, 2)
