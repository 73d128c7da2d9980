import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fhefft import fileio
from fhefft.arith import FixedFormat
from fhefft.engine import FheEngine
from fhefft.errors import FhefftError, ParseError, UsageError
from fhefft.fft import SignalBuffer, input_signal, read_signal
from fhefft.fhe import DEFAULT_PARAMS, EXACT_PARAMS, GswScheme

F16 = FixedFormat(16, 8)


def test_params_round_trip(tmp_path):
    path = tmp_path / "params.json"
    fileio.write_params(path, DEFAULT_PARAMS)
    assert fileio.read_params(path) == DEFAULT_PARAMS


def test_params_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        fileio.read_params(path)


def test_keys_round_trip(tmp_path, exact_scheme, exact_keys):
    path = tmp_path / "keys.json"
    fileio.write_keys(path, EXACT_PARAMS, exact_keys)
    params, keys = fileio.read_keys(path)
    assert params == EXACT_PARAMS
    assert np.array_equal(keys.public_key, exact_keys.public_key)
    assert np.array_equal(keys.secret_key, exact_keys.secret_key)


def test_keys_wrong_format_field(tmp_path):
    path = tmp_path / "keys.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ParseError):
        fileio.read_keys(path)


def test_ciphertext_signal_round_trip(tmp_path, exact_scheme, exact_keys, rng):
    engine = FheEngine(exact_scheme, keys=exact_keys, rng=rng)
    values = [0.5 + 0.25j, -0.75 + 0.125j, 0.0 + 0.0j, 1.5 - 1.0j]
    sig = input_signal(engine, values, F16)
    path = tmp_path / "sig.eft"
    fileio.write_ciphertext_signal(path, EXACT_PARAMS, engine, sig, F16)

    assert fileio.read_ciphertext_params(path) == EXACT_PARAMS
    engine2 = FheEngine(exact_scheme, keys=exact_keys, rng=rng)
    loaded, fmt = fileio.read_ciphertext_signal(path, engine2)
    assert fmt == F16
    assert loaded.dims == 4
    assert list(read_signal(engine2, loaded)[0]) == values


def test_ciphertext_signal_2d_dims(tmp_path, exact_scheme, exact_keys, rng):
    engine = FheEngine(exact_scheme, keys=exact_keys, rng=rng)
    sig = input_signal(engine, [0.25] * 4, F16, dims=(2, 2))
    path = tmp_path / "img.eft"
    fileio.write_ciphertext_signal(path, EXACT_PARAMS, engine, sig, F16)
    loaded, _ = fileio.read_ciphertext_signal(path, FheEngine(exact_scheme, keys=exact_keys))
    assert loaded.dims == (2, 2)


def test_ciphertext_container_bad_magic(tmp_path, exact_scheme, exact_keys):
    path = tmp_path / "junk.eft"
    path.write_bytes(b"JUNKxxxxxxxxxxxx")
    with pytest.raises(ParseError):
        fileio.read_ciphertext_signal(path, FheEngine(exact_scheme, keys=exact_keys))


def test_ciphertext_truncated_payload(tmp_path, exact_scheme, exact_keys, rng):
    engine = FheEngine(exact_scheme, keys=exact_keys, rng=rng)
    sig = input_signal(engine, [0.5, 0.5], F16)
    path = tmp_path / "sig.eft"
    fileio.write_ciphertext_signal(path, EXACT_PARAMS, engine, sig, F16)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(ParseError):
        fileio.read_ciphertext_signal(path, FheEngine(exact_scheme, keys=exact_keys))


def test_ciphertext_engine_params_mismatch(tmp_path, exact_scheme, exact_keys, rng):
    engine = FheEngine(exact_scheme, keys=exact_keys, rng=rng)
    sig = input_signal(engine, [0.5, 0.5], F16)
    path = tmp_path / "sig.eft"
    fileio.write_ciphertext_signal(path, EXACT_PARAMS, engine, sig, F16)
    other = FheEngine(GswScheme(DEFAULT_PARAMS), public_key=np.zeros((1, 9)))
    with pytest.raises(UsageError):
        fileio.read_ciphertext_signal(path, other)


def test_ciphertext_noise_survives_the_container(tmp_path, default_scheme, default_keys, rng):
    """Noise estimates travel with the ciphertexts, so a server orders the
    operands of a homomorphic NAND as the client would."""
    client = FheEngine(default_scheme, keys=default_keys, rng=rng)
    point = input_signal(client, [0.5 + 0.25j], F16).points[0]
    bits = list(point.re.bits)
    bits[0] = client.nand(bits[0], bits[1])  # noisier and deeper than a fresh bit
    bits[1] = client.constant(1)  # exported as a noiseless trivial ciphertext
    sig = SignalBuffer.from_bits(bits + list(point.im.bits), F16, 1)
    path = tmp_path / "sig.eft"
    fileio.write_ciphertext_signal(path, DEFAULT_PARAMS, client, sig, F16)

    server = FheEngine(default_scheme)
    loaded, _ = fileio.read_ciphertext_signal(path, server)
    got = loaded.points[0].re.bits
    sent = [client.export_ct(h) for h in bits]
    assert len({ct.noise_est for ct in sent[:3]}) == 3
    assert [h.ct.noise_est for h in got] == [ct.noise_est for ct in sent]
    assert [h.ct.level for h in got] == [ct.level for ct in sent]
    # the noisier operand goes left on both sides, so the products agree
    assert np.array_equal(server.nand(got[2], got[0]).ct.matrix,
                          client.nand(bits[2], bits[0]).ct.matrix)


@pytest.fixture(scope="module")
def valid_container(tmp_path_factory, exact_scheme, exact_keys):
    """Bytes of a one-point 16.8 container, and a scratch path to rewrite."""
    engine = FheEngine(exact_scheme, keys=exact_keys, rng=np.random.default_rng(3))
    path = tmp_path_factory.mktemp("fuzz") / "sig.eft"
    fileio.write_ciphertext_signal(path, EXACT_PARAMS, engine,
                                   input_signal(engine, [0.5 - 0.25j], F16), F16)
    return path.read_bytes(), path


def _load_or_typed_error(path, scheme):
    """The reader's contract: a signal, or an FhefftError."""
    try:
        fileio.read_ciphertext_params(path)
        fileio.read_ciphertext_signal(path, FheEngine(scheme))
    except FhefftError:
        pass


_fuzz = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_fuzz
@given(data=st.data())
def test_container_reader_fuzzed_bytes(valid_container, exact_scheme, data):
    """Random bytes after a valid prefix (at least the magic) load or raise."""
    blob, path = valid_container
    cut = data.draw(st.integers(min_value=4, max_value=len(blob)))
    path.write_bytes(blob[:cut] + data.draw(st.binary(max_size=64)))
    _load_or_typed_error(path, exact_scheme)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)


@_fuzz
@given(data=st.data())
def test_container_reader_fuzzed_header_fields(valid_container, exact_scheme, data):
    """A header field deleted or replaced by any JSON value loads or raises."""
    blob, path = valid_container
    head_len = struct.unpack("<I", blob[8:12])[0]
    header = json.loads(blob[12:12 + head_len])
    field = data.draw(st.sampled_from(sorted(header)))
    value = data.draw(_json_values | st.just(...))
    if value is ...:
        del header[field]
    else:
        header[field] = value
    head = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(head)) + head + blob[12 + head_len:])
    _load_or_typed_error(path, exact_scheme)


def _with_header(blob, **fields):
    head_len = struct.unpack("<I", blob[8:12])[0]
    header = {**json.loads(blob[12:12 + head_len]), **fields}
    head = json.dumps(header).encode()
    return blob[:8] + struct.pack("<I", len(head)) + head + blob[12 + head_len:]


@pytest.mark.parametrize("noise", [
    [0] * 31, [0] * 33, [-1] + [0] * 31, [EXACT_PARAMS.q + 1] + [0] * 31,
    ["x"] + [0] * 31, 0, None,
], ids=["short", "long", "negative", "above-q", "not-a-number", "not-a-list", "null"])
def test_container_rejects_bad_noise(valid_container, exact_scheme, noise):
    """The per-ciphertext noise estimates are checked like the levels."""
    blob, path = valid_container
    path.write_bytes(_with_header(blob, noise=noise))
    with pytest.raises(ParseError):
        fileio.read_ciphertext_signal(path, FheEngine(exact_scheme))


def test_signal_text_round_trip(tmp_path):
    path = tmp_path / "sig.txt"
    values = np.array([1 + 2j, -0.5 + 0.25j, 0j])
    fileio.write_signal_text(path, values, dims=3, fmt=F16)
    loaded, meta = fileio.read_signal_text(path)
    assert np.array_equal(loaded, values)
    assert meta.dims == 3
    assert (meta.total_bits, meta.frac_bits) == (16, 8)


def test_signal_text_2d_meta(tmp_path):
    path = tmp_path / "sig.txt"
    fileio.write_signal_text(path, np.zeros(4, dtype=complex), dims=(2, 2))
    _, meta = fileio.read_signal_text(path)
    assert meta.dims == (2, 2)


def test_signal_text_bad_line_reports_location(tmp_path):
    path = tmp_path / "sig.txt"
    path.write_text("0.5,0.5\nbogus line\n")
    with pytest.raises(ParseError) as info:
        fileio.read_signal_text(path)
    assert info.value.line == 2


@pytest.mark.parametrize("line", ["nan,0", "0,inf", "-inf,0", "1e400,0"])
def test_signal_text_non_finite_reports_location(tmp_path, line):
    path = tmp_path / "sig.txt"
    path.write_text(f"0.5,0.5\n{line}\n")
    with pytest.raises(ParseError) as info:
        fileio.read_signal_text(path)
    assert info.value.line == 2


def test_signal_text_empty_rejected(tmp_path):
    path = tmp_path / "sig.txt"
    path.write_text("# fhefft dims=4\n")
    with pytest.raises(ParseError):
        fileio.read_signal_text(path)


def test_pgm_p2_parsing(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2\n# comment\n2 2\n255\n0 128\n255 64\n")
    img = fileio.read_pgm(path)
    assert img.shape == (2, 2)
    assert img[0, 0] == 0.0
    assert img[1, 0] == 1.0
    assert img[0, 1] == pytest.approx(128 / 255)


def test_pgm_p5_parsing(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
    img = fileio.read_pgm(path)
    assert img[0, 1] == pytest.approx(128 / 255)
    assert img[1, 1] == pytest.approx(64 / 255)


def test_pgm_bad_header(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(ParseError):
        fileio.read_pgm(path)


def test_pgm_short_raster(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(ParseError):
        fileio.read_pgm(path)


@pytest.mark.parametrize("blob", [
    b"P2\n2 1\n255\n-5 300\n",  # samples below 0 and above maxval
    b"P2\n2 1\n7\n3 8\n",
    b"P5\n2 1\n100\n" + bytes([50, 200]),
    b"P5\n1 1\n70000\n" + bytes(2),  # maxval past 16 bits
    b"P2\n1 1\n65536\n0\n",
])
def test_pgm_rejects_samples_outside_maxval(tmp_path, blob):
    path = tmp_path / "img.pgm"
    path.write_bytes(blob)
    with pytest.raises(ParseError):
        fileio.read_pgm(path)


def test_pgm_16bit_maxval_loads(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n2 1\n65535\n" + bytes([0, 0, 255, 255]))
    assert fileio.read_pgm(path).tolist() == [[0.0, 1.0]]


@pytest.mark.parametrize("meta", ["bits=32 frac=-2000", "bits=-3 frac=99", "bits=16 frac=16",
                                  "bits=16 frac=0", "frac=8", "bits=16"])
def test_signal_text_rejects_bad_format_metadata(tmp_path, meta):
    path = tmp_path / "sig.txt"
    path.write_text(f"# fhefft dims=1 {meta}\n0.5,0\n")
    with pytest.raises(ParseError) as info:
        fileio.read_signal_text(path)
    assert info.value.line == 1


_header_ints = st.sampled_from([-1, 0, 1, 2, 255, 256, 65535, 65536]) | st.integers()


@_fuzz
@given(data=st.data())
def test_pgm_reader_fuzzed(tmp_path, data):
    """A PGM with any header numbers and raster loads into [0, 1] or raises."""
    magic = data.draw(st.sampled_from([b"P2", b"P5"]))
    width, height = (data.draw(st.integers(1, 3) | _header_ints) for _ in range(2))
    maxval = data.draw(_header_ints)
    n = width * height if 0 < width * height <= 9 else data.draw(st.integers(0, 9))
    if magic == b"P2":
        raster = b" ".join(b"%d" % v for v in data.draw(
            st.lists(_header_ints, min_size=n, max_size=n)))
    else:
        raster = data.draw(st.binary(min_size=n, max_size=2 * n))
    blob = b"%s\n%d %d\n%d\n%s" % (magic, width, height, maxval, raster)
    path = tmp_path / "img.pgm"
    path.write_bytes(data.draw(st.sampled_from([blob, blob[:len(blob) // 2]])))
    try:
        img = fileio.read_pgm(path)
    except FhefftError:
        return
    assert img.shape == (height, width)
    assert 0 <= img.min() and img.max() <= 1


_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_signal_lines = st.one_of(
    st.tuples(st.floats(), st.floats()).map(lambda p: f"{p[0]!r},{p[1]!r}"),
    st.lists(st.sampled_from(["dims", "bits", "frac", "x"]).flatmap(
        lambda key: st.tuples(st.just(key), _header_ints | _text)), max_size=3).map(
        lambda tokens: "# fhefft " + " ".join(f"{k}={v}" for k, v in tokens)),
    _text)


@_fuzz
@given(lines=st.lists(_signal_lines, max_size=5))
def test_signal_text_reader_fuzzed(tmp_path, lines):
    """Any mix of value, metadata and junk lines loads or raises."""
    path = tmp_path / "sig.txt"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        values, meta = fileio.read_signal_text(path)
    except FhefftError:
        return
    assert len(values) and np.isfinite(values).all()
    if meta.frac_bits is not None:
        FixedFormat(meta.total_bits, meta.frac_bits)


@_fuzz
@given(data=st.data())
def test_key_reader_fuzzed(tmp_path, exact_keys, data):
    """A key file with a field (or a params field) deleted or replaced by any
    JSON value, or cut short, loads or raises."""
    path = tmp_path / "keys.json"
    fileio.write_keys(path, EXACT_PARAMS, exact_keys)
    doc = json.loads(path.read_text())
    target = data.draw(st.sampled_from([doc, doc["params"], doc["public_key"]]))
    field = data.draw(st.sampled_from(sorted(target)))
    value = data.draw(_json_values | st.just(...))
    if value is ...:
        del target[field]
    else:
        target[field] = value
    text = json.dumps(doc)
    cut = data.draw(st.just(len(text)) | st.integers(min_value=0, max_value=len(text)))
    path.write_text(text[:cut])
    try:
        fileio.read_keys(path)
    except FhefftError:
        pass
