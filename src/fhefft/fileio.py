"""File containers: parameters, keys, encrypted signals, plain signals, PGM.

Parameter and key files are versioned JSON; matrices travel as base64 of
little-endian 64-bit integers, row major.

Encrypted signals use a binary container:

    bytes 0..3    magic ``EFT1``
    bytes 4..7    container version, u32 little-endian
    bytes 8..11   header length H, u32 little-endian
    bytes 12..    UTF-8 JSON header of H bytes, then the payload

The header records the scheme parameters and their digest, the fixed
format, signal dims, and per ciphertext its NAND level and its noise
estimate (``Ciphertext.noise_est``, which orders the operands of a
homomorphic NAND).  The payload is the bit matrices of every ciphertext
packed 8 bits per byte, row major, in the bit layout of
``SignalBuffer.wires`` (points in signal order, real word then imaginary
word, word bits LSB first); a constant wire is written as its trivial
ciphertext.  Both directions move the FHE engine's wire records (words,
level, noise) with no object per ciphertext, converting whole stacks at
once, with at most ``FheEngine.CHUNK_BYTES`` in the largest array of one
piece.
Plain signals are text, one ``re,im`` pair per line, with an optional
``# fhefft`` metadata comment carrying dims and format.
"""

from __future__ import annotations

import base64
import json
import math
import os
import re
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from .arith import FixedFormat
from .engine import FHE_META
from .errors import ParseError, UsageError
from .fft import SignalBuffer, _sides
from .fhe import WORD_BITS_BYTES, KeyPair, SchemeParams, bit_words, word_bits

MAGIC = b"EFT1"
CONTAINER_VERSION = 1
# levels are int64, and a plan adds a circuit's NAND depth to them
# (``plan.walk``): below this, any circuit's depth fits
_LEVEL_LIMIT = 1 << 62


def params_to_dict(params: SchemeParams) -> dict:
    return asdict(params)


def params_from_dict(d: dict, path=None) -> SchemeParams:
    try:
        return SchemeParams(**{f.name: int(d[f.name]) for f in fields(SchemeParams)})
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad parameter field: {exc!r}", path=path) from exc


def write_params(path, params: SchemeParams):
    payload = {"format": "fhefft-params-v1", **params_to_dict(params)}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _load_json(path):
    """Parsed JSON file; bad JSON or text that is not UTF-8 raises ParseError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParseError(str(exc), path=path, line=getattr(exc, "lineno", None)) from exc


def read_params(path) -> SchemeParams:
    return params_from_dict(_load_json(path), path=path)


def _encode_matrix(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape),
            "data": base64.b64encode(arr.astype("<i8").tobytes()).decode()}


def _decode_matrix(d: dict, path=None) -> np.ndarray:
    try:
        raw = base64.b64decode(d["data"])
        return np.frombuffer(raw, dtype="<i8").reshape(d["shape"]).astype(np.int64)
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad matrix field: {exc}", path=path) from exc


def write_keys(path, params: SchemeParams, keys: KeyPair):
    payload = {
        "format": "fhefft-keys-v1",
        "params": params_to_dict(params),
        "public_key": _encode_matrix(keys.public_key),
        "secret_key": _encode_matrix(keys.secret_key),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def read_keys(path) -> tuple[SchemeParams, KeyPair]:
    data = _load_json(path)
    kind = data.get("format") if isinstance(data, dict) else None
    if kind != "fhefft-keys-v1":
        raise ParseError(f"not a key file (format={kind!r})", path=path)
    try:
        params = params_from_dict(data["params"], path=path)
        keys = KeyPair(public_key=_decode_matrix(data["public_key"], path),
                       secret_key=_decode_matrix(data["secret_key"], path))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad key file field: {exc!r}", path=path) from exc
    _check_keys(params, keys, path)
    return params, keys


def _check_keys(params: SchemeParams, keys: KeyPair, path):
    """Refuse keys that break ``KeyPair``'s invariant under their parameters."""
    a, s, q = keys.public_key, keys.secret_key, params.q
    if a.shape != (params.m, params.n + 1) or s.shape != (params.n + 1,) or \
            min(a.min(), s.min()) < 0 or max(a.max(), s.max()) >= q or s[-1] != 1:
        raise ParseError(f"keys do not fit {params}: need an m x (n+1) public key and an "
                         f"(n+1)-entry secret key ending in 1, over [0, q)", path=path)
    errors = [int(e) % q for e in a.astype(object) @ s.astype(object)]  # exact in ints
    if max(min(e, q - e) for e in errors) > params.noise_bound:
        raise ParseError(f"A @ s mod q exceeds noise_bound {params.noise_bound}", path=path)


# -- encrypted signal container ----------------------------------------------

def write_ciphertext_signal(path, signal: SignalBuffer):
    """Serialize every wire of a signal on an FHE engine."""
    engine, fmt = signal.engine, signal.fmt
    params = engine.scheme.params
    wires = signal.wires.reshape(-1)
    header = {
        "kind": "fhefft-signal",
        "params": params_to_dict(params),
        "params_digest": params.digest(),
        "fixed_format": {"total_bits": fmt.total_bits, "frac_bits": fmt.frac_bits},
        "dims": signal.dims,  # a pair as a JSON list
        "points": len(signal.wires),
        "ct_side": params.n_ct,
        "levels": wires["d"].tolist(),
        "noise": wires["noise"].tolist(),
    }
    head = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", CONTAINER_VERSION, len(head)))
        fh.write(head)
        step = max(1, engine.CHUNK_BYTES // (WORD_BITS_BYTES * params.n_ct * (params.n + 1)))
        for lo in range(0, len(wires), step):
            bits = word_bits(wires["v"][lo:lo + step], params.ell)
            fh.write(np.packbits(bits.reshape(len(bits), -1), axis=1).tobytes())


@dataclass(frozen=True)
class ContainerHeader:
    params: SchemeParams
    fmt: FixedFormat
    dims: int | tuple[int, int]
    levels: tuple[int, ...]
    noise: tuple[int, ...]
    payload: int  # bytes that follow the header in the file

    def check_payload(self, path):
        """Refuse a payload that is not one packed bit matrix per ciphertext."""
        expected = len(self.levels) * math.ceil(self.params.n_ct ** 2 / 8)
        if self.payload != expected:
            raise ParseError(f"payload holds {self.payload} bytes, expected {expected}",
                             path=path)

    def meta(self) -> np.ndarray:
        """Meta records (``FHE_META``) of the signal's variable wires."""
        meta = np.empty(len(self.levels), FHE_META)
        meta["c"], meta["d"], meta["noise"] = -1, self.levels, self.noise
        return meta


def _read_header(fh, path) -> ContainerHeader:
    """Validated preamble and header of an encrypted-signal container, read
    from the start of the open file ``fh``, which is left at the payload."""
    preamble = fh.read(12)
    if preamble[:4] != MAGIC:
        raise ParseError("not an encrypted-signal container (bad magic)",
                         path=path, offset=0)
    if len(preamble) < 12:
        raise ParseError("container ends inside its preamble", path=path, offset=len(preamble))
    version, head_len = struct.unpack("<II", preamble[4:12])
    if version != CONTAINER_VERSION:
        raise ParseError(f"unsupported container version {version}", path=path, offset=4)
    if (size := os.fstat(fh.fileno()).st_size) < 12 + head_len:
        raise ParseError(f"container ends inside its {head_len}-byte header",
                         path=path, offset=size)
    try:
        header = json.loads(fh.read(head_len))
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad container header: {exc}", path=path, offset=12) from exc
    try:
        params = params_from_dict(header["params"], path=path)
        digest = header["params_digest"]
        fmt = FixedFormat(int(header["fixed_format"]["total_bits"]),
                          int(header["fixed_format"]["frac_bits"]))
        dims = header["dims"]
        dims = int(dims) if np.ndim(dims) == 0 else tuple(int(d) for d in dims)
        rows, cols = _sides(dims)
        points = int(header["points"])
        ct_side = int(header["ct_side"])
        levels = tuple(int(v) for v in header["levels"])
        noise = tuple(int(v) for v in header["noise"])
    except (KeyError, TypeError, ValueError, OverflowError, UsageError) as exc:
        raise ParseError(f"bad container header field: {exc!r}", path=path, offset=12) from exc
    if params.digest() != digest:
        raise ParseError("parameter digest mismatch", path=path)
    if rows * cols != points:
        raise ParseError(f"dims {dims} do not hold {points} points", path=path)
    if ct_side != params.n_ct:
        raise ParseError(f"ct_side {ct_side} does not match the parameters' {params.n_ct}",
                         path=path)
    count = points * 2 * fmt.total_bits
    for name, values in (("levels", levels), ("noise", noise)):
        if len(values) != count:
            raise ParseError(f"{len(values)} {name} entries for {points} points of "
                             f"{fmt.total_bits}-bit words", path=path)
    if not all(0 <= v <= params.q for v in noise):
        raise ParseError(f"noise estimates must lie in [0, q = {params.q}]", path=path)
    if not all(0 <= v < _LEVEL_LIMIT for v in levels):
        raise ParseError("levels must lie in [0, 2^62)", path=path)
    return ContainerHeader(params, fmt, dims, levels, noise, size - 12 - head_len)


def _read_container(path) -> tuple[ContainerHeader, bytes]:
    """Validated header and payload of an encrypted-signal container."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        header.check_payload(path)
        return header, fh.read()


def read_ciphertext_header(path) -> ContainerHeader:
    """The checked header of a container alone (``check_payload`` checks the rest)."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def read_ciphertext_signal(path, engine) -> SignalBuffer:
    """Load an encrypted signal onto an FHE engine bound to matching params."""
    header, payload = _read_container(path)
    params, fmt = header.params, header.fmt
    if engine.scheme.params != params:
        raise UsageError(
            f"engine parameters {engine.scheme.params} do not match the file's {params}")
    n_ct = params.n_ct
    wires = np.empty(len(header.levels), engine.wire_dtype)
    wires[list(FHE_META.names)] = header.meta()
    packed = np.frombuffer(payload, dtype=np.uint8).reshape(len(wires), -1)
    step = max(1, engine.CHUNK_BYTES // (WORD_BITS_BYTES * n_ct * (params.n + 1)))
    for lo in range(0, len(wires), step):
        bits = np.unpackbits(packed[lo:lo + step], axis=1, count=n_ct * n_ct)
        wires["v"][lo:lo + step] = bit_words(bits.reshape(-1, n_ct, n_ct), params.ell)
    return SignalBuffer(engine, fmt, header.dims, wires.reshape(-1, 2, fmt.total_bits))


# -- plain signals -------------------------------------------------------------

@dataclass(frozen=True)
class SignalMeta:
    dims: object = None
    total_bits: int | None = None
    frac_bits: int | None = None


def write_signal_text(path, values, dims=None, fmt: FixedFormat | None = None):
    """One `re,im` pair per line, row major for 2D dims."""
    arr = np.asarray(values, dtype=complex).ravel()
    with open(path, "w") as fh:
        meta = []
        if dims is not None:
            meta.append("dims=" + "x".join(map(str, np.atleast_1d(dims))))
        if fmt is not None:
            meta.append(f"bits={fmt.total_bits}")
            meta.append(f"frac={fmt.frac_bits}")
        if meta:
            fh.write("# fhefft " + " ".join(meta) + "\n")
        for v in arr:
            fh.write(f"{float(v.real)!r},{float(v.imag)!r}\n")


def read_signal_text(path) -> tuple[np.ndarray, SignalMeta]:
    values = []
    meta = SignalMeta()
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(str(exc), path=path) from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            if text.startswith("# fhefft"):
                meta = _parse_meta(text, path, lineno)
            continue
        parts = text.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected `re,im`, got {text!r}",
                             path=path, line=lineno)
        try:
            real, imag = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=lineno) from exc
        if not (math.isfinite(real) and math.isfinite(imag)):
            raise ParseError(f"non-finite component in {text!r}", path=path, line=lineno)
        values.append(complex(real, imag))
    if not values:
        raise ParseError("no signal points found", path=path)
    return np.array(values, dtype=complex), meta


def _parse_meta(text, path, lineno) -> SignalMeta:
    dims = bits = frac = None
    for token in text.split()[2:]:
        key, _, val = token.partition("=")
        try:
            if key == "dims":
                dims = tuple(int(d) for d in val.split("x"))
                dims = dims[0] if len(dims) == 1 else dims
                _sides(dims)
            elif key == "bits":
                bits = int(val)
            elif key == "frac":
                frac = int(val)
        except (ValueError, UsageError) as exc:
            raise ParseError(f"bad metadata token {token!r}",
                             path=path, line=lineno) from exc
    if (bits is None) != (frac is None):
        raise ParseError("metadata needs both bits= and frac=", path=path, line=lineno)
    if bits is not None:
        try:
            FixedFormat(bits, frac)
        except UsageError as exc:
            raise ParseError(f"bad metadata format: {exc}", path=path, line=lineno) from exc
    return SignalMeta(dims=dims, total_bits=bits, frac_bits=frac)


def plain_input(path) -> tuple[np.ndarray, int | tuple[int, int]]:
    """Complex values and dims of a client's plain input: a ``.pgm`` image
    (row major, zero imaginary part) or a text signal (dims from its
    metadata, else its length)."""
    if str(path).endswith(".pgm"):
        image = read_pgm(path)
        return image.astype(complex).ravel(), image.shape
    values, meta = read_signal_text(path)
    return values, meta.dims if meta.dims is not None else len(values)


# -- PGM images -----------------------------------------------------------------

def read_pgm(path) -> np.ndarray:
    """Grayscale image as floats in [0, 1] (P2 ascii or P5 binary)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    # a token after whitespace and comments, each comment ending at a newline or \Z
    token = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)")
    tokens, pos = [], 0
    while len(tokens) < 4 and (match := token.match(blob, pos)):
        tokens.append(match[1])
        pos = match.end()
    if len(tokens) < 4 or tokens[0] not in (b"P2", b"P5"):
        raise ParseError("not a P2/P5 PGM image", path=path, offset=0)
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise ParseError(f"bad PGM header: {exc}", path=path, offset=0) from exc
    if width < 1 or height < 1 or not 1 <= maxval <= 65535:
        raise ParseError("PGM width and height must be positive and maxval in "
                         "[1, 65535]", path=path)
    if tokens[0] == b"P2":
        try:
            data = np.array(blob[pos:].split(), dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"bad P2 raster: {exc}", path=path, offset=pos) from exc
    else:
        pos += 1  # single whitespace after maxval
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        raster = blob[pos:pos + dtype.itemsize * width * height]
        # a short 16-bit raster may end mid-pixel; drop the odd byte so the
        # size check below reports it
        raster = raster[:len(raster) - len(raster) % dtype.itemsize]
        data = np.frombuffer(raster, dtype=dtype).astype(np.int64)
    if data.size != width * height:
        raise ParseError(f"raster holds {data.size} pixels, expected "
                         f"{width * height}", path=path, offset=pos)
    if data.min() < 0 or data.max() > maxval:
        raise ParseError(f"PGM samples must lie in [0, maxval = {maxval}]",
                         path=path, offset=pos)
    return data.reshape(height, width) / float(maxval)
