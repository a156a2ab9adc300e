"""Image codecs for the synthetic corpus — pure numpy + zlib.

No image libraries exist in this container (no PIL / imageio / cv2), so:

* PNG is implemented for real (RGB8, zlib-deflated scanlines; encoder
  emits filter 0, decoder handles filters 0-4) — lossless, and the
  bytes are valid PNG any external tool can open.  When every scanline
  uses filter 0 (all that ``encode_png`` emits) the decoder returns the
  inflated scanlines with their filter bytes dropped; the per-pixel
  loop runs only for filters 1-4.
* "jpeg" is a clearly-marked deterministic STAND-IN for a real lossy
  codec: an 8x8 DCT + quantization codec (magic ``FJPG``).  It is NOT
  wire-compatible JPEG — ``decode_image`` on a real JPEG raises
  NotImplementedError — but it is genuinely lossy with PSNR that
  depends on the quality knob, so the north-rule fidelity invariant
  (decoded-pixel allclose lossless / PSNR>=40dB lossy) is exercised
  end-to-end with real math.  The decoder runs the inverse DCT of all
  three channels as one broadcast float32 matmul; summing in that order
  instead of a per-channel einsum may move a decoded pixel by 1 LSB
  (code value), never more, and that tolerance is pinned by the tests
  against the einsum reference.

All functions are deterministic.  ``phash_blobs`` hashes a batch of
encoded images: each decodes on its own (images are per-row payloads),
then the images of one shape resample to 32x32 gray in one gather and
every DCT runs in one matmul.  A blob that fails to decode hashes to
None.
"""

from __future__ import annotations

import functools
import struct
import zlib

import numpy as np

# ---------------------------------------------------------------- PNG (real)

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + tag
        + data
        + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
    )


def encode_png(arr: np.ndarray) -> bytes:
    """RGB8 HxWx3 array -> PNG bytes (color type 2, filter 0 scanlines)."""
    assert arr.dtype == np.uint8 and arr.ndim == 3 and arr.shape[2] == 3
    h, w, _ = arr.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    raw = np.concatenate(
        [np.zeros((h, 1), np.uint8), arr.reshape(h, w * 3)], axis=1
    ).tobytes()
    return (
        _PNG_SIG
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(raw, 6))
        + _chunk(b"IEND", b"")
    )


def decode_png(data: bytes) -> np.ndarray:
    """PNG bytes -> RGB8 array. Supports 8-bit RGB, filters 0-4, no interlace."""
    if data[:8] != _PNG_SIG:
        raise ValueError("not a PNG")
    pos = 8
    w = h = None
    idat = bytearray()
    while pos < len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4: pos + 8]
        body = data[pos + 8: pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, bitdepth, color, _, _, interlace = struct.unpack(">IIBBBBB", body)
            if bitdepth != 8 or color != 2 or interlace != 0:
                raise NotImplementedError("only 8-bit RGB non-interlaced PNG")
        elif tag == b"IDAT":
            idat.extend(body)
        elif tag == b"IEND":
            break
    raw = np.frombuffer(zlib.decompress(bytes(idat)), np.uint8)
    stride = w * 3
    raw = raw.reshape(h, stride + 1)
    filters = raw[:, 0]
    if not filters.any():  # all filter 0: the scanlines are the pixels
        # copied: a view of the inflated bytes would be read-only
        return raw[:, 1:].reshape(h, w, 3).copy()
    out = np.zeros((h, stride), np.uint16)
    bpp = 3
    for y in range(h):
        line = raw[y, 1:].astype(np.uint16)
        f = filters[y]
        prev = out[y - 1] if y else np.zeros(stride, np.uint16)
        if f == 0:
            out[y] = line
        elif f == 2:  # Up
            out[y] = (line + prev) & 0xFF
        elif f in (1, 3, 4):  # Sub / Average / Paeth need left-to-right scan
            cur = out[y]
            for x in range(stride):
                # plain python ints: mixing a python p with np.uint16
                # operands raises (negative p) or silently wraps under
                # NumPy 2's NEP-50 promotion, corrupting Paeth rows
                a = int(cur[x - bpp]) if x >= bpp else 0
                b = int(prev[x])
                c = int(prev[x - bpp]) if x >= bpp else 0
                if f == 1:
                    pred = a
                elif f == 3:
                    pred = (a + b) >> 1
                else:
                    p = a + b - c
                    pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if (pa_ <= pb_ and pa_ <= pc_) else (b if pb_ <= pc_ else c)
                cur[x] = (line[x] + pred) & 0xFF
        else:
            raise ValueError(f"bad filter {f}")
    return out.astype(np.uint8).reshape(h, w, 3)


# ------------------------------------------- deterministic lossy codec stub

_FJPG_MAGIC = b"FJPG"
_JPEG_MAGIC = b"\xff\xd8\xff"

# standard JPEG luminance quantization table (public, ITU T.81 Annex K)
_QTABLE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    np.float32,
)


def _dct_matrix(n: int = 8) -> np.ndarray:
    k = np.arange(n)
    m = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * k[None, :] + 1) * k[:, None] / (2 * n))
    m[0] /= np.sqrt(2.0)
    return m.astype(np.float32)


_DCT8 = _dct_matrix(8)


def _blockify(chan: np.ndarray) -> np.ndarray:
    h, w = chan.shape
    return chan.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3)


@functools.lru_cache(maxsize=128)
def _quant_table(quality: int) -> np.ndarray:
    """The 8x8 float32 quantization table of one quality (read-only: the
    encoder and every decode of that quality share it)."""
    scale = (5000.0 / quality if quality < 50 else 200.0 - 2 * quality) / 100.0
    q = np.clip(np.floor(_QTABLE * scale + 0.5), 1, 255).astype(np.float32)
    q.flags.writeable = False
    return q


def encode_fakejpeg(arr: np.ndarray, quality: int = 85) -> bytes:
    """Deterministic lossy encode: per-channel 8x8 DCT + quantization.

    Dimensions are padded to multiples of 8 (edge-replicate) like JPEG.
    """
    assert arr.dtype == np.uint8 and arr.ndim == 3 and arr.shape[2] == 3
    h, w, _ = arr.shape
    q = _quant_table(quality)
    ph, pw = (h + 7) // 8 * 8, (w + 7) // 8 * 8
    padded = np.pad(arr, ((0, ph - h), (0, pw - w), (0, 0)), mode="edge")
    payload = bytearray()
    for c in range(3):
        blocks = _blockify(padded[:, :, c].astype(np.float32) - 128.0)
        coeffs = np.einsum("ij,bcjk,lk->bcil", _DCT8, blocks, _DCT8)
        quant = np.round(coeffs / q).astype(np.int16)
        payload.extend(quant.tobytes())
    header = _FJPG_MAGIC + struct.pack(">IIH", h, w, quality)
    return header + zlib.compress(bytes(payload), 6)


def decode_fakejpeg(data: bytes) -> np.ndarray:
    if data[:4] != _FJPG_MAGIC:
        raise ValueError("not FJPG")
    h, w, quality = struct.unpack(">IIH", data[4:14])
    q = _quant_table(quality)
    ph, pw = (h + 7) // 8 * 8, (w + 7) // 8 * 8
    raw = np.frombuffer(zlib.decompress(data[14:]), np.int16)
    if raw.size != 3 * (ph // 8) * (pw // 8) * 64:
        raise ValueError("truncated FJPG payload")
    coeffs = raw.reshape(3, ph // 8, pw // 8, 8, 8).astype(np.float32) * q
    blocks = _DCT8.T @ coeffs @ _DCT8  # every block of every channel
    # (c, by, bx, y, x) -> (by, y, bx, x, c) = (ph, pw, 3)
    out = blocks.transpose(1, 3, 2, 4, 0).reshape(ph, pw, 3) + 128.0
    return np.clip(np.round(out[:h, :w]), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------- dispatch

def encode_image(arr: np.ndarray, fmt: str, quality: int = 85) -> bytes:
    if fmt == "png":
        return encode_png(arr)
    if fmt == "jpeg":
        return encode_fakejpeg(arr, quality)
    raise ValueError(f"unknown fmt {fmt!r}")


def decode_image(data: bytes) -> np.ndarray:
    """Decode corpus image bytes. Real JPEG is stubbed (no codec libs here)."""
    if data[:8] == _PNG_SIG:
        return decode_png(data)
    if data[:4] == _FJPG_MAGIC:
        return decode_fakejpeg(data)
    if data[:3] == _JPEG_MAGIC:
        raise NotImplementedError(
            "real JPEG decode requires an image library not present in this "
            "environment; corpus 'jpeg' rows use the FJPG deterministic stand-in"
        )
    raise ValueError("unknown image format")


# ---------------------------------------------------------------- metrics

def psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0**2 / mse)


_DCT32 = _dct_matrix(32)


def _phash_smalls(stack: np.ndarray) -> np.ndarray:
    """(N, h, w, 3) images -> (N, 32, 32) float32 gray planes: one
    nearest-index gather for all N, then the float32 channel mean
    (summed in ``np.mean``'s order) of the gathered pixels only."""
    h, w = stack.shape[1:3]
    ys = np.minimum(np.arange(32) * h // 32, h - 1)
    xs = np.minimum(np.arange(32) * w // 32, w - 1)
    px = stack.take(ys, axis=1).take(xs, axis=2).astype(np.float32)
    gray = px[..., 0] + px[..., 1]
    gray += px[..., 2]
    gray /= 3
    return gray


def _phash_dct(smalls: np.ndarray) -> np.ndarray:
    """(N, 32, 32) gray planes -> (N,) int64 hashes: ONE broadcast
    matmul for all DCTs, then vectorized median/threshold/packbits."""
    coeffs = _DCT32 @ smalls @ _DCT32.T
    low = coeffs[:, :8, :8].reshape(len(smalls), 64)
    med = np.median(low[:, 1:], axis=1)
    bits = (low > med[:, None]).astype(np.uint8)
    packed = np.packbits(bits, axis=1)  # (N, 8) big-endian bit order
    return packed.view(">u8").ravel().astype(np.uint64).view(np.int64)


def phash64(arr: np.ndarray) -> int:
    """Perceptual hash: resize to 32x32 gray (box mean), 8x8 low-freq DCT
    sign-vs-median bits -> signed int64."""
    return int(phash64_batch([arr])[0])


def phash64_batch(arrs: "list[np.ndarray]") -> np.ndarray:
    """Vectorized phash of N decoded images: the images of one shape
    are stacked and resampled to 32x32 gray in one gather, then ONE
    broadcast (N,32,32) matmul runs all DCTs.  Bit-identical to phash64
    per element."""
    shapes: dict = {}
    for i, a in enumerate(arrs):
        shapes.setdefault((a.shape, a.dtype.str), []).append(i)
    # each plane column-major: the DCT matmul's float32 rounding depends
    # on its operands' layout, and every stored phash was made with this one
    smalls = np.empty((len(arrs), 32, 32), np.float32).swapaxes(1, 2)
    for rows in shapes.values():
        smalls[rows] = _phash_smalls(np.stack([arrs[i] for i in rows]))
    return _phash_dct(smalls)


def phash_blobs(blobs: "list[bytes]") -> "list[int | None]":
    """phash of each encoded image, None where it does not decode to a
    non-empty image: each blob decodes through ``decode_image``, then
    one ``phash64_batch`` hashes them all."""
    rows, arrs = [], []
    for i, blob in enumerate(blobs):
        try:
            arr = decode_image(blob)
        except Exception:
            # corrupt (struct.error, zlib.error, ...) or stubbed: this
            # row's phash is null, the batch goes on
            continue
        if arr.size:
            rows.append(i)
            arrs.append(arr)
    out: "list[int | None]" = [None] * len(blobs)
    if arrs:
        for i, h in zip(rows, phash64_batch(arrs).tolist()):
            out[i] = h
    return out
