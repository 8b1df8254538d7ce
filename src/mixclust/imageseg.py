"""Color-image segmentation: pixels as 3-D observations.

Pixels are clustered with the robust mixture machinery, except that the
assignment step uses the nearest fitted mean (spatial data favors plain
distance over the likelihood rule). Outliers are flagged with the usual
weighted-density threshold and typed by their pre-flag cluster, so the
reconstruction can give each anomaly source its own color.
:func:`segment` returns :func:`fit`'s :class:`ClusteringResult`; the
reconstruction and the JSON sidecar derive their colors from it.

Image I/O covers binary PPM (P6) and baseline 8-bit PNG (gray, RGB, RGBA;
alpha discarded) using only the standard library.
"""

from __future__ import annotations

import colorsys
import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .clustering import AlgoConfig, ClusteringResult, fit
from .errors import ImageFormatError
from .gaussian import BLOCK

OUTLIER_BASE_COLORS = [(1.0, 1.0, 1.0), (0.545, 0.271, 0.075)]  # white, brown
# The assignment rule segment fits with, whatever the configuration says.
IMAGE_RULE = "distance"


@dataclass
class PixelGrid:
    """RGB image with channels scaled to [0, 1].

    ``pixels`` is (width * height, 3): one row per pixel, in scan order.
    The decoders store it column-major, the layout :func:`fit` computes in,
    so segmenting a loaded image does not copy it.
    """

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image size must be positive, got {self.width}x{self.height}")
        self.pixels = np.asarray(self.pixels, dtype=float).reshape(-1, 3)
        if len(self.pixels) != self.width * self.height:
            raise ValueError("pixel count must equal width * height")
        if not (self.pixels.min() >= 0.0 and self.pixels.max() <= 1.0):  # NaN fails too
            raise ValueError("channels must lie in [0, 1]")


# ---------------------------------------------------------------------------
# Image I/O
# ---------------------------------------------------------------------------


def load_image(path) -> PixelGrid:
    """Decode a PNG or binary PPM (P6) file into a normalized pixel grid."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] == b"\x89PNG\r\n\x1a\n":
        return _decode_png(blob)
    if blob[:2] == b"P6":
        return _decode_ppm(blob)
    raise ImageFormatError(f"unsupported image format in {path}")


def _decode_ppm(blob: bytes) -> PixelGrid:
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ImageFormatError("truncated PPM header")
        try:
            fields.append(int(blob[start:pos]))
        except ValueError as exc:
            raise ImageFormatError("malformed PPM header") from exc
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise ImageFormatError(f"PPM image has no pixels ({width}x{height})")
    if maxval <= 0 or maxval > 255:
        raise ImageFormatError(f"unsupported PPM maxval {maxval}")
    need = width * height * 3
    raw = blob[pos : pos + need]
    if len(raw) < need:
        raise ImageFormatError("truncated PPM pixel data")
    # One contiguous row per channel; the grid holds its column-major transpose.
    planes = np.empty((3, width * height))
    np.divide(np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3).T, float(maxval), out=planes)
    return PixelGrid(width, height, planes.T)


def encode_ppm(grid: PixelGrid) -> bytes:
    """Binary PPM of the grid: each channel times 255, rounded half to even
    and clipped to [0, 255]. The rows are converted per ``BLOCK`` in one
    (BLOCK, 3) float buffer, straight into the (n, 3) bytes."""
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii")
    n = len(grid.pixels)
    body = np.empty((n, 3), dtype=np.uint8)
    levels = np.empty((min(n, BLOCK), 3))
    for start in range(0, n, BLOCK):
        rows = slice(start, min(start + BLOCK, n))
        buf = levels[:rows.stop - start]
        np.multiply(grid.pixels[rows], 255.0, out=buf)
        np.rint(buf, out=buf)
        body[rows] = np.clip(buf, 0, 255, out=buf)
    return header + body.tobytes()


def save_ppm(grid: PixelGrid, path) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_ppm(grid))


def _paeth(a: int, b: int, c: int) -> int:
    pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - 2 * c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def _decode_png(blob: bytes) -> PixelGrid:
    pos = 8
    idat = bytearray()
    header = None
    while pos + 8 <= len(blob):
        length, ctype = struct.unpack(">I4s", blob[pos : pos + 8])
        chunk = blob[pos + 8 : pos + 8 + length]
        if len(chunk) < length:
            raise ImageFormatError("truncated PNG chunk")
        if ctype == b"IHDR":
            if length != 13:
                raise ImageFormatError(f"PNG header chunk is {length} bytes, not 13")
            header = struct.unpack(">IIBBBBB", chunk)
        elif ctype == b"IDAT":
            idat.extend(chunk)
        elif ctype == b"IEND":
            break
        pos += 12 + length
    if header is None or not idat:
        raise ImageFormatError("missing PNG header or pixel data")
    width, height, depth, color, comp, filt, interlace = header
    if width == 0 or height == 0:
        raise ImageFormatError(f"PNG image has no pixels ({width}x{height})")
    if depth != 8 or comp != 0 or filt != 0 or interlace != 0:
        raise ImageFormatError("only baseline 8-bit non-interlaced PNG is supported")
    channels = {0: 1, 2: 3, 4: 2, 6: 4}.get(color)
    if channels is None:
        raise ImageFormatError(f"unsupported PNG color type {color}")
    stride = width * channels
    size = height * (stride + 1)
    inflater = zlib.decompressobj()
    try:  # at most one byte past the declared size: a longer stream is never inflated whole
        raw = inflater.decompress(idat, size + 1)
    except zlib.error as exc:
        raise ImageFormatError("corrupt PNG stream") from exc
    if len(raw) != size or not inflater.eof:
        raise ImageFormatError("PNG pixel data has the wrong length or is cut short")
    out = np.zeros((height + 1, stride), dtype=np.uint8)  # row 0: the zero row above the image
    for row in range(1, height + 1):
        offset = (row - 1) * (stride + 1)
        ftype = raw[offset]
        line = np.frombuffer(raw, dtype=np.uint8, count=stride, offset=offset + 1)
        if ftype == 0:  # None
            out[row] = line
        elif ftype == 1:  # Sub: a running sum per channel, wrapping mod 256
            np.cumsum(line.reshape(width, channels), axis=0, dtype=np.uint8,
                      out=out[row].reshape(width, channels))
        elif ftype == 2:  # Up
            np.add(line, out[row - 1], out=out[row])
        elif ftype in (3, 4):  # each byte needs its decoded left neighbour
            cur = bytearray(line)
            up = out[row - 1].tobytes()
            if ftype == 3:  # Average
                for i in range(stride):
                    left = cur[i - channels] if i >= channels else 0
                    cur[i] = (cur[i] + ((left + up[i]) >> 1)) & 0xFF
            else:  # Paeth
                for i in range(stride):
                    left = cur[i - channels] if i >= channels else 0
                    up_left = up[i - channels] if i >= channels else 0
                    cur[i] = (cur[i] + _paeth(left, up[i], up_left)) & 0xFF
            out[row] = np.frombuffer(cur, dtype=np.uint8)
        else:
            raise ImageFormatError(f"unknown PNG filter {ftype}")
    # One contiguous row per RGB channel (gray repeated, alpha dropped); the
    # grid holds its column-major transpose.
    pix = out[1:].reshape(-1, channels)
    planes = np.empty((3, width * height))
    for c in range(3):
        np.divide(pix[:, c if channels >= 3 else 0], 255.0, out=planes[c])
    return PixelGrid(width, height, planes.T)


# ---------------------------------------------------------------------------
# Segmentation
# ---------------------------------------------------------------------------


def outlier_palette(k: int) -> np.ndarray:
    """Colors for outlier types: white, brown, then hue-spaced fills."""
    colors = list(OUTLIER_BASE_COLORS[:k])
    for i in range(len(colors), k):
        colors.append(colorsys.hsv_to_rgb((0.08 + i / max(k, 1)) % 1.0, 0.85, 0.95))
    return np.asarray(colors, dtype=float)


def segment(grid: PixelGrid, k: int, cfg: AlgoConfig) -> ClusteringResult:
    """Cluster the pixels with nearest-mean assignment and typed outliers.

    ``cfg``'s assignment rule is replaced by ``IMAGE_RULE``; its other
    settings (threshold, constraints, restarts) apply as given.
    """
    if k < 2:
        raise ValueError("image segmentation needs at least two clusters")
    return fit(grid.pixels, k, replace(cfg, assignment_rule=IMAGE_RULE))


def _cluster_colors(result: ClusteringResult) -> np.ndarray:
    return np.clip(np.stack([c.mean for c in result.params.components]), 0.0, 1.0)


def reconstruct(grid: PixelGrid, result: ClusteringResult) -> PixelGrid:
    """Repaint every pixel with its clipped cluster mean; outliers get the
    :func:`outlier_palette` color of their cluster."""
    out = _cluster_colors(result)[result.assignments]  # indexing makes a new array
    flagged = result.outlier_flags
    out[flagged] = outlier_palette(result.params.k)[result.assignments[flagged]]
    return PixelGrid(grid.width, grid.height, out)


def sidecar_payload(result: ClusteringResult, cfg: AlgoConfig) -> dict:
    """JSON-ready summary of a segmentation of ``cfg``'s settings."""
    k = result.params.k
    return {
        "k": k,
        "config": {
            "beta": cfg.beta,
            "threshold": cfg.outlier_threshold,
            "c": cfg.constraint.c,
            "c1": cfg.constraint.c1,
            "assignment_rule": IMAGE_RULE,
            "restarts": cfg.n_restarts,
            "seed": cfg.seed,
        },
        "objective": result.objective,
        "iterations": result.iterations,
        "restart_index": result.restart_index,
        "weights": [float(w) for w in result.params.weights],
        "cluster_colors": _cluster_colors(result).tolist(),
        "outlier_colors": outlier_palette(k).tolist(),
        "pixels_per_cluster": np.bincount(result.assignments, minlength=k).tolist(),
        "outliers_per_type": np.bincount(
            result.assignments[result.outlier_flags], minlength=k).tolist(),
        "total_outliers": int(result.outlier_flags.sum()),
    }
