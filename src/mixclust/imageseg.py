"""Color-image segmentation: pixels as 3-D observations.

Pixels are clustered with the robust mixture machinery, except that the
assignment step uses the nearest fitted mean (spatial data favors plain
distance over the likelihood rule). Outliers are flagged with the usual
weighted-density threshold and typed by their pre-flag cluster, so the
reconstruction can give each anomaly source its own color.

Image I/O covers binary PPM (P6) and baseline 8-bit PNG (gray, RGB, RGBA;
alpha discarded) using only the standard library.
"""

from __future__ import annotations

import colorsys
import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .clustering import AlgoConfig, fit
from .errors import ImageFormatError

OUTLIER_BASE_COLORS = [(1.0, 1.0, 1.0), (0.545, 0.271, 0.075)]  # white, brown


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
        self.pixels = np.asarray(self.pixels, dtype=float).reshape(-1, 3)
        if len(self.pixels) != self.width * self.height:
            raise ValueError("pixel count must equal width * height")
        if self.pixels.min() < 0.0 or self.pixels.max() > 1.0:
            raise ValueError("channels must lie in [0, 1]")


@dataclass
class SegmentationResult:
    assignments: np.ndarray
    outlier_flags: np.ndarray
    outlier_types: np.ndarray
    params: object
    cluster_colors: np.ndarray
    outlier_colors: np.ndarray
    objective: float
    iterations: int
    restart_index: int
    config: dict


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
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii")
    body = np.rint(grid.pixels * 255.0).clip(0, 255).astype(np.uint8).tobytes()
    return header + body


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
    try:
        raw = zlib.decompress(bytes(idat))
    except zlib.error as exc:
        raise ImageFormatError("corrupt PNG stream") from exc
    stride = width * channels
    if len(raw) != height * (stride + 1):
        raise ImageFormatError("PNG pixel data has the wrong length")
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


def segment(grid: PixelGrid, k: int, cfg: AlgoConfig) -> SegmentationResult:
    """Cluster the pixels with nearest-mean assignment and typed outliers.

    ``cfg``'s assignment rule is replaced by the "distance" rule; its
    other settings (threshold, constraints, restarts) apply as given.
    """
    if k < 2:
        raise ValueError("image segmentation needs at least two clusters")
    cfg = replace(cfg, assignment_rule="distance")
    result = fit(grid.pixels, k, cfg)
    return SegmentationResult(
        assignments=result.assignments,
        outlier_flags=result.outlier_flags,
        outlier_types=result.outlier_types,
        params=result.params,
        cluster_colors=np.clip(
            np.stack([c.mean for c in result.params.components]), 0.0, 1.0),
        outlier_colors=outlier_palette(k),
        objective=result.objective,
        iterations=result.iterations,
        restart_index=result.restart_index,
        config={
            "beta": cfg.beta,
            "threshold": cfg.outlier_threshold,
            "c": cfg.constraint.c,
            "c1": cfg.constraint.c1,
            "assignment_rule": cfg.assignment_rule,
            "restarts": cfg.n_restarts,
            "seed": cfg.seed,
        },
    )


def reconstruct(grid: PixelGrid, seg: SegmentationResult) -> PixelGrid:
    """Repaint every pixel with its cluster mean; outliers get type colors."""
    out = seg.cluster_colors[seg.assignments].copy()
    flagged = seg.outlier_flags
    if np.any(flagged):
        out[flagged] = seg.outlier_colors[seg.outlier_types[flagged]]
    return PixelGrid(grid.width, grid.height, out)


def sidecar_payload(seg: SegmentationResult) -> dict:
    """JSON-ready summary of a segmentation."""
    k = len(seg.cluster_colors)
    counts = np.bincount(seg.assignments, minlength=k)
    type_counts = np.bincount(
        seg.outlier_types[seg.outlier_flags], minlength=k) if np.any(seg.outlier_flags) \
        else np.zeros(k, dtype=int)
    return {
        "k": k,
        "config": seg.config,
        "objective": seg.objective,
        "iterations": seg.iterations,
        "restart_index": seg.restart_index,
        "weights": [float(w) for w in seg.params.weights],
        "cluster_colors": seg.cluster_colors.tolist(),
        "outlier_colors": seg.outlier_colors.tolist(),
        "pixels_per_cluster": counts.tolist(),
        "outliers_per_type": type_counts.tolist(),
        "total_outliers": int(seg.outlier_flags.sum()),
    }
