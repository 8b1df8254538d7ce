"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and writes the files a user would
hand to ``mixclust``, plus the planted truth the output checks compare
against. The same seed gives the same bytes. Nothing here imports mixclust.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

# Seed of the row layouts (which rows are planted where), fixed so that
# restarts drawn from a fixed CLI seed start from the same planted clusters
# whatever the workload seed; the workload seed draws every value.
LAYOUT_SEED = 20200

# fit_large_csv: k=2 spherical clusters in p=5 plus uniform box outliers.
# Two clusters, not three: with three collinear or simplex centres a restart
# that starts two means in one cluster drifts for 2 to 34 outer iterations
# (once to the 100-iteration cap), and the total work of one fit spread 20 to
# 40% (IQR over median) across seeds; two clusters spread 5.5% at 24 restarts.
FIT_P = 5
FIT_K = 2
FIT_CENTERS = np.array([[3.0] * FIT_P, [-3.0] * FIT_P])
FIT_OUTLIER_SHARE = 0.02
FIT_BOX_HALF_WIDTH = 15.0
# Planted outliers at least this far (Euclidean, unit-variance clusters) from
# every centre are "far out": their n*D under the true mixture is below 1e-12,
# four orders of magnitude under the p=5 default threshold of 1e-8.
FIT_FAR_DISTANCE = 9.0

# simulate_paper_cell: the paper's p=6 outlying-cluster design.
SIM_P = 6

# image_segment: two noisy colour bands plus planted (1, 1, 0) pixels.
IMAGE_REGION_COLORS = np.array([[0.15, 0.25, 0.70],
                                [0.70, 0.20, 0.20]])
IMAGE_SPLIT = 0.45
IMAGE_NOISE_SD = 0.04
IMAGE_ANOMALY_COLOR = (255, 255, 0)


def fit_inputs(seed: int, n: int, out: Path) -> dict:
    """Write ``fit.csv`` (header plus n rows of p=5) and return it with its truth.

    Which row belongs to which planted cluster, and which rows are outliers,
    is the same for every seed; the seed draws the values. Labels are 0..k-1
    for cluster rows and -1 for planted outliers; ``far`` marks outliers at
    least FIT_FAR_DISTANCE from every centre.
    """
    m = int(round(FIT_OUTLIER_SHARE * n))
    layout = np.arange(n) % FIT_K
    layout[:m] = -1
    labels = np.random.default_rng(LAYOUT_SEED).permutation(layout)
    rng = np.random.default_rng([seed, 1])
    regular = labels >= 0
    data = np.empty((n, FIT_P))
    data[regular] = FIT_CENTERS[labels[regular]] + rng.standard_normal((int(regular.sum()), FIT_P))
    data[~regular] = rng.uniform(-FIT_BOX_HALF_WIDTH, FIT_BOX_HALF_WIDTH, size=(m, FIT_P))
    dist = np.sqrt(((data[:, None, :] - FIT_CENTERS[None]) ** 2).sum(axis=2)).min(axis=1)
    far = ~regular & (dist >= FIT_FAR_DISTANCE)
    path = out / "fit.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{i + 1}" for i in range(FIT_P)) + "\n")
        np.savetxt(fh, data, fmt="%.9g", delimiter=",")
    # The checks use the values as written, which is what the CLI reads.
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {"path": path, "data": data, "labels": labels, "far": far}


def simulate_inputs(seed: int, replications: int, out: Path) -> dict:
    """Write ``scenario.json``: n=1000, p=6, outlying cluster, betas 0.3 and 0."""
    scenario = {
        "p": SIM_P, "n": 1000, "contamination": "outlying_cluster",
        "replications": replications, "seed": seed, "betas": [0.3, 0.0],
        "restarts": 10, "c": 20.0, "c1": 0.1,
    }
    path = out / "scenario.json"
    path.write_text(json.dumps(scenario, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {"path": path, "scenario": scenario}


def image_inputs(seed: int, side: int, anomalies: int, out: Path) -> dict:
    """Write ``image.png`` (side x side RGB) and return its pixels and truth.

    The image is two vertical bands, split at IMAGE_SPLIT of the width, each
    one colour plus Gaussian noise, with ``anomalies`` pixels at seeded
    positions set to pure yellow. ``labels`` holds the band index per pixel,
    -1 for the planted anomalies; ``pixels`` is the (side*side, 3) uint8 array.
    """
    rng = np.random.default_rng([seed, 3])
    cols = np.tile(np.arange(side), side)
    labels = (cols >= int(IMAGE_SPLIT * side)).astype(int)
    values = IMAGE_REGION_COLORS[labels] + IMAGE_NOISE_SD * rng.standard_normal((side * side, 3))
    pixels = np.rint(np.clip(values, 0.0, 1.0) * 255.0).astype(np.uint8)
    planted = rng.choice(side * side, size=anomalies, replace=False)
    pixels[planted] = IMAGE_ANOMALY_COLOR
    labels[planted] = -1
    path = out / "image.png"
    path.write_bytes(encode_png(pixels.reshape(side, side, 3)))
    return {"path": path, "pixels": pixels, "labels": labels, "side": side}


def _paeth_predictor(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def encode_png(rgb: np.ndarray) -> bytes:
    """8-bit RGB PNG whose rows cycle through the five filter types.

    Row r uses filter r mod 5 (None, Sub, Up, Average, Paeth), so every
    decoder path runs on every image taller than four rows.
    """
    height, width, channels = rgb.shape
    stride = width * channels
    rows = rgb.reshape(height, stride).astype(np.int32)
    prev = np.zeros(stride, dtype=np.int32)
    raw = bytearray()
    for r in range(height):
        x = rows[r]
        left = np.concatenate([np.zeros(channels, dtype=np.int32), x[:-channels]])
        up_left = np.concatenate([np.zeros(channels, dtype=np.int32), prev[:-channels]])
        ftype = r % 5
        pred = (0, left, prev, (left + prev) >> 1,
                _paeth_predictor(left, prev, up_left))[ftype]
        raw.append(ftype)
        raw.extend(((x - pred) & 0xFF).astype(np.uint8).tobytes())
        prev = x

    def chunk(ctype: bytes, payload: bytes) -> bytes:
        body = ctype + payload
        return (struct.pack(">I", len(payload)) + body
                + struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF))

    header = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", header)
            + chunk(b"IDAT", zlib.compress(bytes(raw), 6)) + chunk(b"IEND", b""))
