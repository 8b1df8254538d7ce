"""Image decode/encode, pixel segmentation and reconstruction."""

import functools
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixclust import (
    AlgoConfig,
    ClusteringResult,
    ConstraintConfig,
    GaussianComponent,
    ImageFormatError,
    MixtureParams,
    load_image,
)
from mixclust.imageseg import (
    PixelGrid,
    _decode_ppm,
    encode_ppm,
    outlier_palette,
    reconstruct,
    save_ppm,
    segment,
    sidecar_payload,
)
from mixclust.schemas import validate


def write_png(path, array):
    """Minimal PNG writer (8-bit RGB, filter 0) used as an independent encoder."""
    arr = np.asarray(array, dtype=np.uint8)
    height, width, _ = arr.shape
    raw = b"".join(b"\x00" + arr[row].tobytes() for row in range(height))

    def chunk(ctype, payload):
        body = ctype + payload
        return struct.pack(">I", len(payload)) + body + struct.pack(
            ">I", zlib.crc32(body) & 0xFFFFFFFF)

    header = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    blob = (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", header)
            + chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b""))
    with open(path, "wb") as fh:
        fh.write(blob)


def paeth(a, b, c):
    pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - 2 * c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def filtered_png(arr):
    """8-bit PNG of a (height, width, channels) uint8 array, channels 1 to 4
    (gray, gray+alpha, RGB, RGBA), with row r under filter r mod 5."""
    height, width, channels = arr.shape
    lines = []
    prev = np.zeros(width * channels, dtype=int)
    for row in range(height):
        ftype = row % 5
        raw = arr[row].reshape(-1).astype(int)
        enc = np.empty_like(raw)
        for i in range(len(raw)):
            left = raw[i - channels] if i >= channels else 0
            up = prev[i]
            up_left = prev[i - channels] if i >= channels else 0
            pred = (0, left, up, (left + up) // 2, paeth(left, up, up_left))[ftype]
            enc[i] = (raw[i] - pred) % 256
        lines.append(bytes([ftype]) + bytes(enc.astype(np.uint8)))
        prev = raw

    color = {1: 0, 2: 4, 3: 2, 4: 6}[channels]
    return png_blob(width, height, color, zlib.compress(b"".join(lines)))


def png_blob(width, height, color, idat):
    """An 8-bit PNG of one IHDR, one IDAT chunk holding ``idat`` as given,
    and IEND."""

    def chunk(ctype, body):
        full = ctype + body
        return struct.pack(">I", len(body)) + full + struct.pack(
            ">I", zlib.crc32(full) & 0xFFFFFFFF)

    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, 8, color, 0, 0, 0))
            + chunk(b"IDAT", idat) + chunk(b"IEND", b""))


@functools.cache
def png_bomb():
    """A 4x4 RGB PNG whose IDAT stream inflates to 64 MiB of zeros, far
    beyond the 52 bytes its header declares. Built in 1 MiB pieces, so
    making it never holds the inflated bytes."""
    packer = zlib.compressobj(9)
    zeros = bytes(1 << 20)
    return png_blob(4, 4, 2, b"".join(packer.compress(zeros) for _ in range(64))
                    + packer.flush())


def malformed_images():
    """File name -> (bytes, message pattern) of images the decoders must
    refuse: a PNG whose IHDR chunk is 9 bytes instead of 13 (its CRC is not
    checked), 0x0 PNG and PPM images, :func:`png_bomb`, and a 2x2 PNG with
    every pixel byte but its stream cut short before the zlib checksum."""
    good = filtered_png(np.zeros((2, 2, 3), dtype=np.uint8))
    return {
        "bomb.png": (png_bomb(), "wrong length"),
        "cut_short.png": (png_blob(2, 2, 2, zlib.compress(bytes(14))[:-4]), "cut short"),
        "short_ihdr.png": (good[:8] + struct.pack(">I", 9) + good[12:25] + bytes(4)
                           + good[33:], "header chunk is 9 bytes"),
        "empty.png": (filtered_png(np.zeros((0, 0, 3), dtype=np.uint8)), r"no pixels \(0x0\)"),
        "empty.ppm": (b"P6\n0 0\n255\n", r"no pixels \(0x0\)"),
    }


def per_byte_png_pixels(blob):
    """(n, 3) float pixels of a :func:`filtered_png` blob, decoded one byte at
    a time as the package's decoder once did."""
    width, height, _, color = struct.unpack(">IIBB", blob[16:26])
    channels = {0: 1, 2: 3, 4: 2, 6: 4}[color]
    (length,) = struct.unpack(">I", blob[33:37])
    raw = zlib.decompress(blob[41 : 41 + length])
    stride = width * channels
    out = np.empty((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for row in range(height):
        offset = row * (stride + 1)
        ftype = raw[offset]
        line = bytearray(raw[offset + 1 : offset + 1 + stride])
        if ftype == 1:
            for i in range(channels, stride):
                line[i] = (line[i] + line[i - channels]) & 0xFF
        elif ftype == 2:
            for i in range(stride):
                line[i] = (line[i] + int(prev[i])) & 0xFF
        elif ftype == 3:
            for i in range(stride):
                left = line[i - channels] if i >= channels else 0
                line[i] = (line[i] + ((left + int(prev[i])) >> 1)) & 0xFF
        elif ftype == 4:
            for i in range(stride):
                left = line[i - channels] if i >= channels else 0
                up_left = int(prev[i - channels]) if i >= channels else 0
                line[i] = (line[i] + paeth(left, int(prev[i]), up_left)) & 0xFF
        out[row] = np.frombuffer(bytes(line), dtype=np.uint8)
        prev = out[row]
    pix = out.reshape(height, width, channels).astype(float) / 255.0
    if channels == 1:
        rgb = np.repeat(pix, 3, axis=2)
    elif channels == 2:
        rgb = np.repeat(pix[:, :, :1], 3, axis=2)
    else:
        rgb = pix[:, :, :3]
    return np.ascontiguousarray(rgb.reshape(-1, 3))


def two_tone_grid(side=60, noise_fraction=0.05, seed=0):
    """Left half blue, right half green, a seeded sprinkle of white pixels."""
    rng = np.random.default_rng(seed)
    pixels = np.zeros((side * side, 3))
    cols = np.tile(np.arange(side), side)
    pixels[cols < side // 2] = [0.0, 0.0, 1.0]
    pixels[cols >= side // 2] = [0.0, 1.0, 0.0]
    noise_idx = rng.choice(side * side, size=int(noise_fraction * side * side),
                           replace=False)
    pixels[noise_idx] = [1.0, 1.0, 1.0]
    mask = np.zeros(side * side, dtype=bool)
    mask[noise_idx] = True
    return PixelGrid(side, side, pixels), mask


IMAGE_CFG = AlgoConfig(beta=0.2, outlier_threshold=0.02,
                       constraint=ConstraintConfig(c=20.0, c1=0.01),
                       n_restarts=5, seed=3)


def hand_result(means, assignments, flags) -> ClusteringResult:
    """A segmentation result built by hand: equal weights, identity
    covariances, and the given labels and outlier flags."""
    k = len(means)
    n = len(assignments)
    params = MixtureParams(np.full(k, 1.0 / k), [GaussianComponent(m, np.eye(3)) for m in means])
    return ClusteringResult(
        params=params, assignments=np.asarray(assignments), outlier_flags=np.asarray(flags),
        objective=0.0, iterations=1, restart_index=0, discriminants=np.ones(n), stable=True)


class TestIo:
    def test_ppm_byte_normalization(self, tmp_path):
        path = tmp_path / "gray.ppm"
        path.write_bytes(b"P6\n2 1\n255\n" + bytes([128, 128, 128, 0, 255, 64]))
        grid = load_image(path)
        assert grid.pixels[0, 0] == pytest.approx(128 / 255)
        assert grid.pixels[1] == pytest.approx([0.0, 1.0, 64 / 255])

    def test_ppm_roundtrip_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        grid = PixelGrid(5, 4, rng.integers(0, 256, size=(20, 3)) / 255.0)
        path = tmp_path / "img.ppm"
        save_ppm(grid, path)
        again = load_image(path)
        assert encode_ppm(again) == encode_ppm(grid)

    # 131 x 129 pixels span three BLOCKs of rows, the last one short.
    @pytest.mark.parametrize("width, height", [(1, 1), (7, 5), (131, 129)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_encode_ppm_matches_whole_array_formula(self, width, height, order):
        rng = np.random.default_rng(width * height)
        pixels = rng.random((width * height, 3))
        # half-level ties, which round to even, and the two ends
        pixels.flat[::7] = (rng.integers(0, 255, size=pixels.flat[::7].shape) + 0.5) / 255.0
        pixels.flat[::11] = rng.integers(0, 2, size=pixels.flat[::11].shape)
        grid = PixelGrid(width, height, np.asarray(pixels, order=order))
        body = np.rint(grid.pixels * 255.0).clip(0, 255).astype(np.uint8).tobytes()
        assert encode_ppm(grid) == f"P6\n{width} {height}\n255\n".encode("ascii") + body

    @pytest.mark.parametrize("width, height", [(-1, -1), (0, 0), (-2, 3)])
    def test_grid_refuses_non_positive_size(self, width, height):
        # (-1, -1) matches one pixel's count, and would encode as "P6\n-1 -1"
        with pytest.raises(ValueError, match="size must be positive"):
            PixelGrid(width, height, np.zeros((max(width * height, 0), 3)))

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1])
    def test_grid_refuses_channels_outside_unit_interval(self, bad):
        # NaN fails both the "below 0" and the "above 1" comparison
        with pytest.raises(ValueError, match=r"channels must lie in \[0, 1\]"):
            PixelGrid(1, 2, [[bad, 0.0, 0.0], [0.5, 0.5, 0.5]])

    def test_png_all_white(self, tmp_path):
        path = tmp_path / "white.png"
        write_png(path, np.full((2, 2, 3), 255, dtype=np.uint8))
        grid = load_image(path)
        assert grid.width == 2 and grid.height == 2
        assert np.all(grid.pixels == 1.0)

    def test_png_pattern_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        arr = rng.integers(0, 256, size=(7, 5, 3), dtype=np.uint8)
        path = tmp_path / "pattern.png"
        write_png(path, arr)
        grid = load_image(path)
        assert np.allclose(grid.pixels.reshape(7, 5, 3), arr / 255.0)

    def test_png_all_filter_types(self, tmp_path):
        # encode each scanline with a different filter and decode back
        rng = np.random.default_rng(3)
        arr = rng.integers(0, 256, size=(5, 6, 3), dtype=np.uint8)
        path = tmp_path / "filters.png"
        path.write_bytes(filtered_png(arr))
        grid = load_image(path)
        assert np.allclose(grid.pixels.reshape(5, 6, 3), arr / 255.0)

    @pytest.mark.parametrize("channels", [1, 2, 3, 4])
    def test_png_matches_per_byte_decoder(self, tmp_path, channels):
        # gray, gray+alpha, RGB and RGBA, rows cycling through all five filters
        rng = np.random.default_rng(10 + channels)
        blob = filtered_png(rng.integers(0, 256, size=(11, 9, channels), dtype=np.uint8))
        path = tmp_path / "image.png"
        path.write_bytes(blob)
        grid = load_image(path)
        want = per_byte_png_pixels(blob)
        assert grid.pixels.shape == want.shape
        assert np.ascontiguousarray(grid.pixels).tobytes() == want.tobytes()

    def test_png_rgba_alpha_discarded(self, tmp_path):
        rgba = np.zeros((2, 2, 4), dtype=np.uint8)
        rgba[..., 0] = 200
        rgba[..., 3] = 7  # alpha channel must be dropped
        raw = b"".join(b"\x00" + rgba[r].tobytes() for r in range(2))

        def chunk(ctype, body):
            full = ctype + body
            return struct.pack(">I", len(body)) + full + struct.pack(
                ">I", zlib.crc32(full) & 0xFFFFFFFF)

        blob = (b"\x89PNG\r\n\x1a\n"
                + chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 6, 0, 0, 0))
                + chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b""))
        path = tmp_path / "rgba.png"
        path.write_bytes(blob)
        grid = load_image(path)
        assert np.allclose(grid.pixels, np.tile([200 / 255, 0.0, 0.0], (4, 1)))

    def test_decoded_pixels_are_column_major(self, tmp_path):
        # the layout fit computes in, so segmenting does not copy the pixels
        rng = np.random.default_rng(4)
        arr = rng.integers(0, 256, size=(6, 5, 3), dtype=np.uint8)
        write_png(tmp_path / "img.png", arr)
        (tmp_path / "img.ppm").write_bytes(b"P6\n5 6\n255\n" + arr.tobytes())
        for name in ("img.png", "img.ppm"):
            pixels = load_image(tmp_path / name).pixels
            assert pixels.shape == (30, 3) and pixels.flags.f_contiguous
            assert np.array_equal(pixels, arr.reshape(-1, 3) / 255.0)

    def test_truncated_ppm(self, tmp_path):
        path = tmp_path / "trunc.ppm"
        path.write_bytes(b"P6\n4 4\n255\n\x00\x01")
        with pytest.raises(ImageFormatError):
            load_image(path)

    @pytest.mark.parametrize("name", sorted(malformed_images()))
    def test_malformed_header_refused(self, tmp_path, name):
        blob, message = malformed_images()[name]
        path = tmp_path / name
        path.write_bytes(blob)
        with pytest.raises(ImageFormatError, match=message):
            load_image(path)

    def test_decompression_bomb_refused_in_bounded_memory(self, tmp_path):
        path = tmp_path / "bomb.png"
        path.write_bytes(png_bomb())
        tracemalloc.start()
        try:
            with pytest.raises(ImageFormatError, match="wrong length"):
                load_image(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 64 MiB stream is refused after inflating one byte past 4x4 RGB
        assert peak < 8 << 20

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not an image")
        with pytest.raises(ImageFormatError):
            load_image(path)


class TestSegment:
    def test_two_tone_with_noise(self):
        grid, noise_mask = two_tone_grid()
        seg = segment(grid, 2, IMAGE_CFG)
        regular = ~noise_mask
        labels = seg.assignments[regular]
        blue = grid.pixels[regular][:, 2] > 0.5
        direct = np.mean((labels == 0) != blue)
        err = min(direct, 1.0 - direct)
        assert err <= 0.01
        assert seg.outlier_flags[noise_mask].mean() >= 0.9
        # every noise pixel is the same white, so all flagged pixels share
        # one cluster, which is their type
        assert len(np.unique(seg.assignments[seg.outlier_flags])) == 1

    def test_flat_image_exact_palette(self):
        grid, _ = two_tone_grid(side=20, noise_fraction=0.0)
        seg = segment(grid, 2, IMAGE_CFG)
        recon = reconstruct(grid, seg)
        assert not seg.outlier_flags.any()
        assert np.allclose(recon.pixels, grid.pixels, atol=1e-9)
        assert len(np.unique(recon.pixels.round(9), axis=0)) == 2

    def test_assignment_is_nearest_mean(self):
        grid, _ = two_tone_grid(side=24, noise_fraction=0.02, seed=5)
        seg = segment(grid, 2, IMAGE_CFG)
        means = np.stack([c.mean for c in seg.params.components])
        d2 = ((grid.pixels[:, None, :] - means[None]) ** 2).sum(axis=2)
        assert np.array_equal(seg.assignments, np.argmin(d2, axis=1))

    def test_config_echo_recorded(self):
        grid, _ = two_tone_grid(side=16, noise_fraction=0.0)
        cfg = AlgoConfig(beta=0.2, outlier_threshold=0.02,
                         constraint=ConstraintConfig(c=20.0, c1=0.1),
                         n_restarts=3, seed=1)
        payload = sidecar_payload(segment(grid, 2, cfg), cfg)
        assert payload["config"] == {"beta": 0.2, "threshold": 0.02, "c": 20.0, "c1": 0.1,
                                     "assignment_rule": "distance", "restarts": 3, "seed": 1}

    def test_determinism(self):
        grid, _ = two_tone_grid(side=24, seed=7)
        s1 = segment(grid, 2, IMAGE_CFG)
        s2 = segment(grid, 2, IMAGE_CFG)
        assert np.array_equal(s1.assignments, s2.assignments)
        assert np.array_equal(s1.outlier_flags, s2.outlier_flags)

    def test_needs_two_clusters(self):
        grid, _ = two_tone_grid(side=8, noise_fraction=0.0)
        with pytest.raises(ValueError):
            segment(grid, 1, IMAGE_CFG)


class TestReconstruct:
    def test_all_outliers_one_type_monochrome(self):
        grid, _ = two_tone_grid(side=6, noise_fraction=0.0)
        n = grid.width * grid.height
        result = hand_result([[0.2, 0.2, 0.2], [0.8, 0.8, 0.8]], np.zeros(n, dtype=int),
                             np.ones(n, dtype=bool))
        recon = reconstruct(grid, result)
        assert len(np.unique(recon.pixels, axis=0)) == 1
        assert np.allclose(recon.pixels[0], [1.0, 1.0, 1.0])

    def test_noise_pixels_only_difference(self):
        grid, noise_mask = two_tone_grid(side=40, seed=9)
        seg = segment(grid, 2, IMAGE_CFG)
        recon = reconstruct(grid, seg)
        regular = ~noise_mask
        flagged_regulars = seg.outlier_flags & regular
        clean = regular & ~seg.outlier_flags
        assert np.allclose(recon.pixels[clean], grid.pixels[clean], atol=1e-6)
        assert flagged_regulars.mean() <= 0.01

    def test_outlier_palette_distinct(self):
        pal = outlier_palette(5)
        assert pal.shape == (5, 3)
        assert len(np.unique(pal.round(6), axis=0)) == 5


class TestSidecar:
    def test_no_outliers_gives_integer_zeros(self):
        result = hand_result([[0.1, 0.2, 0.3], [0.5, 0.5, 0.5], [0.9, 0.8, 0.7]],
                             [0, 1, 2, 2], np.zeros(4, dtype=bool))
        payload = sidecar_payload(result, IMAGE_CFG)
        validate(payload, "image_sidecar")
        assert payload["outliers_per_type"] == [0, 0, 0]
        assert all(type(count) is int for count in payload["outliers_per_type"])
        assert payload["total_outliers"] == 0
        assert payload["pixels_per_cluster"] == [1, 1, 2]

    def test_colors_are_clipped_means_and_palette(self):
        result = hand_result([[-0.5, 0.2, 1.5], [0.5, 0.5, 0.5]], [0, 1, 1],
                             [False, True, False])
        payload = sidecar_payload(result, IMAGE_CFG)
        assert payload["cluster_colors"] == [[0.0, 0.2, 1.0], [0.5, 0.5, 0.5]]
        assert payload["outlier_colors"] == outlier_palette(2).tolist()
        assert payload["outliers_per_type"] == [0, 1]


def byte_walker_ppm(blob: bytes):
    """The PPM header reader the package once had, one byte at a time:
    ``(width, height, maxval)`` and the offset of the pixel data."""
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
    return fields, pos + 1


# A header field is a gap of whitespace and comments, then a token: a
# number, or signs, underscores and digits mixed with "#" and bytes that are
# whitespace only to str. The gaps use every byte bytes.isspace accepts.
PPM_GAP = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#\n", b"# note\r\n", b"#1 2\n", b"#"]
PPM_TOKEN = [b"+", b"-", b"_", b"0", b"1", b"2", b"3", b"9", b"#", b"a", b"\x1c", b"\x85", b"\xa0"]
# Pixel bytes of 0 and 1, within any maxval, so an offset moved by one shows.
PPM_PIXELS = bytes(np.random.default_rng(0).integers(0, 2, 800, dtype=np.uint8))


def ppm_headers():
    def run(pieces, least):
        return st.lists(st.sampled_from(pieces), min_size=least, max_size=3).map(b"".join)

    number = st.sampled_from([-1, 0, 1, 2, 3, 5, 8, 12, 255, 256]).map(lambda v: b"%d" % v)
    field = st.tuples(run(PPM_GAP, 1), st.one_of(number, number, run(PPM_TOKEN, 0)))
    return st.lists(field.map(b"".join), min_size=3, max_size=3).map(b"".join)


@settings(max_examples=500, deadline=None)
@given(header=ppm_headers(), end=st.sampled_from(b" \t\n\r"),
       cut=st.one_of(st.none(), st.none(), st.integers(0, 40)))
def test_ppm_header_matches_byte_walker(header, end, cut):
    # The same fields (so the same image, read from the same offset), or the
    # same error, as the byte walker, on headers cut anywhere.
    blob = b"P6" + (header + bytes([end]) + PPM_PIXELS)[:cut]
    try:
        (width, height, maxval), pos = byte_walker_ppm(blob)
    except ImageFormatError as exc:
        with pytest.raises(ImageFormatError) as got:
            _decode_ppm(blob)
        assert str(got.value) == str(exc)
        return
    refusal = (f"PPM image has no pixels ({width}x{height})" if width <= 0 or height <= 0
               else f"unsupported PPM maxval {maxval}" if not 0 < maxval <= 255
               else "truncated PPM pixel data" if len(blob) - pos < width * height * 3
               else None)
    if refusal is not None:
        with pytest.raises(ImageFormatError) as got:
            _decode_ppm(blob)
        assert str(got.value) == refusal
        return
    raw = np.frombuffer(blob, np.uint8, count=width * height * 3, offset=pos)
    if raw.max() > maxval:  # a channel above 1, which PixelGrid refuses
        with pytest.raises(ValueError, match=r"channels must lie in \[0, 1\]"):
            _decode_ppm(blob)
        return
    grid = _decode_ppm(blob)
    assert (grid.width, grid.height) == (width, height)
    assert np.array_equal(grid.pixels, raw.reshape(-1, 3) / maxval)
