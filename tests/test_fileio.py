"""Artifact formats: bitwise round trips, provenance headers, PGM."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invnoise.codec import default_codebook, dyadic_schedule
from invnoise.errors import FormatError, ValidationError
from invnoise.fileio import (
    CSV_HEADER,
    format_metric_row,
    gray_from_channel,
    gray_from_tokens,
    read_grid,
    read_noise_set,
    read_pyramid,
    write_grid,
    write_metrics_csv,
    write_noise_set,
    write_pgm,
    write_pyramid,
)
from invnoise.inversion import invert_pyramid
from invnoise.predictor import PredictorParams, condition_embed, generate

from conftest import random_grid


class TestGridFormat:
    def test_round_trip(self, tmp_path):
        grid = random_grid(30)
        digest = bytes(range(16))
        path = tmp_path / "g.nsg"
        write_grid(path, grid, seed=77, digest=digest)
        loaded, header = read_grid(path)
        assert np.array_equal(loaded, grid.astype("<f4").astype(np.float64))
        assert header.seed == 77
        assert header.digest == digest

    def test_second_write_identical_bytes(self, tmp_path):
        grid = random_grid(31)
        a, b = tmp_path / "a.nsg", tmp_path / "b.nsg"
        write_grid(a, grid, seed=1)
        write_grid(b, grid, seed=1)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nsg"
        path.write_bytes(b"XXXX" + bytes(64))
        with pytest.raises(FormatError):
            read_grid(path)

    def test_truncated(self, tmp_path):
        grid = random_grid(32)
        path = tmp_path / "t.nsg"
        write_grid(path, grid)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError):
            read_grid(path)


class TestPyramidFormat:
    def test_round_trip(self, tmp_path, params, source_cond):
        pyramid = generate(source_cond, params, seed=8)
        path = tmp_path / "p.nsp"
        write_pyramid(path, pyramid, params.codebook.size, seed=8, digest=bytes(16))
        loaded, vocab, header = read_pyramid(path)
        assert vocab == params.codebook.size
        assert header.seed == 8
        assert all(np.array_equal(a, b) for a, b in zip(loaded, pyramid))

    def test_rejects_out_of_range_tokens(self, tmp_path):
        with pytest.raises(ValidationError):
            write_pyramid(tmp_path / "p.nsp", [np.full((2, 2), 64, dtype=np.int32)], 64)


class TestNoiseFormat:
    def test_round_trip_bitwise(self, tmp_path, params, source_cond):
        pyramid = generate(source_cond, params, seed=9)
        noise_set = invert_pyramid(pyramid, source_cond, 18.0, params, seed=9)
        path = tmp_path / "n.nsn"
        write_noise_set(path, noise_set)
        loaded, header = read_noise_set(path)
        # payload is 32-bit on disk; the round trip of those values is exact
        for ours, theirs in zip(noise_set.noises, loaded.noises):
            assert np.array_equal(np.asarray(ours).astype("<f4"), theirs.astype("<f4"))
        assert loaded.condition_label == source_cond.label
        assert loaded.tau == 18.0
        assert loaded.seed == 9
        assert loaded.kind == "lai"
        assert not loaded.sensitive
        assert header.seed == 9

    def test_sensitive_flag_round_trip(self, tmp_path, params, source_cond):
        pyramid = generate(source_cond, params, seed=10)
        noise_set = invert_pyramid(pyramid, source_cond, 0.0, params, seed=10)
        path = tmp_path / "n0.nsn"
        write_noise_set(path, noise_set)
        loaded, _ = read_noise_set(path)
        assert loaded.sensitive

    def test_unicode_label(self, tmp_path, params):
        from invnoise.predictor import condition_embed

        cond = condition_embed("maison en briques — croquis", params)
        pyramid = generate(cond, params, seed=11)
        noise_set = invert_pyramid(pyramid, cond, 5.0, params, seed=11)
        path = tmp_path / "u.nsn"
        write_noise_set(path, noise_set)
        loaded, _ = read_noise_set(path)
        assert loaded.condition_label == cond.label


class TestCorruptHeaders:
    """Header sizes are checked against the file before anything is allocated."""

    def test_huge_grid_dimensions(self, tmp_path):
        path = tmp_path / "huge.nsg"
        write_grid(path, random_grid(34))
        data = bytearray(path.read_bytes())
        data[32:44] = struct.pack("<III", 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            read_grid(path)

    def test_grid_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.nsg"
        write_grid(path, random_grid(35))
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError):
            read_grid(path)

    def test_pyramid_token_at_vocab(self, tmp_path):
        path = tmp_path / "p.nsp"
        write_pyramid(path, [np.array([[3]], dtype=np.int32)], 64)
        data = bytearray(path.read_bytes())
        data[-2:] = struct.pack("<H", 999)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            read_pyramid(path)
        data[-2:] = struct.pack("<H", 64)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            read_pyramid(path)
        data[-2:] = struct.pack("<H", 63)
        path.write_bytes(bytes(data))
        assert read_pyramid(path)[0][0][0, 0] == 63

    def test_pyramid_huge_scale_and_trailing_bytes(self, tmp_path):
        path = tmp_path / "p.nsp"
        write_pyramid(path, [np.zeros((2, 2), dtype=np.int32)], 64)
        good = path.read_bytes()
        path.write_bytes(good + b"\0\0")
        with pytest.raises(FormatError):
            read_pyramid(path)
        data = bytearray(good)
        data[40:48] = struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            read_pyramid(path)

    def test_noise_huge_vocab_and_trailing_bytes(self, tmp_path, params, source_cond):
        pyramid = generate(source_cond, params, seed=12)
        path = tmp_path / "n.nsn"
        write_noise_set(path, invert_pyramid(pyramid, source_cond, 18.0, params, seed=12))
        good = path.read_bytes()
        path.write_bytes(good + b"\0")
        with pytest.raises(FormatError):
            read_noise_set(path)
        data = bytearray(good)
        data[36:40] = struct.pack("<I", 0xFFFFFFFF)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            read_noise_set(path)

    def test_noise_huge_label_length(self, tmp_path, params, source_cond):
        pyramid = generate(source_cond, params, seed=13)
        path = tmp_path / "n.nsn"
        write_noise_set(path, invert_pyramid(pyramid, source_cond, 18.0, params, seed=13))
        data = bytearray(path.read_bytes())
        data[48:52] = struct.pack("<I", 0xFFFFFFFF)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            read_noise_set(path)

    def test_noise_label_not_utf8(self, tmp_path, params):
        cond = condition_embed("ab", params)
        pyramid = generate(cond, params, seed=14)
        path = tmp_path / "n.nsn"
        write_noise_set(path, invert_pyramid(pyramid, cond, 18.0, params, seed=14))
        data = bytearray(path.read_bytes())
        data[52:54] = b"\xff\xfe"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            read_noise_set(path)


class TestNonFinitePayloads:
    """A NaN or infinite payload value, or a bad noise tau, is a FormatError."""

    @pytest.mark.parametrize("index", [0, 5, 4 * 16 * 16 - 1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_grid_value(self, tmp_path, value, index):
        path = tmp_path / "g.nsg"
        write_grid(path, random_grid(37))
        data = bytearray(path.read_bytes())
        data[44 + 4 * index : 48 + 4 * index] = struct.pack("<f", value)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            read_grid(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_noise_value(self, tmp_path, params, source_cond, value):
        pyramid = generate(source_cond, params, seed=15)
        path = tmp_path / "n.nsn"
        write_noise_set(path, invert_pyramid(pyramid, source_cond, 18.0, params, seed=15))
        data = bytearray(path.read_bytes())
        data[-8:-4] = struct.pack("<f", value)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            read_noise_set(path)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, -1.0, -5e-324])
    def test_noise_header_tau(self, tmp_path, params, source_cond, tau):
        pyramid = generate(source_cond, params, seed=16)
        path = tmp_path / "n.nsn"
        write_noise_set(path, invert_pyramid(pyramid, source_cond, 18.0, params, seed=16))
        data = bytearray(path.read_bytes())
        assert struct.unpack("<d", data[40:48]) == (18.0,)
        data[40:48] = struct.pack("<d", tau)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            read_noise_set(path)


class TestWriterPayloads:
    """A value that is not finite in float32 is a ValidationError, and the
    writer leaves no file behind."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e39, -1e308])
    def test_grid(self, tmp_path, value):
        grid = random_grid(38)
        grid[2, 3, 4] = value
        path = tmp_path / "g.nsg"
        with pytest.raises(ValidationError):
            write_grid(path, grid)
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.nan, -np.inf, -1e39, 1e308])
    def test_noise(self, tmp_path, params, source_cond, value):
        pyramid = generate(source_cond, params, seed=17)
        noise_set = invert_pyramid(pyramid, source_cond, 18.0, params, seed=17)
        noise_set.noises[-1][-1, -1, -1] = value
        path = tmp_path / "n.nsn"
        with pytest.raises(ValidationError):
            write_noise_set(path, noise_set)
        assert not path.exists()

    def test_largest_float32_round_trips(self, tmp_path):
        grid = np.zeros((1, 2, 2))
        grid[0, 1, 1] = -float(np.finfo(np.float32).max)
        write_grid(tmp_path / "g.nsg", grid)
        assert np.array_equal(read_grid(tmp_path / "g.nsg")[0], grid)


READERS = {"grid": read_grid, "pyramid": read_pyramid, "noise": read_noise_set}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Small valid files of each format: 3 scales, vocab 8."""
    root = tmp_path_factory.mktemp("fuzz")
    params = PredictorParams(default_codebook(size=8), dyadic_schedule(3))
    cond = condition_embed("fuzz", params)
    pyramid = generate(cond, params, seed=1)
    digest = bytes(range(16))
    write_grid(root / "grid", random_grid(36, size=4), seed=5, digest=digest)
    write_pyramid(root / "pyramid", pyramid, 8, seed=5, digest=digest)
    noise_set = invert_pyramid(pyramid, cond, 1.0, params, seed=5)
    write_noise_set(root / "noise", noise_set, digest=digest)
    return root, {name: (root / name).read_bytes() for name in READERS}


class TestCorruptFilesFuzz:
    """A truncated or bit-flipped file reads, or fails with FormatError or
    ValidationError; any other exception fails the test."""

    @pytest.mark.parametrize("kind", sorted(READERS))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_truncation_or_bit_flip(self, valid_files, kind, data):
        root, blobs = valid_files
        blob = bytearray(blobs[kind])
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
            blob[bit // 8] ^= 1 << (bit % 8)
        path = root / f"mutated-{kind}"
        path.write_bytes(bytes(blob))
        try:
            READERS[kind](path)
        except (FormatError, ValidationError):
            pass


class TestPgm:
    def test_single_token_zero(self, tmp_path):
        gray = gray_from_tokens(np.array([[0]], dtype=np.int32), 64)
        assert gray[0, 0] == 0
        path = tmp_path / "t.pgm"
        write_pgm(path, gray)
        assert path.read_bytes().startswith(b"P5\n")

    def test_token_mapping_floor(self):
        tokens = np.array([[0, 1, 32, 63]], dtype=np.int32)
        gray = gray_from_tokens(tokens, 64)
        assert list(gray[0]) == [0, (255 * 1) // 63, (255 * 32) // 63, 255]

    def test_flat_channel_mid_gray(self):
        gray = gray_from_channel(np.full((4, 4), 2.5))
        assert np.all(gray == 128)

    def test_render_deterministic(self, tmp_path):
        channel = random_grid(33)[0]
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(a, gray_from_channel(channel), "digest=00 seed=1")
        write_pgm(b, gray_from_channel(channel), "digest=00 seed=1")
        assert a.read_bytes() == b.read_bytes()


class TestMetricsCsv:
    def test_fixed_columns_and_determinism(self, tmp_path):
        rows = [
            format_metric_row("ab" * 16, 3, "mse", "whole", 0.125),
            format_metric_row("ab" * 16, 3, "psnr", "background", 20.0),
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(a, rows)
        write_metrics_csv(b, rows)
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].split(",")[:4] == ["ab" * 16, "3", "mse", "whole"]
