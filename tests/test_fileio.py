"""Artifact formats: bitwise round trips, provenance headers, PGM."""

import errno
import os
import stat
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invnoise import fileio
from invnoise.codec import default_codebook, encode
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
from invnoise.inversion import (
    KIND_LAI,
    KIND_OAI,
    InverseNoiseSet,
    invert_pyramid,
    reconstruct_from_noise,
)
from invnoise.predictor import PredictorParams, ScaleStepper, condition_embed, generate

from conftest import child_env, dyadic_schedule, next_scale_logits, random_grid


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
        # inverted noise is float32-exact, so the 32-bit payload holds it as is
        for ours, theirs in zip(noise_set.noises, loaded.noises):
            assert np.array_equal(ours, theirs)
        assert loaded.condition_label == source_cond.label
        assert loaded.tau == 18.0
        assert loaded.seed == 9
        assert loaded.kind == "lai"
        assert not loaded.sensitive
        assert header.seed == 9

    @pytest.mark.parametrize("tau", [0.0, 1e-6, 18.0])
    def test_float32_maps_replay_from_memory_and_disk(self, tmp_path, params, source_cond, tau):
        """The inverted set and the set read back hold the same float32
        maps, and both replay the source tokens."""
        pyramid = encode(random_grid(40), params.codebook, params.schedule)
        noise_set = invert_pyramid(pyramid, source_cond, tau, params, seed=4)
        write_noise_set(tmp_path / "n.nsn", noise_set)
        loaded, _ = read_noise_set(tmp_path / "n.nsn")
        for ours, theirs in zip(noise_set.noises, loaded.noises, strict=True):
            assert ours.dtype == theirs.dtype == np.float32
            assert np.array_equal(ours, theirs)
        for replayed in (noise_set, loaded):
            recon = reconstruct_from_noise(replayed, source_cond, params)
            assert all(np.array_equal(a, b) for a, b in zip(recon, pyramid, strict=True))

    def test_sensitive_flag_round_trip(self, tmp_path, params, source_cond):
        pyramid = generate(source_cond, params, seed=10)
        noise_set = invert_pyramid(pyramid, source_cond, 0.0, params, seed=10)
        path = tmp_path / "n0.nsn"
        write_noise_set(path, noise_set)
        loaded, _ = read_noise_set(path)
        assert loaded.sensitive

    def test_maps_are_private_writable_views(self, tmp_path, params, source_cond):
        """Read maps are writable float32 views of the file's private
        mapping: writing into one leaves the file as it was."""
        pyramid = generate(source_cond, params, seed=9)
        path = tmp_path / "n.nsn"
        write_noise_set(path, invert_pyramid(pyramid, source_cond, 18.0, params, seed=9))
        before = path.read_bytes()
        loaded, _ = read_noise_set(path)
        for noise in loaded.noises:
            assert noise.dtype == np.float32 and noise.flags.writeable
            noise[...] = 7.0
        assert path.read_bytes() == before

    def test_unicode_label(self, tmp_path, params):
        from invnoise.predictor import condition_embed

        cond = condition_embed("maison en briques — croquis", params)
        pyramid = generate(cond, params, seed=11)
        noise_set = invert_pyramid(pyramid, cond, 5.0, params, seed=11)
        path = tmp_path / "u.nsn"
        write_noise_set(path, noise_set)
        loaded, _ = read_noise_set(path)
        assert loaded.condition_label == cond.label


def stored_margins(noise_set, pyramid, cond, params):
    """Per scale, the least lead of the replayed label over every other
    class, p + n from the noise as stored."""
    stepper = ScaleStepper(cond, params)
    margins = []
    for tokens, noise in zip(pyramid, noise_set.noises):
        replayed = next_scale_logits(stepper) + noise
        h, w = tokens.shape
        rows, cols = np.arange(h)[:, None], np.arange(w)
        label = replayed[rows, cols, tokens].copy()
        replayed[rows, cols, tokens] = -np.inf
        margins.append(float(np.min(label - replayed.max(axis=-1))))
        stepper.push(tokens)
    return margins


class TestNoiseReplayFromDisk:
    """The noise read back from a file is the noise inverted in memory,
    and it replays the source exactly with every stored margin."""

    @pytest.mark.parametrize("tau", [0.0, 1e-6, 18.0])
    @pytest.mark.parametrize("kind", [KIND_LAI, KIND_OAI])
    def test_stored_noise_is_the_inverted_noise(self, tmp_path, params, source_cond, kind, tau):
        pyramid = encode(random_grid(40), params.codebook, params.schedule)
        noise_set = invert_pyramid(pyramid, source_cond, tau, params, seed=4, kind=kind)
        write_noise_set(tmp_path / "n.nsn", noise_set)
        loaded, _ = read_noise_set(tmp_path / "n.nsn")
        assert all(np.array_equal(a, b) for a, b in zip(noise_set.noises, loaded.noises))

    @settings(max_examples=60, deadline=None)
    @given(
        tau=st.sampled_from([0.0, 1e-300, 1e-6, 1.0, 18.0]),
        beta=st.sampled_from([4.0, 3000.0]),
        kind=st.sampled_from([KIND_LAI, KIND_OAI]),
        grid_seed=st.integers(0, 999),
        seed=st.integers(0, 2**32),
    )
    def test_write_read_replay(
        self, tmp_path_factory, params, source_cond, tau, beta, kind, grid_seed, seed
    ):
        params = PredictorParams(params.codebook, params.schedule, beta=beta)
        pyramid = encode(random_grid(grid_seed), params.codebook, params.schedule)
        noise_set = invert_pyramid(pyramid, source_cond, tau, params, seed, kind)
        path = tmp_path_factory.mktemp("replay") / "n.nsn"
        write_noise_set(path, noise_set)
        loaded, _ = read_noise_set(path)
        replayed = reconstruct_from_noise(loaded, source_cond, params)
        assert all(np.array_equal(a, b) for a, b in zip(pyramid, replayed))
        if kind == KIND_LAI:
            assert min(stored_margins(loaded, pyramid, source_cond, params)) >= tau


def no_mapping(fh):
    raise AssertionError("the file was mapped before its header was checked")


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

    @pytest.mark.parametrize("vocab", [0, 1, 2**16 + 1, 70000, 2**32 - 1])
    def test_pyramid_vocab_no_writer_takes(self, tmp_path, monkeypatch, vocab):
        """``write_pyramid`` refuses a vocab outside [2, 65536], so a header
        holding one fails before the file is mapped; both ends of the
        range read."""
        tokens = [np.zeros((1, 1), dtype=np.int32)]
        with pytest.raises(ValidationError):
            write_pyramid(tmp_path / "w.nsp", tokens, vocab)
        path = tmp_path / "p.nsp"
        write_pyramid(path, tokens, 2)
        data = bytearray(path.read_bytes())
        for good in (2, 2**16):
            data[36:40] = struct.pack("<I", good)
            path.write_bytes(bytes(data))
            assert read_pyramid(path)[1] == good
        data[36:40] = struct.pack("<I", vocab)
        path.write_bytes(bytes(data))
        monkeypatch.setattr(fileio, "_map", no_mapping)
        with pytest.raises(FormatError, match="vocab"):
            read_pyramid(path)

    def test_noise_set_with_no_scales(self, tmp_path, monkeypatch):
        """``write_noise_set`` refuses a set with no scales, so a header
        that counts none fails before the file is mapped, even when no
        shape or payload follows its label."""
        path = tmp_path / "n.nsn"
        with pytest.raises(ValidationError):
            write_small("noise", path, noises=())
        write_small("noise", path)  # label "x": header, fields and label take 53 bytes
        data = bytearray(path.read_bytes()[:53])
        data[32:36] = struct.pack("<I", 0)
        path.write_bytes(bytes(data))
        monkeypatch.setattr(fileio, "_map", no_mapping)
        with pytest.raises(FormatError, match="no scales"):
            read_noise_set(path)

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

    @pytest.mark.parametrize("tau", [0.0, 18.0])
    def test_noise_flag_disagrees_with_tau(self, tmp_path, monkeypatch, params, source_cond, tau):
        """Bit 0 of byte 7, the flags byte, marks tau = 0.  A file whose
        flag disagrees with its tau fails on its header, before the file
        is mapped."""
        pyramid = generate(source_cond, params, seed=18)
        path = tmp_path / "n.nsn"
        write_noise_set(path, invert_pyramid(pyramid, source_cond, tau, params, seed=18))
        data = bytearray(path.read_bytes())
        data[7] ^= 1
        path.write_bytes(bytes(data))
        monkeypatch.setattr(fileio, "_map", no_mapping)
        with pytest.raises(FormatError, match="sensitive-regime flag"):
            read_noise_set(path)

    @pytest.mark.parametrize("kind", ["grid", "pyramid"])
    @pytest.mark.parametrize("codes", [(7, 9), (1, 0), (0, 1), (0, 255)])
    def test_grid_and_pyramid_code_bytes(self, tmp_path, monkeypatch, kind, codes):
        """Grids and pyramids are written with both code bytes (6 and 7)
        zero; any other pair fails on the header, before the file is
        mapped."""
        path = tmp_path / "a.bin"
        write_small(kind, path)
        data = bytearray(path.read_bytes())
        assert data[6:8] == bytes(2)
        data[6:8] = bytes(codes)
        path.write_bytes(bytes(data))
        monkeypatch.setattr(fileio, "_map", no_mapping)
        with pytest.raises(FormatError, match="code bytes"):
            (read_grid if kind == "grid" else read_pyramid)(path)

    @pytest.mark.parametrize("codes", [(0, 2), (0, 3), (0, 0x81), (2, 0), (255, 0)])
    def test_noise_code_bytes(self, tmp_path, monkeypatch, params, source_cond, codes):
        """A noise file's kind code is 0 (lai) or 1 (oai), and its flags
        byte 0 or 1; a tau-18 lai set with flag bit 1 set, or an unknown
        kind, fails on the header, before the file is mapped."""
        pyramid = generate(source_cond, params, seed=19)
        path = tmp_path / "n.nsn"
        write_noise_set(path, invert_pyramid(pyramid, source_cond, 18.0, params, seed=19))
        data = bytearray(path.read_bytes())
        assert data[6:8] == bytes(2)
        data[6:8] = bytes(codes)
        path.write_bytes(bytes(data))
        monkeypatch.setattr(fileio, "_map", no_mapping)
        with pytest.raises(FormatError, match="code bytes"):
            read_noise_set(path)

    @pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 2), (2, 2, 0), (0, 0, 0)])
    def test_grid_with_an_empty_axis(self, tmp_path, monkeypatch, shape):
        """``write_grid`` refuses a grid with a zero-length axis and writes
        nothing, so a header holding one fails before the file is mapped."""
        path = tmp_path / "g.nsg"
        with pytest.raises(ValidationError, match="empty axis"):
            write_grid(path, np.zeros(shape))
        assert not path.exists()
        write_small("grid", path)
        data = bytearray(path.read_bytes())
        data[32:44] = struct.pack("<III", *shape)
        path.write_bytes(bytes(data[:44]))
        monkeypatch.setattr(fileio, "_map", no_mapping)
        with pytest.raises(FormatError, match="empty axis"):
            read_grid(path)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_pyramid_with_an_empty_axis(self, tmp_path, shape):
        """``write_pyramid`` refuses a token map with a zero-length axis and
        writes nothing, and a header holding one fails."""
        path = tmp_path / "p.nsp"
        maps = [np.zeros((1, 1), np.int32), np.zeros(shape, np.int32)]
        with pytest.raises(ValidationError, match="empty axis"):
            write_pyramid(path, maps, 4)
        assert not path.exists()
        write_small("pyramid", path)  # one 1x1 map: header, fields and shape take 48 bytes
        data = bytearray(path.read_bytes()[:48])
        data[40:48] = struct.pack("<II", *shape)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="empty axis"):
            read_pyramid(path)

    @pytest.mark.parametrize("shape", [(0, 2, 4), (2, 0, 4), (2, 2, 0), (1, 1, 0)])
    def test_noise_set_with_an_empty_axis(self, tmp_path, shape):
        """``write_noise_set`` refuses a (0, w, C), (h, 0, C) or (h, w, 0)
        map and writes nothing, and a header holding one fails."""
        path = tmp_path / "n.nsn"
        empty = np.zeros(shape, np.float32)
        with pytest.raises(ValidationError, match="empty axis"):
            write_small("noise", path, noises=(empty, empty))
        assert not path.exists()
        write_small("noise", path)  # label "x", then the 1x1 and 2x2 shapes at 53:69
        data = bytearray(path.read_bytes())
        h, w, vocab = shape
        data[36:40] = struct.pack("<I", vocab)
        data[61:69] = struct.pack("<II", h, w)
        path.write_bytes(bytes(data[:69] + bytes(4 * vocab)))  # the 1x1 map's payload
        with pytest.raises(FormatError, match="empty axis"):
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
        """On a set of float64 maps, which can hold values beyond float32."""
        pyramid = generate(source_cond, params, seed=17)
        noise_set = invert_pyramid(pyramid, source_cond, 18.0, params, seed=17)
        noises = [n.astype(np.float64) for n in noise_set.noises]
        noises[-1][-1, -1, -1] = value
        noise_set = replace(noise_set, noises=tuple(noises))
        path = tmp_path / "n.nsn"
        with pytest.raises(ValidationError):
            write_noise_set(path, noise_set)
        assert not path.exists()

    def test_largest_float32_round_trips(self, tmp_path):
        grid = np.zeros((1, 2, 2))
        grid[0, 1, 1] = -float(np.finfo(np.float32).max)
        write_grid(tmp_path / "g.nsg", grid)
        assert np.array_equal(read_grid(tmp_path / "g.nsg")[0], grid)


def write_small(kind, path, seed=3, digest=bytes(16), **noise_fields):
    """Write a small valid grid, pyramid or noise set; ``noise_fields``
    replace fields of the noise set."""
    if kind == "grid":
        write_grid(path, np.zeros((2, 2, 2)), seed=seed, digest=digest)
    elif kind == "pyramid":
        write_pyramid(path, [np.zeros((1, 1), np.int32)], 4, seed=seed, digest=digest)
    else:
        noises = (np.zeros((1, 1, 4), np.float32), np.zeros((2, 2, 4), np.float32))
        noise_set = InverseNoiseSet(noises, "x", 1.0, seed, KIND_LAI)
        write_noise_set(path, replace(noise_set, **noise_fields), digest=digest)


class TestWriterHeaders:
    """A bad seed, digest, noise map shape or noise tau is a
    ValidationError, raised before the file is opened: a file already at
    the path is left byte for byte as it was."""

    @pytest.mark.parametrize("kind", ["grid", "pyramid", "noise"])
    @pytest.mark.parametrize(
        "bad",
        [{"digest": b"abc"}, {"digest": bytes(17)}, {"digest": "0" * 16}, {"seed": -1},
         {"seed": 2**64}, {"seed": 1.5}, {"seed": True}],
        ids=["digest-3", "digest-17", "digest-str", "seed-negative", "seed-2^64", "seed-float",
             "seed-bool"],
    )
    def test_bad_seed_or_digest(self, tmp_path, kind, bad):
        path = tmp_path / "artifact"
        write_small(kind, path)
        before = path.read_bytes()
        with pytest.raises(ValidationError):
            write_small(kind, path, **bad)
        assert path.read_bytes() == before

    @pytest.mark.parametrize(
        "bad",
        [
            {"noises": (np.zeros((1, 1, 4), np.float32), np.zeros((2, 2, 5), np.float32))},
            {"noises": (np.zeros((1, 1, 4), np.float32), np.zeros((2, 2), np.float32))},
            {"noises": (np.zeros((1, 4), np.float32),)},
            {"noises": (np.zeros((1, 1, 1, 4), np.float32),)},
            {"tau": -1.0},
            {"tau": np.nan},
            {"tau": np.inf},
        ],
        ids=["vocabs-differ", "2-d-later", "2-d-first", "4-d", "tau-negative", "tau-nan",
             "tau-inf"],
    )
    def test_bad_noise_set(self, tmp_path, bad):
        path = tmp_path / "n.nsn"
        write_small("noise", path)
        before = path.read_bytes()
        with pytest.raises(ValidationError):
            write_small("noise", path, **bad)
        assert path.read_bytes() == before

    def test_largest_seed_round_trips(self, tmp_path):
        for kind, read in READERS.items():
            write_small(kind, tmp_path / kind, seed=np.uint64(2**64 - 1))
            assert read(tmp_path / kind)[-1].seed == 2**64 - 1


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


WRITERS = {
    "grid": lambda path, v: write_grid(path, np.full((2, 2, 2), float(v))),
    "pyramid": lambda path, v: write_pyramid(path, [np.full((1, 1), v, np.int32)], 4),
    "noise": lambda path, v: write_small("noise", path, seed=v),
    "pgm": lambda path, v: write_pgm(path, np.full((2, 3), v, np.uint8)),
    "csv": lambda path, v: write_metrics_csv(path, [format_metric_row("ab", v, "mse", "x", 0.5)]),
}


class FailAfterHeader:
    """A file whose writes after the first raise OSError, as on a full
    disk."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)


class TestAtomicWriters:
    """Every writer writes a temporary file beside its destination and
    moves it into place: an interrupted write leaves the earlier file
    and no temporary one, and a new file has the mode ``open`` gives."""

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_interrupted_write_leaves_the_earlier_file(self, tmp_path, monkeypatch, kind):
        path = tmp_path / "artifact"
        WRITERS[kind](tmp_path / "other", 2)
        WRITERS[kind](path, 1)
        before = path.read_bytes()
        assert (tmp_path / "other").read_bytes() != before
        opened = []

        def failing_open(file, *args, **kwargs):
            opened.append(Path(file))
            return FailAfterHeader(open(file, *args, **kwargs))

        monkeypatch.setattr(fileio, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="No space left"):
            WRITERS[kind](path, 2)
        assert [p.parent for p in opened] == [tmp_path] and opened[0] != path
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["artifact", "other"]

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_mode(self, tmp_path, kind, umask):
        old = os.umask(umask)
        try:
            WRITERS[kind](tmp_path / "artifact", 1)
            with open(tmp_path / "plain", "wb"):
                pass
        finally:
            os.umask(old)
        modes = [stat.S_IMODE(os.stat(tmp_path / p).st_mode) for p in ("artifact", "plain")]
        assert modes[0] == modes[1] == 0o666 & ~umask
        assert sorted(os.listdir(tmp_path)) == ["artifact", "plain"]

    def test_symlinked_destination_is_replaced(self, tmp_path):
        """A symlink at the path is replaced as a directory entry; its
        target is not written through."""
        write_grid(tmp_path / "target", np.zeros((1, 1, 1)))
        before = (tmp_path / "target").read_bytes()
        (tmp_path / "link").symlink_to(tmp_path / "target")
        write_grid(tmp_path / "link", np.ones((1, 1, 1)))
        assert not (tmp_path / "link").is_symlink()
        assert (tmp_path / "target").read_bytes() == before
        assert read_grid(tmp_path / "link")[0].item() == 1.0

    def test_rewrite_of_a_held_set_to_its_own_path(self, tmp_path):
        """A held noise set is a mapping of its file, so writing it back to
        that path must replace the file, not truncate it in place; a
        truncating writer would read the maps past the file's end and die
        of SIGBUS, return code -7.  Run in a child, so that shows as a
        failed test."""
        rng = np.random.default_rng(5)
        noises = tuple(rng.standard_normal((s, s, 64)).astype(np.float32) for s in (1, 8, 32))
        path = tmp_path / "n.nsn"
        write_noise_set(path, InverseNoiseSet(noises, "held", 1.0, 3, KIND_LAI))
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from invnoise.fileio import read_noise_set, write_noise_set\n"
            "path = sys.argv[1]\n"
            "held, header = read_noise_set(path)\n"
            "before = open(path, 'rb').read()\n"
            "write_noise_set(path, held, header.digest)\n"
            "assert open(path, 'rb').read() == before\n"
            "again, _ = read_noise_set(path)\n"
            "assert all(np.array_equal(a, b) for a, b in zip(held.noises, again.noises))\n"
        )
        child = subprocess.run([sys.executable, "-c", script, str(path)], env=child_env(),
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert sorted(os.listdir(tmp_path)) == ["n.nsn"]


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
