"""Counter-based RNG: determinism, golden values, distribution quality."""

import numpy as np
import pytest

from invnoise import _blocks
from invnoise.errors import ValidationError
from invnoise.rng import normal_values, raw64_values, seed_array, uniform_values

# The keyed permutation is frozen: these values must never change, or
# every recorded artifact and seeded experiment silently shifts.  Keys
# are (seed, purpose, scale, row, col, channel).
GOLDEN = [
    ((0, 0, 0, 0, 0, 0), 14687217854757187732, 0.7961956752947815),
    ((0, 1, 0, 0, 0, 0), 8483968834307291576, 0.4599168720727639),
    ((1, 0, 0, 0, 0, 0), 18167412353352935020, 0.9848573970972619),
    ((42, 1, 2, 3, 4, 5), 7775575115986388578, 0.42151477165383344),
    ((18446744073709551615, 8, 5, 15, 15, 63), 5165802321704481207, 0.2800387049911331),
    ((123456789, 3, 1, 0, 0, 0), 2032553740161970710, 0.11018495903885736),
]


@pytest.mark.parametrize("key,expected_raw,expected_uniform", GOLDEN)
def test_golden_values(key, expected_raw, expected_uniform):
    assert int(raw64_values(*key)) == expected_raw
    assert float(uniform_values(*key)) == expected_uniform


def test_same_key_same_value():
    key = (7, 2, 1, 3, 9, 4)
    assert uniform_values(*key) == uniform_values(*key)


def test_distinct_fields_distinct_streams():
    base = (7, 2, 1, 3, 9, 4)
    variants = [
        (8, 2, 1, 3, 9, 4),
        (7, 3, 1, 3, 9, 4),
        (7, 2, 2, 3, 9, 4),
        (7, 2, 1, 4, 9, 4),
        (7, 2, 1, 3, 10, 4),
        (7, 2, 1, 3, 9, 5),
    ]
    values = {int(raw64_values(*base))} | {int(raw64_values(*k)) for k in variants}
    assert len(values) == len(variants) + 1


def test_open_interval_exhaustive():
    """10^5 draws over distinct keys all land strictly inside (0, 1)."""
    u = uniform_values(11, 1, 0, np.arange(100_000), 0, 0)
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)


def test_uniformity_ks():
    """KS statistic against Uniform(0,1) stays within 0.01 at n = 10^5."""
    u = np.sort(uniform_values(12, 1, 0, np.arange(100_000), 0, 0))
    n = u.size
    steps = np.arange(n)
    d = max(np.max((steps + 1) / n - u), np.max(u - steps / n))
    assert d <= 0.01


def test_order_independence():
    """Evaluating keys in any order yields the same per-key values."""
    keys = [(3, 1, s, r, c, ch) for s in (0, 1) for r in (0, 5) for c in (0, 2) for ch in (0, 7)]
    forward = [float(uniform_values(*k)) for k in keys]
    backward = [float(uniform_values(*k)) for k in reversed(keys)]
    assert forward == backward[::-1]


def test_field_matches_scalar_keys():
    """Broadcast index arrays agree with per-key scalar evaluation."""
    field = uniform_values(5, 4, 2, *_grid_key(3, 4, 2))
    for i in range(3):
        for j in range(4):
            for ch in range(2):
                assert field[i, j, ch] == uniform_values(5, 4, 2, i, j, ch)


def test_subfield_consistency():
    """A smaller field is a prefix slice of a larger one (pure keying)."""
    big = uniform_values(9, 1, 3, np.arange(8)[:, None], np.arange(8)[None, :], 0)
    small = uniform_values(9, 1, 3, np.arange(4)[:, None], np.arange(4)[None, :], 0)
    assert np.array_equal(big[:4, :4], small)


def test_normal_values_moments():
    z = normal_values(21, 6, 0, np.arange(50_000), 0, 0)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


# --- reference construction ---------------------------------------------------
#
# The keyed hash as first written: every field broadcast to the full
# output shape, then mixed out of place with explicit 64-bit masking.
# The in-place, plane-by-plane kernel must produce the same words.

_REF_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def _ref_mix(z):
    z = (z + np.uint64(0x9E3779B97F4A7C15)) & _REF_MASK
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _REF_MASK
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _REF_MASK
    return z ^ (z >> np.uint64(31))


def _ref_u64(value):
    return np.atleast_1d(np.asarray(value)).astype(np.uint64, copy=False)


def reference_raw64_values(seed, purpose, scale, rows, cols, channels):
    h = _ref_mix(_ref_u64(seed))
    for field in (purpose, scale):
        h = _ref_mix(h ^ _ref_u64(field))
    out_shape = np.broadcast_shapes(np.shape(rows), np.shape(cols), np.shape(channels))
    rows, cols, channels = np.broadcast_arrays(
        _ref_u64(rows), _ref_u64(cols), _ref_u64(channels)
    )
    h = _ref_mix(h ^ rows)
    h = _ref_mix(h ^ cols)
    return _ref_mix(h ^ channels).reshape(out_shape)


def reference_uniform_values(*key):
    words = reference_raw64_values(*key)
    return ((words >> np.uint64(11)).astype(np.float64) + 1.0) / float(2**53 + 2)


def _grid_key(h, w, c):
    return np.arange(h)[:, None, None], np.arange(w)[None, :, None], np.arange(c)[None, None, :]


REFERENCE_KEYS = [
    pytest.param((0, 0, 0, 0, 0, 0), id="all-scalar"),
    pytest.param((2**64 - 1, 8, 5, 15, 15, 63), id="max-seed"),
    pytest.param((7, 2, 3, *_grid_key(1, 1, 512)), id="1x1"),
    pytest.param((7, 2, 3, *_grid_key(1, 9, 64)), id="1xw"),
    pytest.param((7, 2, 3, *_grid_key(5, 1, 3)), id="hx1"),
    pytest.param((7, 2, 3, *_grid_key(16, 16, 64)), id="16x16"),
    pytest.param((101, 5, 0, np.arange(1, 64)[:, None], 0, np.arange(4)[None, :]), id="codebook"),
    pytest.param((3, 1, 0, np.arange(1000), 0, 0), id="1-d-rows"),
    pytest.param(
        (9, 1, 3, *np.meshgrid(np.arange(4), np.arange(5), np.arange(6), indexing="ij")),
        id="meshgrid",
    ),
    pytest.param((9, 1, 3, 0, np.arange(6)[:, None], np.arange(5)[None, :]), id="cols-channels"),
]


@pytest.mark.parametrize("key", REFERENCE_KEYS)
def test_raw64_matches_broadcast_reference(key):
    got = raw64_values(*key)
    want = reference_raw64_values(*key)
    assert got.dtype == np.uint64
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("key", REFERENCE_KEYS)
def test_uniform_matches_broadcast_reference(key):
    assert np.array_equal(uniform_values(*key), reference_uniform_values(*key))


@pytest.mark.parametrize("seeds", [[7], [5, 2**64 - 1]], ids=["one-seed", "seed-axis"])
@pytest.mark.parametrize(
    "fields", [_grid_key(5, 7, 1000), (np.arange(40000), 0, 0)], ids=["grid", "1-d-rows"]
)
def test_chunked_hash_matches_reference(seeds, fields):
    """Results of more than ``_blocks.CHUNK`` words (35000 words a seed
    of a 5x7x1000 grid, or 40000 of a 1-d field) mix whole, as the
    reference does, at one seed and on a seed axis."""
    got = raw64_values(seed_array(seeds) if len(seeds) > 1 else seeds[0], 2, 3, *fields)
    got = got.reshape(len(seeds), -1)
    for seed, row in zip(seeds, got, strict=True):
        assert np.array_equal(row, reference_raw64_values(seed, 2, 3, *fields).reshape(-1))


def test_leading_fields_mix_without_the_driver(monkeypatch):
    """Every step mixes whole: no draw runs a row-block pass, neither
    into a caller's buffers nor into new arrays, and neither the hash
    nor its map to (0, 1)."""
    passes = []
    driver = _blocks.for_row_blocks

    def counted(body, rows, *rest):
        passes.append(rows)
        return driver(body, rows, *rest)

    monkeypatch.setattr(_blocks, "for_row_blocks", counted)
    seeds, key = seed_array([3, 2**64 - 1]), _grid_key(16, 16, 64)
    size = 2 * 16 * 16 * 64
    want = np.stack([reference_raw64_values(s, 2, 3, *key) for s in (3, 2**64 - 1)])
    got = raw64_values(seeds, 2, 3, *key, np.empty(size), np.empty(size))
    assert passes == []
    assert np.array_equal(got, want)
    assert np.array_equal(raw64_values(seeds, 2, 3, *key), want)
    assert np.array_equal(uniform_values(seeds, 2, 3, *key),
                          np.stack([reference_uniform_values(s, 2, 3, *key) for s in (3, 2**64 - 1)]))
    assert passes == []


def test_hash_leaves_uint64_inputs_untouched():
    rows = np.arange(8, dtype=np.uint64)[:, None]
    cols = np.arange(3, dtype=np.uint64)[None, :]
    seed = np.array([5], dtype=np.uint64)
    before = rows.copy(), cols.copy(), seed.copy()
    raw64_values(seed, 1, 2, rows, cols, 0)
    assert all(np.array_equal(a, b) for a, b in zip((rows, cols, seed), before))


SEED_ARRAYS = [
    pytest.param([0], id="one"),
    pytest.param([3, 0, 2**64 - 1, 5, 2**63], id="max-seed"),
]


@pytest.mark.parametrize("seeds", SEED_ARRAYS)
@pytest.mark.parametrize("key", REFERENCE_KEYS)
def test_seed_array_matches_per_seed_scalars(seeds, key):
    """An array of S seeds adds a leading axis whose slice s is the draw
    at the scalar seed s."""
    _, *fields = key
    got = raw64_values(seed_array(seeds), *fields)
    assert got.shape == (len(seeds), *np.shape(raw64_values(0, *fields)))
    for seed, row in zip(seeds, got):
        assert np.array_equal(row, raw64_values(seed, *fields))
    uniforms = uniform_values(seed_array(seeds), *fields)
    for seed, row in zip(seeds, uniforms):
        assert np.array_equal(row, uniform_values(seed, *fields))


def test_seed_array_range():
    assert seed_array([0, 2**64 - 1]).tolist() == [0, 2**64 - 1]
    assert seed_array(np.array([7], dtype=np.uint64)).dtype == np.uint64
    for bad in ([-1], [2**64], [-1, 2**64 - 1], [1.0], [True], ["3"]):
        with pytest.raises(ValidationError):
            seed_array(bad)
