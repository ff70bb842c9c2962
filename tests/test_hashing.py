import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from sspd.errors import ConfigError
from sspd.hashing import (
    DEFAULT_MASTER_SEED,
    Tag,
    derive_seed,
    hash_full_array,
    hash_range_array,
    hash64_array,
    lsb_at_least,
    mix64,
)

from oracles import hash64, hash_full, hash_range, lsb, mix64_array

H1 = derive_seed(DEFAULT_MASTER_SEED, Tag.H1)
H2 = derive_seed(DEFAULT_MASTER_SEED, Tag.H2)

KEYS_1M = np.random.default_rng(0xC0FFEE).integers(0, 2**32, size=1_000_000,
                                                   dtype=np.uint64)


def test_hash_full_deterministic():
    assert hash_full(0xDEADBEEF, H1) == hash_full(0xDEADBEEF, H1)
    assert hash_full(0, H1) == hash_full(0, H1)


def test_hash_full_in_range():
    for key in (0, 1, 2**32 - 1, 0x12345678):
        assert 0 <= hash_full(key, H1) < 2**32


def test_scalar_and_vector_paths_agree():
    keys = KEYS_1M[:4096]
    vec = hash64_array(keys, H1)
    for i in range(0, 4096, 131):
        assert hash64(int(keys[i]), H1) == int(vec[i])
    vec32 = hash_full_array(keys[:64], H1)
    assert [hash_full(int(k), H1) for k in keys[:64]] == vec32.tolist()


def test_hash_full_output_bytes_uniform():
    # Each of the four output bytes should look uniform over 0..255.
    out = hash_full_array(KEYS_1M, H1)
    for shift in (0, 8, 16, 24):
        byte = ((out >> np.uint64(shift)) & np.uint64(0xFF)).astype(np.int64)
        counts = np.bincount(byte, minlength=256)
        _, p = stats.chisquare(counts)
        assert p > 0.001, f"byte {shift // 8} non-uniform (p={p:.2e})"


def test_distinct_tags_uncorrelated():
    a = hash_full_array(KEYS_1M, H1).astype(np.float64)
    b = hash_full_array(KEYS_1M, H2).astype(np.float64)
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 0.01


def test_different_tags_differ():
    tags = [Tag.H1, Tag.H2, Tag.H3, Tag.ROUTE] + [Tag.LH_BASE + i for i in range(8)]
    assert len({derive_seed(DEFAULT_MASTER_SEED, tag) for tag in tags}) == 12


def test_hash_range_single_bucket():
    for key in (0, 7, 2**32 - 1):
        assert hash_range(key, H2, 1) == 0


def test_hash_range_zero_modulus_rejected():
    with pytest.raises(ConfigError):
        hash_range(1, H2, 0)
    with pytest.raises(ConfigError):
        hash_range_array(KEYS_1M[:4], H2, 0)


def test_hash_range_buckets_near_uniform():
    vals = hash_range_array(KEYS_1M, H2, 8).astype(np.int64)
    counts = np.bincount(vals, minlength=8)
    freqs = counts / len(vals)
    assert np.all(np.abs(freqs - 1 / 8) < 0.01 * (1 / 8))


@pytest.mark.parametrize("m", [1, 2, 3, 8, 1000, 1024, 8192, 2**31, 2**32 + 3, 2**40])
def test_hash_range_array_matches_scalar(m):
    # Powers of two take the mask, the others the remainder; both must
    # give the scalar oracle's values.
    keys = KEYS_1M[:512]
    expected = [hash_range(k, H2, m) for k in keys.tolist()]
    assert hash_range_array(keys, H2, m).tolist() == expected
    assert hash_range_array(keys.astype(np.uint32), H2, m).tolist() == expected


@pytest.mark.parametrize("dtype", [np.uint64, np.uint32])
def test_array_hashes_leave_input_unchanged(dtype):
    keys = KEYS_1M[:4096].astype(dtype)
    before = keys.copy()
    for out in (mix64_array(keys), hash64_array(keys, H1), hash_full_array(keys, H1),
                hash_range_array(keys, H2, 1024), hash_range_array(keys, H2, 1000)):
        assert out.dtype == np.uint64 and not np.shares_memory(out, keys)
        assert np.array_equal(keys, before)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=10_000))
def test_hash_range_pure(key, m):
    assert hash_range(key, H2, m) == hash_range(key, H2, m)
    assert 0 <= hash_range(key, H2, m) < m


def test_lsb_known_values():
    assert lsb(1) == 0
    assert lsb(8) == 3
    assert lsb(0) == 32
    assert lsb(0b1010100) == 2
    assert lsb(1 << 31) == 31


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_lsb_matches_mask_predicate(x):
    arr = np.array([x], dtype=np.uint64)
    for tau in (0, 1, 3, 7, 13, 32):
        assert bool(lsb_at_least(arr, tau)[0]) == (lsb(x) >= tau)


def test_lsb_geometric_tail():
    # P[lsb >= tau] = 2^-tau within 3 standard errors for tau in 0..10.
    h = hash_full_array(KEYS_1M, H1)
    n = len(h)
    for tau in range(11):
        p = 2.0 ** -tau
        observed = lsb_at_least(h, tau).mean()
        se = max(np.sqrt(p * (1 - p) / n), 1e-9)
        assert abs(observed - p) <= 3 * se + 1e-12, (tau, observed, p)


def test_mix64_scalar_vector_identical():
    xs = KEYS_1M[:1000]
    vec = mix64_array(xs)
    assert [mix64(int(x)) for x in xs] == vec.tolist()


def test_master_seed_changes_everything():
    other = derive_seed(0x1234, Tag.H1)
    same = sum(hash_full(int(k), H1) == hash_full(int(k), other)
               for k in KEYS_1M[:10_000])
    assert same < 10  # chance collisions only
