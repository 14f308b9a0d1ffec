import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homsample.rng import child_rng, derive_seed, derive_seeds, make_rng, make_rngs
from oracles import reference_child_rng, reference_derive_seed, reference_make_rng


def _assert_same_stream(got, want):
    assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
    assert got.random(3).tobytes() == want.random(3).tobytes()
    assert got.choice(34, 6, replace=False).tolist() == want.choice(34, 6, replace=False).tolist()
    assert got.integers(0, 1 << 40, 4).tolist() == want.integers(0, 1 << 40, 4).tolist()


@settings(max_examples=150, deadline=None)
@given(base=st.integers(0, 2 ** 160 - 1),
       prefix=st.lists(st.integers(0, 2 ** 70), max_size=3),
       boundary=st.sampled_from([0, 2 ** 32, 2 ** 64, 2 ** 96]),
       before=st.integers(0, 8), rows=st.integers(1, 16))
def test_batched_seeds_and_streams_are_numpys_seedsequence(base, prefix, boundary, before, rows):
    # the last entry of [base, *prefix, r] runs over a range that may cross a
    # 32-bit word boundary, so one call mixes rows of up to 4 entropy words
    # (zero-padded to the pool) with longer rows, which are mixed in again
    first = max(0, boundary - before)
    indices = range(first, first + rows)
    want = [reference_derive_seed(base, *prefix, r) for r in indices]
    seeds = derive_seeds(base, *prefix, indices)
    assert seeds.dtype == np.uint64 and seeds.tolist() == want
    assert derive_seed(base, *prefix, indices[-1]) == want[-1]
    # keys of 1 to 6 words in one block
    keyed = want + list(indices) + [base]
    for seed, rng in zip(keyed, make_rngs(keyed), strict=True):
        _assert_same_stream(rng, reference_make_rng(seed))
    _assert_same_stream(make_rng(keyed[0]), reference_make_rng(keyed[0]))
    _assert_same_stream(child_rng(base, *prefix), reference_child_rng(base, *prefix))


@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 70 + 3])
def test_one_row_cases_are_numpys_seedsequence(seed):
    _assert_same_stream(make_rng(seed), reference_make_rng(seed))
    _assert_same_stream(child_rng(seed, 1, 0, 7), reference_child_rng(seed, 1, 0, 7))
    assert derive_seed(seed, 2, 5) == reference_derive_seed(seed, 2, 5)


def test_trailing_zero_words_are_neutral_only_up_to_the_pool():
    assert derive_seed(5, 0) == derive_seed(5) == reference_derive_seed(5, 0, 0, 0)
    assert derive_seed(5, 0, 0, 0, 0) == reference_derive_seed(5, 0, 0, 0, 0) != derive_seed(5)
    assert derive_seeds(5, [0, 1], 0, 0, 0).tolist() == [reference_derive_seed(5, r, 0, 0, 0)
                                                           for r in (0, 1)]


def test_negative_entries_are_rejected_as_numpy_rejects_them():
    for call in (lambda: make_rng(-1), lambda: derive_seed(1, -2),
                 lambda: derive_seeds(1, [3, -1]), lambda: list(make_rngs([1, -1]))):
        with pytest.raises(ValueError, match="non-negative"):
            call()
    with pytest.raises(ValueError):
        np.random.SeedSequence([1, -2])


def test_no_seeds_make_no_generators():
    assert list(make_rngs([])) == []
