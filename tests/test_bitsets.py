from random import Random

from ordmotif.bitsets import bits, mask_of

from oracles import compress, lectic_less


def test_mask_of_round_trip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(0)) == []


def test_compress_expand_inverse():
    rng = Random(7)
    for _ in range(200):
        positions = sorted(rng.sample(range(16), rng.randint(0, 8)))
        inner = rng.getrandbits(len(positions))
        spread = mask_of(p for j, p in enumerate(positions) if inner >> j & 1)
        assert compress(spread, positions) == inner


def test_compress_drops_outside_bits():
    assert compress(0b1111, [1, 3]) == 0b11
    assert compress(0b0101, [1, 3]) == 0


# The lectic tests check the oracle that the extent-order test relies on.


def test_lectic_less_matches_smallest_difference():
    # a < b iff the minimum element of the symmetric difference lies in b.
    for a in range(32):
        for b in range(32):
            if a == b:
                assert not lectic_less(a, b)
                continue
            low = (a ^ b) & -(a ^ b)
            assert lectic_less(a, b) == bool(b & low)


def test_lectic_is_a_total_order():
    values = list(range(20))
    for a in values:
        for b in values:
            if a != b:
                assert lectic_less(a, b) != lectic_less(b, a)
