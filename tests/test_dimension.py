from random import Random

import pytest

from ordmotif import (
    FormalContext,
    ScaleFamily,
    build_scale,
    scaling_dimension,
)
from ordmotif.dimension import meet_irreducible_extents

from oracles import dimension_oracle, random_context

B3 = build_scale(ScaleFamily.CONTRANOMINAL, 3)
N3 = build_scale(ScaleFamily.NOMINAL, 3)
I3 = build_scale(ScaleFamily.INTERORDINAL, 3)
O2 = build_scale(ScaleFamily.ORDINAL, 2)
N2 = build_scale(ScaleFamily.NOMINAL, 2)
O3 = build_scale(ScaleFamily.ORDINAL, 3)


def test_meet_irreducibles_of_boolean_cube():
    # the two-element extents; everything below them is an intersection
    assert meet_irreducible_extents(B3) == [0b011, 0b101, 0b110]


def test_meet_irreducibles_of_chain():
    assert meet_irreducible_extents(O3) == [0b001, 0b011]


def test_meet_irreducibles_exclude_top():
    one = FormalContext.from_rows(["g"], ["m"], (0b1,))
    assert meet_irreducible_extents(one) == []


def test_boolean_cube_needs_three_chains():
    assert scaling_dimension(B3, [O2]) == 3
    assert scaling_dimension(B3, [O2], max_d=2) is None


def test_interval_scale_needs_two_chains():
    assert scaling_dimension(I3, [O3]) == 2
    assert scaling_dimension(I3, [O3], max_d=1) is None


def test_three_classes_need_three_cuts():
    assert scaling_dimension(N3, [O2]) == 3


def test_every_context_measures_itself():
    for scale in (B3, N3, I3, O3):
        assert scaling_dimension(scale, [scale]) == 1


def test_enlarging_the_scale_family_never_hurts():
    assert scaling_dimension(B3, [O2, B3]) == 1


def test_trivial_scale_reaches_nothing():
    one = build_scale(ScaleFamily.ORDINAL, 1)
    assert scaling_dimension(B3, [one]) is None


def test_bounds_are_enforced():
    big = FormalContext.from_rows([f"g{i}" for i in range(9)], ["m"], (1,) * 9)
    with pytest.raises(ValueError):
        scaling_dimension(big, [O2])
    with pytest.raises(ValueError):
        scaling_dimension(B3, [O2], max_d=0)
    with pytest.raises(ValueError):
        scaling_dimension(B3, [O2], max_d=5)
    with pytest.raises(ValueError):
        scaling_dimension(B3, [])
    # 40**6 maps of 40 columns each, far above the cap: rejected before any search.
    six = FormalContext.from_rows([f"g{i}" for i in range(6)], ["m"], (1,) * 6)
    with pytest.raises(ValueError, match="maps"):
        scaling_dimension(six, [build_scale(ScaleFamily.NOMINAL, 40)])


def test_agrees_with_explicit_semiproduct_search():
    rng = Random(127)
    pools = [[O2, build_scale(ScaleFamily.NOMINAL, 2)], [O3]]
    for trial in range(25):
        ctx = random_context(
            rng, rng.randint(2, 4), rng.randint(2, 4), rng.uniform(0.3, 0.7)
        )
        scales = pools[trial % len(pools)]
        assert scaling_dimension(ctx, scales, max_d=2) == dimension_oracle(
            ctx, scales, 2
        )


def test_no_map_is_a_measure_when_the_empty_set_is_no_extent():
    # The one object holds every attribute, so the empty set is no extent:
    # every map onto nominal:2 leaves one scale column's preimage empty.
    full = FormalContext.from_rows(["g"], ["m", "n"], (0b11,))
    assert scaling_dimension(full, [N2]) is None
    assert scaling_dimension(full, [O2]) == 1
