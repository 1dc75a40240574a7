import time

import pytest

from ordmotif import (
    FormalContext,
    ScaleFamily,
    build_scale,
)
from ordmotif.dimension import MAX_COLUMN_SCANS
from ordmotif.scales import (
    FAMILY_MIN_SIZE,
    column_count,
)

from oracles import (
    expected_extent_count,
    induced_subcontext,
    oracle_scale,
    oracle_semiproduct,
)

ALL = list(ScaleFamily)


def sizes(family):
    return range(3 if family is ScaleFamily.CROWN else 1, 9)


def test_family_names_round_trip():
    for f in ALL:
        assert ScaleFamily.from_name(str(f)) is f
    assert ScaleFamily.from_name(" Crown ") is ScaleFamily.CROWN
    with pytest.raises(ValueError):
        ScaleFamily.from_name("diadic")


def test_family_rank_order():
    assert [str(f) for f in sorted(ALL)] == [
        "nominal",
        "ordinal",
        "interordinal",
        "contranominal",
        "crown",
    ]


def test_build_scale_matches_incidence_formulas():
    for f in ALL:
        for n in sizes(f):
            assert build_scale(f, n).rows == oracle_scale(f, n).rows


def test_build_scale_columns_are_the_rows_transposed():
    for f in ALL:
        for n in range(FAMILY_MIN_SIZE[f], 13):
            scale = build_scale(f, n)
            transposed = tuple(
                sum(1 << g for g, row in enumerate(scale.rows) if row >> m & 1)
                for m in range(len(scale.attributes))
            )
            assert scale.cols == transposed, (f, n)


def test_largest_admitted_scales_build_within_a_second():
    # The largest size whose first object stays within the column-scan cap
    # of `scaling-dim` (n * n scans); built bit by bit, these took seconds each.
    n = 2896
    assert n * n <= MAX_COLUMN_SCANS < (n + 1) ** 2
    start = time.monotonic()
    for f in ALL:
        build_scale(f, n)
    assert time.monotonic() - start < 1


def test_build_scale_labels():
    s = build_scale(ScaleFamily.CROWN, 4)
    assert s.objects == ("1", "2", "3", "4")
    assert s.attributes == ("1", "2", "3", "4")
    i3 = build_scale(ScaleFamily.INTERORDINAL, 3)
    assert i3.attributes == ("≤1", "≤2", "≤3", "≥1", "≥2", "≥3")


def test_crown_object_three_row():
    # object 3 carries attributes 3 and 4
    s = build_scale(ScaleFamily.CROWN, 4)
    assert s.rows[2] == 0b1100


def test_nominal_size_one_is_full():
    s = build_scale(ScaleFamily.NOMINAL, 1)
    assert s.rows == (1,)


def test_size_below_minimum_rejected():
    with pytest.raises(ValueError):
        build_scale(ScaleFamily.CROWN, 2)
    with pytest.raises(ValueError):
        build_scale(ScaleFamily.NOMINAL, 0)
    with pytest.raises(ValueError):
        expected_extent_count(ScaleFamily.CROWN, 2)


def test_expected_extent_count_matches_built_scale():
    for f in ALL:
        for n in sizes(f):
            assert len(build_scale(f, n).extents()) == expected_extent_count(f, n)


def test_column_count_matches_built_scale():
    for f in ALL:
        for n in sizes(f):
            assert len(build_scale(f, n).attributes) == column_count(f, n)


def test_frozen_extent_counts():
    assert expected_extent_count(ScaleFamily.INTERORDINAL, 3) == 7
    assert expected_extent_count(ScaleFamily.INTERORDINAL, 5) == 16
    assert expected_extent_count(ScaleFamily.CONTRANOMINAL, 3) == 8
    assert expected_extent_count(ScaleFamily.CROWN, 3) == 8
    assert expected_extent_count(ScaleFamily.CROWN, 4) == 10
    assert expected_extent_count(ScaleFamily.NOMINAL, 1) == 1
    assert expected_extent_count(ScaleFamily.INTERORDINAL, 1) == 1


def test_crown_three_equals_contranominal_three():
    c3 = build_scale(ScaleFamily.CROWN, 3)
    b3 = build_scale(ScaleFamily.CONTRANOMINAL, 3)
    assert set(c3.extents()) == set(b3.extents())


def test_size_two_scales_share_the_boolean_system():
    boolean = {0b00, 0b01, 0b10, 0b11}
    for f in (ScaleFamily.NOMINAL, ScaleFamily.INTERORDINAL, ScaleFamily.CONTRANOMINAL):
        assert set(build_scale(f, 2).extents()) == boolean


def chain_le(n):
    return FormalContext(
        [str(i + 1) for i in range(n)],
        [f"≤{i + 1}" for i in range(n)],
        [[1 if g <= m else 0 for m in range(n)] for g in range(n)],
    )


def chain_ge(n):
    return FormalContext(
        [str(i + 1) for i in range(n)],
        [f"≥{i + 1}" for i in range(n)],
        [[1 if g >= m else 0 for m in range(n)] for g in range(n)],
    )


def test_apposition_of_opposed_chains_is_interordinal():
    left, right = chain_le(3), chain_ge(3)
    rows = [le | ge << 3 for le, ge in zip(left.rows, right.rows)]
    glued = FormalContext.from_rows(left.objects, left.attributes + right.attributes, rows)
    i3 = build_scale(ScaleFamily.INTERORDINAL, 3)
    assert glued.rows == i3.rows
    assert glued.attributes == i3.attributes


# The semi-product tests check the oracle that the scaling dimension
# tests compare against.


def test_semiproduct_of_one_is_identity():
    n3 = build_scale(ScaleFamily.NOMINAL, 3)
    assert oracle_semiproduct([n3]).rows == n3.rows


def test_semiproduct_of_two_chains_is_a_grid():
    o2 = build_scale(ScaleFamily.ORDINAL, 2)
    grid = oracle_semiproduct([o2, o2])
    assert len(grid.objects) == 4
    assert len(grid.attributes) == 4
    # extents are exactly the products of the component extents
    products = set()
    for e1 in o2.extents():
        for e2 in o2.extents():
            mask = 0
            for g1 in range(2):
                for g2 in range(2):
                    if e1 >> g1 & 1 and e2 >> g2 & 1:
                        mask |= 1 << (g1 * 2 + g2)
            products.add(mask)
    assert set(grid.extents()) == products
    assert len(grid.extents()) == 4


def test_semiproduct_diagonal_recovers_interordinal():
    n = 3
    semi = oracle_semiproduct([chain_le(n), chain_ge(n)])
    diagonal = 0
    for g in range(n):
        diagonal |= 1 << (g * n + g)
    sub = induced_subcontext(semi, diagonal)
    i3 = build_scale(ScaleFamily.INTERORDINAL, n)
    assert set(sub.extents()) == set(i3.extents())
