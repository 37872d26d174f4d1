"""Grid configurations, subset-pair encoding, enumeration, and formats."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomconv.configuration import (
    EMPTY,
    ODD_COLUMNS,
    BadCharacterError,
    Color,
    Column,
    Configuration,
    ConfigurationError,
    InvalidSlotCountError,
    NotOrderedError,
    Row,
    analyze,
    column_of,
    descents,
    empty_column,
    enumerate_ordered,
    enumerate_tower_free,
    from_subset_pair,
    is_ordered,
    is_tower_free,
    odd,
    parse_compact,
    render,
    to_subset_pair,
    tower,
)

GOLDEN = ".A11.b2B2.."
GOLDEN_IMAGE = "BbAbabBaAbA"


# --------------------------------------------------------------------- column


def test_column_kinds():
    assert EMPTY.is_empty and not EMPTY.is_tower and not EMPTY.is_odd
    assert tower(Color.ONE).is_tower and tower(Color.ONE).colored_slots == 2
    assert odd(Row.TOP, Color.TWO).is_odd
    assert odd(Row.TOP, Color.TWO).row is Row.TOP
    assert odd(Row.BOTTOM, Color.ONE).color is Color.ONE
    assert EMPTY.color is None and EMPTY.row is None
    assert tower(Color.TWO).row is None


def test_column_rejects_two_distinct_colors():
    with pytest.raises(ConfigurationError):
        Column(Color.ONE, Color.TWO)


def test_column_flip():
    a = odd(Row.BOTTOM, Color.ONE)
    assert a.flipped() == odd(Row.TOP, Color.ONE)
    assert a.flipped().flipped() == a
    with pytest.raises(ConfigurationError):
        tower(Color.ONE).flipped()
    with pytest.raises(ConfigurationError):
        EMPTY.flipped()


def test_column_factories_agree():
    assert empty_column() is EMPTY
    assert column_of(Color.ONE, Color.ONE) == tower(Color.ONE)
    assert column_of(None, Color.TWO) == odd(Row.BOTTOM, Color.TWO)
    assert column_of(None, None) is EMPTY


def test_enum_other():
    assert Color.ONE.other() is Color.TWO
    assert Color.TWO.other() is Color.ONE
    assert Row.TOP.other() is Row.BOTTOM


# -------------------------------------------------------------- configuration


def test_configuration_is_immutable():
    c = parse_compact("1.")
    with pytest.raises(AttributeError):
        c.columns = ()


def test_configuration_sequence_protocol():
    c = parse_compact(GOLDEN)
    assert len(c) == 11
    assert c[0] is EMPTY
    assert c[2] == tower(Color.ONE)
    assert list(c)[5] == odd(Row.BOTTOM, Color.TWO)
    assert c[2:4] == (tower(Color.ONE), tower(Color.ONE))


def test_configuration_stores_compact_text():
    c = parse_compact(GOLDEN)
    assert c.text == GOLDEN
    assert all(a is b for a, b in zip(c.columns, Configuration(c.columns).columns))
    assert Configuration(c.columns).text == GOLDEN
    with pytest.raises(ConfigurationError):
        Configuration(["A"])


def test_configuration_equality_and_hash():
    assert parse_compact("1.") == parse_compact("1.")
    assert parse_compact("1.") != parse_compact(".1")
    assert len({parse_compact("aA"), parse_compact("aA")}) == 1
    assert parse_compact("") != "not a configuration"


def test_unbalanced_fragments_construct_but_fail_validate():
    fragment = Configuration((tower(Color.ONE),))
    assert not fragment.is_balanced
    assert fragment.colored_slots == 2
    with pytest.raises(InvalidSlotCountError):
        fragment.validate()


# ----------------------------------------------------------- compact alphabet


def test_parse_golden():
    c = parse_compact(GOLDEN)
    assert str(c) == GOLDEN
    assert c.is_balanced


def test_parse_render_round_trip():
    for text in ("", "AB", "1.", ".1", "aA2.", GOLDEN, GOLDEN_IMAGE):
        assert render(parse_compact(text)) == text


def test_parse_rejects_bad_characters():
    with pytest.raises(BadCharacterError, match="position 2"):
        parse_compact("1x")
    with pytest.raises(BadCharacterError):
        parse_compact("3")


def test_parse_rejects_unbalanced_strings():
    for text in (".", "1", "A.", "11", "AB."):
        with pytest.raises(InvalidSlotCountError):
            parse_compact(text)


def test_render_grid():
    assert render(parse_compact("1."), mode="grid") == "O.\nO."
    assert render(parse_compact(GOLDEN), mode="grid") == (
        ".OOO..XXX..\n..OO.XX.X.."
    )
    assert render(parse_compact(""), mode="grid") == "\n"


def test_render_rejects_unknown_mode():
    with pytest.raises(ValueError):
        render(parse_compact("1."), mode="fancy")


# ---------------------------------------------------------------- subset pair


def test_from_subset_pair_golden():
    c = from_subset_pair(5, 6, {2, 3, 4, 8, 9}, {2, 3, 4, 7, 8, 10})
    assert str(c) == GOLDEN


def test_to_subset_pair_golden():
    i, j, ones, twos = to_subset_pair(parse_compact(GOLDEN))
    assert (i, j) == (5, 6)
    assert ones == frozenset({2, 3, 4, 8, 9})
    assert twos == frozenset({2, 3, 4, 7, 8, 10})


def test_subset_pair_small_cases():
    assert str(from_subset_pair(0, 0, (), ())) == ""
    assert str(from_subset_pair(1, 1, {1}, {1})) == "AB"
    assert str(from_subset_pair(1, 0, {2}, ())) == "a"
    assert to_subset_pair(parse_compact("AB")) == (1, 1, frozenset({1}), frozenset({1}))


def test_from_subset_pair_validates():
    with pytest.raises(ConfigurationError):
        from_subset_pair(1, 0, {3}, ())  # slot 3 outside 1..2
    with pytest.raises(ConfigurationError):
        from_subset_pair(2, 0, {1}, ())  # wrong subset size
    with pytest.raises(ConfigurationError):
        from_subset_pair(-1, 0, (), ())


def test_to_subset_pair_requires_ordered():
    with pytest.raises(NotOrderedError):
        to_subset_pair(parse_compact("BA"))


@st.composite
def subset_pairs(draw):
    i = draw(st.integers(0, 5))
    j = draw(st.integers(0, 5))
    ones = draw(st.sets(st.integers(1, 2 * i), min_size=i, max_size=i)) if i else set()
    twos = draw(st.sets(st.integers(1, 2 * j), min_size=j, max_size=j)) if j else set()
    return i, j, frozenset(ones), frozenset(twos)


@given(pair=subset_pairs())
@settings(max_examples=60)
def test_subset_pair_round_trip(pair):
    i, j, ones, twos = pair
    c = from_subset_pair(i, j, ones, twos)
    assert len(c) == i + j
    assert c.is_balanced
    assert is_ordered(c)
    assert to_subset_pair(c) == (i, j, ones, twos)


# -------------------------------------------------------------------- analyze


def test_analyze_golden_profile():
    p = analyze(parse_compact(GOLDEN))
    assert p.type == (5, 6)
    assert p.towers == (3, 4, 7, 9)
    assert p.empties == (1, 5, 10, 11)
    assert p.odds == (2, 6, 8)
    assert p.ordered
    assert not p.tower_free
    assert p.descents == ()


def test_analyze_image_descents():
    p = analyze(parse_compact(GOLDEN_IMAGE))
    assert p.tower_free
    assert p.descents == (2, 4, 7, 10)
    assert p.type == (5, 6)
    assert not p.ordered


def test_analyze_empty_configuration():
    p = analyze(parse_compact(""))
    assert p.type == (0, 0)
    assert p.ordered and p.tower_free
    assert p.descents == ()


def test_ordered_predicate():
    assert is_ordered(parse_compact("AB"))
    assert not is_ordered(parse_compact("BA"))
    assert is_ordered(parse_compact("1.2."))
    assert not is_ordered(parse_compact("2.1."))
    # A color-One column past the One block breaks order even with the
    # right slot counts per color.
    assert not is_ordered(parse_compact(".A2B2.aB"))


def test_tower_free_predicate():
    assert is_tower_free(parse_compact("AB"))
    assert is_tower_free(parse_compact(""))
    assert not is_tower_free(parse_compact("1."))
    assert descents(parse_compact("2A.")) == (1,)


# ---------------------------------------------------------------- enumeration


def ordered_count(n: int) -> int:
    return sum(
        math.comb(2 * i, i) * math.comb(2 * (n - i), n - i) for i in range(n + 1)
    )


def test_enumerate_ordered_counts():
    for n in range(7):
        assert sum(1 for _ in enumerate_ordered(n)) == ordered_count(n)


def test_enumerate_ordered_contents():
    for n in range(5):
        seen = set()
        for c in enumerate_ordered(n):
            assert len(c) == n
            assert c.is_balanced
            assert is_ordered(c)
            seen.add(c)
        assert len(seen) == ordered_count(n)


def test_enumerate_ordered_boundary_order():
    items = [str(c) for c in enumerate_ordered(2)]
    assert items[0] == "BB"
    assert items[-1] == "aa"


def test_enumerate_tower_free_counts_and_order():
    for n in range(6):
        items = list(enumerate_tower_free(n))
        assert len(items) == 4**n
        assert len(set(items)) == 4**n
        assert all(is_tower_free(c) and len(c) == n for c in items)
    items = [str(c) for c in enumerate_tower_free(2)]
    assert items[0] == "AA"
    assert items[-1] == "bb"
    assert items[1] == "Aa"


def test_enumerate_rejects_negative_length():
    with pytest.raises(ConfigurationError):
        list(enumerate_ordered(-1))
    with pytest.raises(ConfigurationError):
        list(enumerate_tower_free(-1))


def test_odd_columns_constant_matches_alphabet():
    assert tuple(render(Configuration((c,))) for c in ODD_COLUMNS) == (
        "A",
        "a",
        "B",
        "b",
    )
