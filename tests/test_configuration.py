"""Grid configurations, block spelling, enumeration, and formats."""

import hashlib
import itertools
import math

import pytest

from binomconv.configuration import (
    BadCharacterError,
    ConfigurationError,
    InvalidSlotCountError,
    analyze,
    enumerate_ordered,
    enumerate_tower_free,
    parse_compact,
    render,
)
from binomconv.configuration import _block, _blocks

GOLDEN = ".A11.b2B2.."
GOLDEN_IMAGE = "BbAbabBaAbA"


# -------------------------------------------------------------- configuration


def test_configuration_sequence_protocol():
    c = parse_compact(GOLDEN)
    assert len(c) == 11


def test_configuration_stores_compact_text():
    c = parse_compact(GOLDEN)
    assert type(c) is str
    assert c == GOLDEN


def test_configuration_equality_and_hash():
    assert parse_compact("1.") == parse_compact("1.")
    assert parse_compact("1.") != parse_compact(".1")
    assert len({parse_compact("aA"), parse_compact("aA")}) == 1
    assert parse_compact("") != "not a configuration"


# ----------------------------------------------------------- compact alphabet


def test_parse_golden():
    assert parse_compact(GOLDEN) == GOLDEN


def test_parse_render_round_trip():
    for text in ("", "AB", "1.", ".1", "aA2.", GOLDEN, GOLDEN_IMAGE):
        assert render(parse_compact(text)) == text


def test_parse_checks_the_alphabet_before_balance():
    with pytest.raises(BadCharacterError) as error:
        parse_compact("1.x")
    assert str(error.value) == "character 'x' at position 3 is not in the alphabet .Aa1Bb2"
    # Unbalanced as well, but the bad character is reported.
    with pytest.raises(BadCharacterError) as error:
        parse_compact("1.1x")
    assert str(error.value) == "character 'x' at position 4 is not in the alphabet .Aa1Bb2"


def test_parse_rejects_bad_characters():
    with pytest.raises(BadCharacterError, match="position 2"):
        parse_compact("1x")
    with pytest.raises(BadCharacterError):
        parse_compact("3")


def test_parse_rejects_unbalanced_strings():
    for text in (".", "1", "A.", "11", "AB."):
        with pytest.raises(InvalidSlotCountError):
            parse_compact(text)
    with pytest.raises(InvalidSlotCountError) as error:
        parse_compact("1")
    assert str(error.value) == "2 colored slots in 1 columns"
    with pytest.raises(InvalidSlotCountError) as error:
        parse_compact("1.1")
    assert str(error.value) == "4 colored slots in 3 columns"


def test_render_grid():
    assert render(parse_compact("1."), mode="grid") == "O.\nO."
    assert render(parse_compact(GOLDEN), mode="grid") == (
        ".OOO..XXX..\n..OO.XX.X.."
    )
    assert render(parse_compact(""), mode="grid") == "\n"


def test_render_rejects_unknown_mode():
    with pytest.raises(ValueError):
        render(parse_compact("1."), mode="fancy")


# ------------------------------------------------------------------- blocks


@pytest.mark.parametrize(
    "i, ones, twos, text",
    [
        (5, {2, 3, 4, 8, 9}, {2, 3, 4, 7, 8, 10}, GOLDEN),
        (0, (), (), ""),
        (1, {1}, {1}, "AB"),
        (1, {2}, (), "a"),
    ],
    ids=["golden", "empty", "AB", "a"],
)
def test_block_golden(i, ones, twos, text):
    # An i-subset of the 2i slots of the color-One block and a j-subset of
    # the 2j slots of the color-Two block spell one ordered configuration.
    assert _block(i, ones, ".aA1") + _block(len(text) - i, twos, ".bB2") == text


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
    assert analyze("AB").ordered
    assert not analyze("BA").ordered
    assert analyze("1.2.").ordered
    assert not analyze("2.1.").ordered
    # A color-One column past the One block breaks order even with the
    # right slot counts per color.
    assert not analyze(".A2B2.aB").ordered
    # Order holds for balanced text only: "1" has nothing outside its
    # color-One block, but two colored slots in one column.
    assert analyze("1").ordered is False


def test_tower_free_predicate():
    assert analyze("AB").tower_free
    assert analyze("").tower_free
    assert not analyze("1.").tower_free
    assert analyze("2A.").descents == (1,)


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
            assert parse_compact(c) == c
            assert analyze(c).ordered
            seen.add(c)
        assert len(seen) == ordered_count(n)


def test_enumerate_ordered_lists_the_subset_pairs_in_order():
    # Each (i, ones-subset of 1..2i, twos-subset of 1..2j) once, in
    # lexicographic order of the triple.
    for n in range(7):
        pairs = [
            _block(i, ones, ".aA1") + _block(n - i, twos, ".bB2")
            for i in range(n + 1)
            for ones in itertools.combinations(range(1, 2 * i + 1), i)
            for twos in itertools.combinations(range(1, 2 * (n - i) + 1), n - i)
        ]
        assert list(enumerate_ordered(n)) == pairs, n


def test_enumerate_ordered_boundary_order():
    items = [str(c) for c in enumerate_ordered(2)]
    assert items[0] == "BB"
    assert items[-1] == "aa"


@pytest.mark.parametrize("chars", [".aA1", ".bB2"])
def test_base_four_blocks_spell_each_subset_like_block(chars):
    for width in range(11):
        subsets = itertools.combinations(range(1, 2 * width + 1), width)
        expected = (_block(width, subset, chars) for subset in subsets)
        sentinel = object()
        for got, want in itertools.zip_longest(_blocks(width, chars), expected, fillvalue=sentinel):
            assert got == want, width


#: SHA-256 of enumerate_ordered(n), each configuration's text followed by
#: a newline, as the set-based block builder produced them.
ORDERED_DIGESTS = (
    "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    "d2009e32273a71fa91180ef103466d288907d4f5ecc4ad7102393011212ec972",
    "43db4c2da87753793fa07aedecaa52a95ae7688664630940192c80af54316a8d",
    "40ff2a02fe25b91af3a3afd87bdcf67bda192c1c280fbc92b0b948b4466a8518",
    "88e2aca7076b76453ff712ab2d825d5a56ea7137fef207e73dc40cae0791ee93",
    "1e444777d624a59c9596279111e658372622960bdebca905d0626cc70060a110",
    "7af1cbe8ee1cdc1a03c167a70d49037cf67bedb7f3c1b1dfe71d2bd143b536fb",
    "6a272e16891c5d3e3065ee4064bb8fc2be58ed82329fee665b616725bde3fa74",
    "accc4bf5e1bd0c1a6eb5e1433f7cdfa419f2bdc47bdf81afe83270b8634d08b7",
    "e715822b84e912f9ba932fda7b06cbf76c34938f2183be0d89487b2d27580de6",
)


@pytest.mark.parametrize("n", range(len(ORDERED_DIGESTS)))
def test_enumerate_ordered_items_and_order_are_pinned(n):
    digest = hashlib.sha256()
    for config in enumerate_ordered(n):
        digest.update(config.encode() + b"\n")
    assert digest.hexdigest() == ORDERED_DIGESTS[n]


def test_enumerate_tower_free_counts_and_order():
    for n in range(6):
        items = list(enumerate_tower_free(n))
        assert len(items) == 4**n
        assert len(set(items)) == 4**n
        assert all(analyze(c).tower_free and len(c) == n for c in items)
    items = [str(c) for c in enumerate_tower_free(2)]
    assert items[0] == "AA"
    assert items[-1] == "bb"
    assert items[1] == "Aa"


def test_enumerate_rejects_negative_length():
    # True would list the length-1 family, and 2.0 reach range's TypeError.
    for enumerate_family in (enumerate_ordered, enumerate_tower_free):
        for n in (-1, True, 2.0):
            with pytest.raises(ConfigurationError) as refused:
                list(enumerate_family(n))
            assert str(refused.value) == "length must be a nonnegative integer"
