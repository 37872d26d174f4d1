"""Forward and inverse bijection, compression, and section rewriting."""

import hashlib
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomconv import bijection, suites
from binomconv.bijection import (
    BijectionError,
    HasOddColumnsError,
    MalformedSectionError,
    MixedColumnError,
    NotInImageError,
    NotTowerFreeError,
    compress,
    decode_pairs,
    even_skeleton,
    expand,
    format_trace,
    phi,
    phi_inverse,
    phi_section_forward,
    phi_section_inverse,
    tower_configuration,
)
from binomconv.configuration import (
    ALPHABET,
    BadCharacterError,
    InvalidSlotCountError,
    NotOrderedError,
    analyze,
    enumerate_ordered,
    enumerate_tower_free,
    parse_compact,
    render,
)
from binomconv.configuration import _block, _ordered_width

GOLDEN = ".A11.b2B2.."
GOLDEN_IMAGE = "BbAbabBaAbA"


# -------------------------------------------------------- skeleton / compress


def test_even_skeleton_golden():
    assert str(even_skeleton(parse_compact(GOLDEN))) == ".11.22.."
    assert str(even_skeleton(parse_compact("AB"))) == ""


def test_compress_golden():
    assert compress(".11.22..") == "aA2."
    assert compress("2.") == "B"
    assert compress("") == ""


def test_expand_golden():
    assert expand("aA2.") == ".11.22.."
    assert expand("B") == "2."


def test_compress_rejects_odd_columns():
    for skeleton in ("A1.", "A.", ".b"):
        with pytest.raises(HasOddColumnsError):
            compress(skeleton)


def test_compress_rejects_mixed_tower_pair():
    with pytest.raises(MixedColumnError):
        compress("12..")
    with pytest.raises(MixedColumnError):
        compress("21..")


def test_compress_rejects_odd_column_count():
    with pytest.raises(BijectionError) as error:
        compress("1..")
    assert type(error.value) is BijectionError
    assert str(error.value) == "1.. has an odd number of columns"


def test_compress_rejects_characters_outside_the_skeleton():
    with pytest.raises(BijectionError) as error:
        compress(".x")
    assert type(error.value) is BijectionError


def test_compress_expand_is_identity_everywhere():
    # compress(expand(c)) == c for every configuration, odd columns included.
    for length in range(4):
        for cols in itertools.product(".12AaBb", repeat=length):
            c = "".join(cols)
            assert compress(expand(c)) == c


def test_expand_compress_is_identity_on_unmixed_pairs():
    pairs = ["1.", ".1", "2.", ".2", "11", "22", ".."]
    for length in range(4):
        for chosen in itertools.product(pairs, repeat=length):
            c = "".join(chosen)
            assert expand(compress(c)) == c


def test_tower_configuration_chain():
    assert str(tower_configuration(parse_compact(GOLDEN))) == "aA2."
    assert str(tower_configuration(parse_compact("aA2."))) == "B"


# ----------------------------------------------------------- section rewiring


SECTION_FORWARD_GOLDEN = [
    (".A1", 1, "BbA"),
    ("2B.", 2, "BaA"),
    ("1.", 1, "ba"),
    (".1", 2, "bA"),
    ("2.", 2, "Ba"),
]


def test_section_forward_golden():
    for section, variant, image in SECTION_FORWARD_GOLDEN:
        assert phi_section_forward(section, variant) == image


def test_section_inverse_golden():
    for section, variant, image in SECTION_FORWARD_GOLDEN:
        assert phi_section_inverse(image, variant, section[0] + section[-1]) == section


def test_section_forward_rejects_bad_shapes():
    for section in ("11", "..", "1", "", "1x"):
        with pytest.raises(MalformedSectionError):
            phi_section_forward(section, 1)
    interior_not_odd = "1.."
    with pytest.raises(MalformedSectionError):
        phi_section_forward(interior_not_odd, 2)
    with pytest.raises(ValueError):
        phi_section_forward("1.", 3)


def test_section_inverse_rejects_bad_shapes():
    ends = "1."
    with pytest.raises(MalformedSectionError):
        phi_section_inverse("AB", 1, ends)  # One before the end
    with pytest.raises(MalformedSectionError):
        phi_section_inverse("Bb", 1, ends)  # no final One column
    with pytest.raises(MalformedSectionError):
        phi_section_inverse("aB", 2, ends)  # does not open with Two
    with pytest.raises(MalformedSectionError):
        phi_section_inverse("1.", 1, ends)  # not odd columns
    with pytest.raises(MalformedSectionError):
        phi_section_inverse("A", 1, ends)
    with pytest.raises(ValueError):
        phi_section_inverse("ba", 0, ends)
    # Two towers of different colors are no pair that expand gives.
    for skeleton in ("1", "1..", "1A", "1x", "12", "21"):
        with pytest.raises(MalformedSectionError):
            phi_section_inverse("ba", 1, skeleton)


def test_section_inverse_takes_every_pair_that_expand_gives():
    # The ends come from the preimage's skeleton, not from the image:
    # phi_inverse(BbAbabBaAbA) rewinds sections between 22 and between ..,
    # and the sweep's inverses also between 11.
    assert phi_inverse(parse_compact(GOLDEN_IMAGE)) == parse_compact(GOLDEN)
    for ends in ("..", "11", "22"):
        assert phi_section_inverse("ba", 1, ends) == ends
        assert phi_section_inverse("BbA", 1, ends) == ends[0] + "A" + ends[1]


def test_section_round_trip_exhaustive():
    """inverse(forward(s)) == s over every admissible small section.

    Variant 1 sections carry color-One interiors, variant 2 color-Two,
    matching where each variant is applied.
    """
    for variant, interior_chars in ((1, "Aa"), (2, "Bb")):
        for ends in ("1.", ".1", "2.", ".2"):
            for size in range(0, 4):
                for interior in itertools.product(interior_chars, repeat=size):
                    section = ends[0] + "".join(interior) + ends[1]
                    image = phi_section_forward(section, variant)
                    assert not image.strip("AaBb")
                    assert len(image) == len(section)
                    rebuilt = phi_section_inverse(image, variant, ends)
                    assert rebuilt == section


def test_section_runs_round_trip_exhaustive():
    """forward(inverse(run)) == run over every small descent run.

    The skeleton ends are read off the run's descent columns the same
    way the pair decoder does; the recursion guarantees this consistency
    in real use.
    """
    for variant in (1, 2):
        for size in range(2, 6):
            for bottom in itertools.product((False, True), repeat=size):
                if variant == 1:
                    colors = "B" * (size - 1) + "A"
                    descent = size - 2
                else:
                    colors = "B" + "A" * (size - 1)
                    descent = 0
                run = "".join(c.lower() if low else c for c, low in zip(colors, bottom))
                tower_char = "1" if bottom[descent] else "2"
                ends = tower_char + "." if bottom[descent + 1] else "." + tower_char
                section = phi_section_inverse(run, variant, ends)
                assert phi_section_forward(section, variant) == run


# ----------------------------------------------------------------- bookeeping


def test_decode_pairs_golden():
    # The descents of BbAbabBaAbA, at columns 2, 4, 7 and 10.
    assert decode_pairs(["bA", "ba", "Ba", "bA"]) == ".11.2..1"


def test_decode_pairs_fixed_point():
    assert decode_pairs([]) == ""


def test_decode_pairs_rejects_towers():
    with pytest.raises(BijectionError) as error:
        decode_pairs(["ba", "1."])
    assert str(error.value) == "'1.' is not a descent"


# -------------------------------------------------------------------- the map


def test_phi_golden():
    assert str(phi(parse_compact(GOLDEN))) == GOLDEN_IMAGE


def test_phi_fixed_points():
    for text in ("", "AB", "a", "aB"):
        c = parse_compact(text)
        assert phi(c) == c


def test_phi_smallest_towers():
    assert str(phi(parse_compact("1."))) == "ba"
    assert str(phi(parse_compact(".1"))) == "bA"
    assert str(phi(parse_compact("2."))) == "Ba"
    assert str(phi(parse_compact(".2"))) == "BA"


def test_phi_requires_ordered_input():
    with pytest.raises(NotOrderedError):
        phi(parse_compact("BA"))
    with pytest.raises(NotOrderedError):
        phi(parse_compact("2.1."))


def test_phi_requires_balance():
    with pytest.raises(InvalidSlotCountError):
        phi("1")


def test_phi_error_messages_are_pinned():
    with pytest.raises(InvalidSlotCountError) as error:
        phi("1")
    assert str(error.value) == "2 colored slots in 1 columns"
    with pytest.raises(NotOrderedError) as error:
        phi(parse_compact("BA"))
    assert str(error.value) == "BA is not ordered"


#: Colored slots per column: none for an empty, two for a tower, one for
#: an odd column.
SLOTS = {".": 0, "1": 2, "2": 2}


def _raised(function, text):
    try:
        function(text)
    except Exception as error:
        return type(error)
    return None


def test_the_ordered_rule_against_enumeration():
    # Every string over the alphabet of length at most 5, 19,608 of them.
    # The ordered family comes from enumerate_ordered, which spells blocks
    # from subsets and never reads the rule, and balance from SLOTS.
    checked = 0
    for n in range(6):
        ordered = set(enumerate_ordered(n))
        for chars in itertools.product(ALPHABET, repeat=n):
            text = "".join(chars)
            checked += 1
            assert (_ordered_width(text) is not None) == (text in ordered), text
            assert analyze(text).ordered == (text in ordered), text
            if text in ordered:
                assert _raised(phi, text) is None
                continue
            balanced = sum(SLOTS.get(char, 1) for char in chars) == n
            refusal = NotOrderedError if balanced else InvalidSlotCountError
            assert _raised(phi, text) is refusal, text
    assert checked == 19_608


def test_phi_inverse_golden():
    for image, preimage in (
        ("ba", "1."),
        ("BAbA", "11.."),
        ("aBBAaaBbABBBb", "a1A1aa.A.BBBb"),
    ):
        assert str(phi_inverse(parse_compact(image))) == preimage


def test_phi_inverse_fixed_points():
    for text in ("", "AB", "ab"):
        c = parse_compact(text)
        assert phi_inverse(c) == c


def test_phi_inverse_requires_tower_free():
    with pytest.raises(NotTowerFreeError):
        phi_inverse(parse_compact("1."))
    with pytest.raises(NotTowerFreeError):
        phi_inverse(parse_compact(".A1"))


@pytest.mark.parametrize("text", ["x", "1x.", "Ab\n"])
@pytest.mark.parametrize(
    "function, refusal",
    [
        (parse_compact, BadCharacterError),
        (render, BadCharacterError),
        (analyze, BadCharacterError),
        (even_skeleton, BadCharacterError),
        (phi, NotOrderedError),
        (phi_inverse, NotTowerFreeError),
        (tower_configuration, BijectionError),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_each_configuration_function_refuses_characters_outside_the_alphabet(
    function, refusal, text
):
    with pytest.raises(refusal) as error:
        function(text)
    assert type(error.value) is refusal


def test_phi_inverse_rejects_an_unbalanced_reconstruction(monkeypatch):
    # A skeleton that lost its tower rebuilds the section of ba with two
    # empties and no tower.
    exact = bijection._phi_inverse_seed
    monkeypatch.setattr(
        bijection, "_phi_inverse_seed", lambda pairs: exact(pairs).replace("1", ".")
    )
    with pytest.raises(NotInImageError) as error:
        phi_inverse(parse_compact("ba"))
    assert str(error.value) == "ba reconstructs to .., which is not ordered"


def test_phi_inverse_rejects_an_unordered_reconstruction(monkeypatch):
    # Every section is rewound as if its tower had the other color: the
    # color-One tower of 2. lands before the color-Two column it precedes.
    exact = bijection.phi_section_inverse
    swap_towers = str.maketrans("12", "21")
    monkeypatch.setattr(
        bijection,
        "phi_section_inverse",
        lambda run, variant, ends: exact(run, variant, ends.translate(swap_towers)),
    )
    with pytest.raises(NotInImageError) as error:
        phi_inverse(parse_compact("BaA"))
    assert str(error.value) == "BaA reconstructs to 1B., which is not ordered"


def test_phi_is_a_bijection_exhaustively():
    for n in range(5):
        images = {}
        for c in enumerate_ordered(n):
            image = phi(c)
            assert len(image) == n
            assert analyze(image).tower_free
            assert image not in images, f"{c} and {images[image]} collide"
            images[image] = c
            profile = analyze(c)
            assert len(analyze(image).descents) == len(profile.towers)
            assert phi_inverse(image) == c
        assert len(images) == 4**n
        for q in enumerate_tower_free(n):
            assert q in images
            assert phi(phi_inverse(q)) == q


#: SHA-256 of the images, one per line, of phi over enumerate_ordered(n)
#: and of phi_inverse over enumerate_tower_free(n).  Any other bijection
#: between the two families changes them.
MAP_DIGESTS = {
    0: (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    1: (
        "5ca7988c02310d07c09fe87ca80fdd27da57e40c3734c55666a2925f8c7acb1f",
        "e771ff85461b19044d8af8e3db4d742b4ea5d55c021bcb7a91e39bfa670aa468",
    ),
    2: (
        "f2f4e0f63758b18a0e677ba3e0aa265071fbe8679fe9ef6ecabcde24564b49a2",
        "43d869476287babb121edf6bcf029c5f1656bf8dcc0c54f796c41bf4c7c5ea9d",
    ),
    3: (
        "206825031b738d233d4b09d5e9581678164c6a540a4f31aaa21f1cee20ea6ff0",
        "3101065de1ca144156fe093f7d777b62122682100ae872588c7080c28cd64faa",
    ),
    4: (
        "33f95d7159ac7569d7bd758fdd1bc5725a39ef63f81fc0fe0e389508e83234a4",
        "0342be29e3a49942f43cd9904ae58580d708e2e3725f3cc1edc8513a34382cab",
    ),
    5: (
        "3ceb0fe41cbcd1a0c03dc268505934722db7a7f2a3923b3dd4654dfd8b1ca26c",
        "ef9edb5b9a2cfcc26edea978b3bea216f84dc9c470dc0cd6b8d894b82f1e8a5f",
    ),
    6: (
        "d04312b55786a16159f06b8e50f0521da77c372c15dc2e71b719df4ba2acf434",
        "3d320532e2a9556d041b12a9194e84b90df9686e6f8a9ad30b44e3bcf95abc1d",
    ),
    7: (
        "200892351899d7aa400be23d2616b390ddee6326ced1b5cb0480750027f2e5e7",
        "6ac39f5a43b3ea488e82e71b1f7bbbf29c3b285ef605ddf1014fc3d8072a24ae",
    ),
}


def _digest(configurations) -> str:
    return hashlib.sha256("\n".join(configurations).encode()).hexdigest()


@pytest.mark.parametrize("n", sorted(MAP_DIGESTS))
def test_the_map_itself_is_pinned(n):
    assert _digest(map(phi, enumerate_ordered(n))) == MAP_DIGESTS[n][0]
    assert _digest(map(phi_inverse, enumerate_tower_free(n))) == MAP_DIGESTS[n][1]


#: SHA-256 of the format_trace texts, separated by blank lines, of phi
#: over enumerate_ordered(n) and of phi_inverse over
#: enumerate_tower_free(n), for n = 0..6 in turn: 5,461 traces each.  They
#: pin every "section a..b: variant v" note and every level of the
#: recursion, which the digests above do not see.
TRACE_DIGESTS = {
    "phi": "b1f195261b7dcc517990df2d5a37b7303b7fbbd88f1910bfee8bb6b48fdad91c",
    "phi_inverse": "cf2e0e97eb9c8bf79469c4f2b4351b5e75aa6b8f9f66e9e98957614139860944",
}


def _traced(function, text: str) -> str:
    trace = []
    function(text, trace)
    return format_trace(trace)


@pytest.mark.parametrize(
    "function, family", [(phi, enumerate_ordered), (phi_inverse, enumerate_tower_free)]
)
def test_the_traced_map_is_pinned(function, family):
    inputs = [text for n in range(7) for text in family(n)]
    assert len(inputs) == 5_461
    traces = "\n\n".join(_traced(function, text) for text in inputs)
    assert hashlib.sha256(traces.encode()).hexdigest() == TRACE_DIGESTS[function.__name__]


def test_sweep_reports_a_collision_from_either_side(monkeypatch):
    collided = phi(parse_compact("Aa"))

    def colliding_phi(text, trace=None):
        if text == "1.":
            return collided
        return phi(text, trace)

    monkeypatch.setattr(suites.bijection, "phi", colliding_phi)
    assert suites.exhaustive_bijection_failures(2) == [
        "phi(1.) = Aa has 0 descents for 1 towers",
        "phi_inverse(phi(1.)) = Aa",
        "phi is not injective: 15 images from 16 inputs",
        "image has 15 elements, expected 16",
        "phi(phi_inverse(ba)) != ba",
    ]


def test_sweep_reports_images_that_keep_towers(monkeypatch):
    monkeypatch.setattr(
        suites.bijection, "phi", lambda configuration, trace=None: configuration
    )
    assert suites.exhaustive_bijection_failures(2) == [
        "phi(2.) = 2. is not tower-free of length 2",
        "phi(.2) = .2 is not tower-free of length 2",
        "phi(1.) = 1. is not tower-free of length 2",
        "phi(.1) = .1 is not tower-free of length 2",
        "phi is not injective: 12 images from 16 inputs",
        "image has 12 elements, expected 16",
        "phi(phi_inverse(BA)) != BA",
        "phi(phi_inverse(Ba)) != Ba",
        "phi(phi_inverse(bA)) != bA",
        "phi(phi_inverse(ba)) != ba",
    ]


@pytest.mark.parametrize("n", range(7))
def test_sweep_calls_each_public_map_once_per_configuration_each_way(n, monkeypatch):
    # One phi and one phi_inverse per ordered configuration, then one of
    # each per tower-free one: the traced benchmark pins these counts.
    calls = {"phi": 0, "phi_inverse": 0}

    def counting(name):
        exact = getattr(bijection, name)

        def counted(configuration, trace=None):
            calls[name] += 1
            return exact(configuration, trace)

        return counted

    for name in calls:
        monkeypatch.setattr(bijection, name, counting(name))
    assert suites.exhaustive_bijection_failures(n) == []
    expected = suites.ordered_count(n) + 4**n
    assert calls == {"phi": expected, "phi_inverse": expected}


def test_sweep_holds_no_image_objects():
    # The 1,024 images at n=5, kept as objects, peak well above 64 KiB;
    # a 4^5-byte mark table stays far below it.
    tracemalloc.start()
    try:
        failures = suites.exhaustive_bijection_failures(5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert failures == []
    assert peak < 64 * 1024


def test_sweep_refuses_a_length_above_the_limit(monkeypatch):
    # Past the real limit the sweep would mark 4^n images (4 GiB at
    # n = 16) before it found anything, so the refusal is shown at a
    # lowered limit: it comes before the sweep runs.
    monkeypatch.setattr(suites, "SWEEP_LENGTH_LIMIT", 3)
    with pytest.raises(ValueError) as refused:
        suites.exhaustive_bijection_failures(4)
    assert str(refused.value) == "n must be an integer from 0 to 3"


@st.composite
def ordered_configs(draw, max_length=512):
    n = draw(st.integers(0, max_length))
    i = draw(st.integers(0, n))
    j = n - i
    rng = draw(st.randoms(use_true_random=False))
    ones = rng.sample(range(1, 2 * i + 1), i)
    twos = rng.sample(range(1, 2 * j + 1), j)
    return _block(i, ones, ".aA1") + _block(j, twos, ".bB2")


@given(c=ordered_configs())
@settings(max_examples=80, deadline=None)
def test_phi_round_trip_random(c):
    image = phi(c)
    assert analyze(image).tower_free
    assert len(image) == len(c)
    assert phi_inverse(image) == c
    assert (image == c) == analyze(c).tower_free
    text = str(image)
    scanned_descents = sum(
        1 for left, right in zip(text, text[1:]) if left in "Bb" and right in "Aa"
    )
    assert scanned_descents == str(c).count("1") + str(c).count("2")


# ---------------------------------------------------------------------- trace


def test_phi_trace_records_recursion():
    trace = []
    phi(parse_compact(GOLDEN), trace=trace)
    text = format_trace(trace)
    assert "tower configuration: aA2." in text
    assert "variant" in text
    assert any(line.startswith("  ") for line in text.splitlines())
    assert text.splitlines()[-1].startswith("image: ")


def test_phi_inverse_trace_records_recursion():
    trace = []
    phi_inverse(parse_compact(GOLDEN_IMAGE), trace=trace)
    text = format_trace(trace)
    assert "pair seed: .11.2..1" in text
    assert text.splitlines()[-1].startswith("preimage: ")
