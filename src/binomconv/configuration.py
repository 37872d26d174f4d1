"""Two-row grid configurations.

A configuration is a row of columns in a 2 x n grid.  Each column is
empty, carries one colored slot (an odd column, in the top or bottom
row), or carries two slots of the same color (a tower).  Colors come in
two kinds.  A configuration of length n is balanced when exactly n of
its 2n slots are colored, which forces the tower count to equal the
empty count.

A configuration is its compact string, a plain str with one character
of the alphabet .Aa1Bb2 per column: a dot for an empty column, A/a for
a color-One slot in the top/bottom row, B/b for color Two, and 1/2 for
a tower of that color.  The module provides parsing, which checks the
alphabet and balance of outside input, enumeration of the two families
that the bijection connects (the ordered one as the pairs of an i-subset
of 2i slots and a j-subset of 2j slots), the analysis and a grid
rendering.  The ordered rule is stated once, in _ordered_width, which
the bijection's maps call too; they share the other underscore helpers
on compact strings as well.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple


class ConfigurationError(ValueError):
    """Malformed configuration input."""


class BadCharacterError(ConfigurationError):
    """A compact string contains a character outside the alphabet."""


class InvalidSlotCountError(ConfigurationError):
    """A configuration's colored-slot count differs from its length."""


class NotOrderedError(ConfigurationError):
    """A configuration required to be ordered is not."""


#: The compact alphabet, one character per column kind, color and
#: occupied row, and its characters by column kind and color.
ALPHABET = ".Aa1Bb2"
ODD_CHARS = "AaBb"
TOWER_CHARS = "12"
ONE_CHARS = "Aa1"
TWO_CHARS = "Bb2"
#: The characters allowed before and after the boundary of an ordered
#: configuration.
_ORDERED_ONE = "." + ONE_CHARS
_ORDERED_TWO = "." + TWO_CHARS


def _only(text: str, chars: str) -> bool:
    """True when every character of text is one of chars."""
    return not text.strip(chars)


def _colored_slots(text: str) -> int:
    # An odd column carries one colored slot, a tower two, an empty none.
    return len(text) - text.count(".") + text.count("1") + text.count("2")


def _ordered_width(text: str) -> int | None:
    """The width of the color-One block when text is balanced and
    ordered, else None.  Ordered text has only ., A, a and 1 in its first
    width columns, width being its count of color-One slots, and only .,
    B, b and 2 after them, so text outside the alphabet is never ordered."""
    one_towers = text.count("1")
    if text.count(".") != one_towers + text.count("2"):
        return None
    width = text.count("A") + text.count("a") + 2 * one_towers
    if text[:width].strip(_ORDERED_ONE) or text[width:].strip(_ORDERED_TWO):
        return None
    return width


def _require_alphabet(text: str) -> None:
    """Refuse the first character of text outside the alphabet."""
    if not _only(text, ALPHABET):
        for position, char in enumerate(text, start=1):
            if char not in ALPHABET:
                raise BadCharacterError(
                    f"character {char!r} at position {position} is not in the alphabet {ALPHABET}"
                )


def _require_balanced(text: str) -> None:
    """Refuse text unless its colored slots equal its columns."""
    if text.count(".") != text.count("1") + text.count("2"):
        raise InvalidSlotCountError(f"{_colored_slots(text)} colored slots in {len(text)} columns")


class Profile(NamedTuple):
    """Structural summary of a configuration, an immutable NamedTuple.

    Positions are 1-based.  type is the pair (count of color-One slots,
    count of color-Two slots).  ordered holds for balanced, ordered text
    only (_ordered_width).  A descent position k marks a color-Two column
    immediately followed by a color-One column.
    """

    type: tuple[int, int]
    towers: tuple[int, ...]
    empties: tuple[int, ...]
    odds: tuple[int, ...]
    ordered: bool
    tower_free: bool
    descents: tuple[int, ...]


def _positions(text: str, chars: str) -> tuple[int, ...]:
    return tuple([pos for pos, char in enumerate(text, start=1) if char in chars])


def analyze(text: str) -> Profile:
    _require_alphabet(text)
    ones = text.count("A") + text.count("a") + 2 * text.count("1")
    towers = _positions(text, TOWER_CHARS)
    empties = _positions(text, ".")
    return Profile(
        type=(ones, _colored_slots(text) - ones),
        towers=towers,
        empties=empties,
        odds=_positions(text, ODD_CHARS),
        ordered=_ordered_width(text) is not None,
        tower_free=not towers and not empties,
        descents=tuple([
            pos
            for pos in range(1, len(text))
            if text[pos - 1] in TWO_CHARS and text[pos] in ONE_CHARS
        ]),
    )


def _require_length(n: object) -> None:
    """Refuse n unless it is an int, not a bool, and nonnegative."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ConfigurationError("length must be a nonnegative integer")


def _block(width: int, subset: Iterable[int], chars: str) -> str:
    """The compact string of a 2 x width block whose slots in subset carry
    one color.  Slots are numbered top row first, left to right; chars
    spells that color's empty, bottom-only, top-only and tower columns."""
    marked = set(subset)
    return "".join(
        [chars[2 * (k in marked) + (width + k in marked)] for k in range(1, width + 1)]
    )


def _blocks(width: int, chars: str) -> Iterator[str]:
    """_block of every width-subset of the 2*width slots, in the order
    of itertools.combinations.

    A block is read as a base-4 number with one digit per column,
    2*(top slot colored) + (bottom slot colored), so each slot adds a
    fixed weight: 2*4^(width-k) for top slot k and 4^(width-k) for
    bottom slot width+k.  The hex form of the sum spells two columns per
    digit.  The sum starts from 4^width, so it has no leading zeros to
    pad: that extra digit spells two characters for an even width and
    one for an odd width (hex 4 + the first column's digit), which are
    cut off.
    """
    weights = [2 * 4 ** (width - k) for k in range(1, width + 1)]
    weights += [weight // 2 for weight in weights]
    spell = str.maketrans({f"{d:x}": chars[d >> 2] + chars[d & 3] for d in range(16)})
    lead, skip = 4**width, 2 - width % 2
    for combination in itertools.combinations(weights, width):
        yield format(sum(combination, lead), "x").translate(spell)[skip:]


def enumerate_ordered(n: int) -> Iterator[str]:
    """All ordered configurations of length n, in lexicographic order of
    (i, ones-subset, twos-subset).

    Blocks are spelled from base-4 sums (_blocks).  For i >= 2 the right
    blocks of width n - i are built once per i and shared by every left
    block.  The rows of i = 0 and i = 1 are the widest and have one and
    two left blocks, so their right blocks are made one at a time
    instead of held.
    """
    _require_length(n)
    for i in range(n + 1):
        j = n - i
        shared = list(_blocks(j, ".bB2")) if i >= 2 else None
        for left in _blocks(i, ".aA1"):
            for right in _blocks(j, ".bB2") if shared is None else shared:
                yield left + right


def enumerate_tower_free(n: int) -> Iterator[str]:
    """All 4^n tower-free configurations of length n, columns ranging in
    compact-alphabet order with the leftmost column slowest."""
    _require_length(n)
    for chars in itertools.product(ODD_CHARS, repeat=n):
        yield "".join(chars)


def parse_compact(text: str) -> str:
    """Check outside input in the one-character-per-column format: its
    alphabet, then its balance.  Returns the text itself."""
    _require_alphabet(text)
    _require_balanced(text)
    return text


#: Grid rows: O for a color-One slot, X for color Two, a dot for none.
_TOP_ROW = str.maketrans(ALPHABET, ".O.OX.X")
_BOTTOM_ROW = str.maketrans(ALPHABET, "..OO.XX")


def render(text: str, mode: str = "compact") -> str:
    """Serialize a configuration.

    compact: one character per column over the alphabet .Aa1Bb2.
    grid: two newline-joined rows, O for a color-One slot, X for a
    color-Two slot, and a dot for an uncolored slot.
    """
    _require_alphabet(text)
    if mode == "compact":
        return text
    if mode == "grid":
        return text.translate(_TOP_ROW) + "\n" + text.translate(_BOTTOM_ROW)
    raise ValueError(f"unknown render mode {mode!r}")
