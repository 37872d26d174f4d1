"""Two-row grid configurations.

A configuration is a row of columns in a 2 x n grid.  Each column is
empty, carries one colored slot (an odd column, in the top or bottom
row), or carries two slots of the same color (a tower).  Colors come in
two kinds.  A configuration of length n is balanced when exactly n of
its 2n slots are colored, which forces the tower count to equal the
empty count.

The module provides the column/configuration data model, the subset-pair
encoding of ordered configurations, enumeration of the two families that
the bijection connects, and the compact one-character-per-column string
format alongside a two-row grid rendering.

A configuration is stored as its compact string, and the analysis below
scans that string.  Column objects are a view of it, looked up from a
table; the underscore helpers on compact strings are shared with the
bijection, which runs on the strings too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator


class ConfigurationError(ValueError):
    """Malformed configuration input."""


class BadCharacterError(ConfigurationError):
    """A compact string contains a character outside the alphabet."""


class InvalidSlotCountError(ConfigurationError):
    """A configuration's colored-slot count differs from its length."""


class NotOrderedError(ConfigurationError):
    """A configuration required to be ordered is not."""


class Color(Enum):
    ONE = 1
    TWO = 2

    def other(self) -> "Color":
        return Color.TWO if self is Color.ONE else Color.ONE


class Row(Enum):
    TOP = 0
    BOTTOM = 1

    def other(self) -> "Row":
        return Row.BOTTOM if self is Row.TOP else Row.TOP


@dataclass(frozen=True, slots=True)
class Column:
    """One grid column; each row slot is either uncolored or colored.

    Both slots colored means a tower, and towers are monochromatic: a
    column never carries two distinct colors.
    """

    top: Color | None
    bottom: Color | None

    def __post_init__(self) -> None:
        if self.top is not None and self.bottom is not None and self.top is not self.bottom:
            raise ConfigurationError("a column cannot carry two distinct colors")

    @property
    def is_empty(self) -> bool:
        return self.top is None and self.bottom is None

    @property
    def is_tower(self) -> bool:
        return self.top is not None and self.bottom is not None

    @property
    def is_odd(self) -> bool:
        return (self.top is None) != (self.bottom is None)

    @property
    def colored_slots(self) -> int:
        return (self.top is not None) + (self.bottom is not None)

    @property
    def color(self) -> Color | None:
        """The column's color, or None for an empty column."""
        return self.top if self.top is not None else self.bottom

    @property
    def row(self) -> Row | None:
        """The occupied row of an odd column, None otherwise."""
        if not self.is_odd:
            return None
        return Row.TOP if self.top is not None else Row.BOTTOM

    def flipped(self) -> "Column":
        """The odd column with its slot moved to the other row."""
        if not self.is_odd:
            raise ConfigurationError("only odd columns can flip rows")
        return _COLUMNS[(self.bottom, self.top)]


_COLUMNS: dict[tuple[Color | None, Color | None], Column] = {
    (top, bottom): Column(top, bottom)
    for top in (None, Color.ONE, Color.TWO)
    for bottom in (None, Color.ONE, Color.TWO)
    if top is None or bottom is None or top is bottom
}

EMPTY = _COLUMNS[(None, None)]


def empty_column() -> Column:
    return EMPTY


def tower(color: Color) -> Column:
    return _COLUMNS[(color, color)]


def odd(row: Row, color: Color) -> Column:
    if row is Row.TOP:
        return _COLUMNS[(color, None)]
    return _COLUMNS[(None, color)]


def column_of(top: Color | None, bottom: Color | None) -> Column:
    return _COLUMNS[(top, bottom)]


_CHAR_TO_COLUMN = {
    ".": EMPTY,
    "A": odd(Row.TOP, Color.ONE),
    "a": odd(Row.BOTTOM, Color.ONE),
    "1": tower(Color.ONE),
    "B": odd(Row.TOP, Color.TWO),
    "b": odd(Row.BOTTOM, Color.TWO),
    "2": tower(Color.TWO),
}

_COLUMN_TO_CHAR = {column: char for char, column in _CHAR_TO_COLUMN.items()}

#: The compact alphabet, and its characters by column kind, color and
#: occupied row.
ALPHABET = "".join(_CHAR_TO_COLUMN)
ODD_CHARS = "AaBb"
TOWER_CHARS = "12"
ONE_CHARS = "Aa1"
TWO_CHARS = "Bb2"
#: The characters allowed before and after the boundary of an ordered
#: configuration.
_ORDERED_ONE = "." + ONE_CHARS
_ORDERED_TWO = "." + TWO_CHARS
_TOP_CHARS = "A1B2"
_BOTTOM_CHARS = "a1b2"

#: The four odd columns in compact-alphabet order, used as the canonical
#: enumeration order for tower-free configurations.
ODD_COLUMNS = tuple(_CHAR_TO_COLUMN[char] for char in ODD_CHARS)


def _only(text: str, chars: str) -> bool:
    """True when every character of text is one of chars."""
    return not text.strip(chars)


def _colored_slots(text: str) -> int:
    # An odd column carries one colored slot, a tower two, an empty none.
    return len(text) - text.count(".") + text.count("1") + text.count("2")


def _one_slots(text: str) -> int:
    return text.count("A") + text.count("a") + 2 * text.count("1")


def _is_balanced(text: str) -> bool:
    return text.count(".") == text.count("1") + text.count("2")


def _is_ordered(text: str) -> bool:
    """Color One only in the first k columns and color Two only after
    them, k being the number of color-One slots."""
    ones = _one_slots(text)
    return _only(text[:ones], _ORDERED_ONE) and _only(text[ones:], _ORDERED_TWO)


class Configuration:
    """An immutable sequence of columns, stored as its compact string.

    text holds one character of the alphabet .Aa1Bb2 per column, and
    columns is a view of it as interned Column objects.  Balance
    (colored slots == column count) is deliberately not checked at
    construction: the bijection's bookkeeping builds short column
    fragments that are not balanced on their own.  Parsing and the
    subset-pair constructor return balanced configurations, and
    validate() checks balance on demand.
    """

    __slots__ = ("text",)

    text: str

    def __init__(self, columns: Iterable[Column] = ()):
        try:
            text = "".join([_COLUMN_TO_CHAR[column] for column in columns])
        except KeyError as error:
            raise ConfigurationError(f"{error.args[0]!r} is not a column") from None
        object.__setattr__(self, "text", text)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Configuration is immutable")

    @property
    def columns(self) -> tuple[Column, ...]:
        return tuple(map(_CHAR_TO_COLUMN.__getitem__, self.text))

    def __len__(self) -> int:
        return len(self.text)

    def __iter__(self) -> Iterator[Column]:
        return map(_CHAR_TO_COLUMN.__getitem__, self.text)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(_CHAR_TO_COLUMN.__getitem__, self.text[index]))
        return _CHAR_TO_COLUMN[self.text[index]]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Configuration):
            return self.text == other.text
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.text)

    def __repr__(self) -> str:
        return f"Configuration({self.text!r})"

    def __str__(self) -> str:
        return self.text

    @property
    def colored_slots(self) -> int:
        return _colored_slots(self.text)

    @property
    def is_balanced(self) -> bool:
        return _is_balanced(self.text)

    def validate(self) -> "Configuration":
        if not self.is_balanced:
            raise InvalidSlotCountError(
                f"{self.colored_slots} colored slots in {len(self.text)} columns"
            )
        return self


#: The slot's own setter: it skips both the immutability guard of
#: __setattr__ and the attribute lookup of object.__setattr__.
_set_text = Configuration.text.__set__


def _wrap(text: str) -> Configuration:
    """The configuration stored as text, which must already be over the
    alphabet: nothing is checked."""
    configuration = object.__new__(Configuration)
    _set_text(configuration, text)
    return configuration


@dataclass(frozen=True)
class Profile:
    """Structural summary of a configuration.

    Positions are 1-based.  type is the pair (count of color-One slots,
    count of color-Two slots).  A descent position k marks a color-Two
    column immediately followed by a color-One column.
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


def analyze(configuration: Configuration) -> Profile:
    text = configuration.text
    ones = _one_slots(text)
    towers = _positions(text, TOWER_CHARS)
    empties = _positions(text, ".")
    return Profile(
        type=(ones, _colored_slots(text) - ones),
        towers=towers,
        empties=empties,
        odds=_positions(text, ODD_CHARS),
        ordered=_is_ordered(text),
        tower_free=not towers and not empties,
        descents=tuple([
            pos
            for pos in range(1, len(text))
            if text[pos - 1] in TWO_CHARS and text[pos] in ONE_CHARS
        ]),
    )


def is_ordered(configuration: Configuration) -> bool:
    return _is_ordered(configuration.text)


def is_tower_free(configuration: Configuration) -> bool:
    return _only(configuration.text, ODD_CHARS)


def descents(configuration: Configuration) -> tuple[int, ...]:
    return analyze(configuration).descents


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


def _subset(block: str) -> frozenset[int]:
    """The colored slots of a one-color block, numbered as in _block."""
    width = len(block)
    return frozenset(
        [k for k, char in enumerate(block, start=1) if char in _TOP_CHARS]
        + [width + k for k, char in enumerate(block, start=1) if char in _BOTTOM_CHARS]
    )


def from_subset_pair(
    i: int, j: int, ones: Iterable[int], twos: Iterable[int]
) -> Configuration:
    """Build the ordered configuration encoded by an (i, j) subset pair.

    ones is an i-subset of 1..2i marking color-One slots in the left
    2 x i block; twos is a j-subset of 1..2j for the right block.  Slots
    are numbered row by row within each block: top row first, then
    bottom, left to right.
    """
    ones = frozenset(ones)
    twos = frozenset(twos)
    if i < 0 or j < 0:
        raise ConfigurationError("block widths must be nonnegative")
    if len(ones) != i or not all(1 <= k <= 2 * i for k in ones):
        raise ConfigurationError(f"ones must be an {i}-subset of 1..{2 * i}")
    if len(twos) != j or not all(1 <= k <= 2 * j for k in twos):
        raise ConfigurationError(f"twos must be a {j}-subset of 1..{2 * j}")
    return _wrap(_block(i, ones, ".aA1") + _block(j, twos, ".bB2"))


def to_subset_pair(
    configuration: Configuration,
) -> tuple[int, int, frozenset[int], frozenset[int]]:
    """Recover the subset pair of an ordered configuration."""
    profile = analyze(configuration)
    if not profile.ordered:
        raise NotOrderedError(f"{configuration} is not ordered")
    i, j = profile.type
    text = configuration.text
    return i, j, _subset(text[:i]), _subset(text[i : i + j])


def enumerate_ordered(n: int) -> Iterator[Configuration]:
    """All ordered configurations of length n, in lexicographic order of
    (i, ones-subset, twos-subset).

    Blocks are spelled from base-4 sums (_blocks).  For i >= 2 the right
    blocks of width n - i are built once per i and shared by every left
    block.  The rows of i = 0 and i = 1 are the widest and have one and
    two left blocks, so their right blocks are made one at a time
    instead of held.
    """
    if n < 0:
        raise ConfigurationError("length must be nonnegative")
    for i in range(n + 1):
        j = n - i
        shared = list(_blocks(j, ".bB2")) if i >= 2 else None
        for left in _blocks(i, ".aA1"):
            for right in _blocks(j, ".bB2") if shared is None else shared:
                yield _wrap(left + right)


def enumerate_tower_free(n: int) -> Iterator[Configuration]:
    """All 4^n tower-free configurations of length n, columns ranging in
    compact-alphabet order with the leftmost column slowest."""
    if n < 0:
        raise ConfigurationError("length must be nonnegative")
    for chars in itertools.product(ODD_CHARS, repeat=n):
        yield _wrap("".join(chars))


def parse_compact(text: str) -> Configuration:
    """Parse the one-character-per-column format and validate balance."""
    if not _only(text, ALPHABET):
        for position, char in enumerate(text, start=1):
            if char not in ALPHABET:
                raise BadCharacterError(
                    f"character {char!r} at position {position} is not in the alphabet .Aa1Bb2"
                )
    return _wrap(text).validate()


#: Grid rows: O for a color-One slot, X for color Two, a dot for none.
_TOP_ROW = str.maketrans(ALPHABET, ".O.OX.X")
_BOTTOM_ROW = str.maketrans(ALPHABET, "..OO.XX")


def render(configuration: Configuration, mode: str = "compact") -> str:
    """Serialize a configuration.

    compact: one character per column over the alphabet .Aa1Bb2.
    grid: two newline-joined rows, O for a color-One slot, X for a
    color-Two slot, and a dot for an uncolored slot.
    """
    if mode == "compact":
        return configuration.text
    if mode == "grid":
        text = configuration.text
        return text.translate(_TOP_ROW) + "\n" + text.translate(_BOTTOM_ROW)
    raise ValueError(f"unknown render mode {mode!r}")
