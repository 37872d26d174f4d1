"""The recursive bijection between ordered and tower-free configurations.

An ordered configuration of length n with at least one tower is mapped
to a tower-free configuration by recursing on its compressed even
skeleton and rewriting the stretch around each tower/empty pair into a
run of odd columns ending (or starting) at a descent.  Tower-free
configurations are fixed points.  The inverse reads the descents of a
tower-free configuration, reconstructs the even skeleton recursively,
and rewinds each section.

Descents are the bookkeeping device: the image of a configuration with
m towers has exactly m descents, and every rewriting step here is
reversible column by column.

Both maps run on compact strings (alphabet .Aa1Bb2).  phi and
phi_inverse validate their input once and then recurse on the private
string-level steps; the public compress, expand, section and decoding
functions wrap those same steps and check their own inputs.

Each section rewrite, and each recursive step of an untraced call
(keyed by the compressed skeleton or pair seed), comes from a bounded
memo of exactnum.MEMO_SIZE entries, so an exhaustive sweep computes few
of them more than once; a step that raises is never stored, so every
check still runs on every input that fails it.  Traced calls never use
the recursion memos: they recurse directly, and the trace records every
level.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache

from .configuration import (
    ODD_CHARS,
    TOWER_CHARS,
    Color,
    Column,
    Configuration,
    NotOrderedError,
    _is_balanced,
    _is_ordered,
    _one_slots,
    _only,
    _wrap,
    is_tower_free,
)
from .exactnum import MEMO_SIZE

TraceLog = list


class BijectionError(ValueError):
    """Base class for bijection input violations."""


class HasOddColumnsError(BijectionError):
    """Compression was applied to a configuration with odd columns."""


class MixedColumnError(BijectionError):
    """Compression would have to merge towers of different colors."""


class MalformedSectionError(BijectionError):
    """A section does not have the shape its rewriting rule expects."""


class NotTowerFreeError(BijectionError):
    """The inverse map was applied to a configuration with towers or empties."""


class NotInImageError(BijectionError):
    """The inverse map's reconstruction is not an ordered configuration."""


def _note(trace: TraceLog, depth: int, label: str, value: object) -> None:
    trace.append((depth, label, str(value)))


# ------------------------------------------------------ string-level steps

_DROP_ODD = str.maketrans("", "", ODD_CHARS)

#: A pair of even columns packed into one column: a tower gives its
#: color to its slot, an empty leaves the slot uncolored.  Towers of two
#: colors have no packed form.
_PACK = {"..": ".", "1.": "A", ".1": "a", "11": "1", "2.": "B", ".2": "b", "22": "2"}
_UNPACK = str.maketrans({packed: pair for pair, packed in _PACK.items()})

#: Odd columns moved to the other row.
_FLIP = str.maketrans("AaBb", "aAbB")
#: Odd columns recolored One or Two in the same row.
_TO_ONE = str.maketrans("AaBb", "AaAa")
_TO_TWO = str.maketrans("AaBb", "BbBb")

#: A descent of a tower-free string: color Two, then color One.
_DESCENT = re.compile("[Bb](?=[Aa])")
#: The tower/empty pair a descent encodes: the left column in the bottom
#: row means a color-One tower, the right column in the bottom row means
#: the tower came first.
_DESCENT_PAIR = {"ba": "1.", "bA": ".1", "Ba": "2.", "BA": ".2"}

#: A section of phi's input: two consecutive tower or empty columns and
#: the odd columns between them.
_SECTION = re.compile("[.12][AaBb]*[.12]")


def _compress(skeleton: str) -> str:
    """Pack an even-length string over .12 into half as many columns."""
    try:
        return "".join(map(_PACK.__getitem__, map(operator.add, skeleton[::2], skeleton[1::2])))
    except KeyError:
        k = next(k for k in range(0, len(skeleton), 2) if skeleton[k : k + 2] not in _PACK)
        raise MixedColumnError(
            f"columns {k + 1} and {k + 2} of {skeleton} are towers of different colors"
        ) from None


def _expand(compressed: str) -> str:
    return compressed.translate(_UNPACK)


@lru_cache(maxsize=MEMO_SIZE)
def _section_forward(section: str, variant: int) -> str:
    """Rewrite a section whose interior is odd; see phi_section_forward."""
    first, interior, last = section[0], section[1:-1], section[-1]
    if first in TOWER_CHARS and last == ".":
        tower_char, tower_first = first, True
    elif first == "." and last in TOWER_CHARS:
        tower_char, tower_first = last, False
    else:
        raise MalformedSectionError(
            f"ends of {section} must be one tower and one empty column"
        )
    head = "b" if tower_char == "1" else "B"
    tail = "a" if tower_first else "A"
    if variant == 1:
        run = head + interior.translate(_TO_TWO)
        if run[-1] != head:
            run = run.translate(_FLIP)
        return run + tail
    run = interior.translate(_TO_ONE) + tail
    if run[0] != tail:
        run = run.translate(_FLIP)
    return head + run


@lru_cache(maxsize=MEMO_SIZE)
def _section_inverse(run: str, variant: int, ends: str) -> str:
    """Rewind an odd run of two or more columns between the two skeleton
    columns in ends; see phi_section_inverse."""
    if variant == 1:
        shaped = _only(run[:-1], "Bb") and run[-1] in "Aa"
    else:
        shaped = run[0] in "Bb" and _only(run[1:], "Aa")
    if not shaped:
        raise MalformedSectionError(f"{run} does not have the variant-{variant} run shape")
    if variant == 1:
        flip, fill = run[0] != run[-2], _TO_ONE
    else:
        flip, fill = run[-1] != run[1], _TO_TWO
    interior = run[1:-1].translate(_FLIP) if flip else run[1:-1]
    return ends[0] + interior.translate(fill) + ends[1]


def _decode_pairs(image: str) -> tuple[list[int], str]:
    """The descent positions of a tower-free string and the tower/empty
    pairs they spell."""
    descents = [match.start() + 1 for match in _DESCENT.finditer(image)]
    return descents, "".join([_DESCENT_PAIR[image[k - 1 : k + 1]] for k in descents])


def _phi(text: str, trace: TraceLog | None, depth: int) -> str:
    """phi on a balanced, ordered compact string."""
    if _only(text, ODD_CHARS):
        if trace is not None:
            _note(trace, depth, "fixed point", text)
        return text
    compressed = _compress(text.translate(_DROP_ODD))
    if trace is None:
        expanded = _expand(_phi_memo(compressed))
    else:
        _note(trace, depth, "input", text)
        _note(trace, depth, "tower configuration", compressed)
        expanded = _expand(_phi(compressed, trace, depth + 1))
        _note(trace, depth, "expanded image", expanded)
    ones = _one_slots(text)
    out = []
    end = 0
    for k, match in enumerate(_SECTION.finditer(text)):
        p1, p2 = match.start(), match.end() - 1
        variant = 1 if p2 < ones else 2
        section = expanded[2 * k] + text[p1 + 1 : p2] + expanded[2 * k + 1]
        image = _section_forward(section, variant)
        out += (text[end:p1], image)
        end = p2 + 1
        if trace is not None:
            _note(trace, depth, f"section {p1 + 1}..{p2 + 1}",
                  f"variant {variant}: {section} -> {image}")
    out.append(text[end:])
    result = "".join(out)
    if trace is not None:
        _note(trace, depth, "image", result)
    return result


def _phi_inverse(image: str, trace: TraceLog | None, depth: int) -> str:
    """phi_inverse on a tower-free compact string."""
    descents, pairs = _decode_pairs(image)
    if not descents:
        if trace is not None:
            _note(trace, depth, "fixed point", image)
        return image
    if trace is None:
        skeleton = _expand(_phi_inverse_memo(_compress(pairs)))
    else:
        _note(trace, depth, "input", image)
        _note(trace, depth, "pair seed", pairs)
        skeleton = _expand(_phi_inverse(_compress(pairs), trace, depth + 1))
        _note(trace, depth, "skeleton", skeleton)
    tower_one_pairs = skeleton.count("1")
    n = len(image)
    out = []
    previous_end = 0
    for k, descent in enumerate(descents):
        # 1-based bounds: the section is image[start - 1 : end].  Every
        # section ends in a color-One column, so a run of color-Two
        # columns stops before the previous section, and a run of
        # color-One columns stops before the next descent.
        if k < tower_one_pairs:
            variant = 1
            start = previous_end + len(image[previous_end : descent - 1].rstrip("Bb")) + 1
            end = descent + 1
        else:
            variant = 2
            start = descent
            stop = descents[k + 1] - 1 if k + 1 < len(descents) else n
            end = stop - len(image[descent + 1 : stop].lstrip("Aa"))
        if start <= previous_end:
            raise NotInImageError(f"sections of {image} overlap")
        section = image[start - 1 : end]
        rebuilt = _section_inverse(section, variant, skeleton[2 * k : 2 * k + 2])
        out += (image[previous_end : start - 1], rebuilt)
        previous_end = end
        if trace is not None:
            _note(trace, depth, f"section {start}..{end}",
                  f"variant {variant}: {section} -> {rebuilt}")
    out.append(image[previous_end:])
    result = "".join(out)
    if not (_is_balanced(result) and _is_ordered(result)):
        raise NotInImageError(f"{image} reconstructs to {result}, which is not ordered")
    if trace is not None:
        _note(trace, depth, "preimage", result)
    return result


# The memos of the untraced recursive steps.  Each looks its step up by
# module-global name, so a step replaced from outside is the one called
# once the memo is cleared.


@lru_cache(maxsize=MEMO_SIZE)
def _phi_memo(compressed: str) -> str:
    """_phi of a compressed skeleton, untraced."""
    return _phi(compressed, None, 1)


@lru_cache(maxsize=MEMO_SIZE)
def _phi_inverse_memo(seed: str) -> str:
    """_phi_inverse of a compressed pair seed, untraced."""
    return _phi_inverse(seed, None, 1)


# ------------------------------------------------------------- public API


def even_skeleton(configuration: Configuration) -> Configuration:
    """The subsequence of tower and empty columns, in order."""
    return _wrap(configuration.text.translate(_DROP_ODD))


def compress(skeleton: Configuration) -> Configuration:
    """Halve an odd-free configuration by packing column pairs.

    Columns 2k-1 and 2k become the top and bottom slots of output
    column k: a tower contributes its color, an empty contributes an
    uncolored slot.  Two towers of different colors in one pair cannot
    be packed.
    """
    text = skeleton.text
    for pos, char in enumerate(text, start=1):
        if char in ODD_CHARS:
            raise HasOddColumnsError(f"column {pos} of {skeleton} is odd")
    if len(text) % 2:
        raise BijectionError(f"{skeleton} has an odd number of columns")
    return _wrap(_compress(text))


def expand(compressed: Configuration) -> Configuration:
    """Invert compress: each column becomes a tower/empty pair."""
    return _wrap(_expand(compressed.text))


def tower_configuration(configuration: Configuration) -> Configuration:
    """The compressed even skeleton, the object the recursion descends to."""
    return compress(even_skeleton(configuration))


def phi_section_forward(section: Configuration, variant: int) -> Configuration:
    """Rewrite one section into a descent run of odd columns.

    A section has odd interior columns and ends consisting of one tower
    (color c) and one empty, in either order.  The first output column
    records c in its row (bottom for color One, top for Two) and is
    colored Two; the last records the tower/empty order (bottom when the
    tower came first) and is colored One; interiors keep their rows and
    take color Two under variant 1, One under variant 2.  A variant-1
    result is row-flipped on all but its last column when its first and
    second-to-last columns disagree; variant 2 flips all but the first
    on disagreement of the second and last.
    """
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant!r}")
    text = section.text
    if len(text) < 2:
        raise MalformedSectionError("a section has at least two columns")
    if not _only(text[1:-1], ODD_CHARS):
        raise MalformedSectionError(f"interior of {section} must be odd columns")
    return _wrap(_section_forward(text, variant))


def phi_section_inverse(
    section: Configuration, variant: int, skeleton: tuple[Column, Column]
) -> Configuration:
    """Rewind one descent run back to a section.

    The input must be all odd with the run shape of its variant: under
    variant 1, color-Two columns followed by a single color-One column;
    under variant 2, a single color-Two column followed by color-One
    columns.  The skeleton supplies the section's end columns, which the
    run itself does not encode.  The output is a column fragment and
    need not be balanced on its own.
    """
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant!r}")
    text = section.text
    if len(text) < 2:
        raise MalformedSectionError("a section has at least two columns")
    if not _only(text, ODD_CHARS):
        raise MalformedSectionError(f"{section} must consist of odd columns")
    first, last = skeleton
    return _wrap(_section_inverse(text, variant, Configuration((first, last)).text))


def decode_pairs(
    image: Configuration,
) -> tuple[list[tuple[int, Color, bool]], Configuration]:
    """Read the descent bookkeeping of a tower-free configuration.

    Each descent at position k encodes a tower color (bottom row at k
    means color One) and an order bit (bottom row at k+1 means the
    tower preceded the empty).  Returns the list of
    (position, color, tower_first) triples and the tower/empty pair
    configuration they spell, one pair per descent.
    """
    if not is_tower_free(image):
        raise NotTowerFreeError(f"{image} is not tower-free")
    text = image.text
    descents, pairs = _decode_pairs(text)
    return [
        (k, Color.ONE if text[k - 1] == "b" else Color.TWO, text[k] == "a")
        for k in descents
    ], _wrap(pairs)


def phi(configuration: Configuration, trace: TraceLog | None = None) -> Configuration:
    """Map an ordered configuration to its tower-free image."""
    text = configuration.validate().text
    if not _is_ordered(text):
        raise NotOrderedError(f"{configuration} is not ordered")
    return _wrap(_phi(text, trace, 0))


def phi_inverse(image: Configuration, trace: TraceLog | None = None) -> Configuration:
    """Map a tower-free configuration back to its ordered preimage."""
    if not is_tower_free(image):
        raise NotTowerFreeError(f"{image} is not tower-free")
    return _wrap(_phi_inverse(image.text, trace, 0))


def format_trace(trace: TraceLog) -> str:
    """Render a trace log as indented lines."""
    return "\n".join(f"{'  ' * depth}{label}: {value}" for depth, label, value in trace)
