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

A configuration is stored as its compact string (alphabet .Aa1Bb2),
and both maps run on those strings.  phi and phi_inverse validate their input once
and then recurse on the private string-level steps; the public
compress, expand, section and decoding functions wrap those same steps
and check their own inputs.  Columns outside a configuration are
compact characters too: phi_section_inverse takes a section's two
skeleton columns as a string such as "1.", and decode_pairs reports a
tower's color as its character, 1 or 2.

Each section rewrite, and each recursive step of an untraced call, comes
from a bounded memo of MEMO_SIZE entries, so an exhaustive
sweep computes few of them more than once.  The recursion memos are
keyed by the uncompressed skeleton (forward) or the pair seed (inverse)
and hold the expanded result, so a hit neither compresses nor expands.
They store only keys no longer than SWEEP_LENGTH_LIMIT, the longest
configuration a sweep enumerates; a longer key, from a long input, goes
straight to the step.  A step that raises is never stored, so every
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
    Configuration,
    NotOrderedError,
    _ORDERED_ONE,
    _ORDERED_TWO,
    _one_slots,
    _only,
    _wrap,
    is_tower_free,
)

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

#: A descent of a tower-free string: color Two, then color One.  It is
#: captured, so that splitting on it keeps it.
_DESCENT = re.compile("([Bb][Aa])")
#: The tower/empty pair a descent encodes: the left column in the bottom
#: row means a color-One tower, the right column in the bottom row means
#: the tower came first.
_DESCENT_PAIR = {"ba": "1.", "bA": ".1", "Ba": "2.", "BA": ".2"}

#: A section of phi's input, captured: two consecutive tower or empty
#: columns and the odd columns between them.
_SECTION = re.compile("([.12][AaBb]*[.12])")

#: The longest configuration an exhaustive sweep enumerates.  The
#: untraced recursion memoizes a step only when its key, a skeleton or a
#: pair seed, is no longer than this.  A key is never longer than its
#: configuration, so every step of a sweep is memoized, while the long
#: keys of long inputs, which seldom recur, are not stored.
SWEEP_LENGTH_LIMIT = 10

#: Entries kept by each of the four memos here: the two section
#: rewrites and the two recursion memos.  The limit keeps a long-lived
#: process from growing without bound.
MEMO_SIZE = 256


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


def _phi(text: str, trace: TraceLog | None, depth: int) -> str:
    """phi on a balanced, ordered compact string."""
    if _only(text, ODD_CHARS):
        if trace is not None:
            _note(trace, depth, "fixed point", text)
        return text
    return _phi_sections(text, _one_slots(text), trace, depth)


def _phi_sections(text: str, ones: int, trace: TraceLog | None, depth: int) -> str:
    """_phi of a string with towers, given its count of color-One slots."""
    skeleton = text.translate(_DROP_ODD)
    if trace is None:
        step = _phi_memo if len(skeleton) <= SWEEP_LENGTH_LIMIT else _phi_skeleton
        expanded = step(skeleton)
    else:
        compressed = _compress(skeleton)
        _note(trace, depth, "input", text)
        _note(trace, depth, "tower configuration", compressed)
        expanded = _expand(_phi(compressed, trace, depth + 1))
        _note(trace, depth, "expanded image", expanded)
    # The odd stretches at the even indices, the sections at the odd ones;
    # each section is replaced by its image in place.
    parts = _SECTION.split(text)
    end = 0
    for k in range(1, len(parts), 2):
        start = end + len(parts[k - 1])
        end = start + len(parts[k])
        variant = 1 if end <= ones else 2
        section = expanded[k - 1] + parts[k][1:-1] + expanded[k]
        parts[k] = image = _section_forward(section, variant)
        if trace is not None:
            _note(trace, depth, f"section {start + 1}..{end}",
                  f"variant {variant}: {section} -> {image}")
    result = "".join(parts)
    if trace is not None:
        _note(trace, depth, "image", result)
    return result


def _phi_inverse(image: str, trace: TraceLog | None, depth: int) -> str:
    """phi_inverse on a tower-free compact string."""
    # The stretches between descents at the even indices, the descents at
    # the odd ones.
    parts = _DESCENT.split(image)
    if len(parts) == 1:
        if trace is not None:
            _note(trace, depth, "fixed point", image)
        return image
    pairs = "".join(map(_DESCENT_PAIR.__getitem__, parts[1::2]))
    if trace is None:
        step = _phi_inverse_memo if len(pairs) <= SWEEP_LENGTH_LIMIT else _phi_inverse_seed
        skeleton = step(pairs)
    else:
        _note(trace, depth, "input", image)
        _note(trace, depth, "pair seed", pairs)
        skeleton = _expand(_phi_inverse(_compress(pairs), trace, depth + 1))
        _note(trace, depth, "skeleton", skeleton)
    tower_one_pairs = skeleton.count("1")
    previous_end = 0
    # Every section ends in a color-One column, so a run of color-Two
    # columns stops at the previous section, and a run of color-One
    # columns stops at the next descent.  Each section is cut from the
    # stretch before its descent (variant 1) or after it (variant 2), and
    # replaced by its preimage in place.
    for k in range(1, len(parts), 2):
        if k // 2 < tower_one_pairs:
            variant = 1
            kept = parts[k - 1].rstrip("Bb")
            section = parts[k - 1][len(kept) :] + parts[k]
            parts[k - 1] = kept
        else:
            variant = 2
            kept = parts[k - 1]
            rest = parts[k + 1].lstrip("Aa")
            section = parts[k] + parts[k + 1][: len(parts[k + 1]) - len(rest)]
            parts[k + 1] = rest
        parts[k] = rebuilt = _section_inverse(section, variant, skeleton[k - 1 : k + 1])
        if trace is not None:
            start = previous_end + len(kept) + 1
            previous_end = start + len(section) - 1
            _note(trace, depth, f"section {start}..{previous_end}",
                  f"variant {variant}: {section} -> {rebuilt}")
    result = "".join(parts)
    empties, one_towers = result.count("."), result.count("1")
    ones = result.count("A") + result.count("a") + 2 * one_towers
    if (
        empties != one_towers + result.count("2")
        or result[:ones].strip(_ORDERED_ONE)
        or result[ones:].strip(_ORDERED_TWO)
    ):
        raise NotInImageError(f"{image} reconstructs to {result}, which is not ordered")
    if trace is not None:
        _note(trace, depth, "preimage", result)
    return result


# The untraced recursive steps and their memos.  A step takes the
# uncompressed skeleton or pair seed and returns the expanded result, so a
# memo hit compresses and expands nothing.  Each step calls _phi or
# _phi_inverse by module-global name, so a step replaced from outside is
# the one called once the memo is cleared.


def _phi_skeleton(skeleton: str) -> str:
    """_phi of the compressed skeleton, expanded, untraced."""
    return _expand(_phi(_compress(skeleton), None, 1))


def _phi_inverse_seed(pairs: str) -> str:
    """_phi_inverse of the compressed pair seed, expanded, untraced."""
    return _expand(_phi_inverse(_compress(pairs), None, 1))


_phi_memo = lru_cache(maxsize=MEMO_SIZE)(_phi_skeleton)
_phi_inverse_memo = lru_cache(maxsize=MEMO_SIZE)(_phi_inverse_seed)


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
    section: Configuration, variant: int, skeleton: str
) -> Configuration:
    """Rewind one descent run back to a section.

    The input must be all odd with the run shape of its variant: under
    variant 1, color-Two columns followed by a single color-One column;
    under variant 2, a single color-Two column followed by color-One
    columns.  The skeleton supplies the section's end columns, which the
    run itself does not encode, as a compact string of two tower or
    empty columns (for example "1.").  The output is a column fragment
    and need not be balanced on its own.
    """
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant!r}")
    text = section.text
    if len(text) < 2:
        raise MalformedSectionError("a section has at least two columns")
    if not _only(text, ODD_CHARS):
        raise MalformedSectionError(f"{section} must consist of odd columns")
    if len(skeleton) != 2 or not _only(skeleton, ".12"):
        raise MalformedSectionError(
            f"skeleton {skeleton!r} must be two tower or empty columns"
        )
    return _wrap(_section_inverse(text, variant, skeleton))


def decode_pairs(
    image: Configuration,
) -> tuple[list[tuple[int, str, bool]], Configuration]:
    """Read the descent bookkeeping of a tower-free configuration.

    Each descent at position k encodes a tower color (bottom row at k
    means color One) and an order bit (bottom row at k+1 means the
    tower preceded the empty).  Returns the list of
    (position, color, tower_first) triples, each color as its tower
    character "1" or "2", and the tower/empty pair configuration they
    spell, one pair per descent.
    """
    if not is_tower_free(image):
        raise NotTowerFreeError(f"{image} is not tower-free")
    descents = list(_DESCENT.finditer(image.text))
    return [
        (match.start() + 1, "1" if match[0][0] == "b" else "2", match[0][1] == "a")
        for match in descents
    ], _wrap("".join([_DESCENT_PAIR[match[0]] for match in descents]))


def phi(configuration: Configuration, trace: TraceLog | None = None) -> Configuration:
    """Map an ordered configuration to its tower-free image."""
    text = configuration.text
    empties, one_towers = text.count("."), text.count("1")
    if empties != one_towers + text.count("2"):
        configuration.validate()  # raises InvalidSlotCountError
    ones = text.count("A") + text.count("a") + 2 * one_towers
    if text[:ones].strip(_ORDERED_ONE) or text[ones:].strip(_ORDERED_TWO):
        raise NotOrderedError(f"{configuration} is not ordered")
    # Balanced, so a configuration without empties has no towers either.
    if not empties:
        return _wrap(_phi(text, trace, 0))
    return _wrap(_phi_sections(text, ones, trace, 0))


def phi_inverse(image: Configuration, trace: TraceLog | None = None) -> Configuration:
    """Map a tower-free configuration back to its ordered preimage."""
    text = image.text
    if text.strip(ODD_CHARS):
        raise NotTowerFreeError(f"{image} is not tower-free")
    return _wrap(_phi_inverse(text, trace, 0))


def format_trace(trace: TraceLog) -> str:
    """Render a trace log as indented lines."""
    return "\n".join(f"{'  ' * depth}{label}: {value}" for depth, label, value in trace)
