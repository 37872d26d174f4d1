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
reversible column by column.  Both maps pick a section's variant by its
index: the first sections, as many as the configuration has color-One
towers (phi) or its skeleton has (phi_inverse), take variant 1 and the
rest variant 2 (see _phi).

A configuration is its compact string (alphabet .Aa1Bb2), a plain str,
and every function here takes and returns strings.  phi and
phi_inverse check their input's shape once, phi through the ordered
rule of configuration._ordered_width, and that check refuses a
character outside the alphabet too (phi with NotOrderedError,
phi_inverse with NotTowerFreeError); configuration.parse_compact is
the entry point for outside input.  They then recurse through five
string-level steps, each one public function: compress packs an even
skeleton into half as many columns and expand unpacks it,
phi_section_forward rewrites a section into a descent run and
phi_section_inverse rewinds one, and decode_pairs reads descents back
as the tower/empty pairs they encode.  Each step also refuses input
that does not have its shape, so it can be called on its own.  Columns
outside a configuration are compact characters too:
phi_section_inverse takes a section's two skeleton columns as a string
such as "1.".

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
from typing import Iterable

from .configuration import (
    ODD_CHARS,
    TOWER_CHARS,
    NotOrderedError,
    _only,
    _ordered_width,
    _require_alphabet,
    _require_balanced,
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


# ------------------------------------------------ the steps, on strings

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
#: The tower/empty pair each descent encodes; see decode_pairs.
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


def compress(skeleton: str) -> str:
    """Halve an odd-free string by packing column pairs.

    Columns 2k-1 and 2k become the top and bottom slots of output
    column k: a tower contributes its color, an empty contributes an
    uncolored slot.  Two towers of different colors in one pair cannot
    be packed.
    """
    if not len(skeleton) % 2:
        try:
            return "".join(map(_PACK.__getitem__, map(operator.add, skeleton[::2], skeleton[1::2])))
        except KeyError:
            pass
    for pos, char in enumerate(skeleton, start=1):
        if char in ODD_CHARS:
            raise HasOddColumnsError(f"column {pos} of {skeleton} is odd")
        if char not in ".12":
            raise BijectionError(f"column {pos} of {skeleton!r} is not a tower or empty column")
    if len(skeleton) % 2:
        raise BijectionError(f"{skeleton} has an odd number of columns")
    k = next(k for k in range(0, len(skeleton), 2) if skeleton[k : k + 2] not in _PACK)
    raise MixedColumnError(
        f"columns {k + 1} and {k + 2} of {skeleton} are towers of different colors"
    )


def expand(compressed: str) -> str:
    """Invert compress: each column becomes a pair of tower or empty columns."""
    return compressed.translate(_UNPACK)


@lru_cache(maxsize=MEMO_SIZE)
def phi_section_forward(section: str, variant: int) -> str:
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
    if len(section) < 2:
        raise MalformedSectionError("a section has at least two columns")
    first, interior, last = section[0], section[1:-1], section[-1]
    if not _only(interior, ODD_CHARS):
        raise MalformedSectionError(f"interior of {section} must be odd columns")
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
def phi_section_inverse(run: str, variant: int, ends: str) -> str:
    """Rewind one descent run back to a section.

    The run must be odd columns with the shape of its variant: under
    variant 1, color-Two columns followed by a single color-One column;
    under variant 2, a single color-Two column followed by color-One
    columns.  ends supplies the section's two end columns, which the run
    does not encode: one column pair of the preimage's skeleton, as
    expand gives it ("1.", "22", ".." and so on).  The output is a
    column fragment and need not be balanced on its own.
    """
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant!r}")
    if len(run) < 2:
        raise MalformedSectionError("a section has at least two columns")
    if ends not in _PACK:
        raise MalformedSectionError(
            f"ends {ends!r} must be two tower or empty columns that expand can give"
        )
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


def decode_pairs(descents: Iterable[str]) -> str:
    """The pair seed that the descents of a tower-free image spell.

    Each descent, a color-Two column followed by a color-One column,
    encodes one tower/empty pair: its left column in the bottom row
    means a color-One tower, its right column in the bottom row means
    the tower came first.
    """
    try:
        return "".join(map(_DESCENT_PAIR.__getitem__, descents))
    except KeyError as error:
        raise BijectionError(f"{error.args[0]!r} is not a descent") from None


def _phi(text: str, trace: TraceLog | None, depth: int) -> str:
    """phi on a balanced, ordered compact string.

    Section m, counted from 0 and item k = 2m + 1 of the split, takes
    variant 1 when it lies in the color-One block, the rule _phi_inverse
    reads back.  That block holds all t color-One towers and, being as
    wide as its count of colored slots, exactly t empties, so its
    sections are the first t: m < t, with t the count of "1".  The rule
    holds at every level because the compressed skeleton of a balanced,
    ordered string is itself balanced and ordered, with a color-One block
    of t columns: the packed pairs of the parent's One block.
    """
    if _only(text, ODD_CHARS):
        if trace is not None:
            _note(trace, depth, "fixed point", text)
        return text
    skeleton = text.translate(_DROP_ODD)
    if trace is None:
        step = _phi_memo if len(skeleton) <= SWEEP_LENGTH_LIMIT else _phi_skeleton
        expanded = step(skeleton)
    else:
        compressed = compress(skeleton)
        _note(trace, depth, "input", text)
        _note(trace, depth, "tower configuration", compressed)
        expanded = expand(_phi(compressed, trace, depth + 1))
        _note(trace, depth, "expanded image", expanded)
    one_towers = text.count("1")
    # The odd stretches at the even indices, the sections at the odd ones;
    # each section is replaced in place by its image, which is as long.
    parts = _SECTION.split(text)
    for k in range(1, len(parts), 2):
        variant = 1 if k // 2 < one_towers else 2
        section = expanded[k - 1] + parts[k][1:-1] + expanded[k]
        parts[k] = image = phi_section_forward(section, variant)
        if trace is not None:
            start = sum(map(len, parts[:k])) + 1
            _note(trace, depth, f"section {start}..{start + len(image) - 1}",
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
    pairs = decode_pairs(parts[1::2])
    if trace is None:
        step = _phi_inverse_memo if len(pairs) <= SWEEP_LENGTH_LIMIT else _phi_inverse_seed
        skeleton = step(pairs)
    else:
        _note(trace, depth, "input", image)
        _note(trace, depth, "pair seed", pairs)
        skeleton = expand(_phi_inverse(compress(pairs), trace, depth + 1))
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
        parts[k] = rebuilt = phi_section_inverse(section, variant, skeleton[k - 1 : k + 1])
        if trace is not None:
            start = previous_end + len(kept) + 1
            previous_end = start + len(section) - 1
            _note(trace, depth, f"section {start}..{previous_end}",
                  f"variant {variant}: {section} -> {rebuilt}")
    result = "".join(parts)
    if _ordered_width(result) is None:
        raise NotInImageError(f"{image} reconstructs to {result}, which is not ordered")
    if trace is not None:
        _note(trace, depth, "preimage", result)
    return result


# The untraced recursive steps and their memos.  A step takes the
# uncompressed skeleton or pair seed and returns the expanded result, so a
# memo hit compresses and expands nothing.  Every step, here and in _phi
# and _phi_inverse, is called by module-global name, so a step replaced
# from outside is the one called once the memos are cleared.


def _phi_skeleton(skeleton: str) -> str:
    """_phi of the compressed skeleton, expanded, untraced."""
    return expand(_phi(compress(skeleton), None, 1))


def _phi_inverse_seed(pairs: str) -> str:
    """_phi_inverse of the compressed pair seed, expanded, untraced."""
    return expand(_phi_inverse(compress(pairs), None, 1))


_phi_memo = lru_cache(maxsize=MEMO_SIZE)(_phi_skeleton)
_phi_inverse_memo = lru_cache(maxsize=MEMO_SIZE)(_phi_inverse_seed)


# ------------------------------------------ configurations in and out


def even_skeleton(text: str) -> str:
    """The subsequence of tower and empty columns, in order."""
    _require_alphabet(text)
    return text.translate(_DROP_ODD)


def tower_configuration(text: str) -> str:
    """The compressed even skeleton, the configuration the recursion
    descends to."""
    return compress(text.translate(_DROP_ODD))


def phi(text: str, trace: TraceLog | None = None) -> str:
    """Map an ordered configuration to its tower-free image."""
    if _ordered_width(text) is None:
        _require_balanced(text)  # InvalidSlotCountError comes first
        raise NotOrderedError(f"{text} is not ordered")
    return _phi(text, trace, 0)


def phi_inverse(text: str, trace: TraceLog | None = None) -> str:
    """Map a tower-free configuration back to its ordered preimage."""
    if text.strip(ODD_CHARS):
        raise NotTowerFreeError(f"{text} is not tower-free")
    return _phi_inverse(text, trace, 0)


def format_trace(trace: TraceLog) -> str:
    """Render a trace log as indented lines."""
    return "\n".join(f"{'  ' * depth}{label}: {value}" for depth, label, value in trace)
