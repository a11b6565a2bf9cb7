"""The seven text parsers, which read their lines through `text_lines`,
against their earlier copies in `reference_parsers`, on a seeded corpus: the
canonical text of seeded presentations, systems, grid modules, complexes,
diagrams, point clouds and function values, each with comment and blank
lines inserted, then spoiled in seeded ways (a line dropped, doubled, cut
short or to its first word and a colon, swapped or given a bad rational, a
frame line lost, a trailing comment added).  On every text both sides
accept, they print the same canonical text; on every text both refuse, they
raise the same error class.  The only differences allowed are the ones
`difference` names: the new refusals, the short lines now refused with the
format's error, the malformed lines, and the CSV trailing comments, now
cut.  Malformed lines are the grid module's axis and transition lines out
of their shape (an axis line's number not followed by a colon, a
transition line without its colon, its `axis` word or an axis of the
module), once read as some other module, and in both the grid module and
the presentation format a head line with a token too many (`field zp 2 5`,
`n 1 9`), once read without it, or a value that is not a field or an
integer where one is due, once Python's `ValueError`, each now the
format's error naming the line."""

import random
from fractions import Fraction as F

import pytest

import reference_parsers as ref
from permod import filtration, homology, onedim, presentation, quadsys
from permod.exactnum import QQ, PrimeField, format_rational
from permod.filtration import PointCloud, rips_bifiltration
from permod.homology import grid_module_of
from permod.interleave import TermTable
from permod.onedim import PersistenceDiagram, diagram_of

from conftest import random_one_critical_complex, random_presentation

FIELDS = (PrimeField(2), PrimeField(3), QQ)


def values_csv(rows):
    return "".join(",".join(map(format_rational, row)) + "\n" for row in rows)


def presentations(rng):
    for k in range(24):
        yield random_presentation(rng, FIELDS[k % 3], n=1 + k % 3, max_gens=4, max_rels=4)


def systems(rng):
    """The systems deciding eps-interleaving of seeded pairs."""
    for k in range(12):
        field = FIELDS[k % 2]
        m, n = (random_presentation(rng, field, n=1 + k % 2) for _ in range(2))
        yield TermTable(m, n).at(F(rng.randint(0, 4), 2)).system


def grid_modules(rng):
    for k in range(12):
        p = random_presentation(rng, FIELDS[k % 3], n=1 + k % 2)
        axes = [sorted({F(rng.randint(0, 8), 2) for _ in range(3)}) for _ in range(p.n)]
        yield grid_module_of(p, axes)


def complexes(rng):
    for k in range(10):
        yield random_one_critical_complex(rng, 1 + k % 2)
    for k in range(4):      # L2 scales: sqrt(q) grades
        cloud = PointCloud(rng.sample([(a, b) for a in range(4) for b in range(4)], 4))
        yield rips_bifiltration(cloud, 2, [(F(rng.randint(0, 2)),) for _ in cloud],
                                max_dim=2, scale_cap=3)


def diagrams(rng):
    for k in range(8):
        yield diagram_of(random_presentation(rng, FIELDS[k % 3], max_gens=4))
    yield PersistenceDiagram([(F(-1), F(1, 2), 2), (F(0), onedim.INF, 1)])


def clouds(rng):
    for k in range(10):
        dim = 1 + k % 3
        yield PointCloud([[F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(dim)]
                          for _ in range(rng.randint(1, 5))])


def value_rows(rng):
    for k in range(10):
        yield [tuple(F(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(1 + k % 2))
               for _ in range(rng.randint(1, 5))]


# name: (new parser, old parser, printer, seeded objects, the differences
# the corpus must show)
FORMATS = {
    "presentation": (presentation.parse_presentation, ref.parse_presentation,
                     lambda p: p.to_text(), presentations, {"refusal", "short", "malformed"}),
    "quadsys": (quadsys.parse_system, ref.parse_system, quadsys.export_system, systems,
                {"refusal"}),
    "gridmodule": (homology.parse_grid_module, ref.parse_grid_module,
                   lambda gm: gm.to_text(), grid_modules, {"refusal", "short", "malformed"}),
    "complex": (filtration.parse_complex, ref.parse_complex,
                lambda cx: cx.to_text(), complexes, set()),
    "diagram": (onedim.parse_diagram, ref.parse_diagram,
                lambda d: d.to_text(), diagrams, set()),
    "points": (filtration.parse_points_csv, ref.parse_points_csv,
               lambda c: c.to_csv(), clouds, {"trailing"}),
    "values": (filtration.parse_values_csv, ref.parse_values_csv,
               values_csv, value_rows, {"trailing"}),
}


def commented(rng, text):
    """text with whole-line comments (some naming keywords or holding a
    colon) and blank or blank-looking lines inserted at seeded places."""
    fillers = ["", "   ", "# note", "  # field zp 5", "#END", "# n 3 : x"]
    lines = text.splitlines()
    for _ in range(rng.randint(1, 4)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(fillers))
    return "\n".join(lines) + "\n"


def spoiled(rng, text):
    """One seeded spoiling of text."""
    lines = text.splitlines() or [""]
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    kind = rng.choice(["drop", "double", "cut", "colon", "swap", "rational", "first",
                       "last", "trailing"])
    if kind == "drop":
        del lines[i]
    elif kind == "double":
        lines.insert(j, lines[i])
    elif kind == "cut":
        toks = lines[i].split()
        lines[i] = " ".join(toks[:rng.randrange(len(toks) + 1)])
    elif kind == "colon":       # the first word, then nothing but a colon
        lines[i] = lines[i].split(" ", 1)[0] + " :"
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "rational":
        toks = lines[i].split(" ")
        toks[rng.randrange(len(toks))] = rng.choice(["1/0", "x", "1//2", "0.5.1"])
        lines[i] = " ".join(toks)
    elif kind == "first":
        del lines[0]
    elif kind == "last":
        del lines[-1]
    else:
        lines[i] += rng.choice(["  # trailing", "# x,y"])
    return "\n".join(lines) + "\n"


def corpus(name, seed):
    """A format's texts, seeded: each canonical text, with comments, and
    spoiled eight times."""
    rng = random.Random(f"parser-oracle:{name}:{seed}")
    show, objects = FORMATS[name][2:4]
    for text in map(show, objects(rng)):
        yield text
        yield commented(rng, text)
        for _ in range(8):
            yield spoiled(rng, commented(rng, text))


def outcome(parse, show, text):
    try:
        return "ok", show(parse(text))
    except Exception as exc:    # noqa: BLE001 - the exception is the outcome
        return "error", exc


def difference(name, old, new):
    """Which allowed difference old and new outcomes show, or None."""
    if new[0] == "error" and str(new[1]).startswith(("second ", "axis lines ")):
        return "refusal"        # a repeated keyword line, or an axis line off the axes
    if name in ("gridmodule", "presentation") and new[0] == "error" and \
            str(new[1]).startswith("malformed "):
        return "malformed"      # a line out of its shape, once read or Python's ValueError
    if old[0] == "error" and type(old[1]) is ValueError and new[0] == "error" and \
            str(new[1]).startswith(("relation line without a name", "dim line without '='")):
        return "short"          # the format's error, naming the line, not Python's
    if name in ("points", "values") and old[0] == "error" and \
            type(old[1]) is ValueError and "#" in str(old[1]):
        return "trailing"       # a CSV trailing comment, now cut as everywhere else
    return None


@pytest.mark.parametrize("name", FORMATS)
def test_parsers_match_their_earlier_copies(name):
    parse, old_parse, show, _, expected = FORMATS[name]
    seen = {"ok": 0, "error": 0}
    for seed in range(3):
        for text in corpus(name, seed):
            old, new = outcome(old_parse, show, text), outcome(parse, show, text)
            if old[0] == new[0] == "ok" and old[1] == new[1]:
                seen["ok"] += 1
            elif old[0] == new[0] == "error" and type(old[1]) is type(new[1]):
                seen["error"] += 1
            else:
                why = difference(name, old, new)
                assert why in expected, (text, old, new)
                seen[why] = seen.get(why, 0) + 1
    assert seen["ok"] >= 20 and seen["error"] >= 20 and expected <= set(seen), seen
