import contextlib
import itertools
import math
import operator
import os
import random
from fractions import Fraction

import pytest

from permod import PrimeField, Presentation, interleave
from permod.filtration import BifilteredComplex
from permod.quadsys import _Search


@pytest.fixture
def f2():
    return PrimeField(2)


@pytest.fixture
def f3():
    return PrimeField(3)


def bracket_sqrt(q):
    """Rational [lo, hi] with lo <= sqrt(q) <= hi and hi - lo <= 2**-20
    (2**-42 exactly)."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("sqrt of negative")
    scale = 1 << 42
    r = math.isqrt((q.numerator * scale * scale) // q.denominator)
    return Fraction(r, scale), Fraction(r + 1, scale)


def random_presentation(rng, field, n=1, max_gens=3, max_rels=3,
                        grade_pool=None):
    """Random valid presentation: generator grades from the pool, each
    relation supported on generators of smaller-or-equal grade."""
    if grade_pool is None:
        grade_pool = [Fraction(k, 2) for k in range(0, 9)]
    ngens = rng.randint(1, max_gens)
    gens = []
    for i in range(ngens):
        grade = tuple(rng.choice(grade_pool) for _ in range(n))
        gens.append((f"g{i}", grade))
    nrels = rng.randint(0, max_rels)
    rels = []
    for j in range(nrels):
        grade = tuple(rng.choice(grade_pool) for _ in range(n))
        coeffs = []
        support = False
        for _, ggrade in gens:
            if all(x <= y for x, y in zip(ggrade, grade)) and rng.random() < 0.7:
                c = field.of(rng.randrange(1, getattr(field, "p", 5)))
                support = True
            else:
                c = field.zero
            coeffs.append(c)
        if not support:
            continue
        rels.append((f"r{j}", grade, coeffs))
    return Presentation(n, field, gens, rels).validate()


def check_chain_convention(chain):
    """Assert `GradedChainComplex`'s convention, which every builder keeps:
    per degree one grade index, basis entry and column each, the grade
    indices sorted, degree 0's columns empty, and every degree-(d+1)
    column's rows positions in degree d, each of grade <= the column's."""
    kind = chain.field.columns
    for d in range(chain.max_deg + 1):
        index = chain.grade_index[d]
        assert len(index) == len(chain.bases[d]) == len(chain.columns[d])
        assert index == sorted(index), f"degree {d}'s grade indices are not sorted"
        below = chain.grade_index.get(d - 1, [])
        for col, key in zip(chain.columns[d], index):
            rows = kind.unpack(kind.copy(col))
            assert all(r in range(len(below)) for r in rows), \
                f"a degree-{d} column has a row that is no position in degree {d - 1}"
            assert all(all(map(operator.le, below[r], key)) for r in rows), \
                f"a degree-{d} column has a row of larger grade"


def mat_vec(field, a, v):
    """The dense product of the rows a with the vector v."""
    out = [field.zero] * len(a)
    for i, row in enumerate(a):
        acc = field.zero
        for x, y in zip(row, v):
            if x != field.zero and y != field.zero:
                acc = field.add(acc, field.mul(x, y))
        out[i] = acc
    return out


def dense(field, coeffs, size):
    """A {index: coeff} dict as the dense list of its first size entries."""
    return [coeffs.get(k, field.zero) for k in range(size)]


def dense_relations(p):
    """p's relations with each coefficient dict as a dense list over the
    generators, the form the oracles and brute-force checks read."""
    return [(nm, gr, dense(p.field, cs, len(p.generators)))
            for nm, gr, cs in p.relations]


def rerepresent(rng, p, n_row_ops=5, add_redundant=True):
    """A different presentation of the same module: random unit graded row
    operations on relations plus one redundant generator/relation pair."""
    field = p.field
    gens, rels = list(p.generators), dense_relations(p)
    for _ in range(n_row_ops):
        if len(rels) < 2:
            break
        i, j = rng.sample(range(len(rels)), 2)
        nm_i, gr_i, cs_i = rels[i]
        _, gr_j, cs_j = rels[j]
        # r_i += c * (shifted r_j), requires gr(r_j) <= gr(r_i)
        if not all(x <= y for x, y in zip(gr_j, gr_i)):
            continue
        c = field.of(rng.randrange(1, getattr(field, "p", 5)))
        cs = [field.add(a, field.mul(c, b)) for a, b in zip(cs_i, cs_j)]
        rels[i] = (nm_i, gr_i, cs)
    if add_redundant and gens:
        idx = rng.randrange(len(gens))
        _, base_grade = gens[idx]
        bump = tuple(g + Fraction(rng.randint(0, 2), 2) for g in base_grade)
        newg = f"gextra{len(gens)}"
        gens.append((newg, bump))
        coeffs = []
        for _, ggrade in gens[:-1]:
            if all(x <= y for x, y in zip(ggrade, bump)) and rng.random() < 0.5:
                coeffs.append(field.of(rng.randrange(1, getattr(field, "p", 5))))
            else:
                coeffs.append(field.zero)
        coeffs.append(field.one)
        # older relations need a zero coefficient slot for the new generator
        rels = [(nm, gr, cs + [field.zero]) for nm, gr, cs in rels]
        rels.append((f"rextra{len(rels)}", bump, coeffs))
    return Presentation(p.n, field, gens, rels).validate()


def random_one_critical_complex(rng, n, max_simplices=10, max_grade=4,
                                max_dim=2):
    """Random one-critical filtered complex built by monotone extension."""
    pool = [Fraction(k, 2) for k in range(0, 2 * max_grade + 1)]
    nv = rng.randint(1, 4)
    simplices = {}
    for i in range(nv):
        simplices[(i,)] = tuple(rng.choice(pool) for _ in range(n))
    attempts = 0
    while len(simplices) < max_simplices and attempts < 60:
        attempts += 1
        size = rng.randint(2, max_dim + 1)
        if nv < size:
            continue
        verts = tuple(sorted(rng.sample(range(nv), size)))
        if verts in simplices:
            continue
        faces = list(itertools.combinations(verts, len(verts) - 1))
        if any(f not in simplices for f in faces):
            continue
        lower = [max(simplices[f][k] for f in faces) for k in range(n)]
        grade = tuple(lo + Fraction(rng.randint(0, 2), 2) for lo in lower)
        simplices[verts] = grade
    return BifilteredComplex(n, list(simplices.items()))


@contextlib.contextmanager
def address_space_limit():
    """Cap this process's address space at its current size plus 1 GiB (the
    soft limit, put back on exit), so that an allocation as large as the
    field Z/(2^31 - 1) fails at once with MemoryError.  Skips the test where
    the platform has no RLIMIT_AS or no /proc/self/statm."""
    try:
        import resource
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        with open("/proc/self/statm") as fh:
            cap = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE") + (1 << 30)
    except (ImportError, AttributeError, OSError, ValueError) as exc:
        pytest.skip(f"no address-space limit on this platform: {exc}")
    if hard != resource.RLIM_INFINITY:
        cap = min(hard, cap)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def root_elimination(field, equations):
    """The solver's elimination before its first branch: (the equations
    left, in their order; the rounds), or None on contradiction."""
    search = _Search(field, equations)
    return ([eq for eq in search.eqs if eq], search.subs) if search.ok else None


def seeded(seed):
    return random.Random(seed)


def search_from_zero(monkeypatch):
    """Start every distance search at candidate 0, as before the diagonal
    slices gave it a start, so pins of that search's probes still apply:
    every bound the search reads, on the end lines or on all, is 0.  Where
    the slices on all lines rule out every finite candidate, each bound is
    len(levels) and d_I = inf still comes without a decision, as it did
    when the dimensions above all grades differ."""
    start = interleave.slice_start

    def from_zero(table, mm, nn, part=slice(None), k=0):
        full = start(table, mm, nn)
        return full if full == len(table.levels) else 0
    monkeypatch.setattr(interleave, "slice_start", from_zero)
