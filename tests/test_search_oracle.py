"""The galloping certificate search against the binary search it replaced
(kept in reference_search.py), and the interleaving distance it finds
against two outside references: the binary search over the solver-only
`decide_by_solver` (kept in reference_search.py, since the library's
`decide_interleaving` reads the slice bound) and a lower bound from diagonal slices.

Every jump of the search, a yes at eps that certifies a smaller candidate u,
is checked on its own: the witness found at eps, restricted to u's free
entries, must satisfy the system at u.

Last, the search on the term table's int levels against the same search
with the candidates held as ExtendedRationals (reference_search.py), output
for output, budget exits included."""

import importlib.util
import pathlib
from fractions import Fraction as F

import pytest

import permod
from permod import interleave
from permod.exactnum import INF, PrimeField, ext, least_feasible
from permod.interleave import candidate_set, interleaving_distance
from permod.presentation import Presentation
from permod.quadsys import evaluate

import reference_onedim
import reference_search as ref
from conftest import random_presentation, search_from_zero, seeded

F2, F3 = PrimeField(2), PrimeField(3)


class TestAgainstBinarySearch:
    def test_every_threshold(self):
        """Sizes 0-40, every threshold, with the plain certificate (v
        itself) and with certificates anywhere between the threshold and v."""
        for size in range(41):
            values = list(range(10, 10 + 3 * size, 3))
            for k in range(size + 1):
                t = values[k] if k < size else None
                want = ref.least_feasible(values, lambda v: t is not None and v >= t)
                certs = (lambda v: v, lambda v: values[k],
                         lambda v: values[(k + values.index(v)) // 2],
                         lambda v: values[max(k, values.index(v) - 1)])
                for cert in certs:
                    got = least_feasible(values, lambda v: (
                        cert(v) if t is not None and v >= t else None))
                    assert got == want, (size, k)

    def test_probes_decrease_with_certificates(self):
        """A certificate moves the top of the gap down: after the yes at 31
        certifies 20, only 18 and 19 are left to probe."""
        probes = []
        got = least_feasible(list(range(40)),
                             lambda v: probes.append(v) or (20 if v >= 20 else None))
        assert got == 20 and probes == [0, 1, 3, 7, 15, 31, 18, 19]

    @pytest.mark.parametrize("answer", (True, False, 1, 0))
    def test_bool_and_foreign_returns_raise(self, answer):
        """A bool predicate raises at its first yes instead of looping; so
        does an int, which here is no entry of values at or below v."""
        with pytest.raises(TypeError):
            least_feasible([F(1, 2), F(1), F(2)], lambda v: answer)

    def test_certificates_out_of_place_raise(self):
        values = list(range(10))
        # above v
        with pytest.raises(TypeError):
            least_feasible(values, lambda v: v + 1)
        # at or below a failed probe: 0, 1 fail, 3 certifies 1
        with pytest.raises(TypeError):
            least_feasible(values, lambda v: 1 if v >= 2 else None)
        # no entry of values
        with pytest.raises(TypeError):
            least_feasible(values, lambda v: F(5, 2))


def interleave2d_pair(rng, k, r):
    """A 2-parameter Z/2 module with k generators on the grid [0, 10]^2 and r
    relations, each joining two generators, against a copy whose generator
    grades move down and relation grades up by 0, 1/2 or 1, at most the
    pair's jitter (1/2 or 1)."""
    gens = [(F(rng.randint(0, 10)), F(rng.randint(0, 10))) for _ in range(k)]
    rels = []
    for _ in range(r):
        pick = rng.sample(range(k), 2)
        grade = tuple(max(gens[i][a] for i in pick) + rng.randint(0, 2) for a in range(2))
        rels.append((grade, {i: 1 for i in pick}))
    jitter = rng.choice((1, 2))
    moved_gens = [tuple(x - F(rng.randint(0, jitter), 2) for x in g) for g in gens]
    moved_rels = [(tuple(x + F(rng.randint(0, jitter), 2) for x in g), c) for g, c in rels]
    return tuple(Presentation(2, F2, [(f"g{i}", g) for i, g in enumerate(gs)],
                              [(f"r{j}", g, c) for j, (g, c) in enumerate(rs)]).validate()
                 for gs, rs in ((gens, rels), (moved_gens, moved_rels)))


def interleave2d_pairs(seed, count):
    rng = seeded(seed)
    sizes = ((2, 1), (3, 2), (4, 2), (4, 3), (5, 3))
    return [interleave2d_pair(rng, *sizes[i % len(sizes)]) for i in range(count)]


def random_pairs(seed, field, count, n=2):
    rng = seeded(seed)
    return [tuple(random_presentation(rng, field, n=n, max_gens=4, max_rels=3)
                  for _ in range(2)) for _ in range(count)]


def binary_distance(m, n):
    """d_I by the binary search over the solver-only `decide_interleaving`
    on the raw pair."""
    finite = [c for c in candidate_set(m, n) if c.is_finite]
    d = ref.least_feasible(finite,
                           lambda eps: ref.decide_by_solver(m, n, eps.value) == "yes")
    return INF if d is None else d


class Decision:
    def __init__(self, table, eps, isys):
        self.table, self.eps, self.isys = table, eps, isys
        self.result = self.cert = None


@pytest.fixture
def decisions(monkeypatch):
    """Every decision interleaving_distance makes: its table, eps, system,
    solver result and certificate, a table level (None for a no)."""
    log = []
    at, solve, search = (interleave.TermTable.at, interleave.solve_finite_field,
                         interleave.least_feasible)

    def logged_at(table, eps):
        log.append(Decision(table, eps, at(table, eps)))
        return log[-1].isys

    def logged_solve(system, budget):
        result = solve(system, budget=budget)
        if log and log[-1].isys.system is system:
            log[-1].result = result
        return result

    def logged_search(values, feasible):
        def logged(v):
            log[-1].cert = feasible(v)
            return log[-1].cert
        return search(values, logged)

    monkeypatch.setattr(interleave.TermTable, "at", logged_at)
    monkeypatch.setattr(interleave, "solve_finite_field", logged_solve)
    monkeypatch.setattr(interleave, "least_feasible", logged_search)
    return log, at


def check_jumps(log, at):
    """For each yes at eps certifying u: the witness found at eps,
    restricted to u's free entries, satisfies the system at u.  Returns the
    number of jumps (u < eps)."""
    jumps = 0
    for d in log:
        if d.cert is None:
            continue
        value = {e: d.result.witness[v - 1] for e, v in d.isys.var_of_entry.items()}
        cert = F(d.cert, d.table.scale)
        target = at(d.table, cert)
        entries = sorted(target.var_of_entry, key=target.var_of_entry.get)
        assert evaluate(target.system, [value.get(e, 0) for e in entries]) is None
        jumps += cert < d.eps
    return jumps


ORACLE_PAIRS = (lambda: interleave2d_pairs(601, 40), lambda: random_pairs(602, F2, 40),
                lambda: random_pairs(603, F3, 10))


class TestDistanceAgainstBinarySearch:
    @pytest.mark.parametrize("pairs, min_jumps", zip(ORACLE_PAIRS, (20, 1, 0)),
                             ids=("interleave2d", "random_z2", "random_z3"))
    def test_same_distance_and_sound_jumps(self, pairs, min_jumps, decisions,
                                           monkeypatch):
        """From candidate 0, as the search ran before the slice start."""
        search_from_zero(monkeypatch)
        log, at = decisions
        jumps = 0
        for m, n in pairs():
            log.clear()
            d = interleaving_distance(m, n)
            jumps += check_jumps(log, at)
            assert d == binary_distance(m, n)
        assert jumps >= min_jumps

    @pytest.mark.parametrize("pairs, counts", zip(ORACLE_PAIRS, (
        (40, 0), (10, 0), (1, 0))), ids=("interleave2d", "random_z2", "random_z3"))
    def test_same_distance_from_the_slice_start(self, pairs, counts, decisions):
        """The default search: the same d_I, sound jumps, and pinned
        (decisions, jumps) totals."""
        log, at = decisions
        total = jumps = 0
        for m, n in pairs():
            log.clear()
            d = interleaving_distance(m, n)
            jumps += check_jumps(log, at)
            total += len(log)
            assert d == binary_distance(m, n)
        assert (total, jumps) == counts


class TestInfiniteDistance:
    def test_different_top_dimensions_decided_without_the_solver(self, decisions):
        """Free Z/3 modules of rank 3 and 4 differ above all their grades,
        so d_I = inf comes with no decision; the solver used to run out of a
        20,000-node budget proving it."""
        log, _ = decisions
        m, n = random_pairs(603, F3, 10)[4]
        assert (len(m.relations), len(n.relations)) == (0, 0)
        assert (len(m.generators), len(n.generators)) == (3, 4)
        stats = interleave.SearchStats()
        assert interleaving_distance(m, n, budget=20000, stats=stats) == INF
        assert log == [] and stats.decisions == 0
        assert stats.candidates == len(candidate_set(m, n))

    def test_equal_top_dimensions_still_searched(self, decisions):
        """Equal dimensions at the top prove nothing: an interval and a free
        module both vanish or both live there, and the search decides."""
        log, _ = decisions
        free = Presentation(1, F2, [("g", (F(0),))], [])
        shifted = Presentation(1, F2, [("g", (F(1),))], [])
        assert interleaving_distance(free, shifted) == ext(1)
        assert log
        bar = Presentation(1, F2, [("g", (F(0),))], [("r", (F(2),), [1])])
        assert interleaving_distance(bar, free) == INF
        assert log


def diagonal_slice(p, c):
    """p restricted to the line c + t (1, ..., 1): a grade g enters at
    t = max_i (g_i - c_i), and the coefficients stay the same."""
    def t(g):
        return (max(x - y for x, y in zip(g, c)),)
    return Presentation(1, p.field, [(nm, t(g)) for nm, g in p.generators],
                        [(nm, t(g), cs) for nm, g, cs in p.relations])


def slice_lower_bound(m, n):
    """The largest bottleneck distance between the diagonal slices of m and
    n through every grade g, c = g - g_last, by the parent `diagram_of` and
    `bottleneck` (reference_onedim.py), which share no code with the slice
    start.  An eps-interleaving restricts to one on every such line, so
    this is <= d_I."""
    offsets = {tuple(x - g[-1] for x in g) for p in (m, n)
               for g in [g for _, g in p.generators] + [g for _, g, _ in p.relations]}
    return max((reference_onedim.bottleneck(*(reference_onedim.diagram_of(diagonal_slice(p, c))
                                              for p in (m, n)))
                for c in offsets), default=ext(0))


def one_candidate_lower(monkeypatch):
    """A broken search: each certificate moves one candidate lower, unless
    that candidate was decided no (the search itself refuses a certificate
    at or below a failed probe)."""
    search = interleave.least_feasible

    def broken(values, feasible):
        failed = set()

        def lowered(v):
            u = feasible(v)
            if u is None:
                failed.add(v)
                return None
            k = values.index(u)
            return values[k - 1] if k and values[k - 1] not in failed else u
        return search(values, lowered)

    monkeypatch.setattr(interleave, "least_feasible", broken)


class TestSliceLowerBound:
    def test_bound_holds_and_catches_a_jump_one_candidate_too_low(self, monkeypatch):
        """bound <= d_I on interleave2d-shaped and random pairs, with
        equality on most of them; the broken search returns a d below the
        bound on some of the same pairs."""
        pairs = interleave2d_pairs(611, 60) + random_pairs(612, F2, 40)
        bounds = [slice_lower_bound(m, n) for m, n in pairs]
        dists = [interleaving_distance(m, n) for m, n in pairs]
        assert all(b <= d for b, d in zip(bounds, dists))
        assert sum(b == d for b, d in zip(bounds, dists)) >= 90
        search_from_zero(monkeypatch)
        one_candidate_lower(monkeypatch)
        broken = [interleaving_distance(m, n) for m, n in pairs]
        assert all(b <= d for b, d in zip(broken, dists))
        assert sum(b < bound for b, bound in zip(broken, bounds)) >= 5


class TestSliceStart:
    @pytest.mark.parametrize("pairs, counts", (
        (lambda: interleave2d_pairs(621, 40), (40, 0)),
        (lambda: random_pairs(622, F2, 60), (13, 0)),
        (lambda: random_pairs(623, F3, 60), (12, 0)),
        (lambda: random_pairs(624, F2, 40, n=1), (14, 15)),
        (lambda: random_pairs(625, F3, 60, n=3), (17, 0))),
        ids=("interleave2d", "random_z2", "random_z3", "n1", "n3"))
    def test_start_is_the_least_candidate_at_the_bound(self, pairs, counts, decisions):
        """The start is the index of the least candidate >= the oracle's
        slice bound on the minimized pair, and the candidate below it is
        decided no (where the slices leave a finite candidate: proving no
        at the largest one can take the solver tens of seconds).  With one
        parameter the slice is the module, so a finite d_I takes exactly
        one decision.  counts pins how many pairs take each check."""
        log, _ = decisions
        checked = single = 0
        for m, n in pairs():
            mm, nn = m.minimize(), n.minimize()
            finite = [c for c in candidate_set(mm, nn) if c.is_finite]
            bound = slice_lower_bound(mm, nn)
            k = interleave.slice_start(interleave.TermTable(mm, nn), mm, nn)
            assert k == len([c for c in finite if c < bound])
            if 0 < k < len(finite):
                assert ref.decide_by_solver(mm, nn, finite[k - 1].value) == "no"
                checked += 1
            log.clear()
            d = interleaving_distance(m, n)
            if m.n == 1 and d.is_finite:
                assert len(log) == 1 and d == finite[k]
                single += 1
        assert (checked, single) == counts

    def test_lines_through_relation_grades_count(self, decisions):
        """<g@(0,0) | r@(4,0)> against <g@(0,0) | r@(0,4)>: on the line
        through the generator both slices are the bar [0, 4), but on the
        line through either relation one bar has length 0 and the other 4,
        so the bound is 2 = d_I and one decision confirms it."""
        log, _ = decisions
        m, n = (Presentation(2, F2, [("g", (F(0), F(0)))], [("r", grade, {0: 1})])
                for grade in ((F(4), F(0)), (F(0), F(4))))
        finite = [c for c in candidate_set(m, n) if c.is_finite]
        assert finite == [ext(0), ext(2), ext(4)]
        assert interleave.slice_start(interleave.TermTable(m, n), m, n) == 1
        assert interleaving_distance(m, n) == ext(2) and len(log) == 1


def benchmark_workload(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", pathlib.Path(__file__).resolve().parents[1] / "perfbench"
        / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS[name]


def outcome(call):
    """What a search or decision returns, or the whole of its budget exit."""
    try:
        return call()
    except interleave.DistanceBudgetExceeded as exc:
        return "exit", str(exc), exc.bracket, exc.undecided, exc.nodes


def search_outcomes(search, decide, m, n, budget):
    stats = interleave.SearchStats()
    d = outcome(lambda: search(m, n, budget=budget, stats=stats))
    return ([d, str(d), (stats.candidates, stats.decisions, stats.nodes)] +
            [outcome(lambda: decide(m, n, eps, budget=budget))
             for eps in (0, F(1, 2), F(3, 4), 1)])


class TestAgainstTheExtendedRationalSearch:
    """d_I, its SearchStats, the decisions at eps 0, 1/2, 3/4 and 1, and
    every budget exit's message, bracket, undecided eps and nodes, as the
    search gave them while it held its candidates as ExtendedRationals."""

    def compare(self, pairs, budgets):
        exits = 0
        for m, n in pairs:
            for budget in budgets:
                got = search_outcomes(interleaving_distance, interleave.decide_interleaving,
                                      m, n, budget)
                assert got == search_outcomes(ref.interleaving_distance,
                                              ref.decide_interleaving, m, n, budget)
                exits += sum(type(x) is tuple and x[0] == "exit" for x in got)
        return exits

    @pytest.mark.parametrize("seed", (1, 7919))
    def test_interleave2d_inputs(self, seed):
        """The first 400 benchmark inputs of the seed, built as its op
        builds them, at its budget."""
        wl, f2 = benchmark_workload("interleave2d"), F2
        pairs = [(wl._presentation(permod, f2, inp["m"]),
                  wl._presentation(permod, f2, inp["n"]))
                 for inp in wl.inputs(seed, n=400)]
        assert self.compare(pairs, (wl.budget,)) == 0

    @pytest.mark.parametrize("seed, exits", ((1, 92), (7919, 97)))
    def test_large_pairs_at_small_budgets(self, seed, exits):
        """(12, 8) and (16, 10) pairs of the benchmark's generator at
        budgets 0 and 30, where searches and decisions run out."""
        wl, f2 = benchmark_workload("interleave2d"), F2
        pairs = [(wl._presentation(permod, f2, inp["m"]),
                  wl._presentation(permod, f2, inp["n"]))
                 for inp in wl.inputs(seed, sizes=((12, 8), (16, 10)), n=20)]
        assert self.compare(pairs, (0, 30)) == exits
