import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from permod.cli import main
from permod.filtration import FiltrationError, parse_complex
from permod.homology import HomologyError, parse_grid_module
from permod.interleave import candidate_set
from permod.presentation import PresentationError, parse_presentation
from permod.quadsys import QuadSysError, export_system, parse_system

from conftest import address_space_limit

C01 = """PRESENTATION
n 1
field zp 2
generator g 0
relation r 1 : g 1
END
"""

C23 = """PRESENTATION
n 1
field zp 2
generator g 2
relation r 3 : g 1
END
"""


@pytest.fixture
def files(tmp_path):
    (tmp_path / "c01.txt").write_text(C01)
    (tmp_path / "c23.txt").write_text(C23)
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPresent:
    def test_validate(self, files, capsys):
        code, out, _ = run(capsys, "present", "validate", files / "c01.txt")
        assert code == 0 and "ok" in out

    def test_minimize_roundtrip(self, files, capsys, tmp_path):
        out_path = tmp_path / "min.txt"
        code, _, _ = run(capsys, "present", "minimize", files / "c01.txt",
                         "--out", out_path)
        assert code == 0
        p = parse_presentation(out_path.read_text())
        assert len(p.generators) == 1

    def test_grade_past_the_int_digit_limit_roundtrips(self, tmp_path, capsys):
        big = "1" * 5000
        path = tmp_path / "big.txt"
        path.write_text(C01.replace("relation r 1", f"relation r {big}"))
        code, out, _ = run(capsys, "present", "validate", path)
        assert code == 0 and "ok" in out
        code, _, _ = run(capsys, "present", "minimize", path, "--out",
                         tmp_path / "min.txt")
        assert code == 0
        assert f"relation r {big} :" in (tmp_path / "min.txt").read_text()
        with pytest.raises(ValueError):     # lifted for the call only
            int(big)

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a presentation\n")
        code, _, err = run(capsys, "present", "validate", bad)
        assert code == 2 and "error" in err

    def test_non_integral_coefficient_over_zp_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "half.txt"
        bad.write_text(C01.replace("zp 2", "zp 3").replace(": g 1", ": g 1/2"))
        code, _, err = run(capsys, "present", "validate", bad)
        assert code == 2 and "1/2 is not an integer" in err

    @pytest.mark.parametrize("old, new", [("generator g 0", "generator g 0 7"),
                                          ("relation r 1 :", "relation r 1 9 :")])
    def test_extra_grade_coordinate_exit_2(self, tmp_path, capsys, old, new):
        """With n 1, a second grade coordinate is refused, not dropped."""
        bad = tmp_path / "wide.txt"
        bad.write_text(C01.replace(old, new))
        code, out, err = run(capsys, "present", "validate", bad)
        assert (code, out) == (2, "") and "grade length != n" in err

    def test_generator_listed_twice_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "twice.txt"
        bad.write_text(C01.replace(": g 1", ": g 1  g 1"))
        code, _, err = run(capsys, "present", "validate", bad)
        assert code == 2 and "g listed twice" in err


class TestDistance:
    def test_interleaving(self, files, capsys):
        code, out, _ = run(capsys, "distance", "interleaving",
                           files / "c01.txt", files / "c23.txt")
        assert code == 0 and "d_I = 1/2" in out

    def test_identical(self, files, capsys):
        code, out, _ = run(capsys, "distance", "interleaving",
                           files / "c01.txt", files / "c01.txt")
        assert code == 0 and "d_I = 0" in out

    def test_decide(self, files, capsys):
        code, out, _ = run(capsys, "distance", "interleaving",
                           files / "c01.txt", files / "c23.txt", "--decide", "1/4")
        assert code == 0 and out.strip() == "no"

    def test_budget_exit_3(self, capsys, tmp_path):
        # two free generators force quadratic BA = I branching, so a zero
        # node budget must trip (pure linear elimination consumes no nodes)
        free2 = tmp_path / "free2.txt"
        free2.write_text("PRESENTATION\nn 1\nfield zp 2\n"
                         "generator a 0\ngenerator b 0\nEND\n")
        code, out, _ = run(capsys, "distance", "interleaving",
                           free2, free2, "--budget", "0")
        assert code == 3 and "budget exceeded" in out

    @pytest.mark.parametrize("p", [2, 2147483647])
    def test_largest_prime_field(self, capsys, tmp_path, p):
        """Over Z/(2^31 - 1) the solver walks the field's values one at a
        time, so the answer comes as over Z/2, within 1 GiB more address
        space."""
        text = ("PRESENTATION\nn 1\nfield zp {}\ngenerator a 0\ngenerator b {}\n"
                "relation r 1 : a 1 b 1\nEND\n")
        (tmp_path / "m.txt").write_text(text.format(p, 0))
        (tmp_path / "n.txt").write_text(text.format(p, 1))
        with address_space_limit():
            code, out, err = run(capsys, "distance", "interleaving",
                                 tmp_path / "m.txt", tmp_path / "n.txt")
        assert (code, err) == (0, "")
        assert "d_I = 1/2" in out and "solver: 1 decisions, 2 search nodes" in out

    @pytest.mark.parametrize("decide", [[], ["--decide", "1"]])
    def test_negative_budget_exit_2(self, capsys, files, decide):
        code, out, err = run(capsys, "distance", "interleaving", files / "c01.txt",
                             files / "c23.txt", *decide, "--budget", "-1")
        assert (code, out) == (2, "") and "budget must be >= 0" in err

    def test_decide_budget_exit_3(self, capsys, tmp_path):
        """Free modules of ranks 2 and 3 have no matching diagonal slice, so
        eps = 1 is decided no without the solver, even on a one-node budget.
        free2 against itself at eps = 1 branches on B A = I (5 nodes), so a
        one-node budget runs out, with the bracket from the slice bound."""
        text = "PRESENTATION\nn 2\nfield zp 2\n{}END\n"
        free2, free3 = tmp_path / "free2.txt", tmp_path / "free3.txt"
        free2.write_text(text.format("generator a 0 0\ngenerator b 0 0\n"))
        free3.write_text(text.format("generator a 0 0\ngenerator b 0 0\n"
                                     "generator c 0 0\n"))
        for budget in ("1", "20000"):
            code, out, _ = run(capsys, "distance", "interleaving", free2, free3,
                               "--decide", "1", "--budget", budget)
            assert code == 0 and out == "no\n"
        code, out, _ = run(capsys, "distance", "interleaving", free2, free2,
                           "--decide", "1", "--budget", "1")
        assert code == 3 and out == "budget exceeded; d_I in [0, inf]\n"
        code, out, _ = run(capsys, "distance", "interleaving", free2, free2,
                           "--decide", "1")
        assert code == 0 and out == "yes\n"

    def test_budget_bracket_starts_at_the_slice_bound(self, capsys, tmp_path):
        """Free modules on generators at 0, 1 and at 1, 2: the slice bound
        is 1, so the bracket's lower end is the candidate below it, not 0."""
        text = ("PRESENTATION\nn 1\nfield zp 2\n"
                "generator a {0}\ngenerator b {1}\nEND\n")
        at0, at1 = tmp_path / "at0.txt", tmp_path / "at1.txt"
        at0.write_text(text.format(0, 1))
        at1.write_text(text.format(1, 2))
        code, out, _ = run(capsys, "distance", "interleaving", at0, at1, "--budget", "0")
        assert code == 3 and out == "budget exceeded; d_I in [1/2, inf]\n"
        code, out, _ = run(capsys, "distance", "interleaving", at0, at1)
        assert code == 0 and "d_I = 1\n" in out and "solver: 1 decisions" in out

    def test_field_mismatch_exit_2(self, files, capsys, tmp_path):
        other = tmp_path / "f3.txt"
        other.write_text(C01.replace("zp 2", "zp 3"))
        code, _, err = run(capsys, "distance", "interleaving",
                           files / "c01.txt", other)
        assert code == 2 and "fields differ" in err

    def test_bottleneck(self, files, capsys, tmp_path):
        d1 = tmp_path / "d1.txt"
        d2 = tmp_path / "d2.txt"
        d1.write_text("0 1 1\n")
        d2.write_text("")
        code, out, _ = run(capsys, "distance", "bottleneck", d1, d2)
        assert code == 0 and "d_B = 1/2" in out
        code, out, _ = run(capsys, "distance", "bottleneck", d1, d1)
        assert "d_B = 0" in out

    def test_bottleneck_short_line_exit_2(self, capsys, tmp_path):
        d1 = tmp_path / "d1.txt"
        d1.write_text("0 1 1\n0 1\n")
        code, _, err = run(capsys, "distance", "bottleneck", d1, d1)
        assert code == 2
        assert err == "error: bad diagram line (birth death multiplicity): 0 1\n"


class TestDiagram:
    def test_diagram_output(self, files, capsys):
        code, out, _ = run(capsys, "diagram", files / "c01.txt")
        assert code == 0 and out == "0 1 1\n"

    def test_two_parameter_rejected(self, capsys, tmp_path):
        p2 = tmp_path / "p2.txt"
        p2.write_text("PRESENTATION\nn 2\nfield zp 2\ngenerator g 0 0\nEND\n")
        code, _, _ = run(capsys, "diagram", p2)
        assert code == 2


class TestFiltration:
    def test_rips_collinear(self, capsys, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("0\n1\n")
        out_path = tmp_path / "cx.txt"
        code, _, _ = run(capsys, "filtration", "rips", "--points", pts,
                         "--metric", "l1", "--max-dim", "1",
                         "--scale-cap", "10", "--out", out_path)
        assert code == 0
        cx = parse_complex(out_path.read_text())
        assert (((0, 1)), (F(0), F(1, 2))) in [(v, g) for v, g in cx.simplices]

    def test_empty_points(self, capsys, tmp_path):
        pts = tmp_path / "empty.csv"
        pts.write_text("")
        out_path = tmp_path / "cx.txt"
        code, _, _ = run(capsys, "filtration", "rips", "--points", pts,
                         "--out", out_path)
        assert code == 0 and out_path.read_text() == ""

    @pytest.mark.parametrize("kind", ["rips", "cech"])
    def test_negative_max_dim_exit_2(self, kind, capsys, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("0\n1\n")
        out_path = tmp_path / "cx.txt"
        code, out, err = run(capsys, "filtration", kind, "--points", pts,
                             "--max-dim", "-1", "--out", out_path)
        assert (code, out, err) == (2, "", "error: max dim must be >= 0\n")
        assert not out_path.exists()

    def test_cech_l1_exit_2(self, capsys, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("0\n1\n")
        code, _, _ = run(capsys, "filtration", "cech", "--points", pts,
                         "--metric", "l1")
        assert code == 2

    def test_negate_function_equals_manual(self, capsys, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("0\n1\n")
        fun = tmp_path / "f.csv"
        fun.write_text("1\n2\n")
        neg = tmp_path / "negf.csv"
        neg.write_text("-1\n-2\n")
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        run(capsys, "filtration", "rips", "--points", pts, "--function", fun,
            "--negate-function", "--out", out1)
        run(capsys, "filtration", "rips", "--points", pts, "--function", neg,
            "--out", out2)
        assert out1.read_text() == out2.read_text()

    def test_misaligned_exit_2(self, capsys, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("0\n1\n")
        fun = tmp_path / "f.csv"
        fun.write_text("1\n")
        code, _, _ = run(capsys, "filtration", "rips", "--points", pts,
                         "--function", fun)
        assert code == 2


class TestHomology:
    def test_grid_of_presentation(self, files, capsys):
        code, out, _ = run(capsys, "homology", "grid",
                           "--complex", files / "c01.txt",
                           "--axes=-1,0,1")
        assert code == 0
        gm = parse_grid_module(out)
        assert [gm.dims[(i,)] for i in range(3)] == [0, 1, 0]

    def test_present2d(self, capsys, tmp_path):
        cx = tmp_path / "cx.txt"
        cx.write_text("0 : 0 0\n")
        code, out, _ = run(capsys, "homology", "present2d", "--complex", cx,
                           "--degree", "0")
        assert code == 0 and "hilbert check: ok" in out

    def test_present2d_wrong_params_exit_2(self, capsys, tmp_path):
        cx = tmp_path / "cx.txt"
        cx.write_text("0 : 0\n")
        code, _, _ = run(capsys, "homology", "present2d", "--complex", cx)
        assert code == 2

    def test_image_equals_grid_slice(self, capsys, tmp_path):
        cx = tmp_path / "cx.txt"
        cx.write_text("0 : 0 0\n1 : 0 0\n0,1 : 0 1\n")
        code, out, _ = run(capsys, "homology", "image", "--complex", cx,
                           "--degree", "0", "--delta1", "2", "--delta2", "2",
                           "--axes", "0")
        assert code == 0
        img = parse_grid_module(out)
        code, out, _ = run(capsys, "homology", "grid", "--complex", cx,
                           "--degree", "0", "--axes", "0;0,2")
        full = parse_grid_module(out)
        assert img.dims[(0,)] == full.dims[(0, 1)]


    def test_image_axis_count_exit_2(self, capsys, tmp_path):
        # the slices of a 2-parameter complex have one parameter
        cx = tmp_path / "cx.txt"
        cx.write_text("0 : 0 0\n1 : 0 1\n0,1 : 1 1\n")
        code, out, err = run(capsys, "homology", "image", "--complex", cx, "--delta1",
                             "1", "--delta2", "2", "--axes", "0,1;0,1")
        assert code == 2 and "axes count" in err and out == ""

    def test_complex_default_axes(self, capsys, tmp_path):
        """Without --axes, grid takes the complex's critical axes and image
        those without the scale axis."""
        cx = tmp_path / "cx.txt"
        cx.write_text("0 : 0 0\n1 : 0 1\n0,1 : 1 1\n")
        for action, axes in (("grid", "0,1;0,1"), ("image", "0,1")):
            argv = ("homology", action, "--complex", cx, "--delta2", "1")
            code, default, _ = run(capsys, *argv)
            assert code == 0
            code, given, _ = run(capsys, *argv, "--axes", axes)
            assert code == 0 and default == given
            assert parse_grid_module(default).axes == [[F(0), F(1)]] * (
                2 if action == "grid" else 1)


class TestExportAndInfer:
    def test_export_quadsys_roundtrip(self, files, capsys, tmp_path):
        out_path = tmp_path / "sys.txt"
        code, _, _ = run(capsys, "export", "quadsys", files / "c01.txt",
                         files / "c23.txt", "--eps", "1/2", "--out", out_path)
        assert code == 0
        text = out_path.read_text()
        sys_ = parse_system(text)
        assert sys_.nvars >= 1 and "# var 1 =" in text

    def test_both_quadsys_exports_use_the_minimized_pair(self, files, capsys,
                                                         tmp_path):
        # M has a redundant generator h, eliminated by relation s
        (tmp_path / "m.txt").write_text(
            "PRESENTATION\nn 2\nfield zp 2\ngenerator g 0 0\n"
            "generator h 1 1\nrelation r 2 2 : g 1\n"
            "relation s 1 1 : g 1  h 1\nEND\n")
        (tmp_path / "n.txt").write_text(
            "PRESENTATION\nn 2\nfield zp 2\ngenerator g 0 0\n"
            "relation r 3 3 : g 1\nEND\n")
        m, n = tmp_path / "m.txt", tmp_path / "n.txt"
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        code, _, _ = run(capsys, "export", "quadsys", m, n, "--eps", "1",
                         "--out", a)
        assert code == 0
        code, out, _ = run(capsys, "distance", "interleaving", m, n,
                           "--decide", "1", "--export-quadsys", b)
        assert code == 0 and out == "yes\n"
        assert a.read_bytes() == b.read_bytes()
        code, out, _ = run(capsys, "distance", "interleaving", m, n,
                           "--export-quadsys", b)
        cands = candidate_set(parse_presentation(m.read_text()),
                              parse_presentation(n.read_text()))
        assert code == 0 and f"candidates = {len(cands)}\n" in out
        run(capsys, "present", "minimize", m, "--out", tmp_path / "mm.txt")
        code, _, _ = run(capsys, "export", "quadsys", tmp_path / "mm.txt", n,
                         "--eps", "1", "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_negative_eps_refused_before_any_export(self, files, capsys, tmp_path):
        m, n, out_path = files / "c01.txt", files / "c23.txt", tmp_path / "sys.txt"
        for argv in (("export", "quadsys", m, n, "--eps", "-1"),
                     ("export", "quadsys", m, n, "--eps", "-1", "--out", out_path),
                     ("distance", "interleaving", m, n, "--export-quadsys", out_path,
                      "--decide", "-1")):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", "error: eps must be >= 0\n")
            assert not out_path.exists()

    @pytest.mark.parametrize("target", ["missing/out.txt", "folder"])
    @pytest.mark.parametrize("argv", [("present", "minimize", "c01.txt", "--out"),
                                      ("distance", "interleaving", "c01.txt",
                                       "c23.txt", "--export-quadsys")],
                             ids=["minimize-out", "export-quadsys"])
    def test_unwritable_output_exit_2(self, files, capsys, argv, target):
        """An output path in a missing directory, or naming a directory,
        exits 2 with `cannot write`, as an unreadable input exits 2 with
        `cannot read`; nothing is printed."""
        (files / "folder").mkdir()
        path = files / target
        code, out, err = run(capsys, *[files / a if a.endswith(".txt") else a
                                       for a in argv], path)
        assert (code, out) == (2, "") and err.startswith(f"error: cannot write {path}: ")

    def test_infer_run(self, capsys, tmp_path):
        out_path = tmp_path / "rec.json"
        code, _, _ = run(capsys, "infer", "run", "--density", "1,0,1/2",
                         "--samples", "5,10", "--trials", "1", "--seed", "3",
                         "--bandwidth", "1/4", "--grid", "9",
                         "--out", out_path)
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["samples"] == [5, 10]

    def test_infer_bad_spec_exit_2(self, capsys):
        code, _, _ = run(capsys, "infer", "run", "--density", "2,0,1",
                         "--samples", "5")
        assert code == 2

    @pytest.mark.parametrize("grid", ["1", "0"])
    def test_infer_grid_too_small_exit_2(self, capsys, grid):
        code, _, err = run(capsys, "infer", "run", "--density", "1,0,1/2",
                           "--samples", "5", "--grid", grid)
        assert code == 2 and "at least 2 points" in err

    def test_infer_unsorted_samples_exit_2(self, capsys):
        code, _, _ = run(capsys, "infer", "run", "--density", "1,0,1",
                         "--samples", "10,5")
        assert code == 2

    def test_infer_repeated_sample_size_exit_2(self, capsys, tmp_path):
        out_path = tmp_path / "rec.json"
        code, _, err = run(capsys, "infer", "run", "--density", "1,0,1/2",
                           "--samples", "5,5", "--trials", "1", "--out", out_path)
        assert code == 2 and "5 after 5" in err and not out_path.exists()

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_infer_no_trials_exit_2(self, capsys, trials):
        code, _, err = run(capsys, "infer", "run", "--density", "1,0,1/2",
                           "--samples", "5", "--trials", trials)
        assert code == 2 and "trials must be at least 1" in err
        assert "median" not in err

    @pytest.mark.parametrize("bandwidth, want", [("1e-200", 0), ("1e400", 2)])
    def test_infer_extreme_bandwidth(self, capsys, tmp_path, bandwidth, want):
        # 1e-200 once overflowed the kernel argument's int division, and
        # 1e400 float(h); now an answer, or an error that names h
        out_path = tmp_path / "rec.json"
        code, _, err = run(capsys, "infer", "run", "--density", "1/2,-1,1/4;1/2,1,1/4",
                           "--samples", "20", "--seed", "1", "--bandwidth", bandwidth,
                           "--out", out_path)
        assert code == want and out_path.exists() == (want == 0)
        assert err == "" if want == 0 else err.startswith(f"error: bandwidth 1{'0' * 400}: ")

    def test_infer_negative_seed_exit_2(self, capsys, tmp_path):
        out_path = tmp_path / "rec.json"
        code, _, err = run(capsys, "infer", "run", "--density", "1,0,1/2",
                           "--samples", "5", "--seed", "-1", "--out", out_path)
        assert code == 2 and "seed -1 derives seeds outside" in err
        assert "key must be" not in err and not out_path.exists()


# a keyword line cut short, per text format: the parser, the error it
# raises (ValueError: parse_field's), and the text
SHORT_LINES = {
    "n": (parse_presentation, PresentationError, "PRESENTATION\nn\nfield zp 2\nEND\n"),
    "field": (parse_presentation, ValueError, "PRESENTATION\nn 1\nfield\nEND\n"),
    "field-zp": (parse_presentation, ValueError, "PRESENTATION\nn 1\nfield zp\nEND\n"),
    "generator": (parse_presentation, PresentationError,
                  "PRESENTATION\nn 1\nfield zp 2\ngenerator\nEND\n"),
    "quadsys-field": (parse_system, ValueError, "QUADSYS\nfield\nvars 1\nEND\n"),
    "quadsys-vars": (parse_system, QuadSysError, "QUADSYS\nfield zp 2\nvars\nEND\n"),
    "grid-axes": (parse_grid_module, HomologyError, "GRIDMODULE\nfield zp 2\naxes\nEND\n"),
    "grid-trans": (parse_grid_module, HomologyError,
                   "GRIDMODULE\nfield zp 2\naxes 1\naxis 0 : 0\ndim 0 = 1\n"
                   "trans 0 axis\nEND\n"),
    "complex-grade": (parse_complex, FiltrationError, "0 : \n"),
    "relation-name": (parse_presentation, PresentationError,
                      "PRESENTATION\nn 1\nfield zp 2\ngenerator g 0\nrelation :\nEND\n"),
    "grid-dim": (parse_grid_module, HomologyError,
                 "GRIDMODULE\nfield zp 2\naxes 1\naxis 0 : 0\ndim 0 1\nEND\n"),
}

# a keyword line given twice, or an axis line off the axes, per text format:
# the parser, its error, the text and the line that spoils it.  Each used to
# be read silently, the last line winning: a second field line turned the
# Z/3 relation g 2 into an empty one over Z/2, and 2x + 1 = 0 into 1 = 0.
PRES = "PRESENTATION\nn 1\nfield zp 3\ngenerator g 0\nrelation r 1 : g 2\n{}END\n"
QUAD = "QUADSYS\nfield zp 3\nvars 1\neq: 2 1 0  1 0 0\n{}END\n"
GRID = ("GRIDMODULE\nfield zp 2\naxes 1\naxis 0 : 0 1\ndim 0 = 1\ndim 1 = 1\n"
        "trans 0 axis 0 : 1\n{}END\n")
SECOND_LINES = {
    "n": (parse_presentation, PresentationError, PRES, "n 1\n"),
    "field": (parse_presentation, PresentationError, PRES, "field zp 2\n"),
    "quadsys-field": (parse_system, QuadSysError, QUAD, "field zp 2\n"),
    "quadsys-vars": (parse_system, QuadSysError, QUAD, "vars 2\n"),
    "grid-field": (parse_grid_module, HomologyError, GRID, "field zp 3\n"),
    "grid-axes": (parse_grid_module, HomologyError, GRID, "axes 1\n"),
    "grid-axis": (parse_grid_module, HomologyError, GRID, "axis 0 : 0 2\n"),
    "grid-axis-off": (parse_grid_module, HomologyError, GRID, "axis 3 : 0 1\n"),
    "grid-dim": (parse_grid_module, HomologyError, GRID, "dim 0 = 0\n"),
    "grid-trans": (parse_grid_module, HomologyError, GRID, "trans 0 axis 0 : 0\n"),
}

class TestErrorBoundary:
    @pytest.mark.parametrize("case", SHORT_LINES)
    def test_short_keyword_line_exit_2(self, case, capsys, tmp_path, monkeypatch):
        """Each parser refuses the line with its format's error, and the
        command line exits 2 on it.  No verb reads a system or a grid
        module, so `present validate` reads those with their parser."""
        parse, error, text = SHORT_LINES[case]
        with pytest.raises(error):
            parse(text)
        path = tmp_path / "short.txt"
        path.write_text(text)
        if parse is parse_complex:
            argv = ["homology", "grid", "--complex", path]
        else:
            monkeypatch.setattr("permod.cli.parse_presentation", parse)
            argv = ["present", "validate", path]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("case, line", [("relation-name", "relation :"),
                                            ("grid-dim", "dim 0 1")])
    def test_short_line_is_named(self, case, line):
        parse, error, text = SHORT_LINES[case]
        with pytest.raises(error, match=line):
            parse(text)

    @pytest.mark.parametrize("argv, message", [
        (["distance", "interleaving", "c01.txt", "p2.txt"], "parameter counts differ"),
        (["export", "quadsys", "c01.txt", "p2.txt"], "parameter counts differ"),
        (["diagram", "p2.txt"], "diagram requires a 1-parameter module"),
        (["filtration", "rips", "--points", "pts.csv", "--function", "f.csv"],
         "function rows do not match points"),
    ], ids=["distance", "export", "diagram", "filtration"])
    def test_library_refusals_exit_2(self, files, capsys, argv, message):
        """The command line leaves these checks to the library, which makes
        them once, where the inputs meet."""
        (files / "p2.txt").write_text("PRESENTATION\nn 2\nfield zp 2\ngenerator g 0 0\nEND\n")
        (files / "pts.csv").write_text("0\n1\n")
        (files / "f.csv").write_text("0\n")
        code, out, err = run(capsys, *[files / a if "." in a else a for a in argv])
        assert (code, out) == (2, "") and err == f"error: {message}\n"

    @pytest.mark.parametrize("case", SECOND_LINES)
    def test_second_keyword_line_refused(self, case):
        parse, error, text, line = SECOND_LINES[case]
        parse(text.format(""))
        with pytest.raises(error, match="second|axis lines"):
            parse(text.format(line))

    @pytest.mark.parametrize("argv", [
        ["--budget", "5", "distance", "interleaving", "c01.txt", "c23.txt"],
        ["--seed", "9", "infer", "run", "--density", "1,0,1/2", "--samples", "5"],
    ], ids=["budget", "seed"])
    def test_top_level_budget_and_seed_are_usage_errors(self, files, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([str(files / a) if a.endswith(".txt") else a for a in argv])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: permod")

    def test_unexpected_exception_exit_4_one_line(self, files, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr("permod.cli.cmd_diagram", broken)
        code, out, err = run(capsys, "diagram", files / "c01.txt")
        assert code == 4 and out == ""
        assert err == "internal error: RuntimeError: boom second line\n"


# One valid text per format, the argv that reads it ({file}: the text,
# {pts}: a two-point cloud), a line cut short and a bad rational as
# (old, new) replacements, and for a format no verb reads (systems, grid
# modules) its parser and printer, run in `diagram`'s place under the same
# error boundary.
FORMATS = {
    "presentation": (C01, ["present", "validate", "{file}"], ("relation r 1 : g 1", "relation :"),
                     ("generator g 0", "generator g 1/0"), None),
    "presentation-grid": (C01, ["homology", "grid", "--complex", "{file}"],
                          ("relation r 1 : g 1", "relation :"),
                          ("generator g 0", "generator g 1/0"), None),
    "quadsys": (QUAD.format(""), ["diagram", "{file}"], ("vars 1", "vars"),
                ("eq: 2", "eq: 1/0"), (parse_system, export_system)),
    "gridmodule": (GRID.format(""), ["diagram", "{file}"], ("dim 1 = 1", "dim 1 1"),
                   ("axis 0 : 0 1", "axis 0 : 0 1/0"),
                   (parse_grid_module, lambda gm: gm.to_text())),
    "complex": ("0 : 0 0\n1 : 0 1\n0,1 : 1 1\n", ["homology", "grid", "--complex", "{file}"],
                ("0,1 : 1 1", "0,1 :"), ("1 : 0 1", "1 : 0 1/0"), None),
    "diagram": ("0 1 1\n0 inf 1\n", ["distance", "bottleneck", "{file}", "{file}"],
                ("0 1 1", "0 1"), ("0 1 1", "0 1/0 1"), None),
    "points": ("0,0\n3,0\n", ["filtration", "rips", "--points", "{file}", "--metric", "l1"],
               ("3,0", "3"), ("3,0", "3,1/0"), None),
    "values": ("0,0\n1,1\n", ["filtration", "rips", "--points", "{pts}", "--function", "{file}",
                              "--metric", "l1"], ("1,1", "1"), ("1,1", "1,1/0"), None),
}


def variants(text, short, bad):
    """The text with comment and blank lines, with a trailing comment on
    every line, cut short, with a bad rational and, if it has a frame,
    without its header and without its END."""
    lines = text.splitlines()
    out = {"commented": "# first\n\n" + "\n\n  # between\n".join(lines) + "\n# last\n",
           "trailing": "".join(ln + "  # note\n" for ln in lines),
           "short": text.replace(*short), "bad-rational": text.replace(*bad)}
    if lines[-1] == "END":
        out["no-header"], out["no-END"] = "\n".join(lines[1:]), "\n".join(lines[:-1])
    return out


FORMAT_CASES = [(name, v) for name, (text, _, short, bad, _) in FORMATS.items()
                for v in variants(text, short, bad)]


@pytest.mark.parametrize("name, variant", FORMAT_CASES,
                         ids=[f"{name}-{v}" for name, v in FORMAT_CASES])
def test_text_formats_share_one_line_rule(name, variant, capsys, tmp_path, monkeypatch):
    """Comments (whole-line or trailing, on any line) and blank lines change
    no answer; a missing frame line, a short line or a bad rational exits 2
    with one `error:` line, never 4."""
    text, argv, short, bad, echo = FORMATS[name]
    if echo:
        parse, show = echo
        monkeypatch.setattr("permod.cli.cmd_diagram",
                            lambda args: print(show(parse(Path(args.file).read_text())), end="") or 0)
    (tmp_path / "pts.csv").write_text("0,0\n3,0\n")

    def outcome(body):
        (tmp_path / "in.txt").write_text(body)
        return run(capsys, *[a.format(file=tmp_path / "in.txt", pts=tmp_path / "pts.csv")
                             for a in argv])

    plain = outcome(text)
    assert plain[0] == 0
    code, out, err = outcome(variants(text, short, bad)[variant])
    if variant in ("commented", "trailing"):
        assert (code, out, err) == plain
    else:
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
