import json
import math
from pathlib import Path

import pytest

from sturmosc import profiles
from sturmosc.cli import _CRITERIA, main
from sturmosc.criteria import _CONCLUSIONS
from conftest import EMITTED_NAMES

BASE_CONFIG = """\
[profile:K1]
kind = constant
c = 1.0

[profile:v_sq]
kind = power
c = 1.0
p = 2.0

[profile:W_euler]
kind = power
c = 0.3
p = -2.0

[curvature:unit]
k = K1
b_const = 1.0
m = 2

[pair:euler]
v = v_sq
w = W_euler
b_const = 0.0
t_start = 1.0

[model:sphere]
kind = space_form
m = 2
kappa = 1.0

[solve]
problem = jacobi
curvature = unit
horizon = 4.0

[check]
criteria = main_b2 myers_galloway moore_liminf
curvature = unit
pair = euler
a = 1.0
b = 3.5
lambda = 0.0
c = 1.0
m = 2
r_start = 1.0
c_thresh = 0.26

[sweep]
vary = profile:W_euler.c
values = 0.1 0.2 0.3 0.4 0.5
criteria = moore_liminf oscillation
pair = euler
r_start = 1.0
c_thresh = 0.251
count_zeros = true
count_horizon = 1e4

[spectral]
pair = euler
a = 1.0
b = 3.0
radii = 1 10 100
horizon = 1e3

[geometry]
model = sphere
r_start = 0.1
r_stop = 3.0
n = 12
"""

# v = 1, W = 1/(t-2)^2 on [1, inf): a pole at t = 2 that stops the solver
POLE_PAIR_CONFIG = (
    "[profile:one]\nkind = constant\nc = 1.0\n"
    "[profile:t]\nkind = power\nc = 1.0\np = 1.0\n"
    "[profile:m2]\nkind = constant\nc = -2.0\n"
    "[profile:tm2]\nkind = sum\nterms = t m2\n"
    "[profile:sq]\nkind = product\nfactors = tm2 tm2\n"
    "[profile:W]\nkind = reciprocal\nof = sq\n"
    "[pair:p]\nv = one\nw = W\nt_start = 1.0\nvalidate = false\n")

# one constant profile "a" plus a curvature check on profile "K", or a
# solve on "a"; each parse case below gives one field a malformed value
_HEAD = "[profile:a]\nkind = constant\nc = 1.0\n"
_CHECK = "[curvature:k]\nk = K\n{m}[check]\ncriteria = calabi\ncurvature = k\n"
_K_ONE = "[profile:K]\nkind = constant\nc = 1.0\n"
_SOLVE = "[curvature:u]\nk = a\n[solve]\nproblem = jacobi\ncurvature = u\n"
_SF = "[model:sf]\nm = 2\nkappa = 1.0\n"
_SPECTRAL = ("[pair:p]\nv = a\nw = a\nt_start = 1.0\n"
             "[spectral]\npair = p\na = 1\nb = 2\nradii = 3\n")
PARSE_ERRORS = [
    ("check", _HEAD + "[profile:K]\nkind = constant\nc = x\n" + _CHECK.format(m=""),
     "[profile:K] field 'c': 'x' is not a finite number"),
    ("check", _HEAD + _K_ONE + _CHECK.format(m="m = 2.5\n"),
     "[curvature:k] field 'm': '2.5' is not an integer"),
    ("sweep", _HEAD + _K_ONE + _CHECK.format(m="")
     + "[sweep]\nvary = profile:a.c\nvalues = 1 two\ncriteria = calabi\ncurvature = k\n",
     "[sweep] field 'values': '1 two' is not a finite number list"),
    ("check", _HEAD + "[profile:K]\nkind = product\nfactors = a\n" + _CHECK.format(m=""),
     "[profile:K] needs >= 2 factors"),
    ("check", _HEAD + "[profile:K]\nkind = sum\nterms = a\n" + _CHECK.format(m=""),
     "[profile:K] needs >= 2 terms"),
    ("check", _HEAD + "[profile:K]\nkind = bogus\n" + _CHECK.format(m=""),
     "[profile:K] unknown kind 'bogus'"),
    ("sweep", _HEAD + _K_ONE + _CHECK.format(m="")
     + "[sweep]\nvary = profile:a.c\nvalues = 1 inf\ncriteria = calabi\ncurvature = k\n",
     "[sweep] field 'values': '1 inf' is not a finite number list"),
    ("solve", _HEAD + _SOLVE + "horizon = nan\n",
     "[solve] field 'horizon': 'nan' is not a finite number"),
    ("solve", _HEAD + _SOLVE + "horizon = inf\n",
     "[solve] field 'horizon': 'inf' is not a finite number"),
    ("solve", _HEAD + _SOLVE + "horizon = 4\ntol = nan\n",
     "[solve] field 'tol': 'nan' is not a finite number"),
    ("solve", _HEAD + _SOLVE + "horizon = 4\ntol = -1\n",
     "[solve] field 'tol': -1.0 is not positive"),
    ("check", _HEAD + _K_ONE + _CHECK.format(m="") + "horizon = -3\n",
     "[check] field 'horizon': -3.0 is not positive"),
    ("spectral", _HEAD + _SPECTRAL + "horizon = -3\n",
     "[spectral] field 'horizon': -3.0 is not positive"),
    ("sweep", _HEAD + _K_ONE + _CHECK.format(m="")
     + "[sweep]\nvary = profile:a.c\nvalues = 1\ncriteria = calabi\ncurvature = k\n"
     + "count_horizon = 0\n",
     "[sweep] field 'count_horizon': 0.0 is not positive"),
    ("spectral", _HEAD + _SPECTRAL + "horizon = 10\nz0 = 5\nhorizn = 10\n",
     "unknown keys: [spectral] horizn, [spectral] z0"),
    ("check", _HEAD + "[profile:K]\nkind = constant\nc = 1.0\np = 2\n"
     + _CHECK.format(m=""),
     "unknown keys: [profile:K] p"),
    ("sweep", _HEAD + _K_ONE + _CHECK.format(m="")
     + "[sweep]\nvary = profile:K.c\nvalues = 1 2\ncriteria = nehari\ncurvature = k\n"
     + "to = 1.0\n",
     "[sweep] is missing required field 't0'"),
    ("check", _HEAD + _K_ONE + _CHECK.format(m="").replace("calabi", "calabii"),
     "unknown criterion 'calabii'"),
    ("check", _SF + _CHECK.format(m="").replace("k = K", "k = model:sf.v"),
     "model reference 'model:sf.v' must end in .k"),
    ("check", _SF + _CHECK.format(m="").replace("k = K", "k = model:sf"),
     "model reference 'model:sf' must end in .k"),
    ("check", "[model:sf]\nkind = warped\nwarping = x\nm = 2\n"
     + _CHECK.format(m="").replace("k = K", "k = model:sf.k"),
     "unknown warping kind 'x'"),
    ("sweep", "[profile:v]\nkind = power\nc = 1.0\np = 2.0\n"
     "[profile:w]\nkind = power\nc = 0.3\np = -2.0\n" + _HEAD.replace(":a]", ":unused]")
     + "[pair:p]\nv = v\nw = w\nt_start = 1.0\n"
     "[sweep]\nvary = profile:unused.c\nvalues = 0.1 0.5 2\ncriteria = oscillation\n"
     "pair = p\n",
     "[sweep] vary target 'profile:unused.c' is in a section that the sweep never opens"),
]

# v = t^2, W = 0.3/t^2 on [1, inf) under the five pair criteria of the
# benchmark's Moore checks
_MOORE_PAIR = ("[profile:v]\nkind = power\nc = 1.0\np = 2.0\n"
               "[profile:w]\nkind = power\nc = 0.3\np = -2.0\n"
               "[pair:p]\nv = v\nw = w\nt_start = 1.0\n")
_PAIR_CRITERIA = ("criteria = first_zero oscillation moore_liminf bmr lambda1_negative\n"
                  "pair = p\na = 1\nb = 3\nc_thresh = 0.26\n")


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_CONFIG)
    return path


class TestSolve:
    def test_trajectory_with_zero_marker(self, config, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
        text = (out / "trajectory.tsv").read_text()
        zero_lines = [l for l in text.splitlines() if l.startswith("# zero ")]
        assert len(zero_lines) == 1
        lo, hi = map(float, zero_lines[0].split()[2:])
        assert lo < math.pi < hi
        data_rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert all(len(r.split("\t")) == 3 for r in data_rows)

    def test_radial_solve(self, config, tmp_path):
        override = config.read_text().replace(
            "problem = jacobi", "problem = radial").replace(
            "curvature = unit\nhorizon = 4.0", "pair = euler\nhorizon = 10.0")
        cfg2 = tmp_path / "exp2.ini"
        cfg2.write_text(override)
        out = tmp_path / "out2"
        assert main(["solve", "--config", str(cfg2), "--out", str(out)]) == 0
        assert (out / "trajectory.tsv").exists()


class TestCheck:
    def test_verdict_json(self, config, tmp_path):
        out = tmp_path / "out"
        assert main(["check", "--config", str(config), "--out", str(out)]) == 0
        payload = json.loads((out / "verdicts.json").read_text())
        verdicts = {v["criterion"]: v for v in payload["verdicts"]}
        assert verdicts["main_b2"]["status"] == "satisfied"
        assert verdicts["main_b2"]["witness"]["b"] == 3.5
        assert verdicts["myers_galloway"]["witness"][
            "diameter_bound"] == pytest.approx(math.pi, rel=1e-10)
        assert verdicts["moore_liminf"]["status"] == "satisfied"
        assert payload["config"].startswith("[profile:K1]")


    def test_main_b2_search_with_large_b_const(self, tmp_path):
        # 2 B a reaches 800 on the default grid, past where exp overflows
        cfg = tmp_path / "b2.ini"
        cfg.write_text("[profile:K]\nkind = constant\nc = -1e4\n"
                       "[curvature:k]\nk = K\nb_const = 100\n"
                       "[check]\ncriteria = main_b2_search\ncurvature = k\n")
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 0
        verdict = json.loads((out / "verdicts.json").read_text())["verdicts"][0]
        assert verdict["status"] == "violated"

    def test_first_zero_with_underflowing_b_const(self, tmp_path):
        # B = 1e-300: 2 B * (tail of 1/v) underflows, the threshold is b
        cfg = tmp_path / "tiny.ini"
        cfg.write_text("[profile:v]\nkind = power\nc = 1.0\np = 2.0\n"
                       "[profile:w]\nkind = constant\nc = 0.0\n"
                       "[pair:p]\nv = v\nw = w\nb_const = 1e-300\nt_start = 1.0\n"
                       "[check]\ncriteria = first_zero\npair = p\na = 1\nb = 1e30\n")
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        verdict = json.loads((tmp_path / "verdicts.json").read_text())["verdicts"][0]
        assert verdict["status"] == "inconclusive"
        assert verdict["witness"]["rhs"] == 1e30

    def test_bmr_witness_past_the_float_range(self, tmp_path):
        # v = e^{t/4} overflows on the way to the default horizon 1e4: the
        # witness is nan, the status still comes from the tails
        cfg = tmp_path / "bmr.ini"
        cfg.write_text("[profile:v]\nkind = exponential\nc = 1.0\nrate = 0.25\n"
                       "[profile:w]\nkind = constant\nc = 1.0\n"
                       "[pair:p]\nv = v\nw = w\nt_start = 0.1\n"
                       "[check]\ncriteria = bmr\npair = p\n")
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        verdict = json.loads((tmp_path / "verdicts.json").read_text())["verdicts"][0]
        assert verdict["status"] == "satisfied"
        assert verdict["witness"]["cumulative_last"] == "nan"

    def test_nehari_certifies_the_total_of_a_sum(self, tmp_path):
        # K = t^-2 + t^-3 integrates term by term: the moment over (1, inf)
        # is 1.5, and the partial moment to 1e4 already beats the threshold 1
        cfg = tmp_path / "nehari.ini"
        cfg.write_text("[profile:p2]\nkind = power\nc = 1.0\np = -2.0\n"
                       "[profile:p3]\nkind = power\nc = 1.0\np = -3.0\n"
                       "[profile:K]\nkind = sum\nterms = p2 p3\n"
                       "[curvature:k]\nk = K\n"
                       "[check]\ncriteria = nehari\ncurvature = k\nt0 = 1.0\nlambda = 0\n")
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        verdict = json.loads((tmp_path / "verdicts.json").read_text())["verdicts"][0]
        assert verdict["status"] == "satisfied"
        assert verdict["witness"]["certified_total"] == pytest.approx(1.5, rel=1e-10)

    def test_yamabe_reads_no_pair(self, tmp_path):
        cfg = tmp_path / "yamabe.ini"
        cfg.write_text("[profile:s]\nkind = constant\nc = -1.0\n"
                       "[profile:v]\nkind = power\nc = 1.0\np = 2.0\n"
                       "[check]\ncriteria = yamabe\ns_mean = s\nv = v\nm = 3\n"
                       "a = 1\nb = 3\n")
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        verdict = json.loads((tmp_path / "verdicts.json").read_text())["verdicts"][0]
        assert verdict["criterion"] == "yamabe"

    @pytest.mark.parametrize("command,section,builds", [
        ("check", "[check]\n", ["p"]),
        ("sweep", "[sweep]\nvary = profile:w.c\nvalues = 0.2 0.3 0.4\n", ["p"] * 3),
    ], ids=["check", "sweep"])
    def test_pair_built_once_per_run(self, tmp_path, monkeypatch, command, section,
                                     builds):
        # every criterion of a run (a sweep row) shares the pair it names
        built, post_init = [], profiles.CoefficientPair.__post_init__

        def counting(pair):
            built.append(pair.label)
            post_init(pair)

        monkeypatch.setattr(profiles.CoefficientPair, "__post_init__", counting)
        cfg = tmp_path / "pair.ini"
        cfg.write_text(_MOORE_PAIR + section + _PAIR_CRITERIA)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert built == builds


class TestSweep:
    def test_threshold_flip_in_csv(self, config, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        rows = [l for l in (out / "sweep.csv").read_text().splitlines()
                if l and not l.startswith("#")]
        header = rows[0].split(",")
        assert header == ["value", "moore_liminf", "oscillation", "zeros"]
        table = {r.split(",")[0]: r.split(",") for r in rows[1:]}
        assert table["0.2"][1] == "inconclusive"
        assert table["0.3"][1] == "satisfied"

    def test_breakdown_count_is_error(self, tmp_path):
        # the count solve stops at the pole t = 2, short of count_horizon
        cfg = tmp_path / "pole.ini"
        cfg.write_text(POLE_PAIR_CONFIG +
                       "[sweep]\nvary = profile:one.c\nvalues = 1 2\n"
                       "criteria = first_zero\npair = p\na = 1.2\nb = 1.8\n"
                       "count_zeros = true\ncount_horizon = 5\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [l.split(",") for l in (out / "sweep.csv").read_text().splitlines()
                if l and not l.startswith("#")]
        assert rows[0][-1] == "zeros"
        assert [r[-1] for r in rows[1:]] == ["error", "error"]


class TestSpectral:
    def test_report_files(self, config, tmp_path):
        out = tmp_path / "out"
        assert main(["spectral", "--config", str(config), "--out", str(out)]) == 0
        payload = json.loads((out / "spectral.json").read_text())
        assert payload["report"]["lambda1_sign"] in ("certified_negative",
                                                     "unknown")
        assert (out / "rayleigh.tsv").exists()


class TestGeometry:
    def test_profile_table(self, config, tmp_path):
        out = tmp_path / "out"
        assert main(["geometry", "--config", str(config), "--out", str(out)]) == 0
        rows = [l for l in (out / "profiles.tsv").read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 12
        r, k, v = map(float, rows[0].split("\t"))
        assert r == pytest.approx(0.1)
        assert k == pytest.approx(1.0)
        assert v == pytest.approx(2 * math.pi * math.sin(0.1), rel=1e-10)


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, config, tmp_path):
        schedule = ["check", "sweep", "spectral"]
        outs = [tmp_path / "run1", tmp_path / "run2"]
        for out in outs:
            for cmd in schedule:
                assert main([cmd, "--config", str(config),
                             "--out", str(out)]) == 0
        for name in ("verdicts.json", "sweep.csv", "spectral.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestExitCodes:
    def test_missing_config(self, tmp_path):
        assert main(["check", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path)]) == 1

    def test_missing_field(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[check]\ncriteria = main_b2\n")
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_unresolved_profile(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[pair:p]\nv = ghost\nw = ghost\n"
                       "[check]\ncriteria = first_zero\npair = p\na = 1\nb = 2\n")
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_hypothesis_violation_exit_code(self, tmp_path):
        cfg = tmp_path / "hyp.ini"
        cfg.write_text(
            "[profile:Kneg]\nkind = constant\nc = -1.0\n"
            "[curvature:neg]\nk = Kneg\nb_const = 1.0\nm = 2\n"
            "[check]\ncriteria = nehari\ncurvature = neg\nt0 = 1.0\nlambda = 0\n")
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 3

    def test_negative_stretch_of_a_growing_curvature_exit_code(self, tmp_path, capsys):
        # K = e^t - 2 >= -B^2 = -4 holds although e^1000 overflows, and
        # K >= 0 fails at t0 = 1e-3
        cfg = tmp_path / "hyp.ini"
        cfg.write_text(
            "[profile:e]\nkind = exponential\nc = 1.0\nrate = 1.0\n"
            "[profile:m2]\nkind = constant\nc = -2.0\n"
            "[profile:K]\nkind = sum\nterms = e m2\n"
            "[curvature:k]\nk = K\nb_const = 2.0\nm = 2\n"
            "[check]\ncriteria = nehari\ncurvature = k\nt0 = 0.001\nlambda = 0\n"
            "horizon = 30\n")
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            "hypothesis violated: K >= 0 fails on samples (min -0.998999)\n")

    def test_numerical_failure_exit_code(self, tmp_path):
        # singular-origin pair with no bounded branch: Picard start blows up
        cfg = tmp_path / "num.ini"
        cfg.write_text(
            "[profile:v_sq]\nkind = power\nc = 1.0\np = 2.0\n"
            "[profile:W]\nkind = power\nc = 0.3\np = -2.0\n"
            "[pair:p]\nv = v_sq\nw = W\nb_const = 0.0\n"
            "[solve]\nproblem = radial\npair = p\nhorizon = 10.0\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_undecided_integrability_exit_code(self, config, tmp_path, capsys):
        # the cubic warping with alpha = 0 declares no volume tail, so the
        # integrability of 1/v is undecided: missing information, exit 2
        cfg = tmp_path / "cone.ini"
        cfg.write_text(config.read_text().replace("[model:sphere]", (
            "[model:cone]\nkind = warped\nwarping = cubic\nalpha = 0.0\nm = 2\n"
            "[pair:cone]\nv = model:cone.v\nw = W_euler\nt_start = 1.0\n"
            "[model:sphere]")).replace("pair = euler\na = 1.0", "pair = cone\na = 1.0"))
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "numerical failure: the liminf test needs the integrability of 1/v at +inf\n")

    def test_solver_breakdown_exit_code(self, tmp_path):
        # v = 1, W = 1/(t-2)^2 has a pole at t = 2 inside the horizon
        cfg = tmp_path / "pole.ini"
        cfg.write_text(POLE_PAIR_CONFIG +
                       "[solve]\nproblem = radial\npair = p\nhorizon = 5.0\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        last = (tmp_path / "trajectory.tsv").read_text().splitlines()[-1]
        assert last.startswith("# terminated step_underflow at ")
        assert float(last.split()[-1]) == pytest.approx(2.0, abs=1e-6)

    def test_spectral_breakdown_exit_code(self, tmp_path):
        # the report is written, then the breakdown at the pole exits 2
        cfg = tmp_path / "pole.ini"
        cfg.write_text(POLE_PAIR_CONFIG +
                       "[spectral]\npair = p\na = 1.2\nb = 1.8\nradii = 3\n"
                       "horizon = 5\n")
        assert main(["spectral", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        report = json.loads((tmp_path / "spectral.json").read_text())["report"]
        assert "solver broke down at t = " in report["notes"]
        assert (tmp_path / "rayleigh.tsv").exists()

    @pytest.mark.parametrize("command,text,message", PARSE_ERRORS,
                             ids=["c", "m", "values", "factors", "terms", "kind",
                                  "values_inf", "horizon_nan", "horizon_inf",
                                  "tol_nan", "tol_negative", "horizon_negative",
                                  "spectral_horizon_negative", "count_horizon_zero",
                                  "unknown_spectral_keys", "unknown_profile_key",
                                  "sweep_misspelt_required_key", "unknown_criterion",
                                  "curvature_model_v", "curvature_model_bare",
                                  "unknown_warping", "sweep_vary_unopened_section"])
    def test_malformed_field_message(self, tmp_path, capsys, command, text, message):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_non_finite_flag(self, config, tmp_path, capsys):
        assert main(["solve", "--config", str(config), "--out", str(tmp_path),
                     "--horizon", "inf"]) == 1
        assert capsys.readouterr().err == (
            "configuration error: --horizon inf is not a finite number\n")

    @pytest.mark.parametrize("argv,message", [
        (["solve", "--tol", "-1", "--horizon", "4"], "--tol -1.0 is not positive"),
        (["check", "--horizon", "-3"], "--horizon -3.0 is not positive"),
        (["spectral", "--horizon", "-3"], "--horizon -3.0 is not positive"),
    ], ids=["solve_tol", "check_horizon", "spectral_horizon"])
    def test_non_positive_flag(self, config, tmp_path, capsys, argv, message):
        assert main(argv + ["--config", str(config), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    @pytest.mark.parametrize("command", ["solve", "spectral", "check", "sweep"])
    def test_tol_below_the_solver_floor(self, config, tmp_path, capsys, command):
        # scipy's solvers would clamp rtol to 100 eps with a UserWarning, and
        # no float quadrature sum meets a smaller tol; a sweep refuses it
        # before its first row, with or without count_zeros
        what = "quadrature" if command in ("check", "sweep") else "solver"
        assert main([command, "--config", str(config), "--out", str(tmp_path),
                     "--tol", "1e-20"]) == 1
        assert capsys.readouterr().err == (
            f"configuration error: {what} tol must be at least 2.22e-14\n")

    def test_flag_leaves_its_key_unparsed(self, tmp_path):
        # --horizon and --tol win over malformed keys, which count as read
        cfg = tmp_path / "flag.ini"
        cfg.write_text(_HEAD + _SOLVE + "horizon = nan\ntol = -1\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path),
                     "--horizon", "4", "--tol", "1e-8"]) == 0

    def test_unknown_keys_only_in_opened_sections(self, tmp_path, capsys):
        # a misspelt [check] key does not stop a solve, which never opens [check]
        cfg = tmp_path / "typo.ini"
        cfg.write_text(BASE_CONFIG.replace("c_thresh = 0.26", "c_thresh = 0.26\nlamda = 1"))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err == (
            "configuration error: unknown keys: [check] lamda\n")
        assert not (tmp_path / "c" / "verdicts.json").exists()

    def test_default_section_keys_are_not_unknown(self, tmp_path):
        # [DEFAULT]'s m reaches every section; only [curvature:k] reads it
        cfg = tmp_path / "default.ini"
        cfg.write_text("[DEFAULT]\nm = 2\n[profile:K]\nkind = constant\nc = 1.0\n"
                       "[curvature:k]\nk = K\n[check]\ncriteria = calabi\ncurvature = k\n")
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    def test_sweep_without_a_clean_row_reports_no_unread_keys(self, tmp_path):
        # sqrt of a negative profile fails before [curvature:k] b_const and m
        # or the nehari keys are read, in every row
        cfg = tmp_path / "err.ini"
        cfg.write_text("[profile:K]\nkind = constant\nc = 1.0\n"
                       "[profile:neg]\nkind = constant\nc = -1.0\n"
                       "[profile:s]\nkind = sqrt\nof = neg\n"
                       "[curvature:k]\nk = s\nb_const = 1.0\nm = 2\n"
                       "[sweep]\nvary = profile:K.c\nvalues = 1 2\ncriteria = nehari\n"
                       "curvature = k\nt0 = 1.0\nlambda = 0\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[-2:]
        assert rows == ["1,error", "2,error"]

    def test_usage_error_repeats_after_a_run(self, config, tmp_path, capsys):
        # one parser serves every call, so a call must leave nothing behind
        outcomes = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["solve", "--tol", "x"])
            outcomes.append((exc.value.code, capsys.readouterr().err))
            assert main(["geometry", "--config", str(config),
                         "--out", str(tmp_path)]) == 0
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 2
        assert outcomes[0][1].endswith(
            "error: argument --tol: invalid float value: 'x'\n")

    def test_spectral_empty_radii(self, tmp_path, capsys):
        cfg = tmp_path / "radii.ini"
        cfg.write_text(BASE_CONFIG.replace("radii = 1 10 100", "radii ="))
        assert main(["spectral", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "configuration error: need at least one radius\n")


def test_readme_criteria_table_matches_the_cli():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("| criterion | keys | `horizon` | conclusion |\n")[1]
    rows = table.split("\n\n")[0].splitlines()[1:]  # past the --- line
    cells = [row.strip("|").split("|") for row in rows]
    listed = {row[0].strip(" `"): row[-1].strip(" `") for row in cells}
    assert list(listed) == list(_CRITERIA)
    assert listed == {name: _CONCLUSIONS[EMITTED_NAMES.get(name, name)].value
                      for name in _CRITERIA}
