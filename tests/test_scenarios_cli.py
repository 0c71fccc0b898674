import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tractionlab
import tractionlab.cli
import tractionlab.fem
import tractionlab.limit
from tractionlab.cli import main
from tractionlab.fem import assemble_stiffness, solve_linear
from tractionlab.loads import BodyForce
from tractionlab.mesh import read_mesh, rect_mesh, write_mesh
from tractionlab.scenarios import (ConfigError, Scenario, builtin_scenarios,
                                   load_scenario, parse_scenario)

SMALL_TENSION = """\
[scenario]
name = small-tension

[mesh]
kind = rect
nx = 6
ny = 6

[density]
mu = 1.0
lambda = 1.0

[loads.left]
pressure = 16
[loads.right]
pressure = 16
[loads.top]
pressure = 16
[loads.bottom]
pressure = 16

[experiment]
h_list = 0.2 0.1
"""

NEAR_WEAK = """\
[scenario]
name = near-weak

[mesh]
kind = rect
nx = 8
ny = 8

[density]
mu = 1.0
lambda = 1.0

[loads.right]
constant = 1e-6 1.0
[loads.left]
constant = -1e-6 -1.0
[loads.top]
constant = 1.0 1e-6
[loads.bottom]
constant = -1.0 -1e-6

[experiment]
tol = 1e-3
h_list = 0.1 0.05
"""


class TestParsing:
    def test_defaults_applied(self):
        sc = parse_scenario(SMALL_TENSION)
        assert sc.name == "small-tension"
        assert sc.nx == 6 and sc.ny == 6
        assert sc.x_range == (-0.5, 0.5)
        assert sc.tol == 1e-9
        assert sc.cg_tol == 1e-10
        assert sc.h_list == (0.2, 0.1)
        assert sc.body.kind == "zero"

    def test_echo_round_trips(self):
        sc = parse_scenario(SMALL_TENSION)
        assert parse_scenario(sc.effective_config()) == sc
        for name, builtin in builtin_scenarios().items():
            assert parse_scenario(builtin.effective_config()) == builtin

    def test_echo_restates_every_parameter(self):
        text = parse_scenario(SMALL_TENSION).effective_config()
        for key in ("nx", "ny", "x_min", "x_max", "y_min", "y_max", "mu",
                    "lambda", "h_list", "refinements", "tol", "cg_tol",
                    "grad_tol", "shift_ts"):
            assert key in text

    def test_hash_stable(self):
        a = parse_scenario(SMALL_TENSION).config_hash()
        b = parse_scenario(SMALL_TENSION).config_hash()
        assert a == b and len(a) == 64

    def test_bad_number_diagnostics(self):
        bad = SMALL_TENSION.replace("mu = 1.0", "mu = fast")
        with pytest.raises(ConfigError, match=r"\[density\] mu"):
            parse_scenario(bad)
        negative = SMALL_TENSION.replace("h_list = 0.2 0.1", "refinements = -1")
        with pytest.raises(ConfigError, match=r"\[experiment\] refinements"):
            parse_scenario(negative)
        for key, raw in (("tol", "-1"), ("tol", "nan"), ("tol", "0"), ("cg_tol", "-1"),
                         ("cg_tol", "inf"), ("grad_tol", "-1")):
            bad_tol = SMALL_TENSION.replace("h_list = 0.2 0.1", f"h_list = 0.2 0.1\n{key} = {raw}")
            with pytest.raises(ConfigError, match=rf"\[experiment\] {key}: must be finite"):
                parse_scenario(bad_tol)
        tiny = SMALL_TENSION.replace("h_list = 0.2 0.1", "h_list = 0.2 0.1\ngrad_tol = 1e-30")
        assert parse_scenario(tiny).grad_tol == 1e-30

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_scenario(SMALL_TENSION + "\n[plotting]\ncolor = red\n")
        with pytest.raises(ConfigError, match=r"\[DEFAULT\]: unknown section"):
            parse_scenario("[DEFAULT]\nnx = 4\n\n" + SMALL_TENSION)

    @pytest.mark.parametrize("section, key", [
        ("scenario", "title"), ("mesh", "nz"), ("density", "nu"), ("loads.left", "presure"),
        ("loads.body", "values"), ("experiment", "grad_tl"),
        ("experiment", "divergence_threshold"),
    ])
    def test_unknown_key(self, section, key):
        text = SMALL_TENSION + "\n[loads.body]\nkind = zero\n"
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = 7\n", 1)
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: unknown key$"):
            parse_scenario(text)

    @pytest.mark.parametrize("key, raw", [
        ("h_list", "-0.1"), ("h_list", "0.1 nan"), ("h_list", "inf 0.1"), ("h_list", "0.1 0.2"),
        ("h_list", "0.1 0.1"), ("h_list", "0.1 0"), ("shift_ts", "-1"), ("shift_ts", "0.5 nan"),
        ("shift_ts", "inf"),
    ])
    def test_bad_h_list_and_shift_ts(self, key, raw):
        text = SMALL_TENSION.replace("h_list = 0.2 0.1", f"{key} = {raw}")
        with pytest.raises(ConfigError, match=rf"^\[experiment\] {key}: must be finite"):
            parse_scenario(text)

    def test_good_h_list_and_shift_ts(self):
        text = SMALL_TENSION.replace("h_list = 0.2 0.1", "h_list = 0.3 0.2\nshift_ts = 0 2.5")
        sc = parse_scenario(text)
        assert (sc.h_list, sc.shift_ts) == ((0.3, 0.2), (0.0, 2.5))

    def test_traction_needs_exactly_one_rule(self):
        bad = SMALL_TENSION.replace("[loads.left]\npressure = 16",
                                    "[loads.left]\npressure = 16\ntangential = 1")
        with pytest.raises(ConfigError, match="exactly one"):
            parse_scenario(bad)

    def test_file_mesh_requires_path(self):
        bad = SMALL_TENSION.replace("kind = rect", "kind = file")
        with pytest.raises(ConfigError, match="path"):
            parse_scenario(bad)

    def test_body_force_parsing(self):
        text = SMALL_TENSION + "\n[loads.body]\nkind = linear\nmatrix = 1 0 0 1\n"
        sc = parse_scenario(text)
        assert sc.body == BodyForce("linear", (1.0, 0.0, 0.0, 1.0))


class TestBuiltins:
    def test_library_names(self):
        assert sorted(builtin_scenarios()) == [
            "bodyforce", "compression", "infmany", "tension",
        ]

    def test_tension_is_16n_on_32x32(self):
        sc = builtin_scenarios()["tension"]
        assert sc.nx == sc.ny == 32
        assert all(rule.kind == "pressure" and rule.value == (16.0,)
                   for rule in sc.tractions.values())

    def test_load_by_name_and_overrides(self):
        sc = load_scenario("tension", mesh_n=8, tol=1e-8)
        assert sc.nx == sc.ny == 8
        assert sc.tol == 1e-8

    def test_load_by_path(self, tmp_path):
        p = tmp_path / "sc.ini"
        p.write_text(SMALL_TENSION)
        assert load_scenario(str(p)).name == "small-tension"

    def test_missing_source(self):
        with pytest.raises(ConfigError, match="neither"):
            load_scenario("not-a-scenario")


class TestCli:
    def test_scenarios_command(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("tension", "compression", "infmany", "bodyforce"):
            assert name in out

    def test_analyze_writes_classification(self, tmp_path):
        out = tmp_path / "o"
        assert main(["analyze", "tension", "--mesh-n", "8", "--out", str(out)]) == 0
        data = json.loads((out / "classification.json").read_text())
        assert data["class"] == "strict"
        assert data["equilibrated"] is True
        assert np.allclose(np.asarray(data["moment_matrix"]), 16.0 * np.eye(2), atol=1e-12)

    def test_run_tension_small(self, tmp_path):
        out = tmp_path / "o"
        sc_file = tmp_path / "sc.ini"
        sc_file.write_text(SMALL_TENSION)
        assert main(["run", str(sc_file), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["stages"] == {"analyze": "ok", "solve_linear": "ok",
                                 "solve_limit": "ok", "sweep": "ok"}
        assert rep["linear"]["min_E"]["value"] == pytest.approx(-16.0, abs=1e-9)
        assert rep["limit"]["min_F"]["value"] == pytest.approx(-16.0, abs=1e-9)
        csv_text = (out / "sweep.csv").read_text()
        assert csv_text.splitlines()[0] == "h,Fh,W_proxy,moment_dist,iters,status"
        assert len(csv_text.splitlines()) == 3
        # solution dump parses back as mesh + nodal values
        mesh, sol = read_mesh((out / "solution_linear.txt").read_text())
        assert mesh.n_nodes == 49 and sol is not None

    def test_run_compression_exit_2_with_witness(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "compression", "--mesh-n", "8", "--out", str(out)]) == 2
        rep = json.loads((out / "report.json").read_text())
        assert rep["stages"]["solve_limit"] == "refused"
        assert rep["limit"]["inf_F"] == "-inf"
        assert rep["limit"]["witness"]["dim"] == 2
        assert rep["classification"]["sup_gap"] == "+inf"

    def test_run_infmany_exit_0_with_shifts(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "infmany", "--mesh-n", "8", "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["classification"]["class"] == "weak"
        assert rep["stages"]["sweep"] == "skipped"
        checks = rep["limit"]["shift_checks"]
        assert [c["t"] for c in checks] == [0.5, 1.0, 2.0]
        for c in checks:
            assert abs(c["F_delta"]["value"]) <= c["F_delta"]["tol"]
            assert c["E_delta_positive"] is True

    def test_bad_tol_flag_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "tension", "--mesh-n", "8", "--tol", "-1", "--out", str(out)]) == 1
        assert "[experiment] tol: must be finite and positive" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_sweep_abort_reported(self, tmp_path):
        # grad_tol below floating-point resolution: the minimizer stalls
        sc_file = tmp_path / "sc.ini"
        sc_file.write_text(SMALL_TENSION.replace("nx = 6\nny = 6", "nx = 8\nny = 8")
                           .replace("h_list = 0.2 0.1", "h_list = 0.1\ngrad_tol = 1e-30"))
        out = tmp_path / "o"
        assert main(["run", str(sc_file), "--out", str(out)]) == 1
        rep = json.loads((out / "report.json").read_text())
        assert rep["stages"]["sweep"] == "aborted"
        assert "sweep aborted at h = 0.1" in rep["nonlinear"]["aborted"]
        rows = rep["nonlinear"]["sweep"]
        assert [r["h"] for r in rows] == [0.1]
        assert rows[0]["status"] == "stalled"
        csv_lines = (out / "sweep.csv").read_text().splitlines()
        assert len(csv_lines) == 2 and csv_lines[1].endswith(rows[0]["status"])

    def test_sweep_on_weak_refused(self, tmp_path):
        out = tmp_path / "o"
        assert main(["sweep", "infmany", "--mesh-n", "8", "--out", str(out)]) == 2
        rep = json.loads((out / "report.json").read_text())
        assert rep["stages"]["sweep"] == "refused"
        assert "compactness" in rep["nonlinear"]["refused"]

    def test_not_equilibrated_refused(self, tmp_path):
        cfg = SMALL_TENSION.replace("[loads.left]\npressure = 16",
                                    "[loads.left]\nconstant = 5 0")
        sc_file = tmp_path / "bad.ini"
        sc_file.write_text(cfg)
        out = tmp_path / "o"
        assert main(["run", str(sc_file), "--out", str(out)]) == 2
        rep = json.loads((out / "report.json").read_text())
        assert rep["stages"]["solve_linear"] == "refused"
        assert rep["stages"]["solve_limit"] == "skipped"

    def test_sweep_classifies_at_the_scenario_tol(self, tmp_path):
        # infmany plus a 1e-6 normal component: Tr S = 2e-6 is weak at
        # tol = 1e-3 and strict at 1e-9, and the sweep follows the scenario
        sc_file = tmp_path / "near_weak.ini"
        sc_file.write_text(NEAR_WEAK)
        out = tmp_path / "o"
        assert main(["run", str(sc_file), "--out", str(out)]) == 2
        rep = json.loads((out / "report.json").read_text())
        assert rep["classification"]["class"] == "weak"
        assert rep["stages"]["sweep"] == "refused"
        assert "compactness" in rep["nonlinear"]["refused"]

        out = tmp_path / "strict"
        assert main(["run", str(sc_file), "--tol", "1e-9", "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["classification"]["class"] == "strict"
        assert rep["stages"]["sweep"] == "ok"

    def test_refinements_apply_to_every_stage(self, tmp_path):
        sc_file = tmp_path / "sc.ini"
        sc_file.write_text(SMALL_TENSION.replace("h_list = 0.2 0.1",
                                                 "h_list = 0.2 0.1\nrefinements = 1"))
        out = tmp_path / "o"
        assert main(["run", str(sc_file), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["stages"]["sweep"] == "ok"
        assert "refinements = 1" in rep["scenario"]["config"]
        for dump in ("solution_linear.txt", "solution_limit.txt"):
            lines = (out / dump).read_text().splitlines()
            assert sum(line.startswith("v ") for line in lines) == 169

    def test_increasing_h_list_writes_nothing(self, tmp_path, capsys):
        sc_file = tmp_path / "sc.ini"
        sc_file.write_text(SMALL_TENSION.replace("h_list = 0.2 0.1", "h_list = 0.1 0.2"))
        out = tmp_path / "o"
        assert main(["run", str(sc_file), "--out", str(out)]) == 1
        assert "config error: [experiment] h_list" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_exit_1(self, tmp_path, capsys):
        assert main(["run", "definitely-missing", "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_mesh_file_scenario(self, tmp_path):
        mesh = rect_mesh(4, 4)
        mesh_file = tmp_path / "grid.mesh"
        mesh_file.write_text(write_mesh(mesh))
        cfg = SMALL_TENSION.replace(
            "kind = rect\nnx = 6\nny = 6",
            f"kind = file\npath = {mesh_file}",
        )
        sc_file = tmp_path / "sc.ini"
        sc_file.write_text(cfg)
        out = tmp_path / "o"
        assert main(["analyze", str(sc_file), "--out", str(out)]) == 0
        data = json.loads((out / "classification.json").read_text())
        assert data["class"] == "strict"

    def test_determinism_byte_identical(self, tmp_path):
        sc_file = tmp_path / "sc.ini"
        sc_file.write_text(SMALL_TENSION)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["run", str(sc_file), "--out", str(out)]) == 0
            outs.append({
                "report": (out / "report.json").read_bytes(),
                "sweep": (out / "sweep.csv").read_bytes(),
                "classification": (out / "classification.json").read_bytes(),
                "solution": (out / "solution_limit.txt").read_bytes(),
            })
        assert outs[0] == outs[1]

    def test_provenance_carries_config_hash(self, tmp_path):
        out = tmp_path / "o"
        main(["analyze", "tension", "--out", str(out)])
        rep = json.loads((out / "report.json").read_text())
        sc = load_scenario("tension")
        assert rep["provenance"]["config_sha256"] == sc.config_hash()
        assert rep["scenario"]["config"] == sc.effective_config()


class TestSolveCount:
    """Every stage runs on the scenario's mesh; the sweep starts from the limit stage's minimizer."""

    @pytest.fixture
    def solved_sizes(self, monkeypatch):
        sizes = []

        def counting(mesh, *args, **kwargs):
            sizes.append(mesh.n_nodes)
            return solve_linear(mesh, *args, **kwargs)

        monkeypatch.setattr(tractionlab.cli, "solve_linear", counting)
        monkeypatch.setattr(tractionlab.limit, "solve_linear", counting)
        return sizes

    def test_run_tension_solves_once(self, tmp_path, solved_sizes):
        assert main(["run", "tension", "--mesh-n", "8", "--out", str(tmp_path)]) == 0
        assert solved_sizes == [81]

    def test_refined_sweep_solves_on_its_own_mesh(self, tmp_path, solved_sizes):
        sc_file = tmp_path / "sc.ini"
        sc_file.write_text(SMALL_TENSION.replace("h_list = 0.2 0.1",
                                                 "h_list = 0.2 0.1\nrefinements = 1"))
        assert main(["run", str(sc_file), "--out", str(tmp_path / "o")]) == 0
        assert solved_sizes == [169]


class TestOperatorBundle:
    """One stiffness assembly per run; the multigrid imports no solver module."""

    def test_run_assembles_the_stiffness_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return assemble_stiffness(*args, **kwargs)

        monkeypatch.setattr(tractionlab.fem, "assemble_stiffness", counting)
        assert main(["run", "tension", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_solves_never_assemble_the_mass_matrix(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("mass_matrix called on the solve path")

        monkeypatch.setattr(tractionlab.fem, "mass_matrix", refuse)
        assert main(["run", "tension", "--out", str(tmp_path / "a")]) == 0
        assert main(["solve-limit", "tension", "--mesh-n", "64",
                     "--out", str(tmp_path / "b")]) == 0

    def test_no_scipy_solver_import(self, tmp_path):
        # importing scipy.sparse.linalg (and with it scipy.linalg) costs
        # about 9 MB of resident memory
        code = (
            "import sys\n"
            "from tractionlab.cli import main\n"
            f"assert main(['run', 'tension', '--out', {str(tmp_path / 'a')!r}]) == 0\n"
            f"assert main(['solve-limit', 'tension', '--mesh-n', '64', "
            f"'--out', {str(tmp_path / 'b')!r}]) == 0\n"
            "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse.linalg') "
            "if m in sys.modules))\n"
        )
        src = str(Path(tractionlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        for sub in ("a", "b"):
            rep = json.loads((tmp_path / sub / "report.json").read_text())
            assert rep["linear"]["preconditioner"] == "sa-amg"
        assert proc.stdout.strip().splitlines()[-1] == "[]"


class TestScenarioObjects:
    def test_build_mesh_rect(self):
        sc = Scenario(nx=3, ny=2)
        m = sc.build_mesh()
        assert m.n_nodes == 12

    def test_build_mesh_refines_a_file_mesh(self, tmp_path):
        mesh_file = tmp_path / "grid.mesh"
        mesh_file.write_text(write_mesh(rect_mesh(3, 2)))
        m = Scenario(mesh_kind="file", mesh_path=str(mesh_file), refinements=2).build_mesh()
        assert (m.n_nodes, m.n_elements) == (13 * 9, 16 * 12)
        assert sorted(m.tags()) == ["bottom", "left", "right", "top"]

    def test_load_spec_covers_tags(self):
        sc = builtin_scenarios()["tension"]
        mesh = sc.build_mesh()
        spec = sc.load_spec()
        for tag in mesh.tags():
            assert spec.rule_for(tag) is not None
