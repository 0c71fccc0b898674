import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tractionlab
import tractionlab.cli
import tractionlab.fem
from tractionlab.algebra import _canonical_axis, skew3
from tractionlab.cli import main
from tractionlab.fem import assemble_stiffness, solve_linear
from tractionlab.loads import BodyForce, TractionRule
from tractionlab.mesh import read_mesh, rect_mesh, write_mesh
from tractionlab.nonlinear import SweepRecord
from tractionlab.report import skew_dict
from tractionlab.scenarios import (DEFAULT_H_LIST, ConfigError, Scenario, builtin_scenarios,
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


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_nonnegative = st.floats(min_value=0.0, allow_infinity=False)
_traction_rules = st.one_of(
    st.tuples(_finite, _finite).map(lambda v: TractionRule("constant", v)),
    st.tuples(st.sampled_from(["pressure", "tangential"]), _finite).map(
        lambda kv: TractionRule(kv[0], (kv[1],))),
)
_body_forces = st.one_of(
    st.just(BodyForce()),
    st.tuples(_finite, _finite).map(lambda v: BodyForce("constant", v)),
    st.tuples(_finite, _finite, _finite, _finite).map(lambda v: BodyForce("linear", v)),
)
_ranges = st.lists(_finite, min_size=2, max_size=2, unique=True).map(lambda r: tuple(sorted(r)))


@st.composite
def random_scenarios(draw):
    """Rect-mesh scenarios, or file-mesh ones with the rect fields at their defaults."""
    if draw(st.booleans()):
        mesh = dict(mesh_kind="file", mesh_path=draw(
            st.text("abcdefghijklmnopqrstuvwxyz0123456789-_./", min_size=1, max_size=20)))
    else:
        mesh = dict(nx=draw(st.integers(1, 10**6)), ny=draw(st.integers(1, 10**6)),
                    x_range=draw(_ranges), y_range=draw(_ranges))
    return Scenario(
        name=draw(st.text("abcdefghijklmnopqrstuvwxyz0123456789-_", max_size=12)),
        **mesh,
        mu=draw(_positive),
        lam=draw(_nonnegative),
        tractions=draw(st.dictionaries(st.sampled_from(["left", "right", "top", "bottom", "hole"]),
                                       _traction_rules, max_size=5)),
        body=draw(_body_forces),
        h_list=tuple(sorted(draw(st.lists(_positive, max_size=5, unique=True)), reverse=True)),
        refinements=draw(st.integers(0, 6)),
        tol=draw(_positive),
        cg_tol=draw(_positive),
        grad_tol=draw(_positive),
        shift_ts=tuple(draw(st.lists(_nonnegative, max_size=4))),
    )


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

    def test_config_hashes_pinned(self):
        # every report carries config_sha256; a change to the echo format changes it
        scenarios = dict(builtin_scenarios(), small=parse_scenario(SMALL_TENSION))
        assert {name: sc.config_hash() for name, sc in scenarios.items()} == {
            "tension": "430c4373d6f22f194246f1ed20cba10dceb7b01b15b3f9c88a6290c89e5fe10d",
            "compression": "b8826bf6dd865965dbe9f5465299236fad5cf8da6796eaef37072904eed10423",
            "infmany": "3da71ef93e87f7584b23913558b4e3e585a4cf3643078b51c5399b2f4936252a",
            "bodyforce": "fef361ce5577ad66574b9990cd424b9a1054dbcc020f638471472abb77a9b424",
            "small": "ba3b92800f9575aae8501a3bbd6509ac88b9f11a065feae7a829d533d878465a",
        }

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(sc=random_scenarios())
    def test_echo_round_trips_random_scenarios(self, sc):
        assert parse_scenario(sc.effective_config()) == sc

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

    @pytest.mark.parametrize("section, key, raw", [
        ("mesh", "nx", "0"), ("mesh", "ny", "-2"), ("mesh", "x_max", "inf"),
        ("mesh", "x_max", "-0.5"), ("mesh", "x_min", "nan"), ("mesh", "y_min", "-inf"),
        ("mesh", "y_max", "-1"), ("density", "mu", "-1"), ("density", "mu", "0"),
        ("density", "mu", "inf"), ("density", "lambda", "-1"), ("density", "lambda", "nan"),
    ])
    def test_bad_mesh_and_density(self, section, key, raw):
        text = re.sub(rf"^{key} = .*\n", "", SMALL_TENSION, flags=re.M)
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {raw}\n", 1)
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: (must be|needs) finite"):
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

    def test_traction_for_a_tag_the_mesh_lacks(self):
        sc = parse_scenario(SMALL_TENSION + "[loads.middle]\npressure = 5\n")
        assert set(sc.tractions) == {"bottom", "left", "middle", "right", "top"}
        with pytest.raises(ConfigError) as info:
            sc.build_mesh()
        assert str(info.value) == "[loads.middle]: no boundary edge of the mesh has this tag"

    def test_file_mesh_requires_path(self):
        bad = SMALL_TENSION.replace("kind = rect", "kind = file")
        with pytest.raises(ConfigError, match="path"):
            parse_scenario(bad)

    @pytest.mark.parametrize("mesh, message", [
        ("kind = file\npath = grid.mesh\nnx = 4", "[mesh] nx: not read by mesh kind 'file'"),
        ("kind = file\npath = grid.mesh\ny_max = 2", "[mesh] y_max: not read by mesh kind 'file'"),
        ("kind = rect\nnx = 6\npath = grid.mesh", "[mesh] path: not read by mesh kind 'rect'"),
        ("path = grid.mesh", "[mesh] path: not read by mesh kind 'rect'"),
    ])
    def test_mesh_keys_of_the_other_kind(self, mesh, message):
        text = SMALL_TENSION.replace("kind = rect\nnx = 6\nny = 6", mesh)
        with pytest.raises(ConfigError) as info:
            parse_scenario(text)
        assert str(info.value) == message

    def test_body_force_parsing(self):
        text = SMALL_TENSION + "\n[loads.body]\nkind = linear\nmatrix = 1 0 0 1\n"
        sc = parse_scenario(text)
        assert sc.body == BodyForce("linear", (1.0, 0.0, 0.0, 1.0))

    @pytest.mark.parametrize("body, message", [
        ("kind = bogus", "[loads.body] kind: unknown body force kind 'bogus'"),
        ("kind = linear\nmatrix = 1 x 0 1", "[loads.body] matrix: bad number list '1 x 0 1' "
         "(could not convert string to float: 'x')"),
        ("kind = linear\nmatrix = 1 0 1",
         "[loads.body] matrix: linear body force needs a 2x2 matrix"),
        ("kind = constant", "[loads.body] value: constant body force needs a 2-vector"),
        ("kind = constant\nvalue = inf 0",
         "[loads.body] value: constant body force must be finite, got [inf, 0.0]"),
        ("kind = linear\nmatrix = 1 0 nan 1",
         "[loads.body] matrix: linear body force must be finite, got [1.0, 0.0, nan, 1.0]"),
        # a key the kind does not read
        ("kind = zero\nvalue = 1 2", "[loads.body] value: not read by body force kind 'zero'"),
        ("value = 1 2", "[loads.body] value: not read by body force kind 'zero'"),
        ("kind = zero\nmatrix = 1 0 0 1",
         "[loads.body] matrix: not read by body force kind 'zero'"),
        ("kind = constant\nvalue = 1 2\nmatrix = 1 0 0 1",
         "[loads.body] matrix: not read by body force kind 'constant'"),
        ("kind = linear\nvalue = 1 2\nmatrix = 1 0 0 1",
         "[loads.body] value: not read by body force kind 'linear'"),
    ])
    def test_body_force_errors(self, body, message):
        with pytest.raises(ConfigError) as info:
            parse_scenario(SMALL_TENSION + f"\n[loads.body]\n{body}\n")
        assert str(info.value) == message

    @pytest.mark.parametrize("rule, message", [
        ("pressure = nan", "pressure traction must be finite, got [nan]"),
        ("constant = inf 0", "constant traction must be finite, got [inf, 0.0]"),
        ("tangential = -inf", "tangential traction must be finite, got [-inf]"),
    ])
    def test_non_finite_traction(self, rule, message):
        text = SMALL_TENSION.replace("[loads.left]\npressure = 16", f"[loads.left]\n{rule}")
        with pytest.raises(ConfigError) as info:
            parse_scenario(text)
        assert str(info.value) == f"[loads.left] {rule.split()[0]}: {message}"


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
    def test_parser_built_once(self):
        # one parser per process; a parse leaves no value behind for the next
        parser = tractionlab.cli.build_parser()
        assert tractionlab.cli.build_parser() is parser
        first = parser.parse_args(["run", "tension", "--mesh-n", "8", "--tol", "1e-3"])
        second = parser.parse_args(["sweep", "bodyforce"])
        assert (first.command, first.mesh_n, first.tol) == ("run", 8, 1e-3)
        assert (second.command, second.config, second.mesh_n, second.tol,
                second.out) == ("sweep", "bodyforce", None, None, "out")

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
        assert csv_text.splitlines()[0] == "h,Fh,W_proxy,moment_dist,iters,cg_iters,status"
        assert len(csv_text.splitlines()) == 3
        # solution dump parses back as mesh + nodal values
        mesh, sol = read_mesh((out / "solution_linear.txt").read_text())
        assert mesh.n_nodes == 49 and sol is not None

    def test_one_row_definition(self, tmp_path):
        out = tmp_path / "o"
        sc_file = tmp_path / "sc.ini"
        sc_file.write_text(SMALL_TENSION)
        assert main(["sweep", str(sc_file), "--out", str(out)]) == 0
        header, *rows = csv.reader((out / "sweep.csv").read_text().splitlines())
        assert header == [f.name for f in dataclasses.fields(SweepRecord)]
        nonlinear = json.loads((out / "report.json").read_text())["nonlinear"]
        report_rows = nonlinear["sweep"]
        assert len(rows) == len(report_rows) == 2
        for row, rep in zip(rows, report_rows):
            rep["W_proxy"] = rep["W_proxy"]["value"]
            assert row == [str(rep[name]) for name in header]
        # the limit minimizer is stated once, in the limit block
        assert set(nonlinear) == {"sweep", "energy_floor"}

    @pytest.mark.parametrize("command, stages", [
        ("analyze", {"analyze": "ok"}),
        ("solve-linear", {"analyze": "ok", "solve_linear": "ok"}),
        ("solve-limit", {"analyze": "ok", "solve_linear": "ok", "solve_limit": "ok"}),
        ("sweep", {"analyze": "ok", "solve_linear": "ok", "solve_limit": "ok", "sweep": "ok"}),
        ("run", {"analyze": "ok", "solve_linear": "ok", "solve_limit": "ok",
                 "sweep": "skipped"}),
    ], ids=["analyze", "solve-linear", "solve-limit", "sweep", "run"])
    def test_subcommand_stages(self, tmp_path, command, stages):
        # no h_list: sweep falls back to DEFAULT_H_LIST, run skips the sweep
        sc_file = tmp_path / "sc.ini"
        sc_file.write_text(SMALL_TENSION.replace("h_list = 0.2 0.1\n", ""))
        out = tmp_path / "o"
        assert main([command, str(sc_file), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["stages"] == stages
        if command == "sweep":
            rows = rep["nonlinear"]["sweep"]
            assert tuple(r["h"] for r in rows) == DEFAULT_H_LIST
            assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 4
        else:
            assert not (out / "sweep.csv").exists()

    def test_run_compression_exit_2_with_witness(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "compression", "--mesh-n", "8", "--out", str(out)]) == 2
        rep = json.loads((out / "report.json").read_text())
        assert rep["stages"]["solve_limit"] == "refused"
        assert rep["limit"]["inf_F"] == "-inf"
        unit = {"dim": 2, "coeffs": [1.0]}
        assert rep["limit"]["witness"] == unit
        assert rep["classification"]["witness"] == unit
        assert rep["classification"]["sup_gap"] == "+inf"

    def test_run_infmany_exit_0_with_shifts(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "infmany", "--mesh-n", "8", "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["classification"]["class"] == "weak"
        assert rep["classification"]["kernel"] == [{"dim": 2, "coeffs": [1.0]}]
        assert rep["stages"]["sweep"] == "skipped"
        checks = rep["limit"]["shift_checks"]
        assert [c["t"] for c in checks] == [0.5, 1.0, 2.0]
        for c in checks:
            assert abs(c["F_delta"]["value"]) <= c["F_delta"]["tol"]
            assert c["E_delta_positive"] is True

    def test_skew_dict_of_a_3d_axis(self):
        # no built-in run emits a 3D skew matrix; its axis is (W[2,1], W[0,2], W[1,0])
        rng = np.random.default_rng(21)
        for _ in range(20):
            w = _canonical_axis(rng.standard_normal(3))
            assert skew_dict(skew3(w)) == {"dim": 3, "coeffs": list(w)}
        assert skew_dict(None) is None

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

    def test_inadmissible_warm_start_aborts(self, tmp_path):
        # strict (tr S = 20), but at h = 0.4 the limit minimizer of this
        # compressive load already inverts elements: the sweep aborts there
        # with a report, not with a bare error
        sc_file = tmp_path / "sc.ini"
        sc_file.write_text(SMALL_TENSION.replace("nx = 6\nny = 6", "nx = 8\nny = 8")
                           .replace("pressure = 16", "pressure = 40", 2)
                           .replace("pressure = 16", "pressure = -30")
                           .replace("h_list = 0.2 0.1", "h_list = 0.4 0.2 0.1"))
        out = tmp_path / "o"
        assert main(["run", str(sc_file), "--out", str(out)]) == 1
        rep = json.loads((out / "report.json").read_text())
        assert rep["classification"]["class"] == "strict"
        assert rep["stages"]["sweep"] == "aborted"
        assert "sweep aborted at h = 0.4: " in rep["nonlinear"]["aborted"]
        assert "lost orientation" in rep["nonlinear"]["aborted"]
        assert rep["nonlinear"]["sweep"] == []
        assert (out / "sweep.csv").read_text().splitlines() == [
            ",".join(f.name for f in dataclasses.fields(SweepRecord))]
        assert sorted(p.name for p in out.iterdir()) == [
            "classification.json", "report.json", "solution_linear.txt", "sweep.csv"]

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
        lines = (out / "solution_linear.txt").read_text().splitlines()
        assert sum(line.startswith("v ") for line in lines) == 169

    def test_increasing_h_list_writes_nothing(self, tmp_path, capsys):
        sc_file = tmp_path / "sc.ini"
        sc_file.write_text(SMALL_TENSION.replace("h_list = 0.2 0.1", "h_list = 0.1 0.2"))
        out = tmp_path / "o"
        assert main(["run", str(sc_file), "--out", str(out)]) == 1
        assert "config error: [experiment] h_list" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_mesh_values_write_nothing(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "tension", "--mesh-n", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: [mesh] nx: ")
        sc_file = tmp_path / "sc.ini"
        sc_file.write_text(SMALL_TENSION.replace("ny = 6\n", "ny = 6\nx_max = inf\n"))
        assert main(["run", str(sc_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: [mesh] x_max: ")
        assert not out.exists()

    def test_non_finite_loads_write_nothing(self, tmp_path, capsys):
        out = tmp_path / "o"
        sc_file = tmp_path / "sc.ini"
        for old, new, location in (
                ("pressure = 16", "pressure = nan", "[loads.left] pressure"),
                ("[experiment]", "[loads.body]\nkind = constant\nvalue = inf 0\n[experiment]",
                 "[loads.body] value")):
            sc_file.write_text(SMALL_TENSION.replace(old, new, 1))
            assert main(["run", str(sc_file), "--out", str(out)]) == 1
            assert capsys.readouterr().err.startswith(f"config error: {location}: ")
            assert not out.exists()

    def test_unread_mesh_key_writes_nothing(self, tmp_path, capsys):
        mesh_file = tmp_path / "grid.mesh"
        mesh_file.write_text(write_mesh(rect_mesh(4, 4)))
        out = tmp_path / "o"
        sc_file = tmp_path / "sc.ini"
        for mesh, err in ((f"kind = file\npath = {mesh_file}\nnx = 4", "[mesh] nx: not read by "
                           "mesh kind 'file'"),
                          (f"kind = rect\npath = {mesh_file}", "[mesh] path: not read by mesh "
                           "kind 'rect'")):
            sc_file.write_text(SMALL_TENSION.replace("kind = rect\nnx = 6\nny = 6", mesh))
            assert main(["run", str(sc_file), "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"config error: {err}\n"
            assert not out.exists()

    def test_traction_for_a_missing_tag_writes_nothing(self, tmp_path, capsys):
        sc_file = tmp_path / "sc.ini"
        sc_file.write_text(SMALL_TENSION.replace("[experiment]", "[loads.middle]\npressure = 5\n"
                                                 "[experiment]"))
        out = tmp_path / "o"
        assert main(["analyze", str(sc_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("config error: [loads.middle]: no boundary edge of "
                                           "the mesh has this tag\n")
        assert not out.exists()

    def test_boundary_tag_without_a_traction_rule_writes_nothing(self, tmp_path, capsys):
        sc_file = tmp_path / "sc.ini"
        sc_file.write_text(SMALL_TENSION.replace("[loads.bottom]\npressure = 16\n", ""))
        out = tmp_path / "o"
        assert main(["analyze", str(sc_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("config error: [loads.bottom]: no traction rule for "
                                           "this boundary tag\n")
        assert not out.exists()

    def test_first_boundary_tag_without_a_traction_rule_is_named(self, tmp_path, capsys):
        text = SMALL_TENSION.replace("[loads.left]\npressure = 16\n", "")
        sc_file = tmp_path / "sc.ini"
        sc_file.write_text(text.replace("[loads.bottom]\npressure = 16\n", ""))
        out = tmp_path / "o"
        assert main(["sweep", str(sc_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("config error: [loads.bottom]: no traction rule for "
                                           "this boundary tag\n")
        assert not out.exists()

    def test_bad_mesh_file_writes_nothing(self, tmp_path, capsys):
        broken = tmp_path / "broken.mesh"
        broken.write_text("garbage\n")
        binary = tmp_path / "binary.mesh"
        binary.write_bytes(b"\xff\xfe")
        out = tmp_path / "o"
        sc_file = tmp_path / "sc.ini"
        missing = tmp_path / "missing.mesh"
        for path, err in ((missing, "config error: [mesh] path: unreadable mesh file "
                           f"([Errno 2] No such file or directory: '{missing}')"),
                          (binary, "config error: [mesh] path: unreadable mesh file ('utf-8' "
                           "codec can't decode byte 0xff in position 0: invalid start byte)"),
                          (broken, "error: line 1: unknown record kind 'garbage'")):
            sc_file.write_text(SMALL_TENSION.replace(
                "kind = rect\nnx = 6\nny = 6", f"kind = file\npath = {path}"))
            assert main(["analyze", str(sc_file), "--out", str(out)]) == 1
            assert capsys.readouterr().err == err + "\n"
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

    def test_mesh_n_on_file_mesh_is_config_error(self, tmp_path, capsys):
        mesh_file = tmp_path / "grid.mesh"
        mesh_file.write_text(write_mesh(rect_mesh(4, 4)))
        sc_file = tmp_path / "sc.ini"
        sc_file.write_text(SMALL_TENSION.replace(
            "kind = rect\nnx = 6\nny = 6", f"kind = file\npath = {mesh_file}"))
        out = tmp_path / "o"
        assert main(["analyze", str(sc_file), "--mesh-n", "64", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: [mesh] kind: --mesh-n ")
        assert not out.exists()

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
                "solution": (out / "solution_linear.txt").read_bytes(),
            })
        assert outs[0] == outs[1]

    def test_bodyforce_byte_identical_across_blas_threads(self, tmp_path):
        # the 16x16 body force iterates the multigrid, whose coarsest level
        # (93 dofs) is one dense inverse, identical at either thread count
        src = str(Path(tractionlab.__file__).resolve().parents[1])
        code = "import sys; from tractionlab.cli import main; sys.exit(main(sys.argv[1:]))"
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-c", code, "run", "bodyforce", "--out", str(out)],
                           env=env, capture_output=True, check=True)
            outs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert "solution_linear.txt" in outs[0]
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

        def counting(density, assembly, *args, **kwargs):
            sizes.append(assembly.mesh.n_nodes)
            return solve_linear(density, assembly, *args, **kwargs)

        monkeypatch.setattr(tractionlab.cli, "solve_linear", counting)
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

    def test_body_force_run_assembles_the_stiffness_once(self, tmp_path, monkeypatch):
        # the linear solve builds K on its first CG step, and the sweep reuses it
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return assemble_stiffness(*args, **kwargs)

        monkeypatch.setattr(tractionlab.fem, "assemble_stiffness", counting)
        assert main(["run", "bodyforce", "--out", str(tmp_path)]) == 0
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
