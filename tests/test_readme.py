"""The README's examples run as written."""

import contextlib
import io
import re
from pathlib import Path

from tractionlab.scenarios import parse_scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def test_library_example_runs():
    (code,) = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "strict"
    assert abs(float(lines[1]) + 16.0) <= 1e-9
    assert lines[2] == str(["converged"] * 4)


def test_config_example_parses():
    (text,) = _blocks("ini")
    sc = parse_scenario(text)
    assert (sc.name, sc.mesh_kind, sc.nx, sc.refinements) == ("my-case", "rect", 32, 0)
    assert parse_scenario(sc.effective_config()) == sc
