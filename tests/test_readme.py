"""The README's library example runs as written and stops at the library's rule."""

import re
from pathlib import Path

import ductflow as df

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_stops_at_the_strain_rate_rule(capsys):
    names = {}
    exec(library_example(), names)
    tri, ops, params = names["tri"], names["ops"], names["params"]
    _, y, report = df.solve_trs(params, ops, df.TrsConfig(abstol=df.abstol_for(tri)))
    assert names["y"].tobytes() == y.tobytes()
    assert capsys.readouterr().out.startswith(f"converged {report.iterations} ")
