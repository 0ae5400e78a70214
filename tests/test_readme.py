"""The README's library example runs as printed: the Reeb vector and the
CSV header it shows in its comments are what it prints and writes."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    reeb_line, drift_line = capsys.readouterr().out.splitlines()
    assert reeb_line == "[0. 0. 0. 0. 1.]"
    assert re.search(r"print\(reeb\(.*#\s*(.*)", block).group(1) == reeb_line
    assert float(drift_line) < 1e-8
    header = (tmp_path / "flow.csv").read_text().splitlines()[0]
    assert header == "t,x,y,q,p,kappa,H,dissipation_residual"
    assert re.search(r"to_csv\(.*#\s*(.*)", block).group(1) == header
