import re

from conftest import REPO


def test_library_entry_points_run_as_written(capsys):
    # the README's example, executed verbatim: a 60-round desk-shaped run
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library entry points\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    selection = scope["selection"]
    assert len(scope["metrics"]) == 60
    assert len(selection.indices) == 30
    assert capsys.readouterr().out == f"{selection.indices}\n"
