"""The README's library example runs as written, at a smaller mesh."""

import re
from pathlib import Path

from bsblab import analysis

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(capsys):
    code = library_example()
    # same calls on a coarse mesh and a short sweep, so the test stays quick
    for full, small in (("discretize(cfg, 20, 20, 20)", "discretize(cfg, 4, 4, 4)"),
                        ("-50.0, 50.0, 2001)", "-50.0, 50.0, 41)")):
        assert full in code
        code = code.replace(full, small)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    report = scope["report"]
    assert report.mesh_counts == (4, 4, 4)
    assert report.certificate == scope["cert"]
    assert len(report.invariant_results) == len(analysis._REGISTRY) == 2
    assert report.all_pass
    assert '"invariant_results"' in capsys.readouterr().out


def test_readme_states_the_invariant_count():
    """Both places README counts the verify invariants match the registry."""
    text = README.read_text()
    counts = (re.findall(r"the (\d+) built-in invariants", text)
              + re.findall(r"the (\d+)-invariant battery", text))
    assert len(counts) == 2
    assert {int(c) for c in counts} == {len(analysis._REGISTRY)}
