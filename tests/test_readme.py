"""The README's library example runs as written, at a smaller mesh, its
library section names what the package exports, and its CLI synopsis and
output table match what the CLI accepts and writes."""

import dataclasses
import json
import re
from pathlib import Path

import bsblab as bb
from bsblab import cli
from bsblab.cli import read_config

import oracles

README = Path(__file__).resolve().parent.parent / "README.md"
CONFIGS = README.parent / "configs"


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
    # the example structure is fully damped: two checks it can fail
    assert [r.name for r in report.invariant_results] == [
        "dynamics.step_energy_balance", "spectral.string_damping_spectrum_gap"]
    assert report.all_pass
    assert '"invariant_results"' in capsys.readouterr().out


def test_readme_library_section_matches_the_exports():
    """Every name README calls through `bb.` is in bsblab.__all__; every
    name its oracle list places in tests/oracles.py is defined there and is
    not exported; SystemPencil has no public attribute but the five that
    README names."""
    text = README.read_text()
    section = text[text.index("## Library"):text.index("## Studies")]
    exported = set(re.findall(r"\bbb\.(\w+)", text))
    assert exported and exported <= set(bb.__all__)
    listed = section[section.index("Oracles that only the tests use"):]
    listed = listed[:listed.index("\n\n", listed.index("\n- "))]
    moved = set()
    for item in re.findall(r"^- (.*?)(?=^- |\Z)", listed, re.M | re.S):
        moved.update(re.findall(r"`(\w+)`", item.split(":", 1)[0]))
    assert {"dense", "matrices", "first_order", "resolvent_norm", "cross_functional"} <= moved
    assert all(callable(getattr(oracles, name, None)) for name in moved), moved
    assert not moved & set(bb.__all__)
    public = {f.name for f in dataclasses.fields(bb.SystemPencil)}
    public |= {name for name in vars(bb.SystemPencil) if not name.startswith("_")}
    assert public == {"s_band", "m_band", "d_band", "n_positions", "bandwidth"}
    assert all(f"`{name}`" in section for name in public)


def test_readme_names_the_rows_of_each_regime():
    """README's report.json row says which regime gets which row, and names
    every row cross_validate writes on the shipped configs."""
    row = next(line for line in README.read_text().splitlines()
               if line.startswith("| verify | `report.json` |"))
    assert ("`dynamics.step_energy_balance` on every config, and "
            "`spectral.string_damping_spectrum_gap` only on `DDD` and `UDU`") in row
    for name in ("ddd", "udu", "conservative"):
        cfg = read_config(str(CONFIGS / f"{name}.cfg"))
        report = bb.cross_validate(cfg, *bb.discretize(cfg, 4, 4, 4))
        assert all(f"`{r.name}`" in row for r in report.invariant_results)


def listed_keys(file_name: str) -> list:
    """The keys README's output table lists for file_name: the backquoted
    names that open its row's last cell, up to the first '.' or ':'."""
    row = next(line for line in README.read_text().splitlines()
               if f"| `{file_name}` |" in line)
    cell = row.split("|")[3].strip()
    head = re.split(r"[.:] ", cell, maxsplit=1)[0]
    assert re.fullmatch(r"`[a-z_]+`(, `[a-z_]+`)*", head), head
    return re.findall(r"`([a-z_]+)`", head)


def test_readme_states_the_output_contract_the_cli_writes(tmp_path):
    """README's synopsis names exactly the CLI's subcommands, and its
    decay.json and report.json rows exactly the keys those files hold."""
    text = README.read_text()
    synopsis = re.search(r"```sh\n(bsblab .*?)```", text, re.S).group(1)
    commands = re.findall(r"^bsblab (\w+)", synopsis, re.M)
    config = str(CONFIGS / "ddd.cfg")
    assert sorted(commands) == sorted(cli._COMMANDS)
    assert all(cli.parse_args([name, "--config", config]).command == name for name in commands)
    mesh = ["--n1", "4", "--n2", "4", "--n3", "4", "--out-dir", str(tmp_path)]
    for command, file_name in (("decay", "decay.json"), ("verify", "report.json")):
        assert cli.main([command, "--config", config, *mesh]) == 0
        written = json.loads((tmp_path / file_name).read_text())
        assert listed_keys(file_name) == list(written), file_name
