"""The study scripts under scripts/ reuse what they compute."""

import importlib.util
from pathlib import Path

import numpy as np
import scipy.linalg

ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_udu_frequency_factors_each_mesh_once(monkeypatch, capsys):
    """The sweep reads the spectrum the script already holds for the gap:
    one dgees per damped mesh (2N = 38 at n = 4, 78 at n = 8)."""
    script = load_script("run_udu_frequency")
    shapes = []
    dgees = scipy.linalg.lapack.dgees

    def counted(*args, **kwargs):
        if kwargs.get("lwork") != -1:
            shapes.append(next(x for x in args if isinstance(x, np.ndarray)).shape)
        return dgees(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgees", counted)
    assert script.main(["--config", str(ROOT / "configs" / "udu.cfg"),
                        "--meshes", "4,8", "--steps", "101"]) == 0
    assert shapes == [(38, 38), (78, 78)]
    assert "axis sup" in capsys.readouterr().out
