"""The public API: every exported name resolves, and the README example runs."""

import importlib
import math
import re
from pathlib import Path

import pytest

import dephasim

MODULES = ("analytic", "bloch", "cli", "fit", "montecarlo", "noise")
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module", [None, *MODULES])
def test_every_exported_name_resolves(module):
    mod = dephasim if module is None else importlib.import_module(f"dephasim.{module}")
    assert len(mod.__all__) == len(set(mod.__all__))
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_readme_library_example_runs(capsys):
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    fit = namespace["fit"]
    assert math.isfinite(fit.params["sigma_sig"])
    assert math.isfinite(fit.params["t2_prime"])
    printed = capsys.readouterr().out.split()
    assert [float(x) for x in printed] == [fit.params["sigma_sig"], fit.params["t2_prime"]]
