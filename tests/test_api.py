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


@pytest.mark.parametrize("make, field", [
    (lambda: dephasim.SequenceSpec("cpmg", 2, tau=0.0), "tau"),
    (lambda: dephasim.LightShiftDistribution.from_t2_star(-1e-3), "t2_star"),
    (lambda: dephasim.HomogeneousNoiseSpec([27.6, -1.0]), "sigmas[1]"),
    (lambda: dephasim.ExperimentConfig(dephasim.SequenceSpec("ramsey", 0), contrast=1.5),
     "contrast"),
], ids=["SequenceSpec", "LightShiftDistribution", "HomogeneousNoiseSpec", "ExperimentConfig"])
def test_a_refusal_names_the_field_it_refuses(make, field):
    with pytest.raises(dephasim.DomainError) as refused:
        make()
    assert refused.value.field == field
