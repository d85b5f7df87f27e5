import importlib
import pkgutil
import re
import types
from pathlib import Path

import robustcenter

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_surface_matches_the_module_lists():
    # Every module that declares __all__ has each listed name re-exported by
    # the package, and the package re-exports nothing outside those lists.
    listed = {}
    for info in pkgutil.iter_modules(robustcenter.__path__):
        mod = importlib.import_module(f"robustcenter.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"robustcenter.{info.name}.__all__ names missing {name}"
            assert getattr(robustcenter, name, None) is getattr(mod, name), f"{name} is not re-exported"
            listed[name] = info.name
    exported = {
        name
        for name, value in vars(robustcenter).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported - listed.keys() == set()


def test_readme_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.split()
    assert printed and float(printed[-1]) > 0
