import importlib
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import robustcenter

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")


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


def test_a_failing_hypothesis_test_reports_its_assertion(tmp_path):
    # A deliberately failing @given test, run by a child pytest under the
    # project's settings, shows its assertion and falsifying example, not an
    # INTERNALERROR from a warning that its failure report raises.
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers(0, 10))\n"
        "def test_fails(x):\n"
        "    assert x < 5, 'deliberately failing'\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "AssertionError: deliberately failing" in out and "Falsifying example: test_fails(" in out
    assert "INTERNALERROR" not in out
