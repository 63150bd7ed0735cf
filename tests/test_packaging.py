import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import relaydde

tomllib = pytest.importorskip("tomllib")   # standard library from Python 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_declared_dependencies_import():
    deps = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    for spec in deps:
        name = re.match(r"[A-Za-z0-9_.-]+", spec).group(0)
        importlib.import_module(name.replace("-", "_"))


def test_every_module_imports():
    for mod in pkgutil.walk_packages(relaydde.__path__, "relaydde."):
        importlib.import_module(mod.name)
