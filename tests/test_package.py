"""The package namespace: every public name resolves on first use."""

import importlib
import subprocess
import sys

import pytest

import localpow


def test_each_public_name_is_its_defining_modules_object():
    for name in localpow.__all__:
        source = localpow._SOURCE[name]
        module = importlib.import_module(f"localpow.{source}")
        expected = module if name == source else getattr(module, name)
        assert getattr(localpow, name) is expected, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from localpow import *", namespace)
    for name in localpow.__all__:
        assert namespace[name] is getattr(localpow, name), name


def test_dir_lists_every_public_name_before_its_first_use():
    # in a fresh interpreter, where no name has been looked up yet
    script = "import localpow; print(sorted(set(localpow.__all__) - set(dir(localpow))))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        localpow.no_such_name
    with pytest.raises(ImportError):
        exec("from localpow import no_such_name", {})

