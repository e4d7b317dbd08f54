import importlib

import gbulab

MODULES = ("grid", "problem", "operators", "stepping", "spectral", "analysis", "barriers",
           "fieldio", "schema", "cli")


def test_package_exposes_its_modules_and_exports():
    # callers outside the package, such as a benchmark's tracer, look a
    # function up as gbulab.<module>.<name> after importing the CLI
    importlib.import_module("gbulab.cli")
    for name in MODULES:
        assert getattr(gbulab, name) is importlib.import_module(f"gbulab.{name}"), name
    for name in gbulab.__all__:
        assert getattr(gbulab, name) is not None, name
    assert gbulab.__version__
