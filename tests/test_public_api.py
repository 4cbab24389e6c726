"""The documented public API must stay importable from the package root."""

import os
import subprocess
import sys
from pathlib import Path

import repro


class TestPublicApi:
    def test_all_exports_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_surface(self):
        """The README quickstart symbols."""
        for name in (
            "CloudEnvironment",
            "DarwinGame",
            "DarwinGameConfig",
            "VMSpec",
            "make_application",
        ):
            assert name in repro.__all__

    def test_baselines_exported(self):
        for name in (
            "ActiveHarmonyLike",
            "BlissLike",
            "ExhaustiveSearch",
            "HybridTuner",
            "OpenTunerLike",
            "RandomSearch",
        ):
            assert name in repro.__all__

    def test_docstrings_on_public_classes(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, type) or callable(obj):
                assert obj.__doc__, f"repro.{name} lacks a docstring"


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    """`import repro` and the CLI stay off the slow scipy submodules, and
    off `sqlite3`, which no store needs.

    Runs in a fresh interpreter, since other tests load both into this one.
    """
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    probe = (
        "import sys, repro, repro.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.optimize', 'sqlite3') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
