"""Let subprocesses started by the suite (`python -m expscatter.cli`) import
the package from this checkout, as pytest's `pythonpath` setting does for
the suite itself, so a bare `pytest` needs no install."""

import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    part for part in (_SRC, os.environ.get("PYTHONPATH")) if part
)
