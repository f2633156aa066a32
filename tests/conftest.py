"""Let subprocesses started by the suite (`python -m expscatter.cli`) import
the package from this checkout, as pytest's `pythonpath` setting does for
the suite itself, so a bare `pytest` needs no install.  Every numeric row
the suite solves in process is checked to be finite."""

import math
import os
import pathlib

import pytest

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    part for part in (_SRC, os.environ.get("PYTHONPATH")) if part
)


@pytest.fixture(autouse=True)
def solved_rows_are_finite():
    """No row that ``match`` solves, anywhere in the suite, has a T, R, phi
    or theta that is not finite: a basis that cannot give one is refused."""
    from expscatter import numeric_scatter

    match = numeric_scatter.match

    def checked(basis, side="left"):
        result = match(basis, side)
        cells = (result.t_coeff, result.r_coeff, result.phi, result.theta)
        assert all(math.isfinite(cell) for cell in cells), result
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numeric_scatter, "match", checked)
        yield
