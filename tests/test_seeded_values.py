"""Seeded outputs pinned at rtol 1e-10: a change that moves one fails here.

``seeded_values.json`` holds a few scalars of every case of
``scripts/output_digests.py`` (thresholds, their standard errors, lambda,
clipped mass, the extreme half widths, T, F and p-values) and one small
``run_experiment`` row per method.  Values are compared at rtol 1e-10, not by
hash, since byte digests depend on the BLAS build; a value that is zero up to
rounding is compared at an absolute 1e-12.  A row's rate and failure count
are compared exactly.  A change that moves a seeded output on purpose
regenerates the table and says which values moved:

    PYTHONPATH=src python scripts/output_digests.py --pin tests/seeded_values.json
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
with open(ROOT / "tests" / "seeded_values.json") as fh:
    PINNED = json.load(fh)


@pytest.fixture(scope="module")
def actual():
    spec = importlib.util.spec_from_file_location("output_digests",
                                                  ROOT / "scripts" / "output_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    return digests.pinned_values()


def test_table_covers_every_case(actual):
    assert {case: sorted(values) for case, values in actual.items()} == {
        case: sorted(values) for case, values in PINNED.items()}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_seeded_value_is_pinned(case, actual):
    moved = {}
    for key, want in PINNED[case].items():
        got = actual[case].get(key)
        if case.startswith("row ") and key in ("rate", "failures"):
            same = got == want
        elif isinstance(want, float):
            same = isinstance(got, float) and (
                math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12)
                or math.isnan(got) and math.isnan(want))
        else:
            same = got == want and type(got) is type(want)
        if not same:
            moved[key] = (want, got)
    assert not moved, f"{case}: (pinned, now) {moved}"
