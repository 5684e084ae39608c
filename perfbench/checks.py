"""Validators for the outputs the benchmark times.

Each function returns a list of problems; an empty list means the output
passed. They read plain dicts and arrays, so a test can hand them a doctored
result.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

# Relative slack around the Gaussian threshold bounds, for Monte-Carlo error.
MC_SLACK = 0.05


def gaussian_threshold_range(gamma: float, m: int) -> tuple[float, float]:
    """Bounds on the sup-norm quantile of a unit-variance Gaussian process on m
    points: the single-point quantile below, the Bonferroni quantile above."""
    z = NormalDist().inv_cdf
    return (z(1.0 - gamma / 2.0) * (1.0 - MC_SLACK),
            z(1.0 - gamma / (2.0 * m)) * (1.0 + MC_SLACK))


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def threshold_problems(tag: str, threshold, gaussian: tuple[float, int] | None) -> list:
    """``gaussian`` is ``(gamma, m)`` when the threshold is a Gaussian sup-norm
    quantile, or None when only finiteness and sign can be checked."""
    if not _finite(threshold) or threshold <= 0:
        return [f"{tag}: threshold {threshold!r} is not finite and positive"]
    if gaussian is not None:
        lo, hi = gaussian_threshold_range(*gaussian)
        if not lo <= threshold <= hi:
            return [f"{tag}: threshold {threshold:.4f} outside [{lo:.4f}, {hi:.4f}]"]
    return []


def band_problems(tag: str, center, lower, upper) -> list:
    center, lower, upper = (np.asarray(a, dtype=float) for a in (center, lower, upper))
    if not center.shape == lower.shape == upper.shape or center.size == 0:
        return [f"{tag}: band arrays have shapes {center.shape}, {lower.shape}, {upper.shape}"]
    if not (np.all(np.isfinite(center)) and np.all(np.isfinite(lower))
            and np.all(np.isfinite(upper))):
        return [f"{tag}: band has non-finite values"]
    if not (np.all(lower <= center) and np.all(center <= upper)):
        return [f"{tag}: band violates lower <= center <= upper"]
    return []


def symmetric_band_problems(tag: str, center, lower, upper, threshold, gaussian) -> list:
    """A Gaussian band: finite, symmetric about its center, and with a
    threshold inside the Gaussian bounds."""
    problems = threshold_problems(tag, threshold, gaussian)
    problems += band_problems(tag, center, lower, upper)
    if not problems:
        above = np.asarray(upper, dtype=float) - np.asarray(center, dtype=float)
        below = np.asarray(center, dtype=float) - np.asarray(lower, dtype=float)
        if not np.allclose(above, below, rtol=1e-9, atol=1e-12 * float(np.max(above, initial=1.0))):
            problems.append(f"{tag}: band is not symmetric about its center")
    return problems


def sim_row_problems(row: dict, gamma: float, m: int) -> list:
    """One ``ExperimentRow.to_dict()`` of a run on an m-point grid.

    The rate must lie in [0,1]. The median threshold of the Gaussian methods
    must lie within the Gaussian bounds; a bootstrap threshold must be finite
    and positive; PLRT rows carry no threshold.
    """
    tag = f"{row['method']}@{row['model']}"
    rate = row["rate"]
    problems = []
    if not (_finite(rate) and 0.0 <= rate <= 1.0):
        problems.append(f"{tag}: rate {rate!r} outside [0,1]")
    if row["method"] in ("normal-scb", "gof-scb"):
        problems += threshold_problems(tag, row["median_threshold"], (gamma, m))
    elif row["method"] == "bootstrap-scb":
        problems += threshold_problems(tag, row["median_threshold"], None)
    return problems


def _load_json(path: Path, problems: list):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: {exc}")
        return None


def cli_session_problems(exit_codes: dict, outdir: Path, gamma: float, m: int) -> list:
    """Checks one CLI session: every subcommand exited 0 and every ``--out``
    JSON it wrote parses to a valid band, test statistic or p-value.

    ``exit_codes`` maps the ``--out`` prefix of each subcommand to its exit
    code; prefixes are scb, boot, gof, cmp and pred.
    """
    problems = [f"{name}: exit code {code}" for name, code in exit_codes.items() if code != 0]
    gaussian = (gamma, m)
    for name, tag in (("scb", "scb"), ("boot", "scb --method bootstrap"),
                      ("cmp", "compare"), ("pred", "predict")):
        band = _load_json(outdir / f"{name}.json", problems)
        if band is None:
            continue
        problems += band_problems(tag, band["center"], band["lower"], band["upper"])
        problems += threshold_problems(tag, band["threshold"],
                                       None if name == "boot" else gaussian)
    pred = _load_json(outdir / "pred.json", [])
    coverage = pred.get("test_coverage") if pred else None
    if not (_finite(coverage) and 0.0 <= coverage <= 1.0):
        problems.append(f"predict: test coverage {coverage!r} outside [0,1]")
    gof = _load_json(outdir / "gof.json", problems)
    if gof is not None:
        if not _finite(gof["T"]):
            problems.append(f"gof: T {gof['T']!r} is not finite")
        problems += threshold_problems("gof", gof["c_alpha"], gaussian)
        band = gof["band"]
        problems += band_problems("gof", band["center"], band["lower"], band["upper"])
    plrt = _load_json(outdir / "gof.plrt.json", problems)
    if plrt is not None:
        if not _finite(plrt["F"]):
            problems.append(f"plrt: F {plrt['F']!r} is not finite")
        if not (_finite(plrt["p_value"]) and 0.0 <= plrt["p_value"] <= 1.0):
            problems.append(f"plrt: p {plrt['p_value']!r} outside [0,1]")
    return problems
