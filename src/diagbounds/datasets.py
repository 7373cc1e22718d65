"""Bundled example datasets and count-file ingestion.

Counts are accepted either as JSON objects with keys n11, n01, n10, n00
(outcome (t, r) = (1,1), (0,1), (1,0), (0,0); extra keys are treated as
provenance and ignored) or as CSV with header ``t,r,count``.
"""

from __future__ import annotations

import csv
import json
from importlib import resources
from pathlib import Path

from .probability import CellCounts

__all__ = ["list_datasets", "load_dataset", "read_counts"]

_DATASETS = ("eua_symptomatic", "shah_symptomatic", "shah_asymptomatic")


def list_datasets() -> tuple[str, ...]:
    return _DATASETS


def load_dataset(name: str) -> CellCounts:
    if name not in _DATASETS:
        raise KeyError(f"unknown dataset {name!r}; available: {_DATASETS}")
    text = resources.files("diagbounds.data").joinpath(f"{name}.json").read_text()
    return _counts_from_json(json.loads(text))


def _count(value):
    """An integral JSON number as an int; CellCounts rejects anything else."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _counts_from_json(obj: dict) -> CellCounts:
    try:
        return CellCounts(*(_count(obj[key]) for key in ("n11", "n01", "n10", "n00")))
    except KeyError as exc:
        raise ValueError(f"counts JSON must contain keys n11, n01, n10, n00; missing {exc}")


def _counts_from_csv(text: str) -> CellCounts:
    reader = csv.DictReader(text.splitlines())
    if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["t", "r", "count"]:
        raise ValueError("counts CSV must have header 't,r,count'")
    cells = {}
    for row in reader:
        key = (int(row["t"]), int(row["r"]))
        if key[0] not in (0, 1) or key[1] not in (0, 1):
            raise ValueError(f"t and r must be binary, got {key}")
        if key in cells:
            raise ValueError(f"duplicate cell {key} in counts CSV")
        cells[key] = int(row["count"])
    missing = {(1, 1), (0, 1), (1, 0), (0, 0)} - set(cells)
    if missing:
        raise ValueError(f"counts CSV is missing cells {sorted(missing)}")
    return CellCounts(
        n11=cells[(1, 1)], n01=cells[(0, 1)], n10=cells[(1, 0)], n00=cells[(0, 0)]
    )


def read_counts(path: "str | Path") -> CellCounts:
    """Load counts from a JSON or CSV file (suffix decides the format)."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"counts file not found: {p}")
    text = p.read_text()
    if p.suffix.lower() == ".csv":
        return _counts_from_csv(text)
    return _counts_from_json(json.loads(text))
