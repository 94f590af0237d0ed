"""Versioned, deterministically-serialized benchmark artifacts.

One ``perf run`` produces one JSON document.  The copy committed at the
repo root as ``BENCH_PR<k>.json`` is the perf trajectory: one artifact
per PR, comparable pairwise by :mod:`repro.perf.compare`.

Serialization is deterministic: keys are sorted, indentation is fixed,
seeds and bench parameters are recorded, and no timestamps are
embedded — re-running the same code yields the same bytes apart from
the host ``environment`` block.  Artifacts up to ``BENCH_PR10.json``
also carry per-case ``repeats``/``wall_seconds`` and a
``wall:seconds`` metric; they still load, and the gate ignores them.
"""

from __future__ import annotations

import json
import os
import platform
import re
import sys
from pathlib import Path
from typing import Dict, List, Union

from ..sim.cost_model import DEFAULT_COST_MODEL
from .suite import SuiteResult

#: schema identifier; bump the suffix on breaking layout changes
SCHEMA = "repro.perf/1"

#: the trajectory naming convention at the repo root
ARTIFACT_GLOB = "BENCH_*.json"
_LABEL_RE = re.compile(r"^BENCH_(?P<label>[A-Za-z0-9_.-]+)\.json$")
_PR_RE = re.compile(r"^PR(?P<num>\d+)$")


class ArtifactError(ValueError):
    """A benchmark artifact is malformed or has the wrong schema."""


def environment_info() -> Dict[str, object]:
    """Host metadata recorded for context (never compared)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "cpu_count": os.cpu_count() or 0,
    }


def suite_to_doc(result: SuiteResult, label: str) -> dict:
    """Build the schema-v1 document for one suite run."""
    cases = {}
    for run in result.cases:
        cases[run.case] = {
            "seed": run.seed,
            "metrics": dict(run.metrics),
            "params": dict(run.params),
        }
    return {
        "schema": SCHEMA,
        "label": label,
        "tier": result.tier,
        "cost_model": DEFAULT_COST_MODEL.as_dict(),
        "environment": environment_info(),
        "cases": cases,
    }


def dumps(doc: dict) -> str:
    """Canonical serialization: sorted keys, 2-space indent, newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def validate(doc: object, *, path: Union[str, Path, None] = None) -> dict:
    """Check a loaded document against the schema; return it typed."""
    where = f" ({path})" if path else ""
    if not isinstance(doc, dict):
        raise ArtifactError(f"artifact is not a JSON object{where}")
    schema = doc.get("schema")
    if schema != SCHEMA:
        raise ArtifactError(
            f"unsupported artifact schema {schema!r}, expected {SCHEMA!r}{where}"
        )
    for key in ("label", "tier", "cost_model", "cases"):
        if key not in doc:
            raise ArtifactError(f"artifact missing key {key!r}{where}")
    if doc["tier"] not in ("quick", "full"):
        raise ArtifactError(f"unknown tier {doc['tier']!r}{where}")
    if not isinstance(doc["cases"], dict) or not doc["cases"]:
        raise ArtifactError(f"artifact has no cases{where}")
    for name, case in doc["cases"].items():
        if not isinstance(case, dict):
            raise ArtifactError(f"case {name!r} is not an object{where}")
        for key in ("seed", "metrics"):
            if key not in case:
                raise ArtifactError(f"case {name!r} missing {key!r}{where}")
        metrics = case["metrics"]
        if not isinstance(metrics, dict):
            raise ArtifactError(f"case {name!r} metrics not an object{where}")
        for mname, value in metrics.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ArtifactError(
                    f"case {name!r} metric {mname!r} is not a number{where}"
                )
    return doc


def write_artifact(path: Union[str, Path], doc: dict) -> Path:
    """Validate and write one artifact document."""
    path = Path(path)
    validate(doc, path=path)
    path.write_text(dumps(doc))
    return path


def load_artifact(path: Union[str, Path]) -> dict:
    """Load and validate one artifact document."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as e:
        raise ArtifactError(f"cannot read artifact {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ArtifactError(f"artifact {path} is not valid JSON: {e}") from None
    return validate(doc, path=path)


def _sort_key(path: Path):
    """PR-numbered artifacts in PR order, then everything else by name."""
    m = _LABEL_RE.match(path.name)
    label = m.group("label") if m else path.stem
    pr = _PR_RE.match(label)
    if pr:
        return (0, int(pr.group("num")), label)
    return (1, 0, label)


def find_artifacts(root: Union[str, Path]) -> List[Path]:
    """All ``BENCH_*.json`` trajectory files under ``root``, oldest first."""
    root = Path(root)
    return sorted(root.glob(ARTIFACT_GLOB), key=_sort_key)


def label_of(path: Union[str, Path]) -> str:
    """'BENCH_PR3.json' -> 'PR3' (falls back to the stem)."""
    name = Path(path).name
    m = _LABEL_RE.match(name)
    return m.group("label") if m else Path(path).stem


def next_label(root: Union[str, Path]) -> str:
    """The next free PR<k> label for the trajectory at ``root``.

    With no prior artifacts this is ``PR3`` — the trajectory starts at
    this repo's PR 3, which introduced the subsystem.
    """
    best = 2
    for path in find_artifacts(root):
        pr = _PR_RE.match(label_of(path))
        if pr:
            best = max(best, int(pr.group("num")))
    return f"PR{best + 1}"
