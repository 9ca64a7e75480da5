"""Deterministic CSV/JSON artifact writers.

Every artifact embeds the build id and the parameters its command read
(those of dimension, power, tolerances, sign convention and
normalization mode that apply) in '#'-prefixed header lines (CSV) or a
"config" object (JSON).  Floats are formatted with 17
significant digits so identical configurations produce byte-identical
files.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence

from . import __version__
from .ledger import format_number


def build_id() -> str:
    return f"fowler4 {__version__}"


def config_header(config: Dict) -> List[str]:
    lines = [f"# build: {build_id()}"]
    for key in sorted(config):
        lines.append(f"# {key}: {format_number(config[key])}")
    return lines


def write_csv(columns: Sequence[str], rows: Iterable[Sequence], config: Dict) -> str:
    buf = io.StringIO()
    for line in config_header(config):
        buf.write(line + "\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(format_number(v) if isinstance(v, (int, float, Fraction))
                           else str(v) for v in row) + "\n")
    return buf.getvalue()


def _jsonable(x):
    if isinstance(x, Fraction):
        return format_number(x)
    if isinstance(x, float):
        return float(format(x, ".17g"))
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if hasattr(x, "tolist"):
        return _jsonable(x.tolist())
    return x


def write_json(config: Dict, results) -> str:
    doc = {"config": _jsonable({**config, "build": build_id()}),
           "results": _jsonable(results),
           "ledger": []}    # always empty; kept so JSON artifacts keep their layout
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def gnuplot_companion(csv_path: str, columns: Sequence[str]) -> str:
    """Plain-text gnuplot script for a written CSV (never executed)."""
    lines = [f"# companion plot script for {csv_path}",
             "set datafile separator ','",
             "set key autotitle columnhead"]
    for i in range(2, len(columns) + 1):
        lines.append(f"plot '{csv_path}' using 1:{i} with lines")
    return "\n".join(lines) + "\n"
