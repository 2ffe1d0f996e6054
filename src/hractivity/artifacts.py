"""The one writer of every run artifact.

JSON is key-sorted, indented by two and ends in a newline; CSV is csv's
excel dialect. Both are UTF-8 whatever the locale, so a run writes the same
bytes under any ``LC_ALL`` or ``PYTHONUTF8``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path


def write_json(payload, path: str | Path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_csv(path: str | Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
