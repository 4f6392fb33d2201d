"""Report files: every CSV table and JSON report is written here.

One rule covers all of them: an undefined value (None or NaN) is written
as "n/a". Floats are written by repr, so a CSV cell reads back as the
same float. JSON reports are key-sorted, indented by two spaces and end
with a newline. The run manifest uses the same layout but keeps JSON null
for its unset config values.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

NA = "n/a"


def defined(value):
    """`value` as a report writes it: NA when it is undefined (None or NaN)."""
    if value is None or (isinstance(value, float) and value != value):
        return NA
    return value


def _cell(value):
    value = defined(value)
    return repr(float(value)) if isinstance(value, float) else value


def write_csv(path, header, rows):
    """Write a header line, then one line per row of values."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(value) for value in row] for row in rows)


def _defined_tree(payload):
    if isinstance(payload, dict):
        return {key: _defined_tree(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_defined_tree(value) for value in payload]
    return defined(payload)


def write_json(path, payload, keep_null=False):
    """Write a JSON report; keep_null writes None as null (the manifest's unset values)."""
    if not keep_null:
        payload = _defined_tree(payload)
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
