"""Report files: every CSV table and JSON report is written here, and every
input table (scores, attributes, merged columns, labels) is read here.

One rule covers all of them: an undefined value (None or NaN) is written
as "n/a". Floats are written by repr, so a CSV cell reads back as the
same float. JSON reports are key-sorted, indented by two spaces and end
with a newline. The run manifest uses the same layout but keeps JSON null
for its unset config values. Reading, a missing file or a wrong header is
a ConfigError; a row of the wrong width or a number cell that is not a
finite float is a DataFormatError naming the file.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from .errors import ConfigError, DataFormatError

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


def read_csv(path, first_columns):
    """(header, rows) of a CSV table whose header starts with `first_columns`; blank lines are skipped."""
    if not Path(path).is_file():
        raise ConfigError(f"table file not found: {path}")
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[: len(first_columns)] != list(first_columns):
            raise ConfigError(f"{path}: expected a CSV header starting with the {','.join(first_columns)} column(s)")
        rows = []
        for row in filter(None, reader):
            if len(row) != len(header):
                raise DataFormatError(
                    f"line {reader.line_num} has {len(row)} fields, not {len(header)}", path=str(path)
                )
            rows.append(row)
    return header, rows


def read_number(cell, what, path):
    """The finite float in a table cell; `what` names the column and image in the error."""
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DataFormatError(f"{what} is not a finite number: {cell!r}", path=str(path))
    return value
