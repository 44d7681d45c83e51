"""JSON Lines artifact files: one header object, then one record object per line.

Every artifact one pipeline stage hands to the next (dataset, graph, refined
ratings, predictions) uses this format.  Lines are compact JSON
(``separators=(",", ":")``), UTF-8, ending in ``"\\n"``; blank lines are
ignored.  Reading owns every way a file can be malformed, so a loader only
converts objects: whatever a conversion raises surfaces as ``ParseError`` or
``SchemaError`` with the message prefixed by ``"{path}: line {n}: "``.
"""

from __future__ import annotations

import json

from .errors import ParseError, SchemaError

_SEPARATORS = (",", ":")

# What converting a malformed object raises: a missing key, a value of the
# wrong type or shape, or a string that is not a number.
_CONVERSION_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def write(path, header: dict, records):
    """Write ``header`` and then each dict of the iterable ``records``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, separators=_SEPARATORS) + "\n")
        for record in records:
            fh.write(json.dumps(record, separators=_SEPARATORS) + "\n")


def read(path, on_header, on_record):
    """Call ``on_header`` with the first object of the file, then ``on_record``
    with each following object, in file order."""
    convert = on_header
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw.decode("utf-8"))
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
            if not isinstance(obj, dict):
                raise ParseError(
                    f"{path}: line {lineno}: expected a JSON object, got {type(obj).__name__}"
                )
            try:
                convert(obj)
            except SchemaError as exc:
                raise SchemaError(f"{path}: line {lineno}: {exc}") from exc
            except _CONVERSION_ERRORS as exc:
                raise ParseError(f"{path}: line {lineno}: {exc!r}") from exc
            convert = on_record
    if convert is on_header:
        raise ParseError(f"{path}: empty file, missing header line")
