"""JSON Lines artifact files: one header object, then one record object per line.

Every artifact one pipeline stage hands to the next (dataset, graph, refined
ratings, predictions) uses this format.  Lines are compact JSON
(``separators=(",", ":")``), UTF-8, ending in ``"\\n"``; blank lines are
ignored.  Reading owns every way a file can be malformed, so a loader only
converts objects: whatever a conversion raises surfaces as ``ParseError`` or
``SchemaError`` with the message prefixed by ``"{path}: line {n}: "``.

Writing has two encoders that give the same bytes for the same values:
``records`` dumps one dict per line (for records that are nested or vary in
shape), ``columns`` encodes a table of numpy columns whole, in blocks of
``ROW_BLOCK`` rows (for the per-edge files, where a per-record ``json.dumps``
is most of the cost).  Both feed ``write``, which owns the file.  Every
artifact writer, JSON Lines or not, opens its file through ``atomic_open``.

Reading is per line (``read``); a loader of a per-edge file gathers its
converted rows in ``Blocks``, which turns every ``ROW_BLOCK`` rows into numpy
columns, so no Python object per row outlives its block.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import uuid

import numpy as np

from .errors import ParseError, SchemaError

_SEPARATORS = (",", ":")

# What converting a malformed object raises: a missing key, a value of the
# wrong type or shape, or a string that is not a number.
_CONVERSION_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


# Rows encoded at once by ``columns`` (and records dumped, and rows gathered
# by ``Blocks``, per block).  Writing the 93k-edge files of an 800-group run
# took the same time with blocks of 256 to 4096 rows; 4096 raised the peak
# RSS of a 200-group pipeline run by 2.6 MB over per-record writing, 1024
# did not.
ROW_BLOCK = 1024


@contextlib.contextmanager
def atomic_open(path):
    """Open a text file for writing that replaces ``path`` only on a clean exit.

    The text goes to a temporary file in the same directory, written as given
    (UTF-8, no newline translation); ``os.replace`` puts it at ``path`` once
    the ``with`` block ends without an exception, so a write that fails
    partway leaves ``path`` as it was and no temporary file behind.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write(path, header: dict, *parts):
    """Write the ``header`` line, then the lines of each part in order.

    A part is an iterable of non-empty line blocks, as ``records`` and
    ``columns`` make them.  The file is written through ``atomic_open``.
    """
    with atomic_open(path) as fh:
        fh.write(json.dumps(header, separators=_SEPARATORS) + "\n")
        for block in itertools.chain.from_iterable(parts):
            fh.write("\n".join(block) + "\n")


def records(items):
    """Line blocks of the dicts in ``items``, each dumped by ``json.dumps``."""
    items = iter(items)
    while block := [
        json.dumps(record, separators=_SEPARATORS)
        for record in itertools.islice(items, ROW_BLOCK)
    ]:
        yield block


def _ints(values: np.ndarray) -> list[str]:
    return list(map(str, values.tolist()))


def _floats(values: np.ndarray) -> list[str]:
    text = list(map(float.__repr__, values.tolist()))
    for k in np.flatnonzero(~np.isfinite(values)).tolist():
        text[k] = json.dumps(float(values[k]))  # NaN, Infinity, -Infinity
    return text


def _strings(values: np.ndarray) -> list[str]:
    values = values.tolist()
    encoded = {s: json.dumps(s) for s in set(values)}
    return [encoded[s] for s in values]


_ENCODERS = {"i": _ints, "f": _floats, "U": _strings}


def columns(table: dict):
    """Line blocks of a ``{key: array}`` table, one line per row.

    Each column is a 1-D int, float or str array, or a 2-D one written as a
    JSON list per row; all have the same number of rows.  A line holds the
    keys in table order and equals ``json.dumps`` of the row's ``tolist()``
    values with compact separators.
    """
    arrays = [np.asarray(col) for col in table.values()]
    rows = len(arrays[0]) if arrays else 0
    if any(len(a) != rows for a in arrays):
        raise ValueError(f"columns of different lengths {[len(a) for a in arrays]}")
    slots = []  # (encoder, 1-D column) per "%s" in the template
    fields = []
    for key, a in zip(table, arrays):
        if a.dtype.kind not in _ENCODERS or a.ndim not in (1, 2):
            raise TypeError(f"column {key!r}: cannot encode {a.ndim}-D {a.dtype} values")
        encode = _ENCODERS[a.dtype.kind]
        if a.ndim == 1:
            slots.append((encode, a))
            value = "%s"
        else:
            slots.extend((encode, a[:, k]) for k in range(a.shape[1]))
            value = "[" + ",".join(["%s"] * a.shape[1]) + "]"
        fields.append(json.dumps(key).replace("%", "%%") + ":" + value)
    template = "{" + ",".join(fields) + "}"
    for start in range(0, rows, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, rows)
        encoded = [encode(col[start:stop]) for encode, col in slots]
        if encoded:
            yield [template % row for row in zip(*encoded)]
        else:  # only zero-width 2-D columns
            yield [template % ()] * (stop - start)


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


class Blocks:
    """Rows of fixed-type fields gathered into numpy columns, one block of
    ``ROW_BLOCK`` rows at a time.

    ``fields`` gives each field's dtype and the shape of one row's value
    (``()`` for a scalar, ``(k,)`` for a list of ``k`` numbers).  ``add``
    takes one row's values, converted and checked by the caller; ``arrays``
    returns one array per field, ``(rows, *shape)``, the blocks joined.
    """

    def __init__(self, *fields):
        self._fields = fields
        self._rows: list[tuple] = []
        self._blocks: list[list[np.ndarray]] = []

    def add(self, *row):
        self._rows.append(row)
        if len(self._rows) >= ROW_BLOCK:
            self._flush()

    def _flush(self):
        rows, self._rows = self._rows, []
        if rows:
            self._blocks.append(
                [
                    np.asarray(col, dtype=dtype).reshape(len(rows), *shape)
                    for col, (dtype, shape) in zip(zip(*rows), self._fields)
                ]
            )

    def arrays(self) -> list[np.ndarray]:
        self._flush()
        empty = [np.zeros((0, *shape), dtype=dtype) for dtype, shape in self._fields]
        return [np.concatenate(parts) for parts in zip(empty, *self._blocks)]
