"""JSON Lines artifact files: one header object, then one record object per line.

Every artifact one pipeline stage hands to the next (dataset, graph, refined
ratings, predictions) uses this format.  Lines are compact JSON
(``separators=(",", ":")``), UTF-8, ending in ``"\\n"``; blank lines are
ignored.  Reading owns every way a file can be malformed, so a loader only
converts objects: whatever a conversion raises surfaces as ``ParseError`` or
``SchemaError`` with the message prefixed by ``"{path}: line {n}: "``.  An
integer that int64 cannot hold is a ``ParseError`` of its line.

Writing has two encoders that give the same bytes for the same values:
``records`` dumps one dict per line (for records that are nested or vary in
shape), ``Columns`` encodes a table of numpy columns whole, in blocks of at
most ``ROW_BLOCK`` rows and ``BLOCK_VALUES`` values (for the per-edge files,
where a per-record ``json.dumps`` is most of the cost).  Both feed ``write``,
which owns the file.  When a file's columns span more than one block and the
platform has ``os.fork``, ``write`` encodes the second half of them (by
encoding cost, a float counting ``FLOAT_SLOT_COST`` ints) in a forked
process, so the float text of the per-edge files is made on two cores; the
bytes are those of a serial write.  Every artifact writer, JSON Lines or
not, opens its file through ``atomic_open``.

Reading is per line (``read``); a loader of a per-edge file gathers its
converted rows in ``Blocks``, which turns every ``ROW_BLOCK`` rows into numpy
columns, so no Python object per row outlives its block.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import shutil
import signal
import traceback
import uuid

import numpy as np

from .errors import ParseError, SchemaError

_SEPARATORS = (",", ":")

# What converting a malformed object raises: a missing key, a value of the
# wrong type or shape, or a string that is not a number.
_CONVERSION_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def _int64(text: str) -> int:
    """An integer literal as ``int``; ``ValueError`` if int64 cannot hold it."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"integer {text} does not fit in 64 bits")
    return value


# Every integer a loader reads ends up in an int64 array, so the decoder
# rejects larger ones on their own line rather than at a later conversion.
_DECODER = json.JSONDecoder(parse_int=_int64)

# Rows encoded at once by ``Columns`` (and records dumped, and rows gathered
# by ``Blocks``, per block).  Writing the 93k-edge files of an 800-group run
# took the same time with blocks of 256 to 4096 rows; 4096 raised the peak
# RSS of a 200-group pipeline run by 2.6 MB over per-record writing, 1024
# did not.
ROW_BLOCK = 1024
# Values ``Columns`` encodes at once, so a wide table takes shorter blocks.
# The pipeline writes every artifact after evaluate, on top of everything
# the run holds.  At 800 groups, 1024 rows of the 36-value instance nodes
# held 4.7 MB of strings (tracemalloc); with 2048 values a block,
# ``save_graph`` peaks at 1.1 MB and ``save_ratings`` at 1.0 MB, 1-3% slower
# than with 8192.
BLOCK_VALUES = 2048
# What a float value costs to encode, in units of an int or str value: the
# ``Columns`` row time, fitted to a row cost per float and per other slot
# over the graph and ratings tables (20,000 rows each, one core of a 2-core
# Xeon VM), came to 0.86 us a float against 0.24 us an int or str, a ratio
# of 3.5 (``_floats`` alone against ``_ints``: 4.2 to 7.1).  ``write``
# splits a file's columns at the middle of this cost.  Since ``_floats``
# formats a repeated value once, a float costs less where values repeat;
# the halves of an 800-group graph still took 54 and 55 ms of serial CPU,
# and those of its ratings 129 and 123 ms.
FLOAT_SLOT_COST = 4


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
    ``Columns`` make them.  The file is written through ``atomic_open``.
    When the ``Columns`` parts span more than one block and ``os.fork``
    exists, the blocks from the one nearest the middle of their encoding
    cost on, and every part after them, are encoded in a forked process (see
    ``_write_split``), so a part must do nothing but yield its lines; the
    bytes are those of a serial write.
    """
    with atomic_open(path) as fh:
        fh.write(json.dumps(header, separators=_SEPARATORS) + "\n")
        halves = _halves(parts) if hasattr(os, "fork") else None
        if halves is None:
            _write_parts(fh, parts)
        else:
            _write_split(path, fh, *halves)


def _write_parts(fh, parts):
    for block in itertools.chain.from_iterable(parts):
        fh.write("\n".join(block) + "\n")


def _halves(parts):
    """``parts`` cut at the block boundary of their ``Columns`` parts nearest
    the middle of their encoding cost, as (head, tail) part lists; ``None``
    when the columns span at most one block."""
    blocks = [  # (part index, block index) and cost of every Columns block
        ((i, b), cost)
        for i, part in enumerate(parts)
        if isinstance(part, Columns)
        for b, cost in enumerate(part.block_costs())
    ]
    if len(blocks) < 2:
        return None
    before = list(itertools.accumulate(cost for _, cost in blocks[:-1]))
    total = before[-1] + blocks[-1][1]
    k = min(range(len(before)), key=lambda k: abs(2 * before[k] - total))
    i, b = blocks[k + 1][0]  # the first block of the tail
    return [*parts[:i], parts[i].blocks(0, b)], [parts[i].blocks(b), *parts[i + 1 :]]


def _write_split(path, fh, head, tail):
    """Write ``head`` into ``fh`` while a forked encoder writes ``tail`` into
    a sibling file, then append that file to ``fh`` and delete it.

    The caller reaps the encoder in every case, killing it first if its own
    half or the wait raised; an encoder that fails raises ``OSError``
    naming ``path``, so ``atomic_open`` leaves the target as it was.
    """
    fh.flush()  # the encoder inherits the buffer: nothing in it may be written twice
    tail_path = os.path.splitext(fh.name)[0] + ".tail.tmp"
    try:
        with open(tail_path, "x", encoding="utf-8", newline="") as tail_fh:
            pid = os.fork()
            if pid == 0:
                _encode_and_exit(tail_fh, tail)
        status = None
        try:
            _write_parts(fh, head)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        finally:
            if status is None:  # the caller's half, or its wait, raised
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        if status != 0:
            raise OSError(f"{path}: the encoder process exited with status {status}")
        fh.flush()
        with open(tail_path, "rb") as tail_fh:
            shutil.copyfileobj(tail_fh, fh.buffer)  # in bounded chunks
    finally:
        os.remove(tail_path)


def _encode_and_exit(fh, parts):
    """The forked encoder: write ``parts`` into ``fh`` and leave the process
    by ``os._exit``, never returning into the caller's code.

    Encoding makes no BLAS call, which a child of a process with BLAS
    threads must not make.  Whatever it raises is printed straight to file
    descriptor 2 (no inherited buffer is flushed) and ends it with status 1.
    """
    status = 1
    try:
        _write_parts(fh, parts)
        fh.close()
        status = 0
    except BaseException:  # the process ends here either way
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


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
    """The text of each value, each distinct bit pattern formatted once.

    Patterns, not values, are the unit, so 0.0 and -0.0 keep their own
    text.  The per-edge files repeat many values (88,391 cross weights of an
    800-group graph take 564 distinct ones), and a ``repr`` costs more than
    the sort that finds the repeats.
    """
    distinct, index = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    distinct = distinct.view(values.dtype)
    text = list(map(repr, distinct.tolist()))
    for k in np.flatnonzero(~np.isfinite(distinct)).tolist():
        text[k] = json.dumps(float(distinct[k]))  # NaN, Infinity, -Infinity
    return np.asarray(text, dtype=object)[index].tolist()


def _strings(values: np.ndarray) -> list[str]:
    values = values.tolist()
    encoded = {s: json.dumps(s) for s in set(values)}
    return [encoded[s] for s in values]


_ENCODERS = {"i": _ints, "f": _floats, "U": _strings}


class Columns:
    """Line blocks of a ``{key: array}`` table, one line per row.

    Each column is a 1-D int, float (at most 8 bytes wide) or str array, or
    a 2-D one written as a JSON list per row; all have the same number of
    rows.  A line holds the keys in table order and equals ``json.dumps`` of
    the row's ``tolist()`` values with compact separators.  Iterating yields
    every block; ``blocks(start, stop)`` yields a range of them.
    """

    def __init__(self, table: dict):
        arrays = [np.asarray(col) for col in table.values()]
        self.rows = len(arrays[0]) if arrays else 0
        if any(len(a) != self.rows for a in arrays):
            raise ValueError(f"columns of different lengths {[len(a) for a in arrays]}")
        self._columns = []  # (encoder, column, its "%s" in the template)
        fields = []
        for key, a in zip(table, arrays):
            # a float wider than 8 bytes has no int view for ``_floats``
            wide = a.dtype.kind == "f" and a.itemsize > 8
            if a.dtype.kind not in _ENCODERS or a.ndim not in (1, 2) or wide:
                raise TypeError(f"column {key!r}: cannot encode {a.ndim}-D {a.dtype} values")
            width = 1 if a.ndim == 1 else a.shape[1]
            self._columns.append((_ENCODERS[a.dtype.kind], a, width))
            value = "%s" if a.ndim == 1 else "[" + ",".join(["%s"] * width) + "]"
            fields.append(json.dumps(key).replace("%", "%%") + ":" + value)
        self._template = "{" + ",".join(fields) + "}"
        slots = sum(width for _, _, width in self._columns)
        self._step = max(1, min(ROW_BLOCK, BLOCK_VALUES // max(slots, 1)))

    def block_costs(self) -> list[int]:
        """Encoding cost per block: rows times the slots' ``FLOAT_SLOT_COST``
        or 1 (rows per block for a zero-width table)."""
        width = max(
            sum(w * (FLOAT_SLOT_COST if enc is _floats else 1) for enc, _, w in self._columns), 1
        )
        return [
            (min(start + self._step, self.rows) - start) * width
            for start in range(0, self.rows, self._step)
        ]

    def __iter__(self):
        return self.blocks()

    def blocks(self, start=0, stop=None):
        """Line blocks ``start`` up to ``stop`` (to the last when ``None``)."""
        end = self.rows if stop is None else min(stop * self._step, self.rows)
        for first in range(start * self._step, end, self._step):
            last = min(first + self._step, self.rows)
            slots = []  # the text of each "%s", one entry per row
            for encode, col, width in self._columns:
                # a 2-D block is encoded in one call, row by row
                text = encode(col[first:last].reshape(-1))
                slots.extend(text[k::width] for k in range(width))
            if slots:
                yield [self._template % row for row in zip(*slots)]
            else:  # only zero-width 2-D columns
                yield [self._template % ()] * (last - first)


def read(path, on_header, on_record):
    """Call ``on_header`` with the first object of the file, then ``on_record``
    with each following object, in file order."""
    convert = on_header
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                obj = _DECODER.decode(raw.decode("utf-8"))
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
