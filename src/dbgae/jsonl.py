"""JSON Lines artifact files: one header object, then one record object per line.

Every artifact one pipeline stage hands to the next (dataset, graph, refined
ratings, predictions) uses this format.  Lines are compact JSON
(``separators=(",", ":")``), UTF-8, ending in ``"\\n"``; blank lines are
ignored.  Reading owns every way a file can be malformed, so a loader only
converts objects: whatever a conversion raises surfaces as ``ParseError`` or
``SchemaError`` with the message prefixed by ``"{path}: line {n}: "``.  An
integer that int64 cannot hold is a ``ParseError`` of its line, and a float
or boolean where a loader reads an integer (``json_int``) a ``SchemaError``.

Writing has two encoders that give the same bytes for the same values:
``records`` dumps one dict per line (for records that are nested or vary in
shape), ``Columns`` encodes a table of numpy columns whole, in blocks of at
most ``ROW_BLOCK`` rows and ``BLOCK_VALUES`` values (for the per-edge files,
where a per-record ``json.dumps`` is most of the cost).  Both feed ``write``,
which owns the file.  Every artifact writer, JSON Lines or not, opens its
file through ``atomic_open``.

Column blocks are encoded on two cores where the platform has ``os.fork``.
An ``encoder`` block forks one process for a set of files: their
``Columns`` blocks, file after file, are cut once where the caller's
``work`` plus the blocks before the cut is about half of all the work (a
float counting ``FLOAT_SLOT_COST`` ints), and the encoder writes everything
after the cut into temporary files while the caller works; each ``write``
of one of these files writes its head and appends the encoder's part.  The
pipeline opens one such block for the graph and ratings files when training
ends; any other ``write`` runs in a block of its own file.  The bytes are
those of a serial write.

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
import uuid

import numpy as np

from . import runtime
from .errors import ParseError, SchemaError

_SEPARATORS = (",", ":")

# What converting a malformed object raises: a missing key, a value of the
# wrong type or shape, or a string that is not a number.
_CONVERSION_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def json_int(value, field: str) -> int:
    """``value`` if it is a JSON integer, else a SchemaError naming ``field``:
    ``int()`` would take 1.9 as 1 and true as 1.  Every loader reads its
    integer fields through it."""
    if type(value) is not int:
        raise SchemaError(f"{field} {value!r} is not an integer")
    return value


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
# of 3.5 (``_floats`` alone against ``_ints``: 4.2 to 7.1).  ``encoder``
# cuts the blocks of its files at the middle of this cost (and the
# caller's work, in the same units).  Since ``_floats`` formats a repeated
# value once, a float costs less where values repeat: an 800-group graph
# and ratings file now take 0.11 us a unit, both, and written alone, the
# two shares of the graph took 54 and 55 ms of serial CPU, those of the
# ratings 129 and 123.
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
    Inside an ``encoder`` block that holds ``path``, the encoder's share of
    the parts is appended from its file once it has written it; a file the
    running encoder does not hold is written here alone.  Outside one,
    ``write`` runs in an ``encoder`` of its own for this one file, so a file
    whose columns span two or more blocks is encoded on two processes.
    Either way the bytes are those of a serial write, and a part must do
    nothing but yield its lines.
    """
    with encoder({path: parts}) if _running is None else contextlib.nullcontext():
        head, split = _running.head(path, parts)
        with atomic_open(path) as fh:
            fh.write(json.dumps(header, separators=_SEPARATORS) + "\n")
            _write_parts(fh, head)
            if split:
                _running.append_tail(path, fh)


def _write_parts(fh, parts):
    for block in itertools.chain.from_iterable(parts):
        fh.write("\n".join(block) + "\n")


_running = None  # the ``_Encoder`` of the innermost ``encoder`` block, if any


@contextlib.contextmanager
def encoder(files: dict, work: int = 0):
    """Encode the tail of the column blocks of ``files`` in one forked process
    while the block runs.

    ``files`` maps each path to the parts ``write`` will later be given for
    it; their ``Columns`` blocks, file after file in this order, are cut
    once (``_cut``), and the forked encoder writes everything from the cut
    on into one temporary sibling file per file it reaches.  ``work`` is
    what the caller does before writing these files, in ``Columns`` cost
    units, so the cut leaves the encoder about half of all the work.  A
    ``write`` of a held file inside the block writes the head and appends
    the encoder's part once the encoder has finished that file.  No fork
    happens without ``os.fork`` or when the files span fewer than two
    blocks.

    On leaving the block the encoder is reaped, killed first if it still
    holds an unwritten file (the block raised, or skipped a file), and
    every temporary file it was given is removed.
    """
    global _running
    if _running is not None:
        raise RuntimeError("an encoder is already running in this process")
    _running = running = _Encoder()
    try:
        running.start({os.path.abspath(path): parts for path, parts in files.items()}, work)
        yield
    finally:
        _running = None
        running.stop()


def _cut(costs: list[int], work: int) -> int:
    """Index of the first block the encoder takes: the block boundary nearest
    the middle of ``work`` plus the blocks' ``costs``, with at least one
    block for the encoder and, when ``work`` is 0, at least one for the
    caller; ``len(costs)``, no encoder, for fewer than two blocks."""
    if len(costs) < 2:
        return len(costs)
    total = work + sum(costs)
    before = list(itertools.accumulate(costs[:-1], initial=work))  # the caller's, per cut
    first = 0 if work > 0 else 1
    return min(range(first, len(costs)), key=lambda k: abs(2 * before[k] - total))


def _block_costs(parts) -> list[list[int]]:
    return [part.block_costs() for part in parts if isinstance(part, Columns)]


def _split(parts, i: int, b: int):
    """``parts`` cut before block ``b`` of part ``i``, as (head, tail) lists."""
    if b == 0:
        return list(parts[:i]), list(parts[i:])
    return [*parts[:i], parts[i].blocks(0, b)], [parts[i].blocks(b), *parts[i + 1 :]]


class _Encoder:
    """The forked process of one ``encoder`` block and the caller's side of it.

    The encoder writes its share of each file it holds, in order, into that
    file's temporary sibling, and reports each finished file by one byte on
    a pipe; the caller reads the pipe only when it needs a file.
    """

    def __init__(self):
        self._cuts: dict = {}  # path -> (part index, block index, block costs)
        self._order: list = []  # held paths, in the encoder's order
        self._tails: dict = {}  # path -> temporary file of the encoder's share
        self._pid = None
        self._done_fd = None
        self._done = 0  # files the encoder has reported finished

    def start(self, files: dict, work: int):
        blocks = [  # (path, part index, block index) and cost of every Columns block
            ((path, i, b), cost)
            for path, parts in files.items()
            for i, part in enumerate(parts)
            if isinstance(part, Columns)
            for b, cost in enumerate(part.block_costs())
        ]
        k = _cut([cost for _, cost in blocks], work) if hasattr(os, "fork") else len(blocks)
        if k == len(blocks):
            return
        first, i, b = blocks[k][0]
        shares = []  # (path, the encoder's parts), from the file the cut falls in on
        for path, parts in files.items():
            if path == first or shares:
                cut = (i, b) if path == first else (0, 0)
                self._cuts[path] = (*cut, _block_costs(parts))
                self._order.append(path)
                shares.append((path, _split(parts, *cut)[1]))
        tails = []
        try:
            for path, _ in shares:
                directory, name = os.path.split(path)
                self._tails[path] = os.path.join(directory, f".{name}.{uuid.uuid4().hex}.tail.tmp")
                tails.append(open(self._tails[path], "x", encoding="utf-8", newline=""))
            self._done_fd, done_w = os.pipe()

            def encode():
                os.close(self._done_fd)
                _encode([(fh, parts) for fh, (_, parts) in zip(tails, shares)], done_w)

            try:
                self._pid = runtime.fork(encode)
            finally:
                os.close(done_w)
        finally:
            for fh in tails:  # the encoder has its own copies
                fh.close()

    def head(self, path, parts):
        """The caller's share of ``parts`` and whether the encoder writes the rest."""
        path = os.path.abspath(path)
        if path not in self._cuts:
            return parts, False
        i, b, costs = self._cuts.pop(path)
        if _block_costs(parts) != costs:
            raise ValueError(f"{path}: these are not the columns the encoder was given")
        return _split(parts, i, b)[0], True

    def append_tail(self, path, fh):
        """Wait until the encoder has written its share of ``path``, then
        append it to ``fh``; ``OSError`` naming ``path`` if the encoder
        exited before finishing it."""
        path = os.path.abspath(path)
        while self._done <= self._order.index(path):
            done = os.read(self._done_fd, 64)
            if not done:
                status, self._pid = runtime.reap(self._pid), None
                raise OSError(f"{path}: the encoder process exited with status {status}")
            self._done += len(done)
        fh.flush()
        with open(self._tails[path], "rb") as tail_fh:
            shutil.copyfileobj(tail_fh, fh.buffer)  # in bounded chunks
        os.remove(self._tails.pop(path))

    def stop(self):
        if self._pid is not None:
            # killed if the caller gave up on a file
            runtime.reap(self._pid, kill=self._done < len(self._order))
            self._pid = None
        if self._done_fd is not None:
            os.close(self._done_fd)
            self._done_fd = None
        for tail in self._tails.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(tail)
        self._tails.clear()


def _encode(shares, done_fd):
    """The forked encoder (``runtime.fork``): write each (file, parts) share,
    reporting each finished file by one byte on ``done_fd``.  Encoding makes
    no BLAS call."""
    for fh, parts in shares:
        with fh:
            _write_parts(fh, parts)
        os.write(done_fd, b".")


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
