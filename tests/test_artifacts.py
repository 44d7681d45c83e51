"""Artifact files across modules: the shared JSON Lines format (dataset,
graph, ratings, predictions), the parameter checkpoint, and the atomic
writes every artifact writer shares."""

import contextlib
import errno
import json
import os
import struct
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbgae import jsonl
from dbgae.data import GeneratorConfig, generate_synthetic, load_dataset, save_dataset
from dbgae.errors import DbgaeError, ParseError, SchemaError
from dbgae.evaluation import build_report, save_curves, save_report
from dbgae.graph import (
    CrossGraph,
    DualBipartiteGraph,
    WithinGraph,
    build_dual_graph,
    graphs_equal,
    load_graph,
    save_graph,
)
from dbgae.inference import load_predictions, pool_labels, save_predictions
from dbgae.model import (
    ModelConfig,
    RatingMatrix,
    load_params,
    load_ratings,
    ratings_equal,
    save_loss_trace,
    save_params,
    save_ratings,
    train,
)
from dbgae.pipeline import RunConfig, SweepRow, save_config, save_sweep, save_sweep_errors
from oracles import graph_records, ratings_records, table_records, write_records_reference

LOADERS = {
    "dataset": load_dataset,
    "graph": load_graph,
    "ratings": load_ratings,
    "predictions": load_predictions,
    "params": load_params,
}


def resave(kind, path, out):
    if kind == "predictions":
        method, predictions = load_predictions(path)
        save_predictions(predictions, method, out)
        return
    savers = {
        "dataset": save_dataset,
        "graph": save_graph,
        "ratings": save_ratings,
        "params": save_params,
    }
    savers[kind](LOADERS[kind](path), out)


@pytest.fixture(scope="module")
def small_run():
    """A small dataset, its graph (within and cross edges) and a 2-epoch training."""
    ds = generate_synthetic(
        GeneratorConfig(
            num_classes=4,
            feature_dim=3,
            num_groups=8,
            min_instances=2,
            max_instances=3,
            null_rate=0.2,
            cross_rate=0.2,
            distractor_rate=0.5,
            separation=1.0,
            noise_scale=0.05,
            rng_seed=1,
        )
    )
    graph = build_dual_graph(ds)
    assert len(graph.within.inst) and len(graph.cross.inst)
    result = train(graph, ModelConfig(gcn_hidden=4, dense_hidden=3, num_heads=1, epochs=2))
    return ds, graph, result


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, small_run):
    """One small valid file of every artifact kind, with within and cross edges."""
    ds, graph, result = small_run
    root = tmp_path_factory.mktemp("artifacts")
    paths = {kind: root / f"{kind}.jsonl" for kind in LOADERS}
    paths["params"] = root / "params.json"
    save_dataset(ds, paths["dataset"])
    save_graph(graph, paths["graph"])
    save_ratings(result.ratings, paths["ratings"])
    save_predictions(pool_labels(result.ratings, graph), "dbgae", paths["predictions"])
    save_params(result.params, paths["params"])
    return paths


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_save_load_save_is_byte_identical(artifacts, tmp_path, kind):
    out = tmp_path / artifacts[kind].name
    resave(kind, artifacts[kind], out)
    assert out.read_bytes() == artifacts[kind].read_bytes()


def _array(obj):
    return [1, 2]


def _drop(key):
    def edit(obj):
        del obj[key]
        return obj

    return edit


def _set(key, value):
    def edit(obj):
        obj[key] = value
        return obj

    return edit


def _short_p(obj):
    obj["p"] = obj["p"][:-1]
    return obj


def _first_feature(value):
    def edit(obj):
        obj["features"][0] = value
        return obj

    return edit


def _meta(key, value):
    def edit(obj):
        obj["meta"][key] = value
        return obj

    return edit


def _first_shape_entry_of(name, convert):
    def edit(obj):
        shape = obj["tensors"][name]["shape"]
        shape[0] = convert(shape[0])
        return obj

    return edit


def _first_weight_of(name, value):
    def edit(obj):
        obj["tensors"][name]["data"][0] = value
        return obj

    return edit


KINDS = ("dataset", "graph", "ratings", "predictions")  # the JSON Lines artifacts
MALFORMED = [
    # artifact, line to edit, edit of its decoded object, error, message fragment
    *[pytest.param(k, 2, _array, ParseError, "line 2", id=f"{k}-array-line") for k in KINDS],
    *[pytest.param(k, 1, _array, ParseError, "line 1", id=f"{k}-array-header") for k in KINDS],
    *[
        pytest.param(kind, 1, _drop(key), ParseError, "line 1", id=f"{kind}-no-{key}")
        for kind, key in [
            ("dataset", "feature_dim"),
            ("graph", "num_instances"),
            ("ratings", "levels"),
            ("predictions", "method"),
        ]
    ],
    *[  # line 84 is the first cross edge
        pytest.param("graph", 84, _set("via", via), SchemaError, "line 84", id=f"graph-via-{via}")
        for via in (-1, 10**6)
    ],
    *[
        pytest.param("ratings", 1, _set("levels", levels), SchemaError, "line 1: levels", id=name)
        for name, levels in [
            ("ratings-levels-above-1", [0.0, 2.0]),
            ("ratings-levels-decreasing", [1.0, 0.0]),
            ("ratings-levels-single", [0.5]),
            ("ratings-levels-nan", [0.0, float("nan"), 1.0]),
        ]
    ],
    *[  # sizes no file of this length can hold, rejected before allocating
        pytest.param("graph", 1, _set(key, 10**12), SchemaError, "line 1: num_instances", id=name)
        for name, key in [
            ("graph-num-instances-huge", "num_instances"),
            ("graph-feature-dim-huge", "feature_dim"),
        ]
    ],
    *[  # line 2 holds instance 0, line 40 the first within edge
        pytest.param("graph", line, edit, SchemaError, fragment, id=f"graph-{name}")
        for line, edit, fragment, name in [
            (40, _set("w", float("nan")), "line 40: non-finite edge weight nan", "within-w-nan"),
            (84, _set("w", float("inf")), "line 84: non-finite edge weight inf", "cross-w-inf"),
            (2, _first_feature(float("nan")), "line 2: instance node_id 0 has non-finite", "feature-nan"),
            (2, _first_feature(float("-inf")), "line 2: instance node_id 0 has non-finite", "feature-inf"),
            (40, _set("c", 0), "line 40: within edge count 0 below 1", "within-c-0"),
            (40, _set("c", -3), "line 40: within edge count -3 below 1", "within-c--3"),
        ]
    ],
    *[
        pytest.param(
            kind, 1, _set("num_classes", -1), SchemaError, "line 1: num_classes -1 below 1",
            id=f"{kind}-num-classes--1",
        )
        for kind in ("dataset", "graph")
    ],
    *[
        pytest.param(
            kind, 1, _set("feature_dim", -1), SchemaError, "line 1: feature_dim -1 below 0",
            id=f"{kind}-feature-dim--1",
        )
        for kind in ("dataset", "graph")
    ],
    pytest.param("ratings", 2, _short_p, SchemaError, "line 2", id="ratings-short-p"),
    pytest.param(  # line 2 holds instance 0
        "predictions",
        3,
        _set("instance_id", 0),
        SchemaError,
        "line 3: duplicate instance_id 0",
        id="predictions-repeated-instance",
    ),
    pytest.param("ratings", 2, _set("src", -1), SchemaError, "line 2", id="ratings-src--1"),
    pytest.param("params", 1, _drop("meta"), SchemaError, "'meta'", id="params-no-meta"),
    pytest.param("params", 1, _drop("tensors"), SchemaError, "'tensors'", id="params-no-tensors"),
    *[
        pytest.param(
            "params",
            1,
            _first_weight_of("Wf", value),
            SchemaError,
            "tensor 'Wf' holds a non-finite value",
            id=f"params-{value}",
        )
        for value in (float("nan"), float("inf"), float("-inf"))
    ],
    *[  # int() would truncate 2.9 to 2, take true as 1 and 4.0 as 4
        pytest.param("params", 1, edit, SchemaError, fragment, id=f"params-{name}")
        for name, edit, fragment in [
            ("num-heads-2.9", _meta("num_heads", 2.9), "meta 'num_heads' 2.9 is not an integer"),
            ("num-heads-true", _meta("num_heads", True), "meta 'num_heads' True is not an integer"),
            ("shape-float", _first_shape_entry_of("Wf", float), "tensor 'Wf' shape entry"),
            ("shape-true", _first_shape_entry_of("Wf", lambda x: True), "tensor 'Wf' shape entry"),
        ]
    ],
]


@pytest.mark.parametrize("kind, lineno, edit, error, fragment", MALFORMED)
def test_malformed_file_names_file_and_line(
    artifacts, tmp_path, kind, lineno, edit, error, fragment
):
    lines = artifacts[kind].read_text(encoding="utf-8").splitlines()
    lines[lineno - 1] = json.dumps(edit(json.loads(lines[lineno - 1])))
    path = tmp_path / artifacts[kind].name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(error) as info:
        LOADERS[kind](path)
    assert str(path) in str(info.value) and fragment in str(info.value)


def test_feature_dim_zero_loads_and_trains(small_run, tmp_path):
    # The header's feature_dim bound is 0, not 1: a dataset without features
    # builds a graph and trains.
    ds = small_run[0]
    groups = [
        replace(g, instances=[replace(i, features=np.zeros(0)) for i in g.instances])
        for g in ds.groups
    ]
    ds = replace(ds, groups=groups, feature_dim=0)
    save_dataset(ds, tmp_path / "dataset.jsonl")
    graph = build_dual_graph(load_dataset(tmp_path / "dataset.jsonl"))
    save_graph(graph, tmp_path / "graph.jsonl")
    loaded = load_graph(tmp_path / "graph.jsonl")
    assert loaded.feature_dim == 0 and graphs_equal(loaded, graph)
    train(loaded, ModelConfig(gcn_hidden=4, dense_hidden=3, num_heads=1, epochs=2))


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_graph_without_a_node_line_names_the_node(artifacts, tmp_path):
    lines = artifacts["graph"].read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[2])["node_id"] == 1
    path = _write_lines(tmp_path / "graph.jsonl", lines[:2] + lines[3:])
    with pytest.raises(SchemaError, match="no node line for node_id 1$") as info:
        load_graph(path)
    assert str(path) in str(info.value)


def test_graph_with_a_repeated_node_line_names_the_node(artifacts, tmp_path):
    lines = artifacts["graph"].read_text(encoding="utf-8").splitlines()
    path = _write_lines(tmp_path / "graph.jsonl", lines[:3] + [lines[2]] + lines[3:])
    with pytest.raises(SchemaError, match="line 4: duplicate node_id 1$") as info:
        load_graph(path)
    assert str(path) in str(info.value)


def test_dataset_class_out_of_range_names_file_line_and_group(artifacts, tmp_path):
    lines = artifacts["dataset"].read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[3])
    assert record["group_id"] == 2 and record["labels"]
    record["labels"][0]["class_id"] = 99
    lines[3] = json.dumps(record)
    path = _write_lines(tmp_path / "dataset.jsonl", lines)
    with pytest.raises(SchemaError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}: line 4: group 2: label class_id 99 outside [0, 4)"


def test_dataset_with_group_ids_not_dense_names_the_file(artifacts, tmp_path):
    lines = artifacts["dataset"].read_text(encoding="utf-8").splitlines()
    path = _write_lines(tmp_path / "dataset.jsonl", lines[:3] + lines[4:])
    with pytest.raises(SchemaError, match="group ids must be dense") as info:
        load_dataset(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("kind", ["graph", "ratings"])
def test_unknown_kind_names_file_line_and_kind(artifacts, tmp_path, kind):
    lines = artifacts[kind].read_text(encoding="utf-8").splitlines()
    k = next(k for k, line in enumerate(lines) if '"kind":"cross"' in line)
    record = json.loads(lines[k])
    record["kind"] = "bogus"
    lines[k] = json.dumps(record)
    path = _write_lines(tmp_path / artifacts[kind].name, lines)
    loader = load_graph if kind == "graph" else load_ratings
    noun = "edge" if kind == "graph" else "rating"
    with pytest.raises(SchemaError) as info:
        loader(path)
    assert str(info.value) == f"{path}: line {k + 1}: unknown {noun} kind 'bogus'"


@pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5], ids=["nan", "below", "above"])
def test_ratings_p_entry_outside_unit_interval_names_file_and_line(artifacts, tmp_path, bad):
    lines = artifacts["ratings"].read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record["p"][-1] = bad
    lines[1] = json.dumps(record)
    path = _write_lines(tmp_path / "ratings.jsonl", lines)
    with pytest.raises(SchemaError) as info:
        load_ratings(path)
    assert str(info.value) == f"{path}: line 2: 'p' entry {bad!r} outside [0, 1]"


def test_ratings_file_with_m_hat_column_loads(artifacts, small_run, tmp_path):
    # the older format also wrote m_hat, between kind and p; the key is ignored
    ratings = small_run[2].ratings
    lines = artifacts["ratings"].read_text(encoding="utf-8").splitlines()
    older = lines[:1]
    for line, m_hat in zip(lines[1:], ratings.m_hat.tolist()):
        record = json.loads(line)
        record = {**{k: record[k] for k in ("src", "dst", "kind")}, "m_hat": m_hat, "p": record["p"]}
        older.append(json.dumps(record, separators=(",", ":")))
    assert '"m_hat":' in older[1] and '"m_hat":' not in lines[1]
    loaded = load_ratings(_write_lines(tmp_path / "ratings.jsonl", older))
    assert ratings_equal(loaded, ratings)
    np.testing.assert_array_equal(loaded.m_hat, ratings.m_hat)


@pytest.mark.parametrize("field", ["shape", "data"])
def test_checkpoint_tensor_without_field_names_it(artifacts, tmp_path, field):
    payload = json.loads(artifacts["params"].read_text())
    del payload["tensors"]["Wf"][field]
    path = tmp_path / "params.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match=f"tensor 'Wf' has no field '{field}'"):
        load_params(path)


def _dicts(obj):
    """Every non-empty dict nested in a decoded JSON value, outermost first."""
    found = [obj] if isinstance(obj, dict) and obj else []
    children = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ()
    for child in children:
        found.extend(_dicts(child))
    return found


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(sorted(LOADERS)),
    line_pick=st.integers(0, 10**6),
    mode=st.sampled_from(["truncate", "drop", "retype"]),
    pick=st.integers(0, 10**6),
    value=st.sampled_from([None, "x", 1.5, -1, 10**30, [], {}, [[1]]]),
)
def test_only_package_errors_escape_loaders(artifacts, kind, line_pick, mode, pick, value):
    lines = artifacts[kind].read_text(encoding="utf-8").splitlines()
    k = line_pick % len(lines)
    if mode == "truncate":
        lines[k] = lines[k][: pick % len(lines[k])]
    else:
        obj = json.loads(lines[k])
        dicts = _dicts(obj)
        target = dicts[pick % len(dicts)]
        key = sorted(target)[pick % len(target)]
        if mode == "drop":
            del target[key]
        else:
            target[key] = value
        lines[k] = json.dumps(obj)
    path = artifacts[kind].with_name(f"fuzzed_{artifacts[kind].name}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        LOADERS[kind](path)
    except DbgaeError:
        pass


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _graphs(draw):
    """Small graphs whose within and cross sections are each often empty."""
    n, m = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    dim, classes = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    ints = st.integers(-(2**40), 2**40)

    def column(values, size):
        return draw(st.lists(values, min_size=size, max_size=size))

    def edges(counts_or_vias):
        size = draw(st.integers(0, 7)) if n and m else 0
        return (
            np.asarray(column(st.integers(0, max(n - 1, 0)), size), dtype=int),
            np.asarray(column(st.integers(0, max(m - 1, 0)), size), dtype=int),
            np.asarray(column(_finite, size), dtype=float),
            np.asarray(column(counts_or_vias, size), dtype=int),
        )

    return DualBipartiteGraph(
        instance_ids=np.asarray(column(ints, n), dtype=int),
        instance_group=np.asarray(column(ints, n), dtype=int),
        instance_features=np.asarray(column(_finite, n * dim), dtype=float).reshape(n, dim),
        label_group=np.asarray(column(ints, m), dtype=int),
        label_class=np.asarray(column(st.integers(0, classes - 1), m), dtype=int),
        label_slot=np.asarray(column(ints, m), dtype=int),
        num_classes=classes,
        within=WithinGraph(*edges(st.integers(1, 2**40))),  # a within count is at least 1
        cross=CrossGraph(*edges(st.integers(0, max(n - 1, 0)))),
    )


@st.composite
def _ratings(draw):
    levels = np.asarray(sorted(draw(st.sets(st.floats(0.0, 1.0), min_size=2, max_size=4))))
    n, m, rows = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 7))

    def column(values, size=rows):
        return draw(st.lists(values, min_size=size, max_size=size))

    probs = np.asarray(column(st.floats(0.0, 1.0), rows * len(levels))).reshape(rows, len(levels))
    return RatingMatrix(
        src=np.asarray(column(st.integers(0, n - 1)), dtype=int),
        dst=np.asarray(column(st.integers(0, m - 1)), dtype=int),
        kind=np.asarray(column(st.sampled_from(["within", "cross"])), dtype=str),
        levels=levels,
        probs=probs,
        num_instances=n,
    )


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["graph", "ratings"]),
    row_block=st.integers(1, 4),
    block_values=st.integers(1, 24),
)
def test_loaders_round_trip_across_row_blocks(write_dir, data, kind, row_block, block_values):
    obj = data.draw(_graphs() if kind == "graph" else _ratings())
    save, load, equal = {
        "graph": (save_graph, load_graph, graphs_equal),
        "ratings": (save_ratings, load_ratings, ratings_equal),
    }[kind]
    path, again = write_dir / f"{kind}.jsonl", write_dir / f"{kind}_again.jsonl"
    with mock.patch.multiple(jsonl, ROW_BLOCK=row_block, BLOCK_VALUES=block_values):
        save(obj, path)
        loaded = load(path)
        save(loaded, again)
    assert equal(obj, loaded)
    assert again.read_bytes() == path.read_bytes()


# -- writing ------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["graph", "ratings"])
def test_column_writer_matches_per_record_writer(artifacts, tmp_path, kind):
    obj = LOADERS[kind](artifacts[kind])
    records = graph_records(obj) if kind == "graph" else ratings_records(obj)
    header = json.loads(artifacts[kind].read_text(encoding="utf-8").splitlines()[0])
    write_records_reference(tmp_path / "records.jsonl", header, records)
    assert artifacts[kind].read_bytes() == (tmp_path / "records.jsonl").read_bytes()


# non-finite (NaN with two payloads and either sign), signed zeros,
# subnormal and extreme values of each float width
_SPECIAL_FLOATS = {
    bits: [
        float("nan"),
        -float("nan"),
        struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0001))[0],
        float("inf"),
        -float("inf"),
        0.0,
        -0.0,
        0.1,
        *extremes,
    ]
    for bits, extremes in ((64, [5e-324, 1.5e-310, 1.7e308]), (32, [1e-45, 1e-40, 3.4e38]))
}


@st.composite
def _columns(draw, rows):
    kind = draw(st.sampled_from(["int64", "int32", "float64", "float32", "str", "2-D"]))
    if kind.startswith("int"):
        info = np.iinfo(kind)
        values = st.integers(int(info.min), int(info.max))
    elif kind == "str":
        values = st.text(max_size=6) | st.sampled_from(['"', '\\"', "é", "日本語", "%s", "\n"])
    else:
        bits = 32 if kind == "float32" else 64
        values = st.sampled_from(_SPECIAL_FLOATS[bits]) | st.floats(width=bits)
        if draw(st.booleans()):  # a small pool, so a block repeats its values
            values = st.sampled_from(draw(st.lists(values, min_size=1, max_size=4)))
    if kind == "2-D":
        width = draw(st.integers(0, 3))
        flat = draw(st.lists(values, min_size=rows * width, max_size=rows * width))
        return np.asarray(flat, dtype=np.float64).reshape(rows, width)
    return np.asarray(draw(st.lists(values, min_size=rows, max_size=rows)), dtype=kind)


@st.composite
def _tables(draw):
    rows = draw(st.integers(0, 9))
    keys = draw(st.lists(st.text(max_size=4), min_size=1, max_size=5, unique=True))
    return {key: draw(_columns(rows)) for key in keys}


@pytest.fixture(scope="module")
def write_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("write")


@settings(max_examples=300, deadline=None)
@given(table=_tables(), row_block=st.integers(1, 4))
def test_column_encoder_matches_per_record_writer(write_dir, table, row_block):
    header = {"rows": len(next(iter(table.values())))}
    with mock.patch.object(jsonl, "ROW_BLOCK", row_block):
        jsonl.write(write_dir / "columns.jsonl", header, jsonl.Columns(table))
    write_records_reference(write_dir / "records.jsonl", header, table_records(table))
    written = (write_dir / "columns.jsonl").read_bytes()
    assert written == (write_dir / "records.jsonl").read_bytes()


@pytest.mark.parametrize(
    "table, error",
    [
        ({"a": np.zeros(2), "b": np.zeros(3)}, ValueError),
        ({"flag": np.array([True])}, TypeError),
        ({"cube": np.zeros((1, 1, 1))}, TypeError),
        pytest.param(
            {"wide": np.zeros(1, dtype=np.longdouble)},
            TypeError,
            marks=pytest.mark.skipif(
                np.dtype(np.longdouble).itemsize <= 8, reason="long double is a double here"
            ),
        ),
    ],
    ids=["ragged", "bool", "3-D", "long-double"],
)
def test_column_encoder_rejects_what_it_cannot_write(tmp_path, table, error):
    with pytest.raises(error):
        jsonl.write(tmp_path / "t.jsonl", {}, jsonl.Columns(table))
    assert os.listdir(tmp_path) == []


@contextlib.contextmanager
def _without_fork():
    """A platform without ``os.fork``."""
    fork = os.fork
    del os.fork
    try:
        yield
    finally:
        os.fork = fork


_PARTS = st.lists(
    st.one_of(
        _tables(),
        st.just({}),
        st.lists(st.fixed_dictionaries({"section": st.text(max_size=3)}), max_size=3),
    ),
    max_size=4,
)


def _encoded(part):
    return jsonl.Columns(part) if isinstance(part, dict) else jsonl.records(part)


@settings(max_examples=150, deadline=None)
@given(parts=_PARTS, row_block=st.integers(1, 3))
def test_split_write_matches_serial_write(write_dir, parts, row_block):
    """Tables (int, float with NaN and infinities, quoted and non-ASCII str,
    2-D with zero width, empty) and records parts, in any order, give the
    serial bytes when the columns' second half is encoded in a forked process."""
    header = {"parts": len(parts)}
    with mock.patch.object(jsonl, "ROW_BLOCK", row_block):
        blocks = sum(len(_encoded(p).block_costs()) for p in parts if isinstance(p, dict))
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            jsonl.write(write_dir / "split.jsonl", header, *map(_encoded, parts))
        with _without_fork():
            jsonl.write(write_dir / "serial.jsonl", header, *map(_encoded, parts))
    assert fork.call_count == (blocks > 1)
    split = (write_dir / "split.jsonl").read_bytes()
    assert split == (write_dir / "serial.jsonl").read_bytes()
    records = [r for p in parts for r in (table_records(p) if isinstance(p, dict) else p)]
    write_records_reference(write_dir / "records.jsonl", header, records)
    assert split == (write_dir / "records.jsonl").read_bytes()
    assert not [name for name in os.listdir(write_dir) if name.endswith(".tmp")]


@settings(max_examples=100, deadline=None)
@given(files=st.lists(_PARTS, min_size=1, max_size=3), row_block=st.integers(2, 4))
def test_encoder_cut_at_any_block_boundary_matches_serial_writes(write_dir, files, row_block):
    """Several files written in one ``encoder`` block, with its cut forced
    before each block of their columns in turn (so also between files and
    before the first) and past the last (no encoder), give each file the
    bytes of a serial write."""
    paths = [write_dir / f"set{k}.jsonl" for k in range(len(files))]
    with mock.patch.object(jsonl, "ROW_BLOCK", row_block):
        blocks = sum(
            len(_encoded(p).block_costs()) for parts in files for p in parts if isinstance(p, dict)
        )
        with _without_fork():
            for path, parts in zip(paths, files):
                jsonl.write(path.with_suffix(".serial"), {"parts": len(parts)}, *map(_encoded, parts))
        for cut in range(blocks + 1):
            shared = {path: list(map(_encoded, parts)) for path, parts in zip(paths, files)}
            with mock.patch.object(jsonl, "_cut", lambda costs, work: cut), mock.patch.object(
                os, "fork", wraps=os.fork
            ) as fork:
                with jsonl.encoder(shared, work=1):
                    for path, parts in zip(paths, files):
                        jsonl.write(path, {"parts": len(parts)}, *map(_encoded, parts))
            assert fork.call_count == (cut < blocks)
            for path in paths:
                assert path.read_bytes() == path.with_suffix(".serial").read_bytes(), cut
    assert not [name for name in os.listdir(write_dir) if name.endswith(".tmp")]


def test_a_file_outside_the_running_encoder_is_written_without_a_fork(tmp_path):
    """Inside an ``encoder`` block a file it was not given is written by the
    caller alone, without a fork of its own."""
    table = {"i": np.arange(40)}
    with mock.patch.object(jsonl, "ROW_BLOCK", 4):
        with jsonl.encoder({tmp_path / "held.jsonl": [jsonl.Columns(table)]}):
            with mock.patch.object(os, "fork") as fork:
                jsonl.write(tmp_path / "other.jsonl", {}, jsonl.Columns(table))
                jsonl.write(tmp_path / "held.jsonl", {}, jsonl.Columns(table))
    fork.assert_not_called()
    assert (tmp_path / "other.jsonl").read_bytes() == (tmp_path / "held.jsonl").read_bytes()


_TABLE = {"i": np.arange(40), "x": np.linspace(0.0, 1.0, 40)}


@pytest.mark.parametrize(
    "where, raised, seen",
    [
        ("encoder", ValueError, OSError),
        ("caller", ValueError, ValueError),
        ("caller", KeyboardInterrupt, KeyboardInterrupt),
    ],
    ids=["encoder", "caller", "caller-interrupt"],
)
def test_failed_split_write_leaves_the_earlier_file_and_no_process(
    tmp_path, where, raised, seen
):
    path = tmp_path / "f.jsonl"
    jsonl.write(path, {}, jsonl.Columns(_TABLE))
    before = path.read_bytes()
    caller, floats = os.getpid(), jsonl._ENCODERS["f"]
    slept = []

    def failing_floats(values):
        if (os.getpid() == caller) == (where == "caller"):
            raise raised("injected")
        if where == "caller" and not slept:  # the encoder outlives the test unless killed
            slept.append(True)
            time.sleep(60)
        return floats(values)

    start = time.monotonic()
    with mock.patch.dict(jsonl._ENCODERS, f=failing_floats), mock.patch.object(
        jsonl, "ROW_BLOCK", 4
    ):
        with pytest.raises(seen) as info:
            jsonl.write(path, {}, jsonl.Columns(_TABLE))
    assert time.monotonic() - start < 30
    if where == "encoder":
        assert str(path) in str(info.value)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["f.jsonl"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "parts",
    [
        lambda: [jsonl.records([{"a": k} for k in range(5)])],
        lambda: [jsonl.Columns({"a": np.arange(4)}), jsonl.records([{"b": 0}, {"b": 1}])],
    ],
    ids=["records-only", "one-block"],
)
def test_write_without_two_column_blocks_does_not_fork(tmp_path, parts):
    with mock.patch.object(jsonl, "ROW_BLOCK", 4), mock.patch.object(os, "fork") as fork:
        jsonl.write(tmp_path / "f.jsonl", {}, *parts())
    fork.assert_not_called()


def _failing_records():
    yield {"a": 1}
    yield {"a": object()}  # not JSON serialisable


class _DiskFull:
    """A file that takes half of the first text written to it, then fails as
    a full disk would."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def _writer(name, small_run):
    ds, graph, result = small_run
    report = build_report({"dbgae": pool_labels(result.ratings, graph)}, ds)
    return {
        "jsonl": lambda path: jsonl.write(path, {"v": 1}, jsonl.records([{"a": 0}])),
        "params": lambda path: save_params(result.params, path),
        "config": lambda path: save_config(RunConfig(), path),
        "report": lambda path: save_report(report, path),
        "curves": lambda path: save_curves(report, path),
        "loss_trace": lambda path: save_loss_trace(result, path),
        "sweep": lambda path: save_sweep([SweepRow(0.2, 0, "dbgae", 0.5, 0.25)], path),
        "sweep_errors": lambda path: save_sweep_errors([(0.2, 0, "no within edges")], path),
    }[name]


@pytest.mark.parametrize(
    "writer",
    ["jsonl", "params", "config", "report", "curves", "loss_trace", "sweep", "sweep_errors"],
)
def test_failed_write_leaves_the_earlier_file_and_no_temporary(small_run, tmp_path, writer):
    write = _writer(writer, small_run)
    path = tmp_path / "f"
    write(path)
    before = path.read_bytes()
    disk_full = mock.patch.object(
        jsonl, "open", lambda *args, **kwargs: _DiskFull(open(*args, **kwargs)), create=True
    )
    with disk_full, pytest.raises(OSError):
        write(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["f"]


def test_failed_first_write_leaves_no_file(tmp_path):
    with pytest.raises(TypeError):
        jsonl.write(tmp_path / "f.jsonl", {}, jsonl.records(_failing_records()))
    assert os.listdir(tmp_path) == []
