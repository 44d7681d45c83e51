import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbgae.data import (
    NULL_CLASS,
    GeneratorConfig,
    GpllDataset,
    Group,
    Instance,
    LabelOccurrence,
    _link_tables,
    ambiguity_ratio,
    class_ambiguity_ratios,
    dataset_stats,
    datasets_equal,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from dbgae.errors import AmbiguityUndefinedError, ConfigError, ParseError, SchemaError
from oracles import link_tables_reference


def make_dataset(group_specs, num_classes, feature_dim=2):
    """group_specs: list of (instance true classes, label classes)."""
    groups = []
    next_id = 0
    rng = np.random.default_rng(0)
    for gid, (inst_classes, label_classes) in enumerate(group_specs):
        instances = []
        for c in inst_classes:
            instances.append(
                Instance(
                    instance_id=next_id,
                    group_id=gid,
                    features=rng.standard_normal(feature_dim),
                    true_class=c,
                )
            )
            next_id += 1
        labels = [
            LabelOccurrence(class_id=c, group_id=gid, slot=s)
            for s, c in enumerate(label_classes)
        ]
        groups.append(Group(group_id=gid, instances=instances, labels=labels))
    return GpllDataset(groups=groups, num_classes=num_classes, feature_dim=feature_dim)


class TestGeneratorConfig:
    def test_rejects_bad_rates(self):
        with pytest.raises(ConfigError, match="null_rate"):
            GeneratorConfig(null_rate=-0.1).validate()
        with pytest.raises(ConfigError, match="null_rate \\+ cross_rate"):
            GeneratorConfig(null_rate=0.7, cross_rate=0.5).validate()

    def test_rejects_bad_scales(self):
        with pytest.raises(ConfigError, match="separation"):
            GeneratorConfig(separation=0.0).validate()
        with pytest.raises(ConfigError, match="noise_scale"):
            GeneratorConfig(noise_scale=-1.0).validate()

    def test_cross_needs_two_groups(self):
        with pytest.raises(ConfigError, match="cross_rate"):
            GeneratorConfig(num_groups=1, cross_rate=0.5).validate()


class TestGenerate:
    def test_unambiguous_degenerate_case(self):
        cfg = GeneratorConfig(
            num_classes=2,
            num_groups=2,
            min_instances=1,
            max_instances=1,
            null_rate=0.0,
            cross_rate=0.0,
            distractor_rate=0.0,
            rng_seed=3,
        )
        ds = generate_synthetic(cfg)
        for group in ds.groups:
            assert len(group.instances) == 1
            assert len(group.labels) == 1
            label_classes = {lab.class_id for lab in group.labels}
            assert group.instances[0].true_class in label_classes

    def test_full_null_rate_leaves_no_true_class_labeled(self):
        cfg = GeneratorConfig(
            num_classes=4,
            num_groups=10,
            min_instances=1,
            max_instances=2,
            null_rate=1.0,
            cross_rate=0.0,
            distractor_rate=0.0,
        )
        ds = generate_synthetic(cfg)
        for inst in ds.iter_instances():
            assert inst.true_class == NULL_CLASS

    def test_determinism_byte_identical(self, tmp_path):
        cfg = GeneratorConfig(num_classes=20, num_groups=200, rng_seed=7)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(generate_synthetic(cfg), a)
        save_dataset(generate_synthetic(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_rates_measured_close_to_config(self):
        cfg = GeneratorConfig(
            num_classes=20,
            num_groups=250,
            min_instances=1,
            max_instances=2,
            null_rate=0.2,
            cross_rate=0.2,
            distractor_rate=0.0,
            rng_seed=11,
        )
        ds = generate_synthetic(cfg)
        total = ds.num_instances
        nulls = sum(1 for i in ds.iter_instances() if i.true_class == NULL_CLASS)
        label_sets = {g.group_id: {l.class_id for l in g.labels} for g in ds.groups}
        all_labeled = set().union(*label_sets.values())
        cross = sum(
            1
            for g in ds.groups
            for i in g.instances
            if i.true_class != NULL_CLASS
            and i.true_class not in label_sets[g.group_id]
            and i.true_class in all_labeled
        )
        assert abs(nulls / total - 0.2) <= 0.03
        assert abs(cross / total - 0.2) <= 0.03

    def test_null_fraction_tracks_requested_rate(self):
        cfg = GeneratorConfig(
            num_classes=20,
            num_groups=200,
            min_instances=2,
            max_instances=3,
            null_rate=0.21,
            cross_rate=0.0,
            distractor_rate=0.0,
            rng_seed=5,
        )
        stats = dataset_stats(generate_synthetic(cfg))
        assert abs(stats.null_fraction - 0.21) <= 0.03

    def test_empty_dataset(self):
        ds = generate_synthetic(GeneratorConfig(num_groups=0, cross_rate=0.0))
        assert ds.groups == []
        assert ds.num_instances == 0


class TestSerialization:
    def test_round_trip_empty(self, tmp_path):
        ds = generate_synthetic(GeneratorConfig(num_groups=0, cross_rate=0.0))
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        assert datasets_equal(ds, load_dataset(path))

    def test_round_trip_generated(self, tmp_path):
        cfg = GeneratorConfig(
            num_classes=20, num_groups=200, null_rate=0.1, cross_rate=0.1, distractor_rate=0.5
        )
        ds = generate_synthetic(cfg)
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        assert datasets_equal(ds, load_dataset(path))

    def test_class_id_out_of_range_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"num_classes":2,"feature_dim":1}\n'
            '{"group_id":0,"instances":[{"id":0,"features":[0.0]}],'
            '"labels":[{"class_id":5,"slot":0}]}\n'
        )
        with pytest.raises(SchemaError, match="class_id"):
            load_dataset(path)

    def test_feature_dimension_mismatch_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"num_classes":2,"feature_dim":3}\n'
            '{"group_id":0,"instances":[{"id":0,"features":[0.0]}],"labels":[]}\n'
        )
        with pytest.raises(SchemaError, match="dimension"):
            load_dataset(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"num_classes":2,"feature_dim":1}\n{not json\n')
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(0, 12),
        null_rate=st.floats(0.0, 0.5),
        distractor=st.floats(0.0, 1.5),
    )
    def test_round_trip_property(self, tmp_path_factory, seed, k, null_rate, distractor):
        cfg = GeneratorConfig(
            num_classes=5,
            feature_dim=3,
            num_groups=k,
            min_instances=1,
            max_instances=3,
            null_rate=null_rate,
            cross_rate=0.2 if k >= 2 else 0.0,
            distractor_rate=distractor,
            rng_seed=seed,
        )
        ds = generate_synthetic(cfg)
        path = tmp_path_factory.mktemp("rt") / "ds.jsonl"
        save_dataset(ds, path)
        assert datasets_equal(ds, load_dataset(path))


class TestAmbiguityRatio:
    def test_all_correct_links_give_zero(self):
        ds = make_dataset([([0], [0]), ([0], [0])], num_classes=2)
        assert ambiguity_ratio(ds, 0) == 0.0

    def test_hand_counted_three_quarters(self):
        # one group: instance of class 0 with labels {0, 1, 2}; plus an
        # instance of class 1 in the same group -> links touching class 0:
        # correct (i0, l0); wrong (i0, l1), (i0, l2), (i1, l0) -> 1 - 1/4
        ds = make_dataset([([0, 1], [0, 1, 2])], num_classes=3)
        # wrong links touching class 0: (i0,l1), (i0,l2), (i1,l0) = 3
        assert ambiguity_ratio(ds, 0) == pytest.approx(1 - 1 / 4)

    def test_pure_distractor_class_is_fully_ambiguous(self):
        ds = make_dataset([([0], [0, 1])], num_classes=2)
        assert ambiguity_ratio(ds, 1) == 1.0

    def test_untouched_class_raises(self):
        ds = make_dataset([([0], [0])], num_classes=3)
        with pytest.raises(AmbiguityUndefinedError):
            ambiguity_ratio(ds, 2)

    def test_requires_ground_truth(self):
        ds = make_dataset([([None], [0])], num_classes=1)
        with pytest.raises(SchemaError, match="ground truth"):
            ambiguity_ratio(ds, 0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), distractor=st.floats(0.0, 2.0))
    def test_ratio_in_unit_interval_and_zero_iff_clean(self, seed, distractor):
        cfg = GeneratorConfig(
            num_classes=6,
            feature_dim=2,
            num_groups=10,
            min_instances=1,
            max_instances=2,
            max_labels=16,
            null_rate=0.0,
            cross_rate=0.0,
            distractor_rate=distractor,
            rng_seed=seed,
        )
        ds = generate_synthetic(cfg)
        _, s_f = link_tables_reference(ds)
        for c, ratio in class_ambiguity_ratios(ds).items():
            assert 0.0 <= ratio <= 1.0
            assert (ratio == 0.0) == (s_f.get(c, 0) == 0)

    @settings(max_examples=40, deadline=None)
    @given(
        specs=st.lists(
            st.tuples(
                st.lists(st.integers(NULL_CLASS, 3), max_size=4),
                st.lists(st.integers(0, 3), max_size=4),
            ),
            max_size=6,
        ),
        seed=st.integers(0, 10_000),
        null_rate=st.floats(0.0, 0.5),
        distractor=st.floats(0.0, 2.0),
    )
    def test_link_tables_match_per_link_loop(self, specs, seed, null_rate, distractor):
        cfg = GeneratorConfig(
            num_classes=6,
            feature_dim=2,
            num_groups=8,
            min_instances=1,
            max_instances=3,
            max_labels=8,
            null_rate=null_rate,
            cross_rate=0.2,
            distractor_rate=distractor,
            rng_seed=seed,
        )
        for ds in (make_dataset(specs, num_classes=4), generate_synthetic(cfg)):
            assert _link_tables(ds) == link_tables_reference(ds)


class TestDatasetStats:
    def test_unambiguous_dataset_masses_first_bin(self):
        ds = make_dataset([([0], [0]), ([1], [1])], num_classes=2)
        stats = dataset_stats(ds)
        assert stats.ambiguity_histogram[0] == sum(stats.ambiguity_histogram)

    def test_frequency_counts_cooccurring_groups(self):
        # one group with two class-0 instances and one class-0 label
        ds = make_dataset([([0, 0], [0])], num_classes=1)
        stats = dataset_stats(ds)
        assert stats.class_frequency[0] == 1

    def test_null_fraction(self):
        ds = make_dataset([([0, NULL_CLASS], [0])], num_classes=1)
        assert dataset_stats(ds).null_fraction == pytest.approx(0.5)


class TestImmutability:
    def test_instance_fields_frozen(self):
        inst = Instance(instance_id=0, group_id=0, features=np.zeros(2), true_class=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.true_class = 1
