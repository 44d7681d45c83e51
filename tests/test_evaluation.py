import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbgae.benchmark import benchmark_generator_config
from dbgae.data import NULL_CLASS, generate_synthetic
from dbgae.errors import EvalError
from dbgae.evaluation import build_report, curves_csv, evaluate, render_report_text
from dbgae.inference import Prediction
from oracles import accuracy_f1_reference, bins_reference
from test_data import make_dataset


def preds_for(ds, mapping):
    return [
        Prediction(instance_id=i.instance_id, predicted_class=mapping[i.instance_id], scores={})
        for g in ds.groups
        for i in g.instances
    ]


class TestEvaluate:
    def test_all_correct_is_perfect(self):
        ds = make_dataset([([0], [0]), ([1], [1])], num_classes=2)
        report = evaluate(preds_for(ds, {0: 0, 1: 1}), ds, "m")
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0

    def test_hand_computed_binary_case(self):
        # truths (A, B), predictions (A, A)
        ds = make_dataset([([0], [0]), ([1], [1])], num_classes=2)
        report = evaluate(preds_for(ds, {0: 0, 1: 0}), ds, "m")
        assert report.accuracy == pytest.approx(0.5)
        assert report.per_class_f1[0] == pytest.approx(2 / 3)
        assert report.per_class_f1[1] == pytest.approx(0.0)
        assert report.macro_f1 == pytest.approx(1 / 3)

    def test_null_counts_as_a_class(self):
        ds = make_dataset([([NULL_CLASS], [0]), ([0], [0])], num_classes=1)
        report = evaluate(preds_for(ds, {0: NULL_CLASS, 1: 0}), ds, "m")
        assert report.accuracy == 1.0
        assert NULL_CLASS in report.per_class_f1

    def test_bins_partition_instances(self):
        ds = make_dataset(
            [([0, 1], [0, 1, 2]), ([2], [2]), ([NULL_CLASS], [0])], num_classes=3
        )
        report = evaluate(preds_for(ds, {0: 0, 1: 1, 2: 2, 3: NULL_CLASS}), ds, "m")
        assert sum(b.count for b in report.ambiguity_bins) == ds.num_instances
        assert sum(b.count for b in report.frequency_bins) == ds.num_instances

    def test_missing_ground_truth_raises(self):
        ds = make_dataset([([None], [0])], num_classes=1)
        with pytest.raises(EvalError):
            evaluate([Prediction(0, 0, {})], ds, "m")

    def test_wrong_instance_cover_raises(self):
        ds = make_dataset([([0], [0])], num_classes=1)
        with pytest.raises(EvalError, match="cover"):
            evaluate([Prediction(99, 0, {})], ds, "m")

    def test_repeated_instance_raises(self):
        ds = make_dataset([([0], [0]), ([1], [1])], num_classes=2)
        preds = preds_for(ds, {0: 0, 1: 1})
        with pytest.raises(EvalError, match="more than once"):
            evaluate(preds + preds[:1], ds, "m")

    def test_permutation_invariant_over_instance_order(self):
        ds = make_dataset([([0, 1], [0, 1]), ([1], [1])], num_classes=2)
        mapping = {0: 0, 1: 1, 2: 0}
        forward = evaluate(preds_for(ds, mapping), ds, "m")
        backward = evaluate(list(reversed(preds_for(ds, mapping))), ds, "m")
        assert forward.accuracy == backward.accuracy
        assert forward.macro_f1 == backward.macro_f1


def assert_matches_references(predictions, ds):
    report = evaluate(predictions, ds, "m")
    truth = {i.instance_id: i.true_class for i in ds.iter_instances()}
    pairs = [(truth[p.instance_id], p.predicted_class) for p in predictions]
    assert (report.accuracy, report.macro_f1, report.per_class_f1) == accuracy_f1_reference(pairs)
    assert (report.ambiguity_bins, report.frequency_bins) == bins_reference(predictions, ds)


class TestMetricsOracle:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_per_pair_counts(self, data):
        """Null truths and predictions, ties in the macro mean, empty bins and
        predicted classes that no instance holds (one outside the dataset's
        classes)."""
        num_classes = data.draw(st.integers(1, 4))
        classes = st.integers(NULL_CLASS, num_classes - 1)
        specs = data.draw(
            st.lists(
                st.tuples(
                    st.lists(classes, max_size=3),
                    st.lists(st.integers(0, num_classes - 1), max_size=3),
                ),
                max_size=12,
            )
        )
        ds = make_dataset(specs, num_classes=num_classes)
        predicted = classes | st.just(num_classes + 3)
        mapping = {i.instance_id: data.draw(predicted) for i in ds.iter_instances()}
        assert_matches_references(preds_for(ds, mapping), ds)

    def test_matches_per_pair_counts_on_a_benchmark_dataset(self):
        ds = generate_synthetic(benchmark_generator_config(0))
        rng = np.random.default_rng(0)
        mapping = {
            i.instance_id: int(rng.integers(NULL_CLASS, ds.num_classes))
            if rng.random() < 0.5
            else i.true_class
            for i in ds.iter_instances()
        }
        assert_matches_references(preds_for(ds, mapping), ds)


class TestReportRendering:
    def _report(self):
        ds = make_dataset([([0], [0]), ([1], [1])], num_classes=2)
        return build_report(
            {"a_method": preds_for(ds, {0: 0, 1: 1}), "b_method": preds_for(ds, {0: 1, 1: 1})},
            ds,
        )

    def test_text_report_mentions_f1_definition(self):
        text = render_report_text(self._report())
        assert "macro-F1" in text.splitlines()[1]

    def test_methods_sorted_for_determinism(self):
        report = self._report()
        assert [m.method for m in report.methods] == ["a_method", "b_method"]

    def test_curves_csv_has_expected_columns(self):
        csv_text = curves_csv(self._report())
        header = csv_text.splitlines()[0].split(",")
        assert header == ["method", "curve", "bin_low", "bin_high", "n", "accuracy", "f1"]
        assert len(csv_text.splitlines()) == 1 + 2 * (10 + 3)
