"""Accuracy, macro-F1 and condition-controlled breakdowns.

Accuracy counts null targets like any other class.  Macro-F1 is the
unweighted mean of per-class F1 over every class present in the ground
truth, null included; this choice is stated in the report header.  Curves
bin instances by their true class's ambiguity ratio (ten equal bins) and
by its ground-truth frequency.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import jsonl
from .data import NULL_CLASS, GpllDataset, class_ambiguity_ratios, class_frequencies
from .errors import EvalError
from .inference import Prediction

F1_NOTE = "macro-F1: unweighted mean of per-class F1 over ground-truth classes, null included"

AMBIGUITY_BINS = 10  # equal-width bins of the ambiguity ratio over [0, 1]
FREQUENCY_EDGES = (7, 14)  # frequency bins [0, 7], [8, 14] and 15 or more


@dataclass
class BinMetric:
    low: float
    high: float
    count: int
    accuracy: float
    f1: float


@dataclass
class MethodReport:
    method: str
    accuracy: float
    macro_f1: float
    per_class_f1: dict[int, float]
    ambiguity_bins: list[BinMetric]
    frequency_bins: list[BinMetric]


@dataclass
class EvalReport:
    methods: list[MethodReport] = field(default_factory=list)
    num_instances: int = 0
    f1_note: str = F1_NOTE


def _truth_by_id(ds: GpllDataset) -> dict[int, int]:
    truth = {}
    for inst in ds.iter_instances():
        if inst.true_class is None:
            raise EvalError(f"instance {inst.instance_id} has no ground truth")
        truth[inst.instance_id] = inst.true_class
    return truth


def _accuracy_f1(pairs: list[tuple[int, int]]) -> tuple[float, float, dict[int, float]]:
    """(accuracy, macro_f1, per-class f1) over (truth, predicted) pairs."""
    if not pairs:
        return 0.0, 0.0, {}
    correct = sum(1 for t, p in pairs if t == p)
    classes = sorted({t for t, _ in pairs})
    per_class = {}
    for c in classes:
        tp = sum(1 for t, p in pairs if t == c and p == c)
        fp = sum(1 for t, p in pairs if t != c and p == c)
        fn = sum(1 for t, p in pairs if t == c and p != c)
        per_class[c] = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    macro = float(np.mean(list(per_class.values())))
    return correct / len(pairs), macro, per_class


def evaluate(
    predictions: list[Prediction],
    ds: GpllDataset,
    method: str = "method",
    ratios: dict[int, float] | None = None,
    frequencies: dict[int, int] | None = None,
) -> MethodReport:
    """Metrics plus per-bin curves for one method's predictions.

    ``ratios`` and ``frequencies`` are ``ds``'s class ambiguity ratios and
    class frequencies, computed here when not given."""
    truth = _truth_by_id(ds)
    if {p.instance_id for p in predictions} != set(truth):
        raise EvalError("predictions do not cover exactly the dataset instances")
    pairs = [(truth[p.instance_id], p.predicted_class) for p in predictions]
    accuracy, macro, per_class = _accuracy_f1(pairs)

    # Classes no candidate link touches have no defined ambiguity; their
    # instances sit in unlabeled surroundings, binned at ratio 0.
    if ratios is None:
        ratios = class_ambiguity_ratios(ds)
    edges = np.linspace(0.0, 1.0, AMBIGUITY_BINS + 1)
    ambiguity_bins = []
    for b in range(AMBIGUITY_BINS):
        lo, hi = float(edges[b]), float(edges[b + 1])
        last = b == AMBIGUITY_BINS - 1  # closed on the right so 1.0 lands here
        members = [
            (t, p)
            for (t, p) in pairs
            if lo <= ratios.get(t, 0.0) and (ratios.get(t, 0.0) < hi or last)
        ]
        acc, f1, _ = _accuracy_f1(members)
        ambiguity_bins.append(BinMetric(low=lo, high=hi, count=len(members), accuracy=acc, f1=f1))

    # Labels are never null, so no group counts toward the null class.
    freq = {**(class_frequencies(ds) if frequencies is None else frequencies), NULL_CLASS: 0}
    lo_edge, hi_edge = FREQUENCY_EDGES
    frequency_ranges = [(0, lo_edge), (lo_edge + 1, hi_edge), (hi_edge + 1, np.inf)]
    frequency_bins = []
    for lo, hi in frequency_ranges:
        members = [(t, p) for (t, p) in pairs if lo <= freq[t] <= hi]
        acc, f1, _ = _accuracy_f1(members)
        frequency_bins.append(
            BinMetric(low=float(lo), high=float(min(hi, 10**9)), count=len(members), accuracy=acc, f1=f1)
        )

    return MethodReport(
        method=method,
        accuracy=accuracy,
        macro_f1=macro,
        per_class_f1=per_class,
        ambiguity_bins=ambiguity_bins,
        frequency_bins=frequency_bins,
    )


def build_report(
    predictions_by_method: dict[str, list[Prediction]],
    ds: GpllDataset,
) -> EvalReport:
    report = EvalReport(num_instances=ds.num_instances)
    ratios, frequencies = class_ambiguity_ratios(ds), class_frequencies(ds)
    for method in sorted(predictions_by_method):
        report.methods.append(
            evaluate(
                predictions_by_method[method],
                ds,
                method=method,
                ratios=ratios,
                frequencies=frequencies,
            )
        )
    return report


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_report_text(report: EvalReport) -> str:
    lines = [
        f"instances: {report.num_instances}",
        report.f1_note,
        "",
        f"{'method':<24} {'accuracy':>10} {'macro_f1':>10}",
    ]
    for m in report.methods:
        lines.append(f"{m.method:<24} {m.accuracy:>10.4f} {m.macro_f1:>10.4f}")
    lines.append("")
    for m in report.methods:
        lines.append(f"[{m.method}] accuracy by ambiguity-ratio bin:")
        for b in m.ambiguity_bins:
            if b.count == 0:
                continue
            lines.append(
                f"  [{b.low:.1f},{b.high:.1f}) n={b.count:<5d} acc={b.accuracy:.4f} f1={b.f1:.4f}"
            )
        lines.append(f"[{m.method}] accuracy by ground-truth-frequency bin:")
        for b in m.frequency_bins:
            hi = "inf" if b.high >= 10**9 else f"{b.high:.0f}"
            lines.append(
                f"  [{b.low:.0f},{hi}] n={b.count:<5d} acc={b.accuracy:.4f} f1={b.f1:.4f}"
            )
        lines.append("")
    return "\n".join(lines) + "\n"


def report_to_dict(report: EvalReport) -> dict:
    def bin_dict(b: BinMetric) -> dict:
        return {
            "low": b.low,
            "high": b.high if b.high < 10**9 else None,
            "n": b.count,
            "accuracy": b.accuracy,
            "f1": b.f1,
        }

    return {
        "num_instances": report.num_instances,
        "f1_note": report.f1_note,
        "methods": [
            {
                "method": m.method,
                "accuracy": m.accuracy,
                "macro_f1": m.macro_f1,
                "per_class_f1": {str(c): f for c, f in sorted(m.per_class_f1.items())},
                "ambiguity_bins": [bin_dict(b) for b in m.ambiguity_bins],
                "frequency_bins": [bin_dict(b) for b in m.frequency_bins],
            }
            for m in report.methods
        ],
    }


def save_report(report: EvalReport, text_path, json_path=None):
    with jsonl.atomic_open(text_path) as fh:
        fh.write(render_report_text(report))
    if json_path is not None:
        with jsonl.atomic_open(json_path) as fh:
            json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
            fh.write("\n")


def curves_csv(report: EvalReport) -> str:
    """CSV rows: method, curve, bin_low, bin_high, n, accuracy, f1."""
    rows = ["method,curve,bin_low,bin_high,n,accuracy,f1"]
    for m in report.methods:
        for b in m.ambiguity_bins:
            rows.append(
                f"{m.method},ambiguity,{b.low:.2f},{b.high:.2f},{b.count},"
                f"{b.accuracy:.6f},{b.f1:.6f}"
            )
        for b in m.frequency_bins:
            hi = "inf" if b.high >= 10**9 else f"{b.high:.0f}"
            rows.append(
                f"{m.method},frequency,{b.low:.0f},{hi},{b.count},{b.accuracy:.6f},{b.f1:.6f}"
            )
    return "\n".join(rows) + "\n"


def save_curves(report: EvalReport, path):
    with jsonl.atomic_open(path) as fh:
        fh.write(curves_csv(report))
