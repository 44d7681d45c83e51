"""Data model for group-level partially labeled datasets.

A dataset is a set of groups; each group pairs feature-vector instances
with a candidate label multiset.  Supervision is group-level only: which
instance matches which label occurrence is never observed, an instance's
correct label may sit in another group's label set, and some instances
(null instances, from background classes) have no matching label anywhere.

Label occurrences are per-group nodes: the same class named in two groups
is two distinct occurrences.  Candidate links are the full instance x label
product inside each group.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import jsonl
from .errors import AmbiguityUndefinedError, ConfigError, SchemaError

# Class id reserved for instances whose correct label exists in no group.
NULL_CLASS = -1

# Internal generator skew: per-class "exposure" drives where distractor
# labels, background instances and label displacement concentrate, so a
# dataset spans the whole ambiguity range instead of collapsing onto one
# value.  Higher powers sharpen the skew.
_EXPOSURE_POWER = 1.5
_CROSS_SELECTION_POWER = 1.5

# Fraction of background instances drawn on top of a named prototype (a
# look-alike of a labeled class); indistinguishable from a displaced
# instance by features alone, so they bound every method's accuracy on
# fully ambiguous classes.
_DOPPELGANGER_RATE = 0.35


@dataclass(frozen=True)
class LabelOccurrence:
    """One candidate label inside one group's label multiset."""

    class_id: int
    group_id: int
    slot: int


@dataclass(frozen=True)
class Instance:
    instance_id: int
    group_id: int
    features: np.ndarray
    true_class: int | None = None  # evaluation-only; NULL_CLASS for background


@dataclass
class Group:
    group_id: int
    instances: list[Instance] = field(default_factory=list)
    labels: list[LabelOccurrence] = field(default_factory=list)


@dataclass
class GpllDataset:
    groups: list[Group]
    num_classes: int
    feature_dim: int
    provenance: dict | None = None

    def iter_instances(self):
        for group in self.groups:
            yield from group.instances

    @property
    def num_instances(self) -> int:
        return sum(len(g.instances) for g in self.groups)

    @property
    def num_label_nodes(self) -> int:
        return sum(len(g.labels) for g in self.groups)

    def has_ground_truth(self) -> bool:
        return all(inst.true_class is not None for inst in self.iter_instances())

    def validate(self):
        """Check structural invariants, raising SchemaError on violation."""
        _check_group_ids(self.groups)
        seen_inst: set[int] = set()
        for group in self.groups:
            _validate_group(group, self.num_classes, self.feature_dim, seen_inst)


def _check_group_ids(groups: list[Group]):
    if sorted(g.group_id for g in groups) != list(range(len(groups))):
        raise SchemaError("group ids must be dense in [0, K)")


def _validate_group(group: Group, num_classes: int, feature_dim: int, seen_inst: set[int]):
    """Check one group's invariants (adding its instance ids to ``seen_inst``);
    the SchemaError message starts with the group id."""
    try:
        for inst in group.instances:
            if inst.instance_id in seen_inst:
                raise SchemaError(f"duplicate instance id {inst.instance_id}")
            seen_inst.add(inst.instance_id)
            if inst.group_id != group.group_id:
                raise SchemaError(f"instance {inst.instance_id} group mismatch")
            if inst.features.shape != (feature_dim,):
                raise SchemaError(
                    f"instance {inst.instance_id} has features of shape "
                    f"{inst.features.shape}, expected dimension {feature_dim}"
                )
            if not np.all(np.isfinite(inst.features)):
                raise SchemaError(f"instance {inst.instance_id} has non-finite features")
            if inst.true_class is not None and not (
                inst.true_class == NULL_CLASS or 0 <= inst.true_class < num_classes
            ):
                raise SchemaError(
                    f"instance {inst.instance_id} true_class {inst.true_class} out of range"
                )
        slots = [lab.slot for lab in group.labels]
        if sorted(slots) != list(range(len(group.labels))):
            raise SchemaError("label slots not dense")
        for lab in group.labels:
            if lab.group_id != group.group_id:
                raise SchemaError("label has wrong group_id")
            if not 0 <= lab.class_id < num_classes:
                raise SchemaError(f"label class_id {lab.class_id} outside [0, {num_classes})")
    except SchemaError as exc:
        raise SchemaError(f"group {group.group_id}: {exc}") from None


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic group-supervision generator.

    ``null_rate`` is the fraction of instances drawn from background classes
    (no label anywhere); ``cross_rate`` the fraction whose label occurrence is
    displaced into another group; ``distractor_rate`` the mean number of extra
    labels per group that match no instance in it.

    The defaults are the reference benchmark's (``dbgae.benchmark``).
    """

    num_classes: int = 20
    feature_dim: int = 32
    num_groups: int = 200
    min_instances: int = 1
    max_instances: int = 2
    min_labels: int = 0
    max_labels: int = 10
    separation: float = 1.0
    noise_scale: float = 0.08
    null_rate: float = 0.2
    cross_rate: float = 0.2
    distractor_rate: float = 0.3
    rng_seed: int = 0

    def validate(self):
        if self.num_classes < 1:
            raise ConfigError("num_classes must be >= 1")
        if self.feature_dim < 1:
            raise ConfigError("feature_dim must be >= 1")
        if self.num_groups < 0:
            raise ConfigError("num_groups must be >= 0")
        if not 0 <= self.min_instances <= self.max_instances:
            raise ConfigError("min_instances must satisfy 0 <= min_instances <= max_instances")
        if not 0 <= self.min_labels <= self.max_labels:
            raise ConfigError("min_labels must satisfy 0 <= min_labels <= max_labels")
        if self.separation <= 0:
            raise ConfigError("separation must be > 0")
        if self.noise_scale <= 0:
            raise ConfigError("noise_scale must be > 0")
        for name in ("null_rate", "cross_rate", "distractor_rate"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.null_rate > 1 or self.cross_rate > 1:
            raise ConfigError("null_rate and cross_rate must be <= 1")
        if self.null_rate + self.cross_rate > 1:
            raise ConfigError("null_rate + cross_rate must be <= 1")
        if self.cross_rate > 0 and self.num_groups < 2:
            raise ConfigError("cross_rate > 0 requires num_groups >= 2")


def _class_exposure(num_classes: int) -> np.ndarray:
    if num_classes == 1:
        return np.ones(1)
    ranks = np.arange(num_classes) / (num_classes - 1)
    return ranks**_EXPOSURE_POWER


def _gumbel_order(rng: np.random.Generator, weights: np.ndarray) -> np.ndarray:
    """Weighted random permutation (heaviest tend to come first)."""
    with np.errstate(divide="ignore"):
        keys = np.log(weights) - np.log(-np.log(rng.random(len(weights))))
    return np.argsort(-keys, kind="stable")


def generate_synthetic(config: GeneratorConfig) -> GpllDataset:
    """Generate a seeded dataset with controllable ambiguity.

    Class prototypes are isotropic Gaussian centers scaled by ``separation``
    and instance features add ``noise_scale`` Gaussian noise.  Each group
    holds distinct classes (group size is clamped to the class count).
    Per-class exposure skews who shares a group with whom and where the
    corruption lands: low-exposure classes mostly live in singleton groups
    and stay nearly unambiguous, while high-exposure classes co-occur in
    larger groups and collect background (null) instances, displaced labels
    and distractor labels.  Null instances replace a slot with a fresh
    background prototype; displaced labels prefer another group holding an
    undisturbed instance of the same class, so the displaced instance's own
    group genuinely lacks its class.
    """
    config.validate()
    rng = np.random.default_rng(config.rng_seed)
    C, d, K = config.num_classes, config.feature_dim, config.num_groups

    prototypes = config.separation * rng.standard_normal((C, d))
    sizes = rng.integers(config.min_instances, config.max_instances + 1, size=K)
    sizes = np.minimum(sizes, C)
    exposure = _class_exposure(C)
    mean_exposure = float(exposure.mean())

    # Distinct classes per group; singletons favor quiet classes, larger
    # groups favor exposed ones.
    slot_class: list[np.ndarray] = []
    for g in range(K):
        b = int(sizes[g])
        if b == 0:
            slot_class.append(np.zeros(0, dtype=int))
            continue
        base = (1.0 - exposure + 0.02) if b == 1 else (exposure + 0.02)
        chosen = rng.choice(C, size=b, replace=False, p=base / base.sum())
        slot_class.append(np.asarray(chosen, dtype=int))

    total = int(sizes.sum())
    slot_group = np.repeat(np.arange(K), sizes)
    flat_class = (
        np.concatenate(slot_class) if total else np.zeros(0, dtype=int)
    )

    # Background (null) slots: exposure-weighted quota, kept next to at
    # least one label-bearing slot whenever the quota allows so nulls face
    # real candidate labels rather than empty groups.
    null_mask = np.zeros(total, dtype=bool)
    null_quota = int(round(config.null_rate * total))
    named_left = np.asarray(sizes, dtype=int).copy()
    if null_quota > 0:
        weight = exposure[flat_class] + 1e-3
        taken = 0
        for relax in (False, True):
            if taken >= null_quota:
                break
            for s in _gumbel_order(rng, weight):
                if taken >= null_quota:
                    break
                if null_mask[s]:
                    continue
                g = int(slot_group[s])
                if not relax and named_left[g] <= 1:
                    continue
                null_mask[s] = True
                named_left[g] -= 1
                taken += 1

    # Displaced slots: exposure-weighted quota over remaining named slots,
    # never stripping the last label-bearing slot from a group that hosts a
    # null instance.
    cross_mask = np.zeros(total, dtype=bool)
    cross_quota = int(round(config.cross_rate * total))
    if cross_quota > 0 and K >= 2:
        group_has_null = np.zeros(K, dtype=bool)
        group_has_null[slot_group[null_mask]] = True
        weight = exposure[flat_class] ** (_CROSS_SELECTION_POWER / _EXPOSURE_POWER) + 1e-3
        weight[null_mask] = 0.0
        taken = 0
        for relax in (False, True):
            if taken >= cross_quota:
                break
            for s in _gumbel_order(rng, weight):
                if taken >= cross_quota:
                    break
                if null_mask[s] or cross_mask[s]:
                    continue
                g = int(slot_group[s])
                if not relax and group_has_null[g] and named_left[g] <= 1:
                    continue
                cross_mask[s] = True
                named_left[g] -= 1
                taken += 1

    # Instance features, drawn in (group, slot) order.
    instances_by_group: list[list[Instance]] = [[] for _ in range(K)]
    next_id = 0
    cursor = 0
    for g in range(K):
        for local in range(int(sizes[g])):
            if null_mask[cursor]:
                if rng.random() < _DOPPELGANGER_RATE:
                    center = prototypes[int(slot_class[g][local])]
                else:
                    center = config.separation * rng.standard_normal(d)
                true_class = NULL_CLASS
            else:
                true_class = int(slot_class[g][local])
                center = prototypes[true_class]
            feats = center + config.noise_scale * rng.standard_normal(d)
            instances_by_group[g].append(
                Instance(instance_id=next_id, group_id=g, features=feats, true_class=true_class)
            )
            next_id += 1
            cursor += 1

    # Labels: own occurrences for undisturbed slots, then displaced arrivals.
    # Iterating groups and slots in ascending order keeps ordering
    # deterministic; arrivals land on hosts that hold an undisturbed
    # instance of the same class whenever one exists.
    own_labels: list[list[int]] = [[] for _ in range(K)]
    arrivals: list[list[int]] = [[] for _ in range(K)]
    normal_groups_by_class: dict[int, list[int]] = {}
    cursor = 0
    for g in range(K):
        for local in range(int(sizes[g])):
            if not null_mask[cursor] and not cross_mask[cursor]:
                c = int(slot_class[g][local])
                own_labels[g].append(c)
                normal_groups_by_class.setdefault(c, []).append(g)
            cursor += 1
    cursor = 0
    for g in range(K):
        for local in range(int(sizes[g])):
            if cross_mask[cursor]:
                c = int(slot_class[g][local])
                hosts = [k for k in normal_groups_by_class.get(c, []) if k != g]
                if hosts:
                    target = int(rng.choice(np.asarray(hosts)))
                else:
                    w = np.ones(K)
                    w[g] = 0.0
                    target = int(rng.choice(K, p=w / w.sum()))
                arrivals[target].append(c)
            cursor += 1

    # Distractors: Poisson per group, rate scaled by the group's mean class
    # exposure, class drawn by exposure among classes with no instance in
    # the group.  Only groups that already carry a genuine label are
    # eligible, so every distractor link competes with a real one.
    if K:
        group_exposure = np.array(
            [
                exposure[slot_class[g]].mean() if len(slot_class[g]) else 1.0
                for g in range(K)
            ]
        )
        eligible = np.array([bool(own_labels[g] or arrivals[g]) for g in range(K)])
        lam = config.distractor_rate * group_exposure / max(mean_exposure, 1e-12)
        distract_counts = rng.poisson(lam) * eligible
    else:
        distract_counts = np.zeros(0, dtype=int)

    groups = []
    for g in range(K):
        classes = own_labels[g] + arrivals[g]
        n_d = int(distract_counts[g])
        n_d = max(min(n_d, config.max_labels - len(classes)), 0)
        if len(classes) + n_d < config.min_labels:
            n_d = config.min_labels - len(classes)
        member_classes = set(int(c) for c in slot_class[g])
        if n_d > 0 and C > len(member_classes):
            w = exposure + 1e-3
            for c in member_classes:
                w[c] = 0.0
            drawn = rng.choice(C, size=n_d, p=w / w.sum())
            classes.extend(int(c) for c in drawn)
        labels = [
            LabelOccurrence(class_id=c, group_id=g, slot=slot) for slot, c in enumerate(classes)
        ]
        groups.append(Group(group_id=g, instances=instances_by_group[g], labels=labels))

    return GpllDataset(
        groups=groups,
        num_classes=C,
        feature_dim=d,
        provenance={"generator": asdict(config)},
    )


# ---------------------------------------------------------------------------
# serialization (JSON Lines: header, then one group per line)
# ---------------------------------------------------------------------------


def _group_record(group: Group) -> dict:
    return {
        "group_id": group.group_id,
        "instances": [
            {
                "id": inst.instance_id,
                "features": inst.features.tolist(),
                **({"true_class": int(inst.true_class)} if inst.true_class is not None else {}),
            }
            for inst in group.instances
        ],
        "labels": [{"class_id": lab.class_id, "slot": lab.slot} for lab in group.labels],
    }


def save_dataset(ds: GpllDataset, path):
    header = {"num_classes": ds.num_classes, "feature_dim": ds.feature_dim}
    if ds.provenance is not None:
        header["provenance"] = ds.provenance
    jsonl.write(path, header, jsonl.records(_group_record(g) for g in ds.groups))


def load_dataset(path) -> GpllDataset:
    header: dict = {}
    groups: list[Group] = []
    seen_inst: set[int] = set()

    def on_header(obj):
        num_classes = jsonl.json_int(obj["num_classes"], "num_classes")
        if num_classes < 1:
            raise SchemaError(f"num_classes {num_classes} below 1")
        feature_dim = jsonl.json_int(obj["feature_dim"], "feature_dim")
        if feature_dim < 0:
            raise SchemaError(f"feature_dim {feature_dim} below 0")
        header.update(
            num_classes=num_classes,
            feature_dim=feature_dim,
            provenance=obj.get("provenance"),
        )

    def on_group(rec):
        group_id = jsonl.json_int(rec["group_id"], "group_id")
        instances = [
            Instance(
                instance_id=jsonl.json_int(ir["id"], "id"),
                group_id=group_id,
                features=np.asarray(ir["features"], dtype=np.float64),
                true_class=(
                    jsonl.json_int(ir["true_class"], "true_class") if "true_class" in ir else None
                ),
            )
            for ir in rec["instances"]
        ]
        labels = [
            LabelOccurrence(
                class_id=jsonl.json_int(lr["class_id"], "class_id"),
                group_id=group_id,
                slot=jsonl.json_int(lr["slot"], "slot"),
            )
            for lr in rec["labels"]
        ]
        group = Group(group_id=group_id, instances=instances, labels=labels)
        _validate_group(group, header["num_classes"], header["feature_dim"], seen_inst)
        groups.append(group)

    jsonl.read(path, on_header, on_group)
    try:
        _check_group_ids(groups)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    return GpllDataset(groups=groups, **header)


def datasets_equal(a: GpllDataset, b: GpllDataset) -> bool:
    """Structural equality, including optional ground truth."""
    if (a.num_classes, a.feature_dim, len(a.groups)) != (b.num_classes, b.feature_dim, len(b.groups)):
        return False
    for ga, gb in zip(a.groups, b.groups):
        if ga.group_id != gb.group_id or ga.labels != gb.labels:
            return False
        if len(ga.instances) != len(gb.instances):
            return False
        for ia, ib in zip(ga.instances, gb.instances):
            if (ia.instance_id, ia.group_id, ia.true_class) != (ib.instance_id, ib.group_id, ib.true_class):
                return False
            if not np.array_equal(ia.features, ib.features):
                return False
    return True


# ---------------------------------------------------------------------------
# ambiguity ratio and summary statistics
# ---------------------------------------------------------------------------


def _require_truth(ds: GpllDataset):
    if not ds.has_ground_truth():
        raise SchemaError("operation requires ground truth on every instance")


def _link_tables(ds: GpllDataset) -> tuple[dict[int, int], dict[int, int]]:
    """Counts of correct links (s_t) and wrong touching links (s_f) per class.

    Candidate links are all within-group instance x label pairs.  A wrong
    link touches a class through its instance side or its label side; a
    link touching both sides with the same class would be correct, so each
    wrong link is counted once per touched class.  Only classes with a
    nonzero count are keys.

    Counted from per-group class histograms: a group with ``a_c`` instances
    and ``b_c`` labels of class c (``a_all`` and ``b_all`` in all) has
    ``a_c * b_c`` correct links of c, and
    ``a_c * (b_all - b_c) + b_c * (a_all - a_c)`` wrong links touch c.
    """
    width = ds.num_classes + 1  # column 0 holds NULL_CLASS
    inst_key, lab_key = [], []
    for g, group in enumerate(ds.groups):
        inst_key.extend(g * width + inst.true_class + 1 for inst in group.instances)
        lab_key.extend(g * width + lab.class_id + 1 for lab in group.labels)
    size = len(ds.groups) * width
    a = np.bincount(np.asarray(inst_key, dtype=np.int64), minlength=size).reshape(-1, width)
    b = np.bincount(np.asarray(lab_key, dtype=np.int64), minlength=size).reshape(-1, width)
    correct = (a * b).sum(axis=0)
    a_all, b_all = a.sum(axis=1, keepdims=True), b.sum(axis=1, keepdims=True)
    wrong = (a * (b_all - b) + b * (a_all - a)).sum(axis=0)
    s_t = {c - 1: int(n) for c, n in enumerate(correct) if n}
    s_f = {c - 1: int(n) for c, n in enumerate(wrong) if n}
    return s_t, s_f


def ambiguity_ratio(ds: GpllDataset, class_id: int) -> float:
    """Fraction of candidate links touching ``class_id`` that are wrong."""
    _require_truth(ds)
    if not (class_id == NULL_CLASS or 0 <= class_id < ds.num_classes):
        raise SchemaError(f"class_id {class_id} outside [0, {ds.num_classes}) and not null")
    s_t, s_f = _link_tables(ds)
    t, f = s_t.get(class_id, 0), s_f.get(class_id, 0)
    if t + f == 0:
        raise AmbiguityUndefinedError(f"no candidate link touches class {class_id}")
    return 1.0 - t / (t + f)


def class_ambiguity_ratios(ds: GpllDataset) -> dict[int, float]:
    """Ambiguity ratio for every class touched by at least one link."""
    _require_truth(ds)
    s_t, s_f = _link_tables(ds)
    classes = set(s_t) | set(s_f)
    return {c: 1.0 - s_t.get(c, 0) / (s_t.get(c, 0) + s_f.get(c, 0)) for c in sorted(classes)}


def class_frequencies(ds: GpllDataset) -> dict[int, int]:
    """Per class: the groups that hold an instance of the class and a label
    of it (its ground-truth co-occurrence frequency)."""
    frequency = {c: 0 for c in range(ds.num_classes)}
    for group in ds.groups:
        inst_classes = {inst.true_class for inst in group.instances}
        label_classes = {lab.class_id for lab in group.labels}
        for c in inst_classes & label_classes:
            frequency[c] += 1
    return frequency


@dataclass
class DatasetStats:
    num_groups: int
    num_instances: int
    num_classes: int
    null_fraction: float
    class_frequency: dict[int, int]
    ambiguity: dict[int, float]
    ambiguity_histogram: list[int]
    mean_ambiguity: float


def dataset_stats(ds: GpllDataset) -> DatasetStats:
    """Summary record: null fraction, co-occurrence frequency, ambiguity histogram."""
    _require_truth(ds)
    total = ds.num_instances
    nulls = sum(1 for inst in ds.iter_instances() if inst.true_class == NULL_CLASS)

    frequency = class_frequencies(ds)
    ambiguity = class_ambiguity_ratios(ds)
    histogram = [0] * 10
    for ratio in ambiguity.values():
        histogram[min(int(ratio * 10), 9)] += 1
    named = [r for c, r in ambiguity.items() if c != NULL_CLASS]
    mean_ambiguity = float(np.mean(named)) if named else 0.0

    return DatasetStats(
        num_groups=len(ds.groups),
        num_instances=total,
        num_classes=ds.num_classes,
        null_fraction=nulls / total if total else 0.0,
        class_frequency=frequency,
        ambiguity=ambiguity,
        ambiguity_histogram=histogram,
        mean_ambiguity=mean_ambiguity,
    )
