"""Value semantics shared by partitions, hooks and labels (partitions.Value)."""

import copy
import json
import pickle

import pytest

from oddchar.characters import odd_partitions
from oddchar.errors import DomainError
from oddchar.glu import (
    GLabel,
    enumerate_odd_labels,
    kappa_q,
    odd_label_count,
    parabolic_star,
    real_label_count,
)
from oddchar.omega import (
    OmegaLabel,
    count_real_odd,
    enumerate_omega_labels,
    galois_act,
    levi_star,
    sharp_glu,
)
from oddchar.partitions import (
    HookPartition,
    Int,
    Partition,
    Row,
    Seq,
    Value,
    binom_is_odd,
    nu2,
    odd_multinomial_order,
    partitions,
    two_adic,
)
from oddchar.permgroups import sylow2_subgroup
from oddchar.sym import (
    SylowLinearLabel,
    ThetaLabel,
    WreathOddLabel,
    alpha_sn,
    alpha_sn_inverse,
    count_odd_irr_sn,
    sharp_sn,
    sharp_sn_inverse,
    star_sn,
    theorem_d_star,
    wreath_index_is_odd,
    wreath_odd_labels,
    young_star,
)


def _glabel():
    return GLabel("+", 3, ((1, Partition((3, 1))), (0, Partition((1,)))))


# One instance of every value class, built through the public API, with the
# repr the frozen dataclasses printed before the value base replaced them.
CASES = [
    (lambda: Partition((2, 1)), "Partition(2, 1)"),
    (lambda: HookPartition(3, 1), "HookPartition(m=3, leg=1)"),
    (lambda: alpha_sn(Partition((3, 1))), "ThetaLabel(hooks=(HookPartition(m=4, leg=1),))"),
    (lambda: sharp_sn(Partition((3, 1))), "SylowLinearLabel(blocks=((4, (0, 1)),))"),
    (
        lambda: WreathOddLabel(3, 1, ((Partition((3,)), 1),), (Partition((1,)),)),
        "WreathOddLabel(k=3, t=1, base=((Partition(3,), 1),), top=(Partition(1,),))",
    ),
    (_glabel, "GLabel(kappa='+', q=3, pairs=((0, Partition(1,)), (1, Partition(3, 1))))"),
    (
        lambda: parabolic_star(_glabel()),
        "ParabolicCorrespondent(line=(0, Partition(1,)), "
        "rest=GLabel(kappa='+', q=3, pairs=((1, Partition(3, 1)),)))",
    ),
    (
        lambda: sharp_glu(_glabel()),
        "OmegaLabel(kappa='+', q=3, blocks=((4, 1, HookPartition(m=4, leg=1)), "
        "(1, 0, HookPartition(m=1, leg=0))))",
    ),
]
IDS = [text.split("(", 1)[0] for _, text in CASES]
cases = pytest.mark.parametrize("make, text", CASES, ids=IDS)


def test_every_value_class_is_covered():
    covered = {type(make()) for make, _ in CASES}
    assert covered == {cls for cls in _subclasses(Value) if cls.__module__.startswith("oddchar.")}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@cases
def test_repr_matches_dataclass_format(make, text):
    assert repr(make()) == text


@cases
def test_fields_cannot_be_set_or_deleted(make, text):
    value = make()
    name = value.__slots__[0]
    before = getattr(value, name)
    for attempt in (
        lambda: setattr(value, name, before),
        lambda: setattr(value, "extra", 1),
        lambda: delattr(value, name),
    ):
        with pytest.raises(AttributeError):
            attempt()
    assert getattr(value, name) is before


@cases
def test_equal_fields_compare_and_hash_equal(make, text):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@cases
def test_another_class_with_the_same_fields_is_unequal(make, text):
    value = make()
    twin_class = type("Twin", (Value,), {"__slots__": type(value).__slots__})
    twin = twin_class._trusted(*(getattr(value, name) for name in value.__slots__))
    assert twin.__slots__ == value.__slots__
    assert value != twin and twin != value
    assert not value == twin and not twin == value


@cases
def test_pickle_and_copy_round_trip(make, text):
    value = make()
    for clone in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)
        assert repr(clone) == text


def test_round_trip_keeps_derived_fields():
    lam = pickle.loads(pickle.dumps(Partition((4, 2, 1))))
    assert lam.n == 7 and lam.conjugate() == Partition((3, 2, 1, 1))


def test_constructor_checks_the_number_of_fields():
    with pytest.raises(TypeError):
        HookPartition(3)
    with pytest.raises(TypeError):
        HookPartition(3, 1, 0)


def _q_as_float():
    kappa_q("+", 3)  # cached first: the float must not hit the entry of the int
    return kappa_q("+", 3.0)


# One non-integer field per case; each used to pass or to raise some other error.
NON_INTEGERS = [
    (lambda: GLabel("+", 5, ((0.5, Partition((1,))),)), "non-integer residues"),
    (lambda: GLabel("+", 5, (("0", Partition((1,))),)), "non-integer residues"),
    (lambda: OmegaLabel("+", 5, ((1, 0.5, HookPartition(1, 0)),)), "non-integer residues"),
    (_q_as_float, "non-integer q"),
    (lambda: Partition((2.7, 1)), "non-integer parts"),
    (lambda: HookPartition(2.5, 0), "non-integer hook size or leg"),
    (lambda: galois_act(1.5, _glabel()), "non-integer exponent"),
    (lambda: galois_act("3", _glabel()), "non-integer exponent"),
    (lambda: WreathOddLabel(3.0, 1, ((Partition((3,)), 1),), (Partition((1,)),)), "non-integer k or t"),
    (lambda: WreathOddLabel(3, 1, ((Partition((3,)), 1.0),), (Partition((1,)),)), "non-integer multiplicities"),
    # from_json passes each field on unchanged: 2.7 must not truncate to 2 first
    (lambda: HookPartition.from_json({"m": 2.7, "leg": 0}), "non-integer hook size or leg"),
    (
        lambda: GLabel.from_json({"kappa": "+", "q": 5, "pairs": [{"s": 1.5, "lambda": [1]}]}),
        "non-integer residues",
    ),
    (
        lambda: OmegaLabel.from_json(
            {"kappa": "+", "q": 5, "blocks": [{"size": 1, "s": 0.5, "hook": {"m": 1, "leg": 0}}]}
        ),
        "non-integer residues",
    ),
    (lambda: SylowLinearLabel.from_json([{"size": 2, "bits": [1.0]}]), "non-integer bits"),
    (lambda: SylowLinearLabel.from_json([{"size": 4.0, "bits": [0, 1]}]), "non-integer block sizes"),
    # the public 2-adic helpers take the same check as the constructors
    (lambda: two_adic(3.0), "non-integer n"),
    (lambda: nu2(2.0), "non-integer r"),
    (lambda: binom_is_odd(3.0, 1), "non-integer n or a"),
    (lambda: odd_multinomial_order([1.0, 2]), "non-integer parts"),
    # a permutation's entries, read where the walk starts
    (lambda: SylowLinearLabel(((2, (1,)),)).value((0.0, 1.0)), "non-integer permutation entries"),
    (lambda: SylowLinearLabel(((2, (1,)),)).value("ab"), "non-integer permutation entries"),
    (lambda: sylow2_subgroup(8.0), "non-integer n"),
    (lambda: sylow2_subgroup("3"), "non-integer n"),
    # n is read as an integer before it is compared
    (lambda: partitions("3"), "non-integer n"),
    (lambda: partitions(3.0), "non-integer n"),
    (lambda: odd_partitions(3.0), "non-integer n"),
    (lambda: count_odd_irr_sn(3.0), "non-integer n"),
    (lambda: odd_label_count("3", 3, "+"), "non-integer n"),
    (lambda: real_label_count(3.0, 3, "+"), "non-integer n"),
]


@pytest.mark.parametrize(
    "make, message",
    NON_INTEGERS,
    ids=[
        "glabel-float",
        "glabel-str",
        "omega-float",
        "kappa-q-float",
        "partition",
        "hook",
        "galois-exponent",
        "galois-exponent-str",
        "wreath-k",
        "wreath-multiplicity",
        "hook-json",
        "glabel-json",
        "omega-json",
        "sylow-json-bit",
        "sylow-json-size",
        "two-adic",
        "nu2",
        "binom-is-odd",
        "odd-multinomial-order",
        "sylow-value-float",
        "sylow-value-str",
        "sylow-subgroup-float",
        "sylow-subgroup-str",
        "partitions-str",
        "partitions-float",
        "odd-partitions-float",
        "count-odd-irr-sn-float",
        "odd-label-count-str",
        "real-label-count-float",
    ],
)
def test_public_constructors_refuse_non_integers(make, message):
    with pytest.raises(DomainError, match=message):
        make()


# One field per case that is no sequence, or a sequence entry that is no pair, or a
# JSON object that is no mapping; each used to raise TypeError or ValueError.
NOT_SEQUENCES = [
    (lambda: Partition(5), "parts must be a sequence, got int"),
    (lambda: ThetaLabel(5), "hooks must be a sequence, got int"),
    (lambda: ThetaLabel.from_json(5), "hooks must be a sequence, got int"),
    (lambda: SylowLinearLabel(5), "blocks must be a sequence, got int"),
    (lambda: SylowLinearLabel.from_json(5), "blocks must be a sequence, got int"),
    (lambda: SylowLinearLabel(((2,),)), "block must have 2 entries, got 1"),
    (lambda: young_star(Partition((3,)), 5), "blocks must be a sequence, got int"),
    (lambda: levi_star(_glabel(), 5), "blocks must be a sequence, got int"),
    (lambda: WreathOddLabel(3, 1, (5,), (Partition((1,)),)), "base entry must be a sequence, got int"),
    (lambda: WreathOddLabel(3, 1, ((Partition((3,)), 1),), 5), "top must be a sequence, got int"),
    (lambda: GLabel("+", 3, 5), "pairs must be a sequence, got int"),
    (lambda: GLabel("+", 3, (5,)), "pair must be a sequence, got int"),
    (lambda: GLabel("+", 3, ((1, Partition((1,)), 0),)), "pair must have 2 entries, got 3"),
    (lambda: OmegaLabel("+", 3, 5), "blocks must be a sequence, got int"),
    (lambda: OmegaLabel("+", 3, (5,)), "block must be a sequence, got int"),
    (lambda: GLabel.from_json(5), r"label must be a mapping with keys \('kappa', 'q', 'pairs'\), got int"),
    (lambda: OmegaLabel.from_json(5), r"label must be a mapping with keys \('kappa', 'q', 'blocks'\), got int"),
    (lambda: HookPartition.from_json(5), r"hook must be a mapping with keys \('m', 'leg'\), got int"),
]


@pytest.mark.parametrize(
    "make, message",
    NOT_SEQUENCES,
    ids=[
        "partition",
        "theta",
        "theta-json",
        "sylow",
        "sylow-json",
        "sylow-block-width",
        "young-star-blocks",
        "levi-star-blocks",
        "wreath-base-entry",
        "wreath-top",
        "glabel-pairs",
        "glabel-pair",
        "glabel-pair-width",
        "omega-blocks",
        "omega-block",
        "glabel-json",
        "omega-json",
        "hook-json",
    ],
)
def test_public_constructors_refuse_non_sequences(make, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        make()


NOT_VALUES = [(3, 1), [3, 1], 4, None, HookPartition(2, 1)]


@pytest.mark.parametrize("value", NOT_VALUES, ids=lambda value: type(value).__name__)
def test_hook_maps_refuse_a_value_of_another_class(value):
    name = type(value).__name__
    calls = [
        (alpha_sn, "Partition"),
        (star_sn, "Partition"),
        (sharp_sn, "Partition"),
        (lambda x: young_star(x, [4]), "Partition"),
        (lambda x: theorem_d_star(x, 2, 2), "Partition"),
        (alpha_sn_inverse, "ThetaLabel"),
        (sharp_sn_inverse, "SylowLinearLabel"),
    ]
    for call, needed in calls:
        with pytest.raises(DomainError, match=f"^need a {needed}, got {name}$"):
            call(value)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: WreathOddLabel(3, 1, (((3,), 1),), (Partition((1,)),)), "tuple"),
        (lambda: WreathOddLabel(3, 1, (([3], 1),), (Partition((1,)),)), "list"),
        (lambda: WreathOddLabel(3, 1, ((Partition((3,)), 1),), ((1,),)), "tuple"),
        (lambda: WreathOddLabel(3, 1, ((Partition((3,)), 1),), (HookPartition(1, 0),)), "HookPartition"),
    ],
    ids=["base-tuple", "base-list", "top-tuple", "top-hook"],
)
def test_wreath_label_refuses_a_partition_of_another_class(make, name):
    with pytest.raises(DomainError, match=f"^need a Partition, got {name}$"):
        make()


@pytest.mark.parametrize(
    "make, needed, name",
    [
        (lambda: GLabel("+", 3, ((0, (1,)),)), "Partition", "tuple"),
        (lambda: GLabel("+", 3, ((0, "ab"),)), "Partition", "str"),
        (lambda: OmegaLabel("+", 3, ((1, 0, (1, 0)),)), "HookPartition", "tuple"),
        (lambda: OmegaLabel("+", 3, ((1, 0, Partition((1,))),)), "HookPartition", "Partition"),
    ],
    ids=["glabel-tuple", "glabel-str", "omega-tuple", "omega-partition"],
)
def test_gl_labels_refuse_a_field_of_another_class(make, needed, name):
    with pytest.raises(DomainError, match=f"^need a {needed}, got {name}$"):
        make()


def test_theta_label_holds_a_tuple_of_hooks():
    hooks = [HookPartition(2, 1), HookPartition(1, 0)]
    theta = ThetaLabel(hooks)
    assert theta.hooks == tuple(hooks) and type(theta.hooks) is tuple
    assert hash(theta) == hash(ThetaLabel(tuple(hooks)))
    assert alpha_sn(alpha_sn_inverse(theta)) == theta
    for hooks, name in [(((2, 1),), "tuple"), ((Partition((2,)),), "Partition"), ([2], "int")]:
        with pytest.raises(DomainError, match=f"^need a HookPartition, got {name}$"):
            ThetaLabel(hooks)


def test_integer_like_fields_become_ints():
    class Index:  # an integer type that is no int, like numpy's
        def __index__(self):
            return 2

    assert Partition((Index(), 1)).parts == (2, 1)
    hook = HookPartition(Index(), True)
    assert (type(hook.m), type(hook.leg)) == (int, int) and hook.to_json() == {"m": 2, "leg": 1}
    label = GLabel("+", 5, ((Index(), Partition((1,))),))
    assert type(label.pairs[0][0]) is int
    wreath = WreathOddLabel(Index(), 1, ((Partition((2,)), 1),), (Partition((1,)),))
    assert (type(wreath.k), wreath.k) == (int, 2)
    wreath = WreathOddLabel(1, Index(), ((Partition((1,)), Index()),), (Partition((2,)),))
    assert (type(wreath.t), type(wreath.base[0][1])) == (int, int)
    assert wreath.to_json() == {"k": 1, "t": 2, "base": [{"psi": [1], "t": 2}], "top": [[2]]}


def test_galois_act_takes_an_integer_like_exponent():
    class Index:
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    label = GLabel("+", 9, ((3, Partition((2,))), (6, Partition((1,)))))
    assert galois_act(Index(3), label) == galois_act(3, label)
    with pytest.raises(DomainError, match="exponent 2 is not coprime to 8"):
        galois_act(Index(2), label)


@cases
def test_trusted_builds_the_validated_value(make, text):
    value = make()
    cls = type(value)
    fields = tuple(getattr(value, name) for name in value.__slots__)
    built = cls._trusted(*fields)
    validated = Partition(value.parts) if cls is Partition else cls(*fields)
    assert type(built) is cls and built == validated and hash(built) == hash(validated)
    assert [getattr(built, name) for name in built.__slots__] == list(fields)
    assert [getattr(validated, name) for name in built.__slots__] == list(fields)
    assert repr(built) == text
    for clone in (pickle.loads(pickle.dumps(built)), copy.copy(built), copy.deepcopy(built)):
        assert type(clone) is cls and clone == validated and repr(clone) == text


@cases
def test_trusted_checks_the_number_of_fields(make, text):
    # for Partition(2, 1) the short call is Partition._trusted((2, 1)), without n
    value = make()
    fields = tuple(getattr(value, name) for name in value.__slots__)
    with pytest.raises(TypeError):
        type(value)._trusted(*fields[:-1])
    with pytest.raises(TypeError):
        type(value)._trusted(*fields, None)


_PAIR = ((0, Partition((1,))),)


# A kappa or q that does not hash must be refused before kappa_q's cache sees it.
@pytest.mark.parametrize(
    "make",
    [
        lambda: kappa_q(["+"], 3),
        lambda: kappa_q("+", [3]),
        lambda: odd_label_count(3, 3, ["+"]),
        lambda: odd_label_count(3, [3], "+"),
        lambda: real_label_count(3, 3, {}),
        lambda: enumerate_odd_labels(2, [3], "+"),
        lambda: count_real_odd(2, 3, ["-"]),
        lambda: GLabel(["+"], 3, _PAIR),
        lambda: GLabel("+", [3], _PAIR),
        lambda: OmegaLabel(["+"], 3, ((1, 0, HookPartition(1, 0)),)),
        lambda: GLabel.from_json({"kappa": ["+"], "q": 3, "pairs": [{"s": 0, "lambda": [1]}]}),
    ],
    ids=[
        "kappa-q-kappa",
        "kappa-q-q",
        "odd-label-count-kappa",
        "odd-label-count-q",
        "real-label-count-kappa",
        "enumerate-odd-labels-q",
        "count-real-odd-kappa",
        "glabel-kappa",
        "glabel-q",
        "omega-kappa",
        "glabel-json-kappa",
    ],
)
def test_an_unhashable_kappa_or_q_is_a_domain_error(make):
    with pytest.raises(DomainError, match="^(kappa must be|non-integer q)"):
        make()


def test_wreath_label_refuses_an_empty_base():
    with pytest.raises(DomainError, match="^a label needs at least one base entry$"):
        WreathOddLabel(3, 0, (), ())


# ----------------------------------------------- tests driven by the declarations

DECLARED = [(make, text) for make, text in CASES if not text.startswith("Partition(")]


def _positions(shape, value, path):
    """(path, shape) of value and of every position inside it that the shape declares."""
    yield path, shape
    if isinstance(shape, Seq):
        yield from _positions(shape.item, value[0], path + (0,))
    elif isinstance(shape, Row):
        for i, (column, entry) in enumerate(zip(shape.shapes, value)):
            yield from _positions(column, entry, path + (i,))


def _replace(value, path, new):
    if not path:
        return new
    i, rest = path[0], path[1:]
    return value[:i] + (_replace(value[i], rest, new),) + value[i + 1 :]


def _json_positions(shape, data, path):
    """As _positions, over the JSON of a field: a list per Seq, an object per Row."""
    yield path, shape
    if isinstance(shape, Seq):
        yield from _json_positions(shape.item, data[0], path + (0,))
    elif isinstance(shape, Row):
        for key, column in zip(shape.keys, shape.shapes):
            yield from _json_positions(column, data[key], path + (key,))


def _json_replace(data, path, new):
    if not path:
        return new
    data = copy.deepcopy(data)
    target = data
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = new
    return data


def _wrong_inputs(shape, json_form=False):
    """An int, a float, a str, None, a tuple where a value is due and a value of another class.

    In JSON a value of another class is that value's JSON; the tuple is left out.
    """
    other = Partition((1,)) if shape is HookPartition else HookPartition(1, 0)
    wrong = [1.5, "ab", None]
    if type(shape) is not Int:
        wrong.append(7)
    if json_form:
        return wrong + [other.to_json()] if isinstance(shape, type) else wrong
    return wrong + ([(1,)] if isinstance(shape, type) else []) + [other]


@pytest.mark.parametrize("make, text", DECLARED, ids=[text.split("(", 1)[0] for _, text in DECLARED])
def test_every_declared_position_refuses_a_wrong_class(make, text):
    value = make()
    cls = type(value)
    fields = tuple(getattr(value, name) for name in cls.__slots__)
    assert cls(*fields) == value
    tried = set()
    for i, shape in enumerate(cls._shapes):
        for path, inner in _positions(shape, fields[i], (i,)):
            tried.add(path[0])
            for wrong in _wrong_inputs(inner):
                with pytest.raises(DomainError):
                    cls(*_replace(fields, path, wrong))
    assert tried == set(range(len(cls.__slots__)))
    # the same positions in the JSON: one field is its own JSON, several an object by name
    data = value.to_json()
    assert cls.from_json(data) == value
    for path, inner in _json_positions(cls._json, data, ()):
        for wrong in _wrong_inputs(inner, json_form=True):
            with pytest.raises(DomainError):
                cls.from_json(_json_replace(data, path, wrong))


def _round_trip_values():
    labels = [
        label
        for n in range(1, 5)
        for q in (3, 5)
        for kappa in "+-"
        for label in enumerate_odd_labels(n, q, kappa)
    ]
    lams = [lam for n in range(1, 13) for lam in odd_partitions(n)]
    wreaths = [(k, t) for k in range(1, 5) for t in range(1, 5) if wreath_index_is_odd(k, t)]
    return {
        "glabel": labels,
        "omega": [
            omega
            for n in range(1, 5)
            for q in (3, 5)
            for kappa in "+-"
            for omega in enumerate_omega_labels(n, q, kappa)
        ],
        "parabolic": [parabolic_star(label) for label in labels if label.kappa == "+" and label.n >= 2],
        "theta": [alpha_sn(lam) for lam in lams],
        "hook": [hook for lam in lams for hook in alpha_sn(lam).hooks],
        "sylow": [sharp_sn(lam) for lam in lams],
        "wreath": [label for k, t in wreaths for label in wreath_odd_labels(k, t)],
    }


ROUND_TRIPS = _round_trip_values()


@pytest.mark.parametrize("source", list(ROUND_TRIPS))
def test_json_text_round_trip(source):
    values = ROUND_TRIPS[source]
    assert len(values) >= 20 and len({type(value) for value in values}) == 1
    for value in values:
        text = json.dumps(value.to_json())
        back = type(value).from_json(json.loads(text))
        assert back == value and json.dumps(back.to_json()) == text
