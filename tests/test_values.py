"""Value semantics of the package's result and record classes.

Each class is frozen and compares like a frozen dataclass: instances of
the same class with equal fields are equal and hash equal, any other
class compares unequal, and fields cannot be assigned or deleted.  The
reprs are the dataclass texts.  The constructors' signatures and their
wrong-arity messages are those of the hand-written constructors, which
`_value.Value` derives for the records that only store their fields.
"""

import copy
import inspect
import pickle

import pytest

import bckcodes as bc

_TABLE = ((0, 0), (1, 0))


def _alg(names=("a", "b")):
    return bc.CayleyAlgebra(_TABLE, names)


def _code(values=(3, 1)):
    return bc.BlockCode.of(values, 2)


def _check(axiom=1):
    return bc.AxiomCheck(axiom, False, (0, 1, 1), 1)


def _function(values=(0, 1)):
    return bc.BckFunction(("a", "b"), _alg(), values)


def _lift(lifted=(3, 1)):
    return bc.LiftResult(_code(lifted), _code((2,)), _code(), _code())


# (make an instance, a differing instance, the instance's repr)
CASES = {
    "CayleyAlgebra": (
        _alg,
        bc.CayleyAlgebra(((0, 0), (0, 0)), ("a", "b")),
        "CayleyAlgebra(table=((0, 0), (1, 0)), names=('a', 'b'))",
    ),
    "AxiomCheck": (
        lambda: bc.AxiomCheck(1, True),
        bc.AxiomCheck(1, True, None, 0),
        "AxiomCheck(axiom=1, holds=True, witness=None, evaluation=None)",
    ),
    "AxiomReport": (
        lambda: bc.AxiomReport((_check(),)),
        bc.AxiomReport((_check(2),)),
        "AxiomReport(checks=(AxiomCheck(axiom=1, holds=False, witness=(0, 1, 1), evaluation=1),))",
    ),
    "PropertyCheck": (
        lambda: bc.PropertyCheck(False, (1, 2)),
        bc.PropertyCheck(False, (2, 1)),
        "PropertyCheck(holds=False, witness=(1, 2))",
    ),
    "Poset": (
        lambda: bc.Poset((3, 1)),
        bc.Poset((2, 3)),
        "Poset(rows=(3, 1), minimum=0)",
    ),
    "ClassEntry": (
        lambda: bc.ClassEntry(_alg(None), 1, _code(), _code()),
        bc.ClassEntry(_alg(None), 2, _code(), _code()),
        "ClassEntry(representative=CayleyAlgebra(table=((0, 0), (1, 0)), names=None), size=1, "
        "code=BlockCode(values=(3, 1), length=2), label_canonical=BlockCode(values=(3, 1), "
        "length=2))",
    ),
    "CensusReport": (
        lambda: bc.CensusReport(2, 1, 1, 1, 1, 1, True, False, ()),
        bc.CensusReport(2, 1, 1, 1, 1, 1, True, True, ()),
        "CensusReport(order=2, total_tables=1, iso_classes=1, similarity_classes=1, "
        "label_canonical_classes=1, bound=1, bound_check=True, "
        "code_varies_within_iso_class=False, class_inventory=())",
    ),
    "Codeword": (
        lambda: bc.Codeword.of(5, 4),
        bc.Codeword.of(5, 5),
        "Codeword(value=5, length=4)",
    ),
    "BlockCode": (
        _code,
        _code((1, 3)),
        "BlockCode(values=(3, 1), length=2)",
    ),
    "MembershipCheck": (
        lambda: bc.MembershipCheck(True),
        bc.MembershipCheck(True, "reason"),
        "MembershipCheck(ok=True, reason=None)",
    ),
    "BckFunction": (
        _function,
        _function((0, 0)),
        "BckFunction(domain=('a', 'b'), algebra=CayleyAlgebra(table=((0, 0), (1, 0)), "
        "names=('a', 'b')), values=(0, 1))",
    ),
    "EquivalenceClasses": (
        lambda: bc.EquivalenceClasses(((0,), (1,)), (("a", "b"), ("b",))),
        bc.EquivalenceClasses(((0,), (1,)), (("a", "b"), ("a",))),
        "EquivalenceClasses(classes=((0,), (1,)), cuts=(('a', 'b'), ('b',)))",
    ),
    "ConstructionResult": (
        lambda: bc.ConstructionResult(_alg(), _code(), _function(), bc.Poset((3, 1))),
        bc.ConstructionResult(_alg(), _code(), _function(), bc.Poset((2, 3))),
        "ConstructionResult(algebra=CayleyAlgebra(table=((0, 0), (1, 0)), names=('a', 'b')), "
        "code=BlockCode(values=(3, 1), length=2), function=BckFunction(domain=('a', 'b'), "
        "algebra=CayleyAlgebra(table=((0, 0), (1, 0)), names=('a', 'b')), values=(0, 1)), "
        "poset=Poset(rows=(3, 1), minimum=0))",
    ),
    "RowMismatch": (
        lambda: bc.RowMismatch(0, bc.Codeword.of(3, 2), bc.Codeword.of(1, 2)),
        bc.RowMismatch(1, bc.Codeword.of(3, 2), bc.Codeword.of(1, 2)),
        "RowMismatch(element=0, expected=Codeword(value=3, length=2), "
        "produced=Codeword(value=1, length=2))",
    ),
    "RoundTripReport": (
        lambda: bc.RoundTripReport(_code(), (3, 1)),
        bc.RoundTripReport(_code(), (3, 0)),
        "RoundTripReport(code=BlockCode(values=(3, 1), length=2), rows=(3, 1))",
    ),
    "LiftResult": (
        _lift,
        _lift((3, 0)),
        "LiftResult(lifted_code=BlockCode(values=(3, 1), length=2), "
        "source_code=BlockCode(values=(2,), length=2), "
        "embedded=BlockCode(values=(3, 1), length=2), "
        "ambient=BlockCode(values=(3, 1), length=2))",
    ),
}


# (the constructor's signature, what a call with no arguments is missing)
SIGNATURES = {
    "CayleyAlgebra": ("(table, names=None)", "1 required positional argument: 'table'"),
    "AxiomCheck": (
        "(axiom, holds, witness=None, evaluation=None)",
        "2 required positional arguments: 'axiom' and 'holds'",
    ),
    "AxiomReport": ("(checks)", "1 required positional argument: 'checks'"),
    "PropertyCheck": ("(holds, witness=None)", "1 required positional argument: 'holds'"),
    "Poset": ("(rows)", "1 required positional argument: 'rows'"),
    "ClassEntry": (
        "(representative, size, code, label_canonical)",
        "4 required positional arguments: 'representative', 'size', 'code', and "
        "'label_canonical'",
    ),
    "CensusReport": (
        "(order, total_tables, iso_classes, similarity_classes, label_canonical_classes, "
        "bound, bound_check, code_varies_within_iso_class, class_inventory)",
        "9 required positional arguments: 'order', 'total_tables', 'iso_classes', "
        "'similarity_classes', 'label_canonical_classes', 'bound', 'bound_check', "
        "'code_varies_within_iso_class', and 'class_inventory'",
    ),
    "Codeword": ("(bits)", "1 required positional argument: 'bits'"),
    "BlockCode": ("(words)", "1 required positional argument: 'words'"),
    "MembershipCheck": ("(ok, reason=None)", "1 required positional argument: 'ok'"),
    "BckFunction": (
        "(domain, algebra, values)",
        "3 required positional arguments: 'domain', 'algebra', and 'values'",
    ),
    "EquivalenceClasses": (
        "(classes, cuts)", "2 required positional arguments: 'classes' and 'cuts'"
    ),
    "ConstructionResult": (
        "(algebra, code, function, poset)",
        "4 required positional arguments: 'algebra', 'code', 'function', and 'poset'",
    ),
    "RowMismatch": (
        "(element, expected, produced)",
        "3 required positional arguments: 'element', 'expected', and 'produced'",
    ),
    "RoundTripReport": ("(code, rows)", "2 required positional arguments: 'code' and 'rows'"),
    "LiftResult": (
        "(lifted_code, source_code, embedded, ambient)",
        "4 required positional arguments: 'lifted_code', 'source_code', 'embedded', "
        "and 'ambient'",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_constructor_signature_and_arity(name):
    cls = getattr(bc, name)
    signature, missing = SIGNATURES[name]
    assert str(inspect.signature(cls)) == signature
    a = CASES[name][0]()
    # every parameter is a field or a property that gives the argument back
    args = {p: getattr(a, p) for p in inspect.signature(cls).parameters}
    for b in (cls(*args.values()), cls(**args)):
        assert type(b) is cls and b == a and repr(b) == repr(a)
    with pytest.raises(TypeError) as raised:
        cls()
    assert str(raised.value) == f"{name}.__init__() missing {missing}"


@pytest.mark.parametrize("name", CASES)
def test_value_semantics(name):
    make, different, text = CASES[name]
    a, b = make(), make()
    assert type(a) is getattr(bc, name)
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != different and not a == different
    # another class compares unequal, even with equal fields
    other = type(name, (), dict(vars(a)))()
    assert a != other and a.__eq__(other) is NotImplemented
    for field in [*vars(a), "unknown"]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(a, field, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(a, field)
    assert a == b
    for c in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(c) is type(a) and c == a and hash(c) == hash(a) and repr(c) == text
    assert repr(a) == text
    if name == "CayleyAlgebra":
        # names are labels only: they take no part in equality or hashing
        for names in (None, ("x", "y")):
            assert _alg(names) == a and hash(_alg(names)) == hash(a)


def test_a_subclass_without_fields_keeps_the_base_semantics():
    class Named(bc.CayleyAlgebra):
        pass

    a = Named(_TABLE, ("x", "y"))
    assert a == Named(_TABLE) and hash(a) == hash(Named(_TABLE))
    assert a != bc.CayleyAlgebra(_TABLE, ("x", "y"))
    assert repr(a).endswith(".<locals>.Named(table=((0, 0), (1, 0)), names=('x', 'y'))")
