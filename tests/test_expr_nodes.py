"""The contract of the expression AST nodes, and which ncdiff classes are dataclasses."""

import copy
import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import ncdiff
import ncdiff.expr as E

FIELDS = {
    E.Num: ("value",),
    E.Gen: ("name",),
    E.Adj: ("arg",),
    E.Pow: ("arg", "exponent"),
    E.Neg: ("arg",),
    E.Mul: ("left", "right"),
    E.Add: ("left", "right"),
    E.Sub: ("left", "right"),
    E.Wedge: ("left", "right"),
    E.Comm: ("left", "right"),
    E.Delta: ("arg",),
    E.ThetaHat: ("s", "t", "arg"),
}

TEXT = "theta_hat(0.3, -0.5, [U, V^-2]') - 2i * delta(W) /\\ U1 + -1.5"
REPR = ("Add(left=Sub(left=ThetaHat(s=0.3, t=-0.5, arg=Adj(arg=Comm(left=Gen(name='U'), "
        "right=Pow(arg=Gen(name='V'), exponent=-2)))), right=Wedge(left=Mul(left=Num("
        "value=2j), right=Delta(arg=Gen(name='W'))), right=Gen(name='U1'))), "
        "right=Neg(arg=Num(value=(1.5+0j))))")


def _tree():
    """The parse of TEXT, built by hand."""
    comm = E.Comm(E.Gen("U"), E.Pow(E.Gen("V"), -2))
    left = E.ThetaHat(0.3, -0.5, E.Adj(comm))
    right = E.Wedge(E.Mul(E.Num(2j), E.Delta(E.Gen("W"))), E.Gen("U1"))
    return E.Add(E.Sub(left, right), E.Neg(E.Num(1.5 + 0j)))


def _sample(cls):
    return cls(*(E.Gen(f"x{i}") for i in range(len(FIELDS[cls]))))


def test_fields_in_order():
    for cls, names in FIELDS.items():
        assert cls.__match_args__ == names
        node = cls(*range(len(names)))
        assert tuple(getattr(node, n) for n in names) == tuple(range(len(names)))


def test_equal_trees_are_equal_and_hash_alike():
    a, b = _tree(), _tree()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert E.parse(TEXT) == a
    assert len({a, b, E.parse(TEXT)}) == 1
    assert a != E.Add(a.left, E.Neg(E.Num(2.5 + 0j)))


def test_equal_fields_of_other_types_differ():
    x, y = E.Gen("U"), E.Num(2j)
    for one, other in ((E.Add, E.Sub), (E.Mul, E.Comm), (E.Wedge, E.Add)):
        assert one(x, y) != other(x, y)
        assert not one(x, y) == other(x, y)
    assert E.Neg(x) != E.Adj(x) and E.Adj(x) != E.Delta(x)
    assert E.Gen("U") != "U" and E.Gen("U") != ("U",) and E.Num(2j) != 2j


def test_repr_of_a_nested_tree():
    assert repr(_tree()) == repr(E.parse(TEXT)) == REPR


def test_keyword_construction():
    assert E.Pow(arg=E.Gen(name="U"), exponent=3) == E.Pow(E.Gen("U"), 3)
    assert E.ThetaHat(0.1, t=0.2, arg=E.Gen("V")) == E.ThetaHat(0.1, 0.2, E.Gen("V"))
    assert E.Add(right=E.Num(1j), left=E.Gen("U")) == E.Add(E.Gen("U"), E.Num(1j))


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_wrong_arity_raises_type_error(cls):
    n = len(FIELDS[cls])
    with pytest.raises(TypeError):
        cls(*range(n - 1))
    with pytest.raises(TypeError):
        cls(*range(n + 1))
    with pytest.raises(TypeError):
        cls(*range(n), bogus=1)
    with pytest.raises(TypeError):
        cls(*range(n), **{FIELDS[cls][0]: 0})


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_assignment_raises_attribute_error(cls):
    node = _sample(cls)
    with pytest.raises(AttributeError):
        setattr(node, FIELDS[cls][0], E.Gen("z"))
    with pytest.raises(AttributeError):
        node.extra = 1
    with pytest.raises(AttributeError):
        delattr(node, FIELDS[cls][0])
    assert node == _sample(cls)


def test_copies_and_pickles_are_equal():
    tree = _tree()
    for other in (copy.copy(tree), copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert other == tree and type(other) is E.Add and repr(other) == REPR


def test_nodes_match_by_position():
    match E.parse("[U, V^2]"):
        case E.Comm(E.Gen(a), E.Pow(E.Gen(b), k)):
            assert (a, b, k) == ("U", "V", 2)
        case _:
            pytest.fail("no match")


# A dataclass writes out and execs the source of its methods when its module
# is imported: 0.5-1.0 ms a class on a 2-core x86-64 VM (timed around
# dataclasses._process_class in a bytecode-cached import).  As frozen
# dataclasses the twelve expression nodes took 8-10 ms, over half of that
# import; the five public records below still take about 3.3 ms of its 10.
PUBLIC_RECORDS = {"graph_algebra.Path", "cohomology.ComplexReport", "cohomology.DegreeRow",
                  "dirichlet.SemigroupAudit", "deformation.DeformationSweep"}


def test_only_the_public_records_are_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(ncdiff.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"ncdiff.{info.name}")
        for name, obj in vars(mod).items():
            if (isinstance(obj, type) and obj.__module__ == mod.__name__
                    and dataclasses.is_dataclass(obj)):
                found.add(f"{info.name}.{name}")
    assert found == PUBLIC_RECORDS
