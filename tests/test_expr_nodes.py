"""The contract of the tuple records (the expression AST nodes and the public
records), and that ncdiff neither defines nor loads a dataclass."""

import copy
import dataclasses
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys

import pytest

import ncdiff
import ncdiff.expr as E
from ncdiff.cohomology import ComplexReport, DegreeRow
from ncdiff.deformation import DeformationSweep
from ncdiff.dirichlet import SemigroupAudit
from ncdiff.graph_algebra import Path

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


# each public record: its fields, the arguments of a sample, and its repr
RECORDS = {
    Path: (("source", "edges", "range"), ("v0", ("e0", "e1"), "v2"), "Path(e0.e1:v0->v2)"),
    DegreeRow: (("k", "dim_ker", "rank_prev", "h_dim"), (1, 3, 1, 2),
                "DegreeRow(k=1, dim_ker=3, rank_prev=1, h_dim=2)"),
    ComplexReport: (("basis_label", "carrier_description", "truncation", "degrees"),
                    ("torus {U}", "torus K=1", {"K": 1}, [DegreeRow(0, 1, 0, 1)]),
                    "ComplexReport(basis_label='torus {U}', carrier_description='torus K=1', "
                    "truncation={'K': 1}, degrees=[DegreeRow(k=0, dim_ker=1, rank_prev=0, "
                    "h_dim=1)])"),
    SemigroupAudit: (("n", "basis_label", "results"),
                     (3, "M_3 projections", [{"t": 0.5, "markov_min": 0.0}]),
                     "SemigroupAudit(n=3, basis_label='M_3 projections', "
                     "results=[{'t': 0.5, 'markov_min': 0.0}])"),
    DeformationSweep: (("parameter_name", "values", "errors", "target_description"),
                       ("h", [0.01, 0.005], [0.001, 0.0005], "halving"),
                       "DeformationSweep(parameter_name='h', values=[0.01, 0.005], "
                       "errors=[0.001, 0.0005], target_description='halving')"),
}
NAMES = {**FIELDS, **{cls: names for cls, (names, _, _) in RECORDS.items()}}


def _tree():
    """The parse of TEXT, built by hand."""
    comm = E.Comm(E.Gen("U"), E.Pow(E.Gen("V"), -2))
    left = E.ThetaHat(0.3, -0.5, E.Adj(comm))
    right = E.Wedge(E.Mul(E.Num(2j), E.Delta(E.Gen("W"))), E.Gen("U1"))
    return E.Add(E.Sub(left, right), E.Neg(E.Num(1.5 + 0j)))


def _args(cls):
    if cls in RECORDS:
        return RECORDS[cls][1]
    return tuple(E.Gen(f"x{i}") for i in range(len(FIELDS[cls])))


def _sample(cls):
    return cls(*_args(cls))


def test_fields_in_order():
    for cls, names in FIELDS.items():
        assert cls.__match_args__ == names
        node = cls(*range(len(names)))
        assert tuple(getattr(node, n) for n in names) == tuple(range(len(names)))
    for cls, (names, args, _) in RECORDS.items():
        assert cls.__match_args__ == names
        assert tuple(getattr(cls(*args), n) for n in names) == args


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
    for cls, (_, args, text) in RECORDS.items():
        assert repr(cls(*args)) == text


def test_keyword_construction():
    assert E.Pow(arg=E.Gen(name="U"), exponent=3) == E.Pow(E.Gen("U"), 3)
    assert E.ThetaHat(0.1, t=0.2, arg=E.Gen("V")) == E.ThetaHat(0.1, 0.2, E.Gen("V"))
    assert E.Add(right=E.Num(1j), left=E.Gen("U")) == E.Add(E.Gen("U"), E.Num(1j))
    for cls, (names, args, _) in RECORDS.items():
        assert cls(**dict(zip(names, args))) == cls(*args)


@pytest.mark.parametrize("cls", list(NAMES), ids=lambda c: c.__name__)
def test_wrong_arity_raises_type_error(cls):
    n = len(NAMES[cls])
    with pytest.raises(TypeError):
        cls(*range(n - 1))
    with pytest.raises(TypeError):
        cls(*range(n + 1))
    with pytest.raises(TypeError):
        cls(*range(n), bogus=1)
    with pytest.raises(TypeError):
        cls(*range(n), **{NAMES[cls][0]: 0})


@pytest.mark.parametrize("cls", list(NAMES), ids=lambda c: c.__name__)
def test_assignment_raises_attribute_error(cls):
    node = _sample(cls)
    with pytest.raises(AttributeError):
        setattr(node, NAMES[cls][0], E.Gen("z"))
    with pytest.raises(AttributeError):
        node.extra = 1
    with pytest.raises(AttributeError):
        delattr(node, NAMES[cls][0])
    assert node == _sample(cls)


def test_copies_and_pickles_are_equal():
    tree = _tree()
    for other in (copy.copy(tree), copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert other == tree and type(other) is E.Add and repr(other) == REPR
    for cls, (_, args, text) in RECORDS.items():
        record = cls(*args)
        for other in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert other == record and type(other) is cls and repr(other) == text


def test_nodes_match_by_position():
    match E.parse("[U, V^2]"):
        case E.Comm(E.Gen(a), E.Pow(E.Gen(b), k)):
            assert (a, b, k) == ("U", "V", 2)
        case _:
            pytest.fail("no match")


# A dataclass writes out and execs the source of its methods when its module
# is imported: 0.5-1.0 ms a class on a 2-core x86-64 VM (timed around
# dataclasses._process_class in a bytecode-cached import).  The twelve
# expression nodes and the five public records share one tuple base,
# carrier._Node, which generates no code.
def test_no_ncdiff_class_is_a_dataclass():
    found = []
    for info in pkgutil.iter_modules(ncdiff.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"ncdiff.{info.name}")
        found += [f"{info.name}.{name}" for name, obj in vars(mod).items()
                  if isinstance(obj, type) and obj.__module__ == mod.__name__
                  and dataclasses.is_dataclass(obj)]
    assert found == []


def test_importing_ncdiff_loads_no_dataclasses():
    src = os.path.dirname(os.path.dirname(ncdiff.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys, numpy, ncdiff, ncdiff.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'dataclasses'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "[]\n"
