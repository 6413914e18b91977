"""Value semantics of the package's record classes.

JacobiParams, TPReport, StieltjesReport, ConstantTail, PolynomialTail,
SequenceSpec, CatalogEntry and GFSpec are immutable values: no field can
be assigned or deleted, and two instances of one class built from equal
fields are equal and hash alike.  StieltjesReport compares its families by
value and is unhashable, as is a TPReport whose witness is a dict.  Their
repr names the class and its compared fields; a SequenceSpec's den and
int form are derived, so they are neither compared nor shown.  They are
plain classes: importing the package generates no code for them, so it
loads no dataclasses.
"""

import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from catmoments.hankel import StieltjesReport
from catmoments.jacobi import JacobiParams, TPReport
from catmoments.seqspec import CatalogEntry, ConstantTail, PolynomialTail, SequenceSpec
from catmoments.series import GFSpec


def spec():
    return SequenceSpec((Fraction(1, 2), 3), PolynomialTail((1, Fraction(2, 3))), start=1)


def entry():
    return CatalogEntry("name", "a description", SequenceSpec.constant(2), spec(),
                        (Fraction(1), Fraction(2)), GFSpec("tied_qp", (3, 2)), ("alias",))


# each class: a constructor of a fresh instance, and one field to change
RECORDS = {
    "JacobiParams": (lambda: JacobiParams(1, Fraction(1, 2), 3, 4), "q"),
    "TPReport": (lambda: TPReport("leading_minors", "TRUE", 4, None, "all minors"), "depth"),
    "StieltjesReport": (lambda: StieltjesReport(1, ((1, 1), (1, 2)), ((2, 1), (3, 4)), "PASS"),
                        "family1"),
    "ConstantTail": (lambda: ConstantTail(Fraction(3, 2)), "value"),
    "PolynomialTail": (lambda: PolynomialTail((0, 1, 1)), "coeffs"),
    "SequenceSpec": (spec, "prefix"),
    "CatalogEntry": (entry, "gf"),
    "GFSpec": (lambda: GFSpec("closed_form", (1, 2, 3, 4)), "params"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_fields_can_be_neither_assigned_nor_deleted(name):
    make, field = RECORDS[name]
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.added = 1
    assert getattr(record, field) == before and not hasattr(record, "added")


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_make_equal_values(name):
    make, _ = RECORDS[name]
    one, other = make(), make()
    assert one is not other and one == other and not one != other
    assert one != object() and one != "x"
    if name == "StieltjesReport":
        with pytest.raises(TypeError):
            hash(one)
    else:
        assert hash(one) == hash(other) and len({one, other}) == 1


def test_one_different_field_makes_a_different_value():
    assert JacobiParams(1, 2, 3, 4) != JacobiParams(1, 2, 3, 5)
    assert TPReport("dominance", "TRUE") != TPReport("dominance", "TRUE", detail="d")
    assert StieltjesReport(0, ((1, 1),), ((2, 1),), "PASS") != \
        StieltjesReport(0, ((1, 1),), ((3, 1),), "PASS")
    assert ConstantTail(1) != ConstantTail(2) and PolynomialTail((1,)) != PolynomialTail((1, 0))
    assert SequenceSpec((), ConstantTail(1), 0) != SequenceSpec((), ConstantTail(1), 1)
    assert SequenceSpec((1,), ConstantTail(1)) != SequenceSpec((), ConstantTail(1))
    assert GFSpec("tied_qp", (3, 2)) != GFSpec("tied_qp", (2, 3))
    assert entry() != CatalogEntry(*[getattr(entry(), f) for f in (
        "name", "description", "sigma", "tau", "reference_terms")], None, ("alias",))


def test_equal_fields_of_two_classes_make_different_values():
    assert ConstantTail(1) != PolynomialTail((1,))
    assert SequenceSpec.constant(1) != SequenceSpec((), PolynomialTail((1,)))


def test_coerced_fields_compare_by_value():
    # fields are coerced on construction, so "1/2" and Fraction(2, 4) are one value
    assert ConstantTail("1/2") == ConstantTail(Fraction(1, 2))
    assert hash(ConstantTail("1/2")) == hash(ConstantTail(Fraction(2, 4)))
    assert JacobiParams("1", 2, "3/1", 4) == JacobiParams(1, 2, 3, 4)
    assert GFSpec("tied_qp", ["3", 2]) == GFSpec("tied_qp", (3, 2))


def test_a_dict_witness_makes_a_report_unhashable():
    one = TPReport("leading_minors", "FALSE", 3, {"rows": [0, 1], "value": "-1"})
    other = TPReport("leading_minors", "FALSE", 3, {"rows": [0, 1], "value": "-1"})
    assert one == other
    with pytest.raises(TypeError):
        hash(one)


def test_stieltjes_reports_compare_their_families_by_value():
    one = StieltjesReport(1, ((1, 1), (1, 2)), ((2, 1), (3, 4)), "PASS")
    assert one == StieltjesReport(1, ((2, 2), (2, 4)), ((6, 3), (3, 4)), "PASS")
    assert one != StieltjesReport(1, ((2, 2), (2, 4)), ((6, 3), (3, 4)), "FAIL")


def test_repr_names_the_class_and_its_compared_fields():
    assert repr(SequenceSpec((Fraction(1, 2),), ConstantTail(2), start=1)) == (
        "SequenceSpec(prefix=(Fraction(1, 2),), tail=ConstantTail(value=Fraction(2, 1)), "
        "start=1)")
    text = repr(spec())
    assert "prefix=" in text and "tail=" in text and "start=1" in text
    assert "den" not in text and "_ints" not in text
    assert repr(TPReport("dominance", "TRUE")) == (
        "TPReport(criterion='dominance', verdict='TRUE', depth=None, witness=None, detail=None)")
    assert repr(GFSpec("named", ("catalan",))) == "GFSpec(kind='named', params=('catalan',))"
    assert repr(JacobiParams(1, 2, 3, 4)).startswith("JacobiParams(p=Fraction(1, 1), q=")
    assert repr(StieltjesReport(0, ((1, 1),), ((2, 1),), "PASS")) == (
        "StieltjesReport(depth=0, family0=((1, 1),), family1=((2, 1),), verdict='PASS', "
        "witness=None)")
    assert repr(entry()).startswith("CatalogEntry(name='name', description='a description', ")


def test_derived_fields_stay_out_of_equality():
    # the same values over different written denominators: den and the int
    # form are derived from the prefix and tail, so equal specs share them
    one = SequenceSpec((Fraction(2, 4),), ConstantTail(Fraction(6, 3)), 0)
    other = SequenceSpec((Fraction(1, 2),), ConstantTail(2), 0)
    assert one == other and (one.den, one._ints) == (other.den, other._ints) == (2, ([1], [4]))


def test_importing_the_cli_loads_no_dataclasses():
    # a dataclass compiles its generated methods on every import, which
    # every CLI process would pay before its job starts
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import catmoments.cli; "
            "print(catmoments.cli.__file__); print('dataclasses' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    path, loaded = result.stdout.splitlines()
    assert path.startswith(src) and loaded == "False"
