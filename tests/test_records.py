"""The immutable-record contract shared by every record of the package."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from gbent import (
    AffineSpec,
    ComponentTuple,
    CycInt,
    DualCertificate,
    FunctionDoc,
    GammaTable,
    GBFunction,
    GbentReport,
    MaioranaSpec,
    PAryFunction,
    RegularityReport,
    RowCriterionReport,
    RowDecomp,
    SpectralForm,
    SpectralFormReport,
    Spectrum,
    build_maiorana,
    compose,
    example_maiorana_q27,
    regularity,
    root,
    wht_fast,
)

SRC = Path(__file__).resolve().parent.parent / "src"

FIELDS = {
    GBFunction: ("p", "n", "q", "table"),
    PAryFunction: ("p", "n", "table"),
    ComponentTuple: ("p", "n", "q", "components"),
    FunctionDoc: ("function", "components"),
    Spectrum: ("p", "n", "q", "modulus", "values"),
    GammaTable: ("p", "k", "q", "modulus", "entries"),
    GbentReport: ("is_gbent", "failures", "spectrum"),
    SpectralForm: ("alpha", "dual"),
    SpectralFormReport: ("forms", "failures", "spectrum"),
    RegularityReport: ("verdict", "alpha", "gbent", "spectral"),
    RowDecomp: ("alpha", "j", "v", "row"),
    RowCriterionReport: ("holds", "decomps", "failures"),
    DualCertificate: ("alpha", "dual", "decomps"),
    AffineSpec: ("c", "w"),
    MaioranaSpec: ("p", "m", "q", "beta", "affines"),
}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_fields_are_the_annotations_in_order(cls):
    assert cls._fields == FIELDS[cls]


def test_positional_and_keyword_construction_agree():
    a = GBFunction(3, 1, 9, (0, 4, 8))
    b = GBFunction(q=9, table=[0, 4, 8], n=1, p=3)
    c = GBFunction(3, 1, table=(0, 4, 8), q=9)
    assert a == b == c
    assert b.table == (0, 4, 8)  # __post_init__ still normalizes


@pytest.mark.parametrize(
    "args,kwargs",
    [
        ((3, 1, 9), {}),  # missing table
        ((3, 1), {"table": (0, 4, 8)}),  # missing q
        ((3, 1, 9, (0, 4, 8), 0), {}),  # one field too many
        ((3, 1, 9, (0, 4, 8)), {"extra": 1}),  # unknown field
        ((3, 1, 9, (0, 4, 8)), {"p": 3}),  # duplicate field
        ((), {"p": 3, "n": 1, "q": 9, "table": (0, 4, 8), "k": 2}),
    ],
)
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        GBFunction(*args, **kwargs)


def test_validation_still_raises_value_error():
    with pytest.raises(ValueError):
        GBFunction(3, 1, 9, (0, 4, 9))
    with pytest.raises(ValueError):
        PAryFunction(4, 1, (0, 1, 2, 3))
    with pytest.raises(ValueError):
        MaioranaSpec(3, 1, 9, (0,), (AffineSpec(0, (1,)),))


def test_fields_cannot_be_set_or_deleted():
    f = GBFunction(3, 1, 3, (0, 1, 2))
    with pytest.raises(AttributeError):
        f.p = 5
    with pytest.raises(AttributeError):
        f.other = 1
    with pytest.raises(AttributeError):
        del f.table
    assert f == GBFunction(3, 1, 3, (0, 1, 2))


def test_equal_values_hash_equally():
    a = RowDecomp("+1", 2, (1, 0), 3)
    b = RowDecomp(alpha="+1", j=2, v=(1, 0), row=3)
    assert a == b and hash(a) == hash(b)
    assert a != RowDecomp("+1", 2, (1, 0), 4)
    assert len({a, b, RowDecomp("-1", 2, (1, 0), 3)}) == 2


def test_different_record_classes_are_unequal():
    assert SpectralForm("+1", 0) != AffineSpec("+1", 0)
    assert AffineSpec("+1", 0) != SpectralForm("+1", 0)
    assert SpectralForm("+1", 0) != ("+1", 0)
    assert SpectralForm("+1", 0).__eq__(("+1", 0)) is NotImplemented


def test_repr_names_every_field():
    assert repr(SpectralForm("+i", 4)) == "SpectralForm(alpha='+i', dual=4)"
    assert repr(AffineSpec(1, (0, 2))) == "AffineSpec(c=1, w=(0, 2))"


def test_importing_the_cli_generates_no_code():
    code = "import sys, gbent.cli; print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False"]


def test_ring_values_and_reports_pickle_and_deepcopy():
    # Values cross process boundaries by pickle; copy.deepcopy takes the same
    # path. A CycInt is rebuilt through its constructor, never by setattr.
    f = compose(build_maiorana(example_maiorana_q27()))
    z = 3 * root(108, 5) - 1
    for value in (z, wht_fast(f), regularity(f)):
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert twin == value and type(twin) is type(value)
    assert isinstance(pickle.loads(pickle.dumps(z)), CycInt)
