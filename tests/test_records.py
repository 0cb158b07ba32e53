"""The records of every layer (namedtuple subclasses that convert and
check their fields in __new__) behave as frozen value types: built by
keyword and by position alike, equal and hashed by value, copied and
pickled whole, and closed to attribute assignment."""

import copy
import pickle
from fractions import Fraction

import pytest

from abdyn.catalog import ClassificationCase, Quaternion, QuaternionAlgebra
from abdyn.criteria import REGULARIZABLE, FamilyDescriptor, Verdict
from abdyn.degrees import DegreeProfile, SemiAbelianAut
from abdyn.errors import ContractError
from abdyn.exactalg import IntMatrix, IntPolynomial
from abdyn.orbit import NumericLattice, OrbitReport, Relation
from abdyn.toroidal import Fan, FanReport, GammaData

GAMMA = GammaData(g_prime=1, r_prime=2, Bprime=IntMatrix.from_rows([[2, 1], [1, 3]]))

# (record type, keyword arguments in field order, hashable)
RECORDS = [
    (SemiAbelianAut, {"r": 2, "g": 1, "u_T": IntMatrix.from_rows([[2, 1], [1, 1]]),
                      "u_A_rat": IntMatrix.from_rows([[0, -1], [1, 0]])}, True),
    (DegreeProfile, {"lambdas": (1.0, 2.5, 1.0), "growth_exponents": (0, None, 0)}, True),
    (NumericLattice, {"g": 1, "basis": ((1,), (1j,)),
                      "polarization": IntMatrix.from_rows([[0, 1], [-1, 0]])}, True),
    (Relation, {"q": (1, -2), "q_prime": 3, "residual": 1e-12}, True),
    (OrbitReport, {"h": 2, "s": 1, "r": 0, "relations": (), "dense": True,
                   "totally_real": False, "height_bound": 10 ** 6, "tol": 1e-9}, True),
    (FamilyDescriptor, {"g": 1, "charpoly": IntPolynomial([1, -3, 1]), "r": 1, "k": None,
                        "finite_order": False}, True),
    (Verdict, {"status": REGULARIZABLE,
               "reasons": (("R1", "non-degenerating criterion", "r = 0"),)}, True),
    (QuaternionAlgebra, {"a": 2, "b": Fraction(-3, 5)}, True),
    (Quaternion, {"alpha": 3, "beta": 2, "gamma": 0, "delta": Fraction(1, 2)}, True),
    (ClassificationCase, {"id": "2.1", "g": 2, "albert_type": None,
                          "parameters": {"l": 2, "e": 1}, "description": "E^2", "m": 1},
     False),
    (GammaData, {"g_prime": 1, "r_prime": 2, "Bprime": IntMatrix.from_rows([[2, 1], [1, 3]])},
     True),
    (Fan, {"cones": ((), ((1, 0, 0, 1),)), "gamma": GAMMA,
           "metric": ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))), "seed": 7},
     True),
    (FanReport, {"violations": ("metric is not symmetric",), "non_regular": (0,)}, True),
]


@pytest.mark.parametrize("cls, kwargs, hashable", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_is_a_frozen_value(cls, kwargs, hashable):
    record = cls(**kwargs)
    twin = cls(*kwargs.values())
    assert twin == record and not twin != record
    assert type(twin) is cls
    for name, value in kwargs.items():
        assert getattr(record, name) == value
    if hashable:
        assert hash(twin) == hash(record)
    for other in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert other == record and type(other) is cls
    assert repr(record).startswith(f"{cls.__name__}(")
    name = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(record, name, kwargs[name])
    with pytest.raises(AttributeError):
        record.note = "x"
    assert getattr(record, name) == kwargs[name]


def test_records_convert_their_fields():
    """A record stores its fields in the converted form its checks read."""
    assert type(QuaternionAlgebra(2, 3).a) is Fraction
    assert type(Quaternion(3, 2, 0, 0).delta) is Fraction
    assert DegreeProfile([1, 1], [0, 0]) == DegreeProfile((1.0, 1.0), (0, 0))
    assert type(DegreeProfile([1, 1], [0, 0]).lambdas[0]) is float
    assert NumericLattice(1, [[1], [1j]]).basis == ((1 + 0j,), (1j,))
    assert (GAMMA.rows, GAMMA.det, GAMMA.adj) == (((2, 1), (1, 3)), 5, ((3, -1), (-1, 2)))
    assert Fan((), GAMMA, ()).seed is None


def test_verdict_needs_its_reasons():
    """Verdict has no default reasons=(), which its own check refused."""
    with pytest.raises(TypeError):
        Verdict(REGULARIZABLE)
    with pytest.raises(ContractError, match="at least one reason"):
        Verdict(REGULARIZABLE, ())
