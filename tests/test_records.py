"""Every ekdom record behaves as a ``collections.namedtuple`` does.

The twelve record classes subclass ``ekdom.Record``; each is checked
against a namedtuple twin with the same fields and defaults.
"""
import copy
import pickle
from collections import namedtuple

import pytest

import ekdom.bounds  # noqa: F401  (imports every module that defines a record)
import ekdom.mary  # noqa: F401
from ekdom import Record

RECORDS = sorted(Record.__subclasses__(), key=lambda cls: cls.__name__)


def _values(cls) -> tuple:
    # Hashable and picklable, and a valid shape for MaryTreeSpec (m >= 2).
    return tuple(range(2, 2 + len(cls._fields)))


def _twin(cls):
    return namedtuple(cls.__name__, cls._fields, defaults=cls._field_defaults.values())


def test_every_record_class_is_covered():
    assert [cls.__name__ for cls in RECORDS] == [
        "CertificateViolation", "DominationResult", "EternalCertificate", "Graph",
        "K2Sets", "KernelWork", "MaryTreeSpec", "PowerEquivalenceReport", "QStats",
        "ReductionStep", "ReductionTrace", "SolveReport"]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_builds_and_reads_like_a_namedtuple(cls):
    values = _values(cls)
    twin = _twin(cls)
    record = cls(*values)
    assert type(record) is cls and isinstance(record, tuple)
    assert record == values == twin(*values) and hash(record) == hash(values)
    assert cls(**dict(zip(cls._fields, values))) == record
    assert [getattr(record, f) for f in cls._fields] == list(values)
    assert record._asdict() == twin(*values)._asdict()
    assert repr(record) == repr(twin(*values))
    assert cls._make(iter(values)) == record and type(cls._make(values)) is cls

    # Defaults fill the trailing fields, positionally or by keyword.
    required = len(cls._fields) - len(cls._field_defaults)
    assert cls._field_defaults == twin._field_defaults
    assert cls(*values[:required]) == twin(*values[:required])
    assert cls(**dict(zip(cls._fields[:required], values))) == twin(*values[:required])

    last = cls._fields[-1]
    changed = record._replace(**{last: 99})
    assert type(changed) is cls and changed == values[:-1] + (99,) and record == values
    with pytest.raises(ValueError):
        record._replace(unknown=1)
    with pytest.raises(TypeError):
        cls._make(values + (0,))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_copies_and_pickles(cls):
    record = cls(*_values(cls))
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is cls and twin == record


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_has_no_instance_dict(cls):
    record = cls(*_values(cls))
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], 1)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_refuses_missing_and_unknown_fields(cls):
    values = _values(cls)
    required = len(cls._fields) - len(cls._field_defaults)
    if required:  # KernelWork's fields all have defaults
        with pytest.raises(TypeError, match=repr(cls._fields[required - 1])):
            cls(*values[:required - 1])
        with pytest.raises(TypeError):
            _twin(cls)(*values[:required - 1])
    with pytest.raises(TypeError, match="'unknown'"):
        cls(*values, unknown=1)
    with pytest.raises(TypeError, match=repr(cls._fields[0])):
        cls(*values[:1], **{cls._fields[0]: values[0]})
    with pytest.raises(TypeError, match="positional"):
        cls(*values, *values)


def test_field_without_default_may_not_follow_one_with_default():
    # As in a typing.NamedTuple body.
    with pytest.raises(TypeError, match="field b cannot follow default field"):
        class Bad(Record):
            a: int = 0
            b: int


def test_a_record_body_may_check_its_fields():
    from ekdom.mary import MaryTreeSpec

    spec = MaryTreeSpec(2, 3)
    for build in (lambda: MaryTreeSpec(1, 3), lambda: MaryTreeSpec(m=2, d=-1),
                  lambda: MaryTreeSpec._make([1, 0]), lambda: spec._replace(m=1)):
        with pytest.raises(ValueError):
            build()
