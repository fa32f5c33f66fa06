"""The package namespace and the records its modules define."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from kstab import cli, criteria, families, verify
from kstab.cli import parse_spec
from kstab.families import FamilyTag
from kstab.suites import SUITE_CRITERIA


def test_package_import_loads_no_module():
    # a fresh interpreter: the package binds no name, so it imports nothing of its own
    code = "import sys, kstab; print(sorted(m for m in sys.modules if m.startswith('kstab.')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=Path(cli.__file__).resolve().parents[1])
    assert out.stdout.strip() == "[]"


def test_every_suite_choice_runs_in_verify(monkeypatch):
    # each check records its criterion instead of checking
    ran = []
    checks = ("check_closed_forms", "check_blpp_classification", "check_quadric_blowups",
              "check_quadpt_mabuchi", "check_coupled", "check_multiplier_certificates",
              "check_quadrature_properties")
    for criterion, check in enumerate(checks, 1):
        monkeypatch.setattr(verify, check, lambda max_n, c=criterion: ran.append(c) or [])
    names = tuple(SUITE_CRITERIA)
    assert names[0] == "all"
    for name in names:
        assert parse_spec(["verify", "--suite", name]).suite == name
        assert verify.verify_theorems(max_n=7, suite=name) == []
    assert sorted(set(ran)) == [1, 2, 3, 4, 5, 6, 7]


@pytest.fixture(scope="module")
def records():
    """One record of each kind, each from a real resolution, verdict or parse;
    the pool-bound ones (sent to or from a worker) are flagged."""
    blpp = families.resolve_anticanonical(FamilyTag.BLPP, 6, 3)
    blqq = families.resolve_anticanonical(FamilyTag.BLQQ, 8, 4)
    spec = parse_spec(["ke", "--family", "blpp", "--n", "6", "--p", "3", "--jobs", "1"])
    start, end = criteria.coupled_default_endpoints(4)
    form, _ = blpp.weight.factors[0]
    return [
        (criteria.ke_classify(blpp), True),
        (criteria.mabuchi(families.resolve_anticanonical(FamilyTag.QUAD_PT, 7)), True),
        (criteria.mh_certificate(6, 3), True),
        (criteria.coupled_search(4, start, end, 8), True),
        (spec.tasks[0], True),
        (spec, False),
        (verify.check_closed_forms(6)[0], False),
        (blpp.domain, False),
        (blqq.domain, False),
        (blqq.domain.halfplanes[0], False),
        (form, False),
        (blpp.weight, False),
        (blqq, False),
    ]


def test_every_exported_record_kind_is_covered(records):
    kinds = {type(record).__name__ for record, _ in records}
    assert kinds == {"KEVerdict", "MabuchiVerdict", "MHCertificate", "CoupledCertificate", "Task",
                     "RunSpec", "CheckResult", "Segment", "Polygon", "HalfPlane", "AffineForm",
                     "FactoredWeight", "FamilyInstance"}


def test_records_refuse_assignment(records):
    for record, _ in records:
        field = getattr(record, "_fields", ("tag",))[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.not_a_field = None


def test_instances_refuse_deletion_of_their_moments():
    inst = families.resolve_anticanonical(FamilyTag.BLQQ, 8, 4)
    assert inst.moments
    with pytest.raises(AttributeError):
        del inst.moments
    with pytest.raises(AttributeError):
        del inst.tag


def test_equal_copies_hash_equal(records):
    for record, _ in records:
        twin = copy.deepcopy(record)
        assert twin is not record
        assert twin == record and hash(twin) == hash(record)


def test_pool_bound_records_survive_pickling(records):
    for record, pool_bound in records:
        if pool_bound:
            back = pickle.loads(pickle.dumps(record))
            assert type(back) is type(record) and back == record
