"""The package's record classes and what importing the CLI loads.

The records are plain classes and NamedTuples, so importing ``gradedmat.cli``
loads neither ``dataclasses`` nor ``inspect``; no json command loads
``hashlib`` or ``csv``.  These tests pin what callers
rely on: immutability, which fields equality reads, a derivation's lowest
terms, and hashing where every field is hashable.
"""
import subprocess
import sys

import pytest

from gradedmat.basis import build_sl_basis
from gradedmat.cohomology import differential_matrix
from gradedmat.constants import constants_for
from gradedmat.forms import DerivationVector
from gradedmat.formspace import FormBasis, LinearMapMatrix, d_matrix
from tests.helpers import constants_with, tracer_targets


@pytest.mark.parametrize("record, field", [
    (lambda sc: sc, "den"),
    (lambda sc: sc, "cache"),
    (lambda sc: sc.basis, "elements"),
    (lambda sc: DerivationVector.basis(sc, 0), "ints"),
    (lambda sc: differential_matrix(sc, 1), "matrix"),
])
def test_frozen_records_refuse_assignment(sc21, record, field):
    obj = record(sc21)
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    assert getattr(obj, field) is before


def test_constants_equality_ignores_the_cache():
    first, second = constants_for(2, 1), constants_for(2, 1)
    differential_matrix(first, 1)
    assert first.cache and not second.cache
    assert first == second and second == first
    assert first != constants_with(second, den=2 * second.den)
    assert first != constants_for(1, 2)


def test_a_map_equals_its_copy_once_ranked(sc21):
    mat = d_matrix(FormBasis(sc21, 1))
    rank = mat.rank()
    copy = LinearMapMatrix(mat.basis, mat.nrows, [dict(col) for col in mat.columns], mat.den)
    assert mat == copy and copy == mat
    assert copy.rank() == rank
    assert mat != LinearMapMatrix(mat.basis, mat.nrows, mat.columns, 2 * mat.den)


def test_derivations_are_kept_in_lowest_terms(sc21):
    basis = sc21.basis
    half = DerivationVector(basis, ((0, 0, 2),), 4)
    assert half == DerivationVector(basis, ((0, 0, 1),), 2)
    assert (half.ints, half.den) == (((0, 0, 1),), 2)
    assert hash(half) == hash(DerivationVector(basis, ((0, 0, 3),), 6))
    assert DerivationVector(basis, ((0, 0, 4),), 2) == DerivationVector(basis, ((0, 0, 2),))


def test_bases_hash_by_value():
    first, second = build_sl_basis(2, 1), build_sl_basis(2, 1)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != build_sl_basis(1, 2)


def test_cli_import_loads_the_traced_modules_and_no_dataclasses():
    code = ("import sys; before = set(sys.modules); import gradedmat.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    new = set(proc.stdout.split())
    assert not {"dataclasses", "inspect"} & new, sorted(new)
    traced = {"gradedmat." + module for module, _ in tracer_targets()}
    assert len(traced) > 5
    assert traced <= new, sorted(traced - new)


def test_json_commands_load_neither_openssl_nor_csv(tmp_path):
    """The build identifier needs no ``hashlib`` (so no OpenSSL), and only
    ``--format csv`` loads ``csv``."""
    report = tmp_path / "report"
    code = (
        "import sys; import gradedmat.cli as cli; "
        "argv = ['cohomology', '--n', '2', '--m', '1', '--max-degree', '1', "
        "'--out', sys.argv[1]]; "
        "loaded = lambda: print(' '.join(sorted(sys.modules))); "
        "loaded(); assert cli.main(argv) == 0; loaded(); "
        "assert cli.main(argv + ['--format', 'csv']) == 0; loaded()"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(report)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    after_import, after_json, after_csv = (set(line.split())
                                           for line in proc.stdout.splitlines())
    unwanted = {"hashlib", "_hashlib", "csv", "_csv"}
    assert not unwanted & after_import, sorted(unwanted & after_import)
    assert not unwanted & after_json, sorted(unwanted & after_json)
    assert {"csv", "_csv"} <= after_csv
    assert report.read_text().startswith("p,dim,rank,kernel_dim,betti\n")
