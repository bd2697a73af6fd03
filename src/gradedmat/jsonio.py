"""Deterministic serialization of the package's objects.

Scalars and structure constants render as exact fraction strings,
tensors as sorted coordinate lists, forms as sorted (index tuple, matrix)
pairs.  Output bytes depend only on the data: no clocks, no environment,
no reliance on dict iteration order.
"""
from __future__ import annotations

import io
import json
from fractions import Fraction
from itertools import islice
from typing import List, Sequence, TextIO

from .constants import StructureConstants
from .matrices import GradedMatrix


def matrix_rows(mat: GradedMatrix) -> List[List[str]]:
    return [[str(v) for v in row] for row in mat.entries]


def _tensor_triples(tensor, den: int) -> List[list]:
    out = []
    for (a, b), row in tensor.items():
        for c, v in row.items():
            if v:
                out.append([a, b, c, str(Fraction(v, den))])
    out.sort(key=lambda e: e[:3])
    return out


def _pair_entries(table, den: int, scale: int = 1) -> List[list]:
    """The nonzero entries of ``scale`` times ``table`` over ``den``; the
    Killing form is (n-m)^2 times the quadratic form."""
    out = []
    for a, row in enumerate(table):
        for b, v in enumerate(row):
            if v:
                out.append([a, b, str(Fraction(scale * v, den))])
    return out


def constants_obj(sc: StructureConstants) -> dict:
    basis = [
        {"index": a, "parity": sc.parity(a), "matrix": matrix_rows(e)}
        for a, e in enumerate(sc.basis.elements)
    ]
    return {
        "n": sc.n,
        "m": sc.m,
        "dim": sc.dim,
        "even_dim": sc.even_dim,
        "odd_dim": sc.odd_dim,
        "basis": basis,
        "bracket": _tensor_triples(sc.c, sc.den),
        "anticommutator": _tensor_triples(sc.d, sc.den),
        "quadratic_form": _pair_entries(sc.g, sc.g_den),
        "killing_form": _pair_entries(sc.g, sc.g_den, (sc.n - sc.m) ** 2),
    }


def constants_csv_rows(tables: dict) -> List[list]:
    """The CSV rows of the tensors and forms in ``tables``, what
    ``constants_obj`` returned."""
    rows = [[name, *e] for name in ("bracket", "anticommutator") for e in tables[name]]
    rows += [[name, a, b, "", v] for name in ("quadratic_form", "killing_form")
             for a, b, v in tables[name]]
    return rows


def dump(obj, fh: TextIO) -> None:
    """Write ``obj`` to ``fh`` as indented JSON and a newline.

    The encoder's chunks are written a few thousand at a time, so the whole
    text is never held, and a stream that writes through (stdout) is not
    called once per chunk, which takes three times as long.
    """
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    while batch := "".join(islice(chunks, 8192)):
        fh.write(batch)
    fh.write("\n")


def csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    import csv  # only --format csv pays for loading it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
