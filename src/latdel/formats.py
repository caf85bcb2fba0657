"""JSON encodings for forms, cells, stars, reports and the cone catalog.

All rationals travel as "p/q" strings ("p" when the denominator is 1),
all collections are canonically sorted, and emit-then-parse is the
identity, so identical inputs always produce identical bytes.
"""

from __future__ import annotations

import json

from .catalog import catalog, catalog_names
from .delaunay import DelaunayCell, DelaunayStar, make_cell
from .exact import QuadraticForm, format_rational, parse_rational
from .generation import GenerationReport


class FormatError(ValueError):
    """Malformed payload; the message carries a location diagnostic."""


def _expect(condition, where, what):
    if not condition:
        raise FormatError("%s: %s" % (where, what))


def encode_form(form: QuadraticForm) -> dict:
    return {
        "rank": form.rank,
        "entries": [[format_rational(v) for v in row] for row in form.entries],
    }


def decode_form(obj, where: str = "form") -> QuadraticForm:
    _expect(isinstance(obj, dict), where, "expected an object")
    _expect("entries" in obj, where, 'missing "entries"')
    rows = obj["entries"]
    _expect(
        isinstance(rows, list) and rows and all(isinstance(r, list) for r in rows),
        where + ".entries",
        "expected a non-empty list of rows",
    )
    g = len(rows)
    entries = []
    for i, row in enumerate(rows):
        _expect(len(row) == g, "%s.entries[%d]" % (where, i), "row length != %d" % g)
        parsed = []
        for j, v in enumerate(row):
            try:
                parsed.append(parse_rational(v))
            except (ValueError, TypeError) as exc:
                raise FormatError("%s.entries[%d][%d]: %s" % (where, i, j, exc))
        entries.append(tuple(parsed))
    if "rank" in obj:
        rank_ok = type(obj["rank"]) is int and obj["rank"] == g  # not True, not 1.0
        _expect(rank_ok, where + ".rank", "rank is not the integer %d, the matrix size" % g)
    try:
        return QuadraticForm(tuple(entries))
    except ValueError as exc:
        raise FormatError("%s: %s" % (where, exc))


def encode_cell(cell: DelaunayCell) -> dict:
    out = {"vertices": [list(v) for v in cell.vertices]}
    if cell.hole is not None:
        out["center"] = [format_rational(c) for c in cell.center]
        out["sq_radius"] = format_rational(cell.sq_radius)
    return out


def decode_cell(obj, where: str = "cell") -> DelaunayCell:
    _expect(isinstance(obj, dict), where, "expected an object")
    _expect("vertices" in obj, where, 'missing "vertices"')
    verts = obj["vertices"]
    _expect(isinstance(verts, list) and verts, where + ".vertices", "expected a non-empty list")
    parsed = []
    for i, v in enumerate(verts):
        _expect(
            isinstance(v, list)
            and len(v) == len(verts[0])
            and all(isinstance(c, int) and not isinstance(c, bool) for c in v),
            "%s.vertices[%d]" % (where, i),
            "expected a list of integers as long as vertices[0]",
        )
        parsed.append(tuple(v))
    center = None
    sq_radius = None
    if obj.get("center") is not None:
        shape_ok = isinstance(obj["center"], list) and len(obj["center"]) == len(verts[0])
        _expect(shape_ok, where + ".center", "expected one rational per coordinate")
        _expect("sq_radius" in obj, where, 'missing "sq_radius"')
        try:
            center = tuple(parse_rational(c) for c in obj["center"])
            sq_radius = parse_rational(obj["sq_radius"])
        except (TypeError, ValueError) as exc:
            raise FormatError("%s.center: %s" % (where, exc))
    try:
        return make_cell(parsed, center=center, sq_radius=sq_radius)
    except ValueError as exc:
        raise FormatError("%s: %s" % (where, exc))


def encode_star(star: DelaunayStar) -> dict:
    return {
        "form": encode_form(star.form),
        "cells": [encode_cell(c) for c in star.cells],
        "orbit_reps": [encode_cell(c) for c in star.orbit_reps],
    }


def encode_generation_report(report: GenerationReport) -> dict:
    return {
        "totally_generating": report.totally_generating,
        "witness": list(report.witness) if report.witness is not None else None,
        "pieces": [encode_cell(p) for p in report.pieces],
    }


def encode_catalog() -> list:
    out = []
    for name in catalog_names():
        cone = catalog(name)
        out.append(
            {
                "name": cone.name,
                "rank": cone.ambient_rank,
                "generator_names": list(cone.generator_names),
                "generators": [
                    [[format_rational(v) for v in row] for row in g.entries]
                    for g in cone.generators
                ],
            }
        )
    return out


def dumps(obj) -> str:
    """Canonical serialization: 2-space indent, sorted keys, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def read_json(path: str):
    """The JSON value of a file; FormatError naming the path unless it can be
    read, decoded as UTF-8 and parsed within the interpreter's limits."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError("%s: line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8, too many digits
        raise FormatError("%s: %s" % (path, getattr(exc, "strerror", None) or exc))


def load_form(path: str) -> QuadraticForm:
    return decode_form(read_json(path), path)


def load_cell(path: str) -> DelaunayCell:
    return decode_cell(read_json(path), path)


def load_cells(path: str):
    obj = read_json(path)
    if isinstance(obj, dict):
        return [decode_cell(obj, path)]
    _expect(isinstance(obj, list), path, "expected a cell or a list of cells")
    return [decode_cell(c, "%s[%d]" % (path, i)) for i, c in enumerate(obj)]
