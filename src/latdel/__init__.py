"""Exact lattice Delaunay decompositions of quaternary quadratic forms."""

from .exact import (
    QuadraticForm,
    Rational,
    basis_sum,
    congruence_act,
    definiteness,
    evaluate,
    format_rational,
    parse_rational,
)
from .delaunay import (
    DelaunayCell,
    DelaunayStar,
    canonical_orbit_rep,
    cell_center,
    certify_cell,
    delaunay_star,
    is_basic_simplex,
    make_cell,
    nearest_points,
)
from .catalog import catalog, catalog_names, chamber_side, contains, sample_interior

__all__ = [
    "QuadraticForm",
    "Rational",
    "basis_sum",
    "canonical_orbit_rep",
    "catalog",
    "catalog_names",
    "cell_center",
    "certify_cell",
    "chamber_side",
    "congruence_act",
    "contains",
    "definiteness",
    "delaunay_star",
    "evaluate",
    "format_rational",
    "is_basic_simplex",
    "make_cell",
    "nearest_points",
    "parse_rational",
    "sample_interior",
    "DelaunayCell",
    "DelaunayStar",
]

__version__ = "0.1.0"
