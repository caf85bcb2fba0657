"""Acceptance gate: the ten headline checks, one pass/fail line each.

Every comparison is exact (rational arithmetic throughout); a criterion
either reproduces its frozen expectation bit-for-bit or fails.
"""

from itertools import permutations

from latdel.catalog import catalog, catalog_names, sample_interior, verify_matrix_identities
from latdel.delaunay import canonical_orbit_rep, certify_cell, delaunay_star, is_basic_simplex
from latdel.exact import evaluate
from latdel.verify import (
    fusion_check,
    reproduce_table,
    sigma_cell,
    star_for,
    verify_faces,
    verify_lowdim,
    verify_main_theorem,
)

from test_oracle import generation_oracle_agrees, star_oracle_agrees
from test_verify import volume_conserved


def ramp_weights(cone_name: str):
    """The cross-check weight vector (1, 2, 3, ...) for a catalog cone."""
    return tuple(range(1, len(catalog(cone_name).generators) + 1))


def report(number, label, ok):
    print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", number, label))
    assert ok, "criterion %d: %s" % (number, label)


def test_criterion_01_table_1():
    diff = reproduce_table(1)
    report(1, "Table 1 reproduced exactly (24 rows)", diff.ok and len(diff.expected) == 24)


def test_criterion_02_table_2():
    diff = reproduce_table(2)
    fused_rows = {2, 4, 9, 11, 17, 18, 19, 20}
    computed_nos = {int(line.split()[0]) for line in diff.computed}
    report(
        2,
        "Table 2 reproduced exactly, fusions at rows {2,4},{9,11},{17,18},{19,20}",
        diff.ok and fused_rows <= computed_nos and len(diff.expected) == 24,
    )


def test_criterion_03_dim2():
    result = verify_lowdim()
    dim2 = [line for line in result["details"] if "dim2" in line]
    report(
        3,
        "dim-2 reps, fusions, and the C(0,σ5)=C(0,σ3) remark",
        len(dim2) == 6 and all(line.startswith("PASS") for line in dim2),
    )


def test_criterion_04_dim3():
    star = star_for("dim3.V")
    expected = {
        canonical_orbit_rep(sigma_cell(order)).vertices
        for order in permutations((1, 2, 3))
    }
    got = {canonical_orbit_rep(c).vertices for c in star.orbit_reps}
    report(4, "dim-3 orbit reps are exactly the 6 staircase simplices", got == expected)


def test_criterion_05_top_cones():
    ok = True
    for name in ("dim4.V1", "dim4.V2", "dim4.V3", "dim4.V4"):
        star = star_for(name)
        ok = ok and len(star.orbit_reps) == 24 and len(star.cells) == 120
        ok = ok and all(is_basic_simplex(r) for r in star.orbit_reps)
    report(5, "V1-V4 stars: 120 cells, 24 basic-simplex reps each", ok)


def test_criterion_06_simplicial_generation():
    result = verify_main_theorem()
    report(
        6,
        "V1capV2, V2capV3, W0 star cells simplicially generating; nilpotency 1",
        result["pass"] and result["nilpotency"] == 1,
    )


def test_criterion_07_faces():
    result = verify_faces()
    report(
        7,
        "64 faces, orbits 48+16, W0 is RT, V1capV2 is BF, types II/III",
        result["pass"],
    )


def test_criterion_08_matrix_identities():
    ids = verify_matrix_identities()
    report(8, "printed matrix identities hold exactly", all(ids.values()))


def test_criterion_09_property_suites():
    # (a) every emitted cell certified, equality exactly at vertices
    certified = True
    for name in ("dim2.V1", "dim4.V1", "dim4.W0"):
        star = star_for(name)
        for cell in star.cells:
            cert = certify_cell(star.form, cell)
            certified = certified and cert.ok
            certified = certified and all(
                evaluate(
                    star.form,
                    tuple(a - c for a, c in zip(v, cell.center)),
                    tuple(a - c for a, c in zip(v, cell.center)),
                )
                == cell.sq_radius
                for v in cell.vertices
            )
    # (b) fusion volume conservation in every report
    volumes = all(
        volume_conserved(fusion_check(coarse, fine))
        for coarse, fine in (
            ("dim2.V1capV2", "dim2.V1"),
            ("dim4.V1capV2", "dim4.V1"),
            ("dim4.V2capV3", "dim4.V2"),
            ("dim4.W0", "dim4.V3"),
        )
    )
    # (c) identical star reps under two independent interior samples
    stable = True
    for name in catalog_names():
        # chamber unions (F, G, K) may straddle several decompositions;
        # single-decomposition cones must be sampling-independent
        if name.startswith(("dim4.F", "dim4.G", "dim4.K")):
            continue
        a = star_for(name)
        b = delaunay_star(sample_interior(catalog(name), ramp_weights(name)))
        stable = stable and {
            canonical_orbit_rep(c).vertices for c in a.orbit_reps
        } == {canonical_orbit_rep(c).vertices for c in b.orbit_reps}
    report(
        9,
        "certificates, fusion volume conservation, weight-sampling stability",
        certified and volumes and stable,
    )


def test_criterion_10_oracles():
    report(
        10,
        "rank<=2 star and generation decisions match brute-force oracles",
        star_oracle_agrees() and generation_oracle_agrees(),
    )
