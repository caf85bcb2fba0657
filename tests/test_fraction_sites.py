"""Where `Fraction`s are built: every `Fraction.__new__` that cProfile sees in
`run_suites(["all"])` and in the rank-4 catalog stars comes from one of two sites,
the squared radii of the star walk and the half-integral involution sigma of G.
Below them the package works in integers."""

import cProfile
import inspect
import json
import pstats
import subprocess
import sys
from collections import Counter
from pathlib import Path

from latdel import delaunay, faces
from latdel.catalog import catalog, catalog_names, sample_interior


def _site(function):
    """(file, lines) of a function's source, which holds its nested code too."""
    lines, first = inspect.getsourcelines(function)
    return Path(inspect.getsourcefile(function)).resolve(), range(first, first + len(lines))


# the squared radius of each +- class of reps, made by `_walk_reps`' nested `found`;
# sigma's 16 entries, made by `group_generators` or its list comprehension (PEP 709)
SITES = {"radii": _site(delaunay._walk_reps), "sigma": _site(faces.group_generators)}


def fraction_callers(stats):
    """[(file, first line, calls)] of the callers of `Fraction.__new__` in pstats stats."""
    return [(path, line, calls)
            for (file, _, name), value in stats.items()
            if name == "__new__" and file.endswith("fractions.py")
            for (path, line, _), (_, calls, _, _) in value[4].items()]


def calls_per_site(callers):
    """{site: calls}; a caller outside both sites is counted under its (file, line)."""
    counts = Counter()
    for path, line, calls in callers:
        at = [name for name, (file, lines) in SITES.items()
              if Path(path).resolve() == file and line in lines]
        counts[at[0] if at else (path, line)] += calls
    return dict(counts)


# one run_suites(["all"]) in a fresh process, whose caches are all cold
_CHILD = """
import cProfile, json, pstats, sys
sys.path.insert(0, sys.argv[1])
from latdel.verify import run_suites
from test_fraction_sites import fraction_callers
profile = cProfile.Profile()
profile.runcall(run_suites, ["all"])
print(json.dumps(fraction_callers(pstats.Stats(profile).stats)))
"""


def test_run_suites_all_builds_fractions_at_two_sites_only():
    src = str(Path(delaunay.__file__).parents[1])
    tests = str(Path(__file__).parent)
    proc = subprocess.run([sys.executable, "-c", _CHILD, src], capture_output=True, text=True,
                          check=True, cwd=tests)
    assert calls_per_site(json.loads(proc.stdout)) == {"radii": 84, "sigma": 32}


def test_rank_4_catalog_stars_build_fractions_for_their_radii_only():
    forms = [sample_interior(catalog(n)) for n in catalog_names() if n.startswith("dim4.")]
    assert len(forms) == 17
    profile = cProfile.Profile()
    for form in forms:
        profile.runcall(delaunay.delaunay_star, form)
    assert calls_per_site(fraction_callers(pstats.Stats(profile).stats)) == {"radii": 182}
