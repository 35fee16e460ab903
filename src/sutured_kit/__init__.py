"""sutured-kit: combinatorial and algebraic invariants of balanced sutured
3-manifolds.

Modules:

- ``abelian``: Smith normal form, abelian groups, group-ring determinants up to units
- ``fox``: free words, torsion of balanced presentations via Fox derivatives in Z[H_1]
- ``diagram``: sutured Heegaard diagrams, generators, Spin^c partition, domains
- ``polytope``: exact support polytopes, central symmetry, rank bounds
- ``maslov``: Maslov loop indices and spectral flow of symmetric paths
- ``oracle``: closed-form rank tables used as ground truth
- ``fixtures``: the table of bundled example data and its directory
- ``cli``: the ``sutured-kit`` command
"""

__version__ = "0.1.0"

import importlib

from . import abelian, diagram, errors, fixtures, fox, oracle, polytope  # noqa: F401


def __getattr__(name):
    # ``maslov`` loads numpy, so it is imported on first use (PEP 562)
    if name == "maslov":
        return importlib.import_module(".maslov", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
