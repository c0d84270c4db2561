"""origami-forge: exact arithmetic for square-tiled surfaces.

An origami is a pair of permutations (p1, p2) gluing unit squares by
translations.  The package computes cylinder decompositions, singularity
data and genus; a horizontal Schottky cut system of g closed horizontal
curves; Veech-group membership of parabolic twists through free-group
automorphisms; the induced action on first homology with block-form and
characteristic-polynomial certificates; and Moebius-map fixed-point
coordinates for the loxodromic normal form.

Importing the package loads none of its submodules.  An attribute access
``origami_forge.<module>`` imports that module on first use (PEP 562), and
``from origami_forge.hss import find_hss`` works as for any package.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset({"cli", "freegroup", "homology", "hss", "linalg",
                         "moebius", "origami", "subgroup"})


def __getattr__(name: str):
    """The submodule name, imported on first access."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
