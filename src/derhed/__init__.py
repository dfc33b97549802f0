"""derhed: decide whether a finitely presented triangulated category is
hereditary, extract hereditary hearts, and generate instances from quiver
algebras.

The central data structure is the shift-graph: orbits of indecomposables
under the translation functor, with integer-weighted edges recording the
nonvanishing hom-spaces Hom(X, Y[n]).  A block is hereditary exactly when
no orbit lies on a closed walk of negative total weight, and in that case
shortest-walk weights from any source orbit assemble a heart.
"""

import importlib

# Every public name is resolved on first use by __getattr__ (PEP 562), so
# `import derhed` loads no submodule and each command loads only the
# modules it runs: path-only code never imports hereditary, nor the GF(p)
# modules (linalg, quiver, complexes, generators).
_LAZY = {name: module for module, names in {
    "shiftgraph": ["DEFAULT_PRIME", "AbelianData", "FormalObject", "HomEdge",
                   "ObjRef", "Orbit", "ShiftGraph", "ValidationReport",
                   "expand_hereditary", "validate"],
    "paths": ["NEG_INF", "POS_INF", "DegenerateAperiodic", "DegeneratePeriodic",
              "NonDegenerate", "PathEngine", "PathReport", "classify_degenerate",
              "directing_objects"],
    "hereditary": ["Heart", "HeartCheck", "HereditaryReport", "check_hereditary",
                   "cohomology", "extract_heart", "truncate", "verify_heart"],
    "linalg": ["PrimeField"],
    "quiver": ["Arrow", "MonomialAlgebra", "Quiver", "Representation",
               "algebra_from_dict", "algebra_to_dict", "build_algebra",
               "euler_ext1_dim", "rep_hom_dim"],
    "complexes": ["EndAlgebra", "ProjComplex", "are_isomorphic",
                  "build_shiftgraph_from_complexes", "check_complex",
                  "hom_k_dim", "is_indecomposable", "shift_complex"],
    "generators": ["gen_a2_from_complexes", "gen_dual_numbers",
                   "gen_dynkin_an", "gen_example_a2", "gen_semisimple_block"],
}.items() for name in names}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups are plain attribute reads
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = sorted(_LAZY)
