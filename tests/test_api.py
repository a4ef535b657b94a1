import importlib

import zetalattice

# Exported once, removed since: nothing outside their own tests called them.
REMOVED = {
    "engine": (
        "triangularize", "staircase_step", "duplicate_start_pair", "merge_step"
    ),
    "moves": ("square_reduce", "insert_aux_column", "aux_circuit"),
    "linalg": ("kernel_basis",),
    "numeric": ("verify_trace",),
    "terms": (
        "apply_derivative", "comb_scale", "word_weight", "is_staircase",
        "Expression",
    ),
    "periods": (
        "arnold_defect", "wedge_matrix", "CubicalIntegrand", "cubical_integrand"
    ),
    "errors": ("NonTermination",),
}


def test_public_names_resolve_once_and_removed_names_are_gone():
    names = zetalattice.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(zetalattice, name), name
    for module, gone in REMOVED.items():
        mod = importlib.import_module(f"zetalattice.{module}")
        for name in gone:
            assert name not in names
            assert not hasattr(zetalattice, name), name
            assert not hasattr(mod, name), (module, name)
