"""Exact symbolic computation with quantum quasi-shuffle algebras,
cotensor coalgebras over abelian group algebras, their smash-product
realizations, and weight-1 Rota-Baxter operators.

``import cofreehopf`` imports none of its modules: each name of
``__all__`` is imported from its module on first use (PEP 562), so a
process pays only for the modules it runs."""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "scalars": ("Scalar",),
    "elements": ("Element", "apply_local"),
    "errors": ("ConfigError", "StructuralError"),
    "checks": ("CheckResult",),
    "braid": ("BraidingTable", "block_braiding", "check_yang_baxter", "flip_braiding"),
    "qalg": ("BraidedAlgebraSpec", "adjoin_unit", "check_braided_algebra",
             "check_quasi_shuffle_bialgebra", "deconcat", "quasi_shuffle"),
    "grouphopf": ("AbelianGroup", "GroupElement", "YDSpec", "braided_spec",
                  "check_yd_module_algebra", "check_yetter_drinfeld"),
    "cotensor": ("CotensorElement", "SmashElement", "chain_lift", "check_chain_condition",
                 "coinvariant_projection", "flatten_coinvariant", "from_smash",
                 "smash_product", "star", "to_smash"),
    "rotabaxter": ("RBInstance", "check_double_product_isomorphism", "check_rota_baxter",
                   "cotensor_rb_operator", "diamond_product", "head_shift", "rb_double_product",
                   "smash_rb_operator", "unit_prepend"),
    "presets": ("build_clifford", "build_uqg"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
