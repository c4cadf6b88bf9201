"""Local power-map prime detection and its supporting number theory.

Decide (exactly or empirically) at which primes a completely multiplicative
function acts as x -> x^k on the residues, scan Frobenius statistics over
Kummer extensions, compute multiplicative-relation lattices and degrees, and
evaluate the explicit bounds that control the density of such primes.

The public names load on first use: `import localpow` imports no
submodule, and the first access to a name imports the submodule that
defines it (a PEP 562 module `__getattr__` over `_SOURCE`).  Attribute
access, `from localpow import name` and `from localpow import *` behave as
if every submodule had been imported eagerly.
"""

import importlib

__version__ = "0.1.0"

_NAMES = {
    "bounds": (
        "BoundConfig",
        "MainBound",
        "YZSchedule",
        "chebotarev_condition",
        "chebyshev_check",
        "chebyshev_sweep",
        "cyclotomic_discriminant",
        "cyclotomic_max_term",
        "euler_phi",
        "iterated_log_ratio",
        "kummer_disc_log_bound",
        "main_bound",
        "mertens_product",
        "squarefree_cyclotomic_log",
        "yz_schedule",
    ),
    "chebotarev": (
        "ClassSpec",
        "DensityScan",
        "FrobeniusSample",
        "HeuristicScan",
        "class_ratio",
        "cyclotomic_frobenius",
        "density_counts",
        "frobenius_vector",
        "heuristic_scan",
        "heuristic_sum",
        "in_C4",
        "scan_density",
    ),
    "kernels": ("kernels",),
    "lattice": (
        "ExponentLattice",
        "RelationReport",
        "a_f_log_estimate",
        "build_lattice",
        "f_invariants",
        "integer_kernel",
        "kernel_mod_ell",
        "kummer_degree",
        "relations",
        "row_space_mod_ell",
    ),
    "modular": (
        "PrimeCache",
        "discrete_log",
        "ell_power_class",
        "primitive_root",
        "solve_power_congruences",
    ),
    "powermap": (
        "LocalVerdict",
        "MultiplicativeMap",
        "PrescribedFunction",
        "construct_prescribed",
        "evaluate",
        "extend_to_Q",
        "find_witness",
        "local_exponent",
        "nu_vote",
        "scan_Sf",
        "scan_Tf",
        "shift_and_quasi_check",
    ),
    "ratfact": ("ONE", "FactoredRational", "as_factored", "is_prime"),
}

# each public name -> the submodule that defines it (`kernels` is one itself)
_SOURCE = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    try:
        source = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f"{__name__}.{source}")
    value = module if name == source else getattr(module, name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
