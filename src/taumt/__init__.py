"""Exact arithmetic around the Ramanujan tau function: Eisenstein
congruences, boundary modular symbols, and the Iwasawa invariants of
Mazur-Tate elements at p = 3, 5, 7.

No floating point anywhere; coefficients are Python ints, Fractions, or
residues in Z/p^m.
"""

from .arith import (
    INFINITY,
    DirichletCharacter,
    ResidueRing,
    bernoulli,
    discrete_log,
    ord_p,
    ord_p_truncated,
    primitive_root,
    teichmuller,
)
from .boundary import BoundarySymbol, eisenstein_boundary_symbol, phi9, phi9_symbol
from .cusps import (
    INFINITY_CUSP,
    ZERO_CUSP,
    Cusp,
    Divisor,
    classify_cusp,
    cusp_count,
    cusp_equivalent,
    cusp_key,
    cusp_representatives,
)
from .iwasawa import (
    GroupRingElt,
    IwasawaInvariants,
    TPoly,
    fit_global_unit,
    from_T_basis,
    invariants,
    mazur_tate,
    to_T_basis,
)
from .mansym import (
    ManinSymbol,
    WeightZeroSymbol,
    alpha_N,
    delta_symbol,
    eval_symbol,
    evaluation_content,
    hecke_T,
    manin_space,
    merel_matrices,
    plus_subspace,
    unimodular_path,
)
from .qseries import (
    admissible_sweep,
    coeffs_from_prime_data,
    eisenstein_coeffs,
    tau_expansion,
    verify_serre_congruences,
    verify_tau_congruence,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
