"""Word algebra of multiple zeta values.

Exact words and polynomials over {x, y}, the shuffle and harmonic products,
ordinary and cyclic derivations, the quasi-symmetric action, generation of
kernel-relation families with exact ranks, and high-precision numerical
verification.
"""

from .words import (
    Composition,
    DomainError,
    Poly,
    Word,
    admissible_words,
    all_words,
    composition_of,
    compositions,
    dual_composition,
    format_composition,
    format_poly,
    is_admissible_composition,
    is_admissible_word,
    is_h0_word,
    is_h1_word,
    parse_composition,
    parse_poly,
    parse_word,
    poly_from_obj,
    poly_to_obj,
    tau_word,
    word_of,
)
from .products import double_shuffle, harmonic, shuffle
from .derivations import (
    Derivation,
    conjugate,
    cyclic_C,
    cyclic_C_bar,
    cyclic_C_pair,
    derivation_D,
    derivation_Dn,
    ihara_kaneko,
)
from .qsym import (
    TruncatedSeries,
    act,
    complete_h,
    coproduct,
    elementary_e,
    exp_partial_t,
    phi_bar_sigma,
    power_p,
    sigma_t,
    sigma_t_exp,
    sigma_t_inverse,
)
from .relations import (
    FAMILIES,
    RankReport,
    Relation,
    RowSpace,
    gen_cyclic_sum,
    gen_derivation,
    gen_double_shuffle,
    gen_duality,
    gen_hoffman43,
    gen_ihara_kaneko,
    gen_ohno,
    gen_sum_theorem,
    generate,
    normalize,
    rank_report,
)
from .numerics import (
    EvalResult,
    VerifyReport,
    mzv_eval,
    mzv_eval_many,
    mzv_tail_bound,
    s_series_eval,
    t_series_eval,
    verify,
    zeta_of_poly,
)

__version__ = "0.1.0"
