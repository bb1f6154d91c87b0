"""Exact mixture-representation certificates for exchangeable laws on finite alphabets.

The engine is exact and finite: laws live on A^n for a finite alphabet A and
n <= 30, stored per type class.  Continuous or countably infinite alphabets
are out of scope by design.
"""

from .core import (
    BlockJoint,
    ExchangeableLaw,
    GenericJoint,
    LawFormatError,
    UndefinedConditionalError,
    block_entropies,
    block_joint,
    conditional_block,
    conditional_component,
    densify,
    enumerate_types,
    is_exchangeable,
    law_from_dict,
    law_from_json_text,
    law_to_dict,
    law_to_json_text,
    load_law,
    marginal,
    multiplicity,
    save_law,
    sequence_type,
    single_letter_marginal,
    symmetrize,
)
from .info import (
    conditional_mutual_information,
    entropy,
    lemma1_decomposition,
    lemma2_check,
    mutual_information,
    relative_entropy,
    total_variation,
)
from .bounds import (
    Certificate,
    CertificationError,
    MixingMeasure,
    build_mixing_measure,
    certify,
    cond_mi_sum,
    select_mstar,
    tail_mi,
)
from .generators import (
    GeneratorSpec,
    diaconis_pair,
    iid,
    iid_mixture,
    polya,
    random_dirichlet,
    urn_without_replacement,
)
from .optimizer import (
    FitResult,
    adversarial_search,
    component_grid,
    fit_mixture_weights,
    improve_certificate,
)

__version__ = "0.1.0"
