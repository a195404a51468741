"""squanta: desk-scale models of substructural consequence relations.

Finite posets and pomonoids, finitely generated multiupsets and downsets,
additive quantales with multiplication and their modules, the nucleus /
consequence / congruence triangle, residuals and cyclic projective modules,
and the translation-pair form of algebraizability - all checked exhaustively
on small carriers or bounded fragments.
"""

from .order import (
    FinPoset,
    MonotoneMap,
    Pomonoid,
    validate_structure,
)
from .multiupset import (
    Multiupset,
    decompose,
    enumerate_fragment,
    free_extend_pomonoid,
    generator_embed,
    mleq,
    msum,
    parse_multiupset,
)
from .downset import (
    FGDownset,
    djoin,
    dleq,
    dsum,
    dzero,
    free_extend_quantale,
    normalize,
    parse_downset,
    unit_embed,
)
from .aqm import (
    AQM,
    DmFragment,
    FinGenQuantale,
    check_aqm,
    exp_end,
    free_aqm,
    make_quantale,
    table_aqm,
)
from .modact import (
    ActionMap,
    check_action,
    extend_act_to_module,
    extend_poset_action_to_dm,
    restrict_module_to_act,
)
from .nucleus import (
    AddConsequence,
    Nucleus,
    QuantCongruence,
    QuotientModule,
    congruence,
    consequence,
    convert,
    enumerate_congruences,
    enumerate_consequences,
    enumerate_nuclei,
    nucleus,
    quotient,
    structural_check,
    validate_presentation,
)
from .projective import (
    ResidualResult,
    cyclic_check,
    cyclic_projective_check,
    gamma_u,
    lifting_check,
    residual,
    self_module,
    submodule_on_orbit,
)
from .equivlogic import (
    TranslationPair,
    equivalence_check,
    hom_from_generator_image,
    recover_translations,
)

__version__ = "0.1.0"
