"""Matrix-level geometry of the real Jacobi group.

Structured linear algebra, the symplectic and Heisenberg groups, the
Jacobi group with its Siegel-type homogeneous spaces, invariant one-forms
and vector fields, and the family of invariant metrics - all at explicit
matrix level, with seeded numerical invariance verification as the core
test surface.
"""

from .exceptions import (
    BadShape,
    BasisClosureFailure,
    ContractionViolation,
    GeometryError,
    NotSpd,
    NotSymmetric,
    NotSymplectic,
    NotUnitaryPair,
    ProjectionResidual,
    SingularDenominator,
    SingularSylvester,
)
from .linalg import (
    dsqrtm,
    duplication_matrix,
    elimination_matrix,
    kron_sum,
    sqrtm_spd,
    sylvester_solve,
    unvec,
    unvech,
    vec,
    vech,
)
from .symplectic import (
    PreIwasawaFactors,
    SpAlgebraElement,
    act_modified_chart,
    check_block_relations,
    check_symplectic,
    is_symplectic,
    j_matrix,
    m_point,
    mobius_act,
    modified_pre_iwasawa,
    pre_iwasawa,
    pre_iwasawa_compose,
    sp_basis,
    sp_inverse,
    unitary_iso,
    unitary_iso_inverse,
)
from .heisenberg import (
    HeisenbergElement,
    h_compose,
    h_embed,
    h_fvf,
    h_identity,
    h_inverse,
    h_metric,
    h_oneforms,
)
from .jacobi import (
    JacobiAlgebraElement,
    JacobiElement,
    SnChart,
    act_extended,
    act_pq,
    act_xjn,
    chart_convert,
    commutator_table,
    gj_basis,
    gj_basis_elements,
    gj_basis_labels,
    gj_bracket,
    gj_compose,
    gj_embed,
    gj_from_embedding,
    gj_identity,
    gj_inverse,
    lm_from_pq,
    pq_from_lm,
    sn_chart,
    sn_chart_identity,
    sn_chart_inverse,
)
from .forms import (
    OneForms,
    duality_pairing,
    fvf,
    invariant_vf,
    maurer_cartan,
    oneforms_matrix_chart,
    oneforms_n1,
    oneforms_sn,
)
from .metrics import (
    InvarianceReport,
    KahlerParams,
    MetricParams,
    ball_act,
    cayley,
    cayley_inverse,
    fc_inverse,
    fc_transform,
    g_form,
    invariance_report,
    kahler_ball,
    kahler_xjn,
    lambda_r,
    metric_extended,
    metric_group,
    metric_xjn,
    sp_to_ball_rep,
)

__version__ = "0.1.0"
