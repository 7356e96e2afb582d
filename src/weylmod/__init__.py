"""weylmod: exact computation in the differential-operator algebra on the
circle (and its rank-nu generalization), its central extension, the
rank-1-free polynomial module families, truncated highest-weight modules,
and their tensor products."""

from .scalars import (
    InternalError, NonInvertibleParameter, ParamDecl, RATIONALS, Scalar,
    Series, SpanBasis, exp_series, series_quotient, solve_linear,
)
from .liealg import (
    AlgebraCtx, CentralUnsupported, CtxMismatch, D_ALG, D_HAT, DiffOp,
    assoc_product, bracket, basis_bracket, basis_product, cocycle_basis,
    cocycle_phi, generated_span_probe, grade_components,
)
from .umod import (
    FamilyMismatch, OmegaSpec, PolyVec, act, act_hv,
    assoc_action_split, degree_reduction_witness, omega_d, omega_dnu,
    omega_hv, omega_vir, simplicity_probe, verify_module_axiom,
)
from .hwmod import (
    HWSpec, LevelOverflow, Quasipolynomial, SingularReport, TruncVerma,
    VermaElem, act_verma, h_from_phi, monomial_level, singular_vectors,
    verma_basis, weight_of, weight_space_dims,
)
from .tensor import (
    TensorElem, TensorMismatch, TensorSpec, act_tensor, difference_collapse,
    intertwiner_dim, irreducibility_probe, vandermonde_reduce,
    vanishing_bound,
)
from .grammar import (
    ParseError, parse_operator, parse_param_decl, parse_pbw_monomial,
    parse_polynomial, parse_quasipolynomial, parse_scalar,
)

__version__ = "0.1.0"
