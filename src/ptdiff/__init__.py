"""Numerical toolkit for pointwise differentiability of distributions."""

__version__ = "0.1.0"

from .tensor import (MultiIndex, PolyJet, opnorm_bounds, unit_index, xi_set,
                     zero_index)
from .testfn import (CoreAtom, ProbeDictionary, ScaleError, TestFn, bump_monomial,
                     make_dictionary, seminorm, standard_bump)
from .funcexpr import ExprError, SingularitySet, eval_expr, parse
from .quadrature import (QuadratureConfig, QuadratureNonConvergence,
                         integrate_box, integrate_boxes)
from .distribution import (DeltaAtom, DerivativeAtom, Distribution,
                           FunctionAtom, PairingResult, PolynomialAtom,
                           delta_distribution, derivative, dual_norm,
                           function_distribution, pair, pair_many,
                           polynomial_distribution, subtract_jet)
from .momentkernel import (KernelConstructionError, MomentKernel,
                           build_kernel, verify_reproduction)
from .jetestimator import (CONFIRMED, INCONCLUSIVE, REFUTED, ClassifierConfig,
                           DecayReport, JetConfig, JetEstimate, TransferReport,
                           check_derivative_transfer, classify, estimate_jet,
                           scaled_pairing)
from .poincare import (DivergentKappaError, KappaEstimate, PoincareReport,
                       build_jet, gamma, measure_kappa, unit_ball_volume,
                       verify)
from .whitney import (FinitePointSet, HalfSpace, JetField, LocalizationReport,
                      WhitneyExtension, WhitneyGateError, WhitneyPartition,
                      empirical_hoelder, extend, localization_check,
                      make_point_set, partition_of_unity, rho)
from .corpus import (CorpusItem, analytic_kappa, get_item, has_analytic_kappa,
                     load_corpus)
