"""Exact calculus of meromorphic germs at zero with linear poles."""

from .errors import (BudgetExceeded, DependenceEscapesVars, DivergentIndex,
                     EmptyWord, EvaluatorDomain, IncompatibleGenerators,
                     LinpoleError, NonHomogeneousPole, NotChen, NotLocal,
                     NotLocalSpec, ParseError, TooManyVariables, WordEndsInX0,
                     ZeroCumulativeForm)
from .exactlin import (DEFAULT_Q, InnerProduct, LinearForm, Subspace,
                       ZERO_SPACE, find_circuit, inner, load_inner_product,
                       orth_decompose, orthogonal, span, subspace_sum, zset,
                       zvar)
from .poly import Polynomial
from .germs import (Decomposition, PolarTerm, RationalGerm, SimplexFraction,
                    ZERO_GERM, d_residue, decompose, dependence, germ_mul,
                    germ_scale, germ_sum, is_local_pair, locality_mul, ms_eval,
                    p_residue, project_plus, recompose)
from .words import (Alphabet, EMPTY_WORD, LinComb, X0, cfl, integer_alphabet,
                    is_local_word, is_lyndon, local_word_pair, locality_cfl,
                    locality_lyndon_generators, lyndon_rewrite, shuffle,
                    subset_alphabet, word_str)
from .fracspec import (Forest, ForestNode, FractionSpec, LMap, chen_lmap,
                       expand_product, flatten_forest, forest_fraction,
                       lyndon_decompose, phi, spec_of_word, speer_lmap,
                       weak_chen_lmap, word_of_fraction)
from .evaluators import (Evaluator, FactorizationReport, GaloisTransform,
                         GermCombo, apply_transform, check_factorization,
                         compose_transforms, ev_reg_single,
                         galois_from_evaluator, invert_transform, iter_eval,
                         iter_evaluator, ms_evaluator, mzv_numeric, zeta_eval,
                         zeta_evaluator)
from .parser import parse_germ, parse_spec, parse_word

__version__ = "0.1.0"
