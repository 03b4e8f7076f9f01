"""Drawdown, drawup and occupation-time functionals of 1-D Markov models
via continuous-time Markov chain approximation, with numerical Laplace
inversion for time-domain prices."""

from .models import ModelSpec, UnboundedMass, diffusion_var, drift, levy_bin_mass, small_jump_compensators
from .ctmc import (
    BadBounds,
    BirthDeathGenerator,
    DenseGenerator,
    Generator,
    Grid,
    NegativeRate,
    ToeplitzLevyGenerator,
    build_generator,
    build_grid,
    build_levy_generator,
    default_levy_truncation,
)
from .linsolve import (
    DegenerateWindow,
    NotBirthDeath,
    PsiPair,
    Singular,
    psi_pair,
)
from .quantities import (
    FixedPointSingular,
    NotLevy,
    QuantityRequest,
    TooLarge,
    UnsupportedRegime,
    c_levy_closed_form,
    drawdown_before_drawup,
    drawdown_occupation,
    evaluate,
    h_levy_closed_form,
    insurance_no_recovery,
    insurance_with_recovery,
    j_levy_closed_form,
    nth_drawdown_no_recovery,
    nth_drawdown_with_recovery,
    occupation_until_drawdown,
    q_drawdown,
)
from .laplace import InversionConfig, NodeFailure, invert_values, inversion_nodes_weights, richardson
from .oracle import HorizonCapHit, McConfig, dense_product_solve, mc_estimate

__version__ = "0.1.0"
