"""Correlated-noise toolkit for differentially private prefix-sum release.

Modules by function:

- ``blt_core``: buffered linear Toeplitz (BLT) strategy matrices, the
  inverse pairing, and O(d*m)-memory streaming multiplication by C^-1.
- ``participation``: min-separation participation schemas and sensitivity
  (fast Toeplitz path, dense lower bound).
- ``loss_metrics``: MaxError/RmsError and MaxLoss/RmsLoss functionals:
  the n-independent BLT path (errors in closed form from the decays and
  inverse decays) and a dense path for strategy matrices.
- ``tree_baseline``: binary-tree aggregation baseline with full
  pseudoinverse decoding, evaluated in closed form from the Haar basis
  (the dense tree and decoder remain as reference); loading external
  strategy matrices (.npy or CSV).
- ``blt_optimizer``: differentiable loss and L-BFGS driver that fits BLT
  parameters to a schema and objective, all restarts in lockstep.
- ``accountant``: Gaussian-mechanism zCDP and zCDP -> (epsilon, delta).
- ``ftrl_sim``: desk-scale DP federated-averaging simulator.
- ``cli``: batch entry points (optimize, eval, sweep, noisegen, account,
  simulate).

The package needs numpy alone. The dense, O(n^2) and brute-force
oracles the tests check these against (``lt_toeplitz``, ``stream_mult``,
the Toeplitz-coefficient loss, the BLT errors by doubling, the
``blt_loss`` gradient, pattern enumeration) live in ``tests/oracles.py``,
not in the package.
"""

from corrnoise.blt_core import (
    BltParams,
    blt_coefs,
    blt_inverse_coefs,
    calc_output_scale,
    inverse_blt_params,
    toeplitz_inverse_coefs,
    stream_mult_inverse,
    make_noise_generator,
)
from corrnoise.ftrl_sim import (
    ClientPopulation,
    TrainConfig,
    make_population,
    run_training,
)
from corrnoise.participation import (
    ParticipationSchema,
    worst_case_pattern,
    toeplitz_sensitivity,
    matrix_sensitivity_lower_bound,
)
from corrnoise.loss_metrics import (
    MechanismLoss,
    toeplitz_error,
    dense_error,
    mechanism_loss,
    blt_mechanism_loss,
    blt_mechanism_loss_fn,
)
from corrnoise.tree_baseline import (
    build_tree_matrix,
    full_decoder,
    eval_tree,
    tree_loss_fn,
)
from corrnoise.blt_optimizer import OptimizerConfig, optimize_blt, blt_loss
from corrnoise.accountant import zcdp_of, eps_of_zcdp

__all__ = [
    "BltParams",
    "blt_coefs",
    "blt_inverse_coefs",
    "calc_output_scale",
    "inverse_blt_params",
    "toeplitz_inverse_coefs",
    "stream_mult_inverse",
    "make_noise_generator",
    "ParticipationSchema",
    "worst_case_pattern",
    "toeplitz_sensitivity",
    "matrix_sensitivity_lower_bound",
    "MechanismLoss",
    "toeplitz_error",
    "dense_error",
    "mechanism_loss",
    "blt_mechanism_loss",
    "blt_mechanism_loss_fn",
    "build_tree_matrix",
    "full_decoder",
    "eval_tree",
    "tree_loss_fn",
    "OptimizerConfig",
    "optimize_blt",
    "blt_loss",
    "zcdp_of",
    "eps_of_zcdp",
    "ClientPopulation",
    "TrainConfig",
    "make_population",
    "run_training",
]

__version__ = "0.1.0"
