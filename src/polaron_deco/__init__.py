"""Dephasing dynamics of a two-site polaron qubit in a collective bosonic
bath, with an exact truncated-bath reference and bang-bang pulse protection.

Units: the Gaussian cutoff of the Ohmic spectral density is the unit of
energy and its inverse the unit of time.
"""

from types import ModuleType as _ModuleType

from .bath import (
    BathModel,
    KernelTable,
    build_kernel_table,
    effective_hopping_ratio,
    kernel_cos,
    kernel_sin,
    kernel_table_from_modes,
)
from .dynamics import (
    DensityMatrixST,
    Trajectory,
    evolve_closed_form,
    evolve_ode,
    lamb_shift_vanishes,
)
from .errors import (
    ConfigError,
    InvariantError,
    NumericalError,
    PolaronDecoError,
    PositivityError,
    QuadratureError,
)
from .numerics import (
    TimeGrid,
    cumulative_trapezoid,
    dawson,
    dawson_sine,
    integrate_semiinf,
)
from .oracle import (
    PulseSchedule,
    TruncatedBathConfig,
    build_hamiltonian,
    compare_with_master_equation,
    exact_decoherence_reference,
    lang_firsov_check,
    ohmic_mode_config,
    run_bangbang,
    trace_distance,
)
from .rates import RateTable, build_rate_table, build_rate_table_from_kernels, rate_at

__version__ = "0.1.0"

# every public name bound above except the submodules themselves
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
