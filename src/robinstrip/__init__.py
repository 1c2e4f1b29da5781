"""Spectrum of the Laplacian on an infinite strip with piecewise-constant
Robin boundary coupling: transversal modes, mode-matched bound states, a
variational existence test, and a finite-difference oracle."""

from .config import RunConfig, load_config
from .errors import (ConfigError, ContractError, ConvergenceError,
                     NumericalError, RobinStripError)
from .modematch import (BoundState, ParitySector, WavefunctionGrid,
                        WellConfig, bound_state_energies, matching_residual,
                        minimax_brackets, wavefunction)
from .outputs import (SweepResult, SweepRow, read_wavefunction, sweep_csv,
                      write_sweep_csv, write_sweep_json, write_wavefunction)
from .svg import write_sweep_svg
from .transverse import (RobinCrossSection, overlap_matrix,
                         transversal_eigenvalues, transversal_levels)
from .variational import BumpProfile, QReport, existence_test, q_form

__version__ = "0.1.0"

__all__ = [
    "BoundState", "BumpProfile", "ConfigError",
    "ContractError", "ConvergenceError", "NumericalError", "ParitySector",
    "QReport", "RobinCrossSection", "RobinStripError", "RunConfig",
    "SweepResult", "SweepRow", "WavefunctionGrid", "WellConfig",
    "bound_state_energies", "existence_test", "load_config",
    "matching_residual", "minimax_brackets", "oracle_bound_states",
    "overlap_matrix", "q_form", "read_wavefunction", "sweep_csv",
    "transversal_eigenvalues", "transversal_levels", "wavefunction",
    "write_sweep_csv", "write_sweep_json", "write_sweep_svg",
    "write_wavefunction",
]


def __getattr__(name):
    # the FD oracle needs scipy.linalg and scipy.fft, so it loads on first use
    if name == "oracle_bound_states":
        from .fdoracle import oracle_bound_states
        return oracle_bound_states
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
