"""Spectrum of the Laplacian on an infinite strip with piecewise-constant
Robin boundary coupling: transversal modes, mode-matched bound states, a
variational existence test, and a finite-difference oracle."""

from .config import (MatchingParams, OracleSpec, OutputSpec, RunConfig,
                     SweepSpec, load_config)
from .errors import (BracketError, ConfigError, ContractError,
                     ConvergenceError, NumericalError, RobinStripError)
from .modematch import (BoundState, ParitySector, WavefunctionGrid,
                        WellConfig, bound_state_energies, matching_residual,
                        minimax_brackets, neumann_state_cap, wavefunction)
from .outputs import (SweepResult, SweepRow, read_wavefunction, sweep_csv,
                      sweep_json, wavefunction_text, write_sweep_csv,
                      write_sweep_json, write_wavefunction)
from .svg import sweep_svg, write_sweep_svg
from .transverse import (RobinCrossSection, dispersion, overlap_matrix,
                         transversal_eigenvalues, transversal_levels)
from .variational import (BumpProfile, QReport, existence_test, q_form,
                          q_form_direct, trial_scale)

__version__ = "0.1.0"

__all__ = [
    "BoundState", "BracketError", "BumpProfile", "ConfigError",
    "ContractError", "ConvergenceError", "FdGrid", "MatchingParams",
    "NumericalError", "OracleSpec", "OutputSpec", "ParitySector", "QReport",
    "RobinCrossSection", "RobinStripError", "RunConfig", "SweepResult",
    "SweepRow", "SweepSpec", "WavefunctionGrid", "WellConfig",
    "assemble", "bound_state_energies", "dispersion", "existence_test",
    "load_config", "lowest_eigenpairs", "make_grid", "matching_residual",
    "minimax_brackets", "neumann_state_cap", "overlap_matrix",
    "oracle_bound_states", "q_form", "q_form_direct", "read_wavefunction",
    "sweep_csv", "sweep_json", "sweep_svg", "transversal_eigenvalues",
    "transversal_levels", "trial_scale", "wavefunction", "wavefunction_text",
    "write_sweep_csv", "write_sweep_json", "write_sweep_svg",
    "write_wavefunction",
]


def __getattr__(name):
    # the FD oracle needs scipy.sparse and scipy.linalg, so it loads on first use
    if name in ("FdGrid", "assemble", "lowest_eigenpairs", "make_grid", "oracle_bound_states"):
        from . import fdoracle
        return getattr(fdoracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
