"""gridplan: capacity-transition and dispatch optimization for multi-node
electricity systems.

Builds a least-cost linear program over generation, storage, and transmission
decisions under configurable low-carbon supply, electrification, and
emissions-reduction targets; solves it with a built-in simplex (or exports it
for an external solver); and reports costs, operation, and emissions.
"""

from gridplan.emissions import (
    EmissionsCalibration,
    EmissionsLedger,
    co2e_factor,
    ghg_reduction,
)
from gridplan.formulation import BuildInputs, LPInstance, assemble
from gridplan.model import (
    CostTable,
    EVFlexConfig,
    InterfaceSpec,
    NetworkSpec,
    NodeSpec,
    ScenarioConfig,
    TechParams,
    TimeSeriesSet,
    annualization_rate,
    validate,
)
from gridplan.reporting import (
    ScenarioReport,
    compute_lcoe,
    summarize,
    write_operations_csv,
    write_report_csv,
)
from gridplan.runner import (
    Bundle,
    SweepSpec,
    load_bundle,
    load_config,
    min_lcoe_search,
    run_scenario,
    run_sweep,
    save_bundle,
)
from gridplan.solver import (
    Basis,
    Solution,
    SolveOptions,
    export_mps,
    import_solution,
    solve,
    write_mps,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "Bundle",
    "BuildInputs",
    "CostTable",
    "EVFlexConfig",
    "EmissionsCalibration",
    "EmissionsLedger",
    "InterfaceSpec",
    "LPInstance",
    "NetworkSpec",
    "NodeSpec",
    "ScenarioConfig",
    "ScenarioReport",
    "Solution",
    "SolveOptions",
    "SweepSpec",
    "TechParams",
    "TimeSeriesSet",
    "annualization_rate",
    "assemble",
    "co2e_factor",
    "compute_lcoe",
    "export_mps",
    "ghg_reduction",
    "import_solution",
    "load_bundle",
    "load_config",
    "min_lcoe_search",
    "run_scenario",
    "run_sweep",
    "save_bundle",
    "solve",
    "summarize",
    "validate",
    "write_mps",
    "write_operations_csv",
    "write_report_csv",
    "__version__",
]
