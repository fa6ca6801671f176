"""Power management substrate: converters, rectifiers, references, switches.

This package models the PicoCube's entire power train, both the COTS
version of paper §4 (charge pump, LDO, shunt regulator, discrete switches)
and the integrated switched-capacitor power IC of §7.1 (Seeman-Sanders
analysis, synchronous rectifier, references).
"""

from .base import (
    Converter,
    IdealConverter,
    OperatingPoint,
    VoltageRange,
    series_efficiency,
)
from .charge_pump import RegulatedChargePump
from .converter_ic import ConverterIC, ConverterICConfig
from .linear_regulator import LinearRegulator
from .optimizer import (
    AreaDesign,
    EfficiencyPoint,
    RailTopologyReport,
    SiliconDensities,
    minimum_area_for_efficiency,
    optimize_area_split,
    TopologyComparison,
    compare_rail_topologies,
    compare_step_up_topologies,
    efficiency_curve,
    log_spaced_loads,
    optimize_fsl_fraction,
    wide_load_range_efficiency,
)
from .graph import (
    CHANNELS,
    ChargePumpSpec,
    DrainSpec,
    FrozenMapping,
    GraphSolution,
    GraphSolutionBatch,
    LdoSpec,
    LoadTapSpec,
    RailGraph,
    RailGraphSpec,
    ScConverterSpec,
    ShuntSpec,
    SourceSpec,
    SwitchSpec,
)
from .rail_topologies import (
    cots_spec,
    direct_ldo_spec,
    get_rail_spec,
    ic_spec,
    rail_topology_names,
    register_rail_topology,
    single_sc_spec,
)
from .rectifier import (
    BoostRectifier,
    DiodeBridgeRectifier,
    IdealRectifier,
    RectifierResult,
    SynchronousRectifier,
    relative_to_ideal,
)
from .references import CurrentReference, SampledBandgap
from .sc_converter import SwitchedCapacitorConverter, design_for_load
from .scnetwork import SCAnalysis, SCNetwork
from .shunt_regulator import ShuntRegulator
from .switches import LevelShifter, PowerSwitch
from .variable_ratio import VariableRatioConverter, standard_gearbox
from . import topologies

__all__ = [
    "BoostRectifier",
    "CHANNELS",
    "ChargePumpSpec",
    "Converter",
    "DrainSpec",
    "FrozenMapping",
    "GraphSolution",
    "GraphSolutionBatch",
    "LdoSpec",
    "LoadTapSpec",
    "RailGraph",
    "RailGraphSpec",
    "ScConverterSpec",
    "ShuntSpec",
    "SourceSpec",
    "SwitchSpec",
    "cots_spec",
    "direct_ldo_spec",
    "get_rail_spec",
    "ic_spec",
    "rail_topology_names",
    "register_rail_topology",
    "single_sc_spec",
    "ConverterIC",
    "ConverterICConfig",
    "CurrentReference",
    "DiodeBridgeRectifier",
    "EfficiencyPoint",
    "IdealConverter",
    "IdealRectifier",
    "LevelShifter",
    "LinearRegulator",
    "OperatingPoint",
    "PowerSwitch",
    "RectifierResult",
    "RegulatedChargePump",
    "SampledBandgap",
    "SCAnalysis",
    "SCNetwork",
    "ShuntRegulator",
    "SwitchedCapacitorConverter",
    "SynchronousRectifier",
    "TopologyComparison",
    "VariableRatioConverter",
    "VoltageRange",
    "AreaDesign",
    "RailTopologyReport",
    "SiliconDensities",
    "compare_rail_topologies",
    "compare_step_up_topologies",
    "design_for_load",
    "efficiency_curve",
    "log_spaced_loads",
    "minimum_area_for_efficiency",
    "optimize_area_split",
    "optimize_fsl_fraction",
    "relative_to_ideal",
    "series_efficiency",
    "topologies",
    "standard_gearbox",
    "wide_load_range_efficiency",
]
