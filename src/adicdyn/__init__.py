"""Supernatural numbers, periodic partitions of finite dynamical systems,
odometers, and factor maps between them."""

from types import ModuleType as _Module

from .dynsys import (
    ChainReport,
    FinSystem,
    PartitionChain,
    PartitionReport,
    PeriodicPartition,
    all_partitions,
    are_compatible,
    are_equivalent,
    blocks_json,
    build_chain,
    canonical_partition,
    coarsen,
    constant_label_offset,
    cycle_subsystem,
    cyclic_shift,
    enumerate_compatible,
    ess_periods,
    extend_chain,
    format_cycles,
    is_indecomposable,
    lcm_partition,
    make_compatible,
    parse_cycles,
    partition_from_return,
    trivial_partition,
    validate_chain,
    validate_partition,
)
from .errors import DomainError, ParseError
from .factors import (
    Comparison,
    FactorMap,
    almost_periodic_points,
    build_factor_map,
    compare_projections,
    enumerate_factor_maps,
    factor_report,
    fiber,
    is_maximal_projection,
    max_odometer_factor,
    normalize_coherent,
    projection_exists,
    sigma_of_system,
    singleton_fiber_set,
)
from .odometer import (
    AdicInt,
    BaseSequence,
    Distance,
    add,
    cylinder,
    ess_of_odometer,
    format_adic,
    format_base,
    from_integer,
    level_partition,
    metric,
    neg,
    parse_adic,
    parse_base,
    translate,
    truncate,
)
from .supernatural import (
    E,
    INF,
    TOP,
    Supernatural,
    extract_regular_sequence,
    format_supernatural,
    gcd,
    lcm,
    leq,
    mul,
    parse_supernatural,
    phi0,
    phi_of_set,
)

__version__ = "0.1.0"

# every name imported above: no submodule, nothing private
__all__ = sorted(k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _Module))
