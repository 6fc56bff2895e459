"""Logical-qubit layouts, lattice-surgery costs, placement, routing and scheduling."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "lattice_surgery": ["EXPECTED_CONSUMPTION_ATTEMPTS",
                        "FAST_CNOT_CLUSTER_CYCLES", "MEASUREMENT_CYCLES",
                        "OperationCost", "ROTATION_CONSUMPTION_CYCLES",
                        "SLOW_CNOT_CLUSTER_CYCLES", "cnot_cluster_cycles",
                        "rotation_layer_cycles"],
    "layouts": ["LAYOUT_FAMILIES", "CompactLayout", "FastLayout",
                "GridLayout", "IntermediateLayout", "Layout", "LayoutSpec",
                "ProposedLayout", "make_layout"],
    "pipeline": ["CompilationResult", "EFTCompiler"],
    "placement": ["PlacedAnsatz", "PlacementReport", "annealed_placement",
                  "greedy_placement", "identity_placement",
                  "optimize_placement", "placement_cost"],
    "routing": ["BusRouter", "ContentionAwareScheduler",
                "ContentionScheduleResult", "ProposedLayoutGeometry", "Tile"],
    "scheduler": ["LatticeSurgeryScheduler", "ScheduleResult",
                  "layout_volume_ratios", "schedule_on_layout"],
})
