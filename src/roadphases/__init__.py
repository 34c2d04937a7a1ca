"""Cell-based road-network traffic microsimulator and analysis toolkit.

Build a closed network (figure-eight, two-junction ring pair, torus city),
place cars, step the cumulative-counter dynamics under a junction policy,
and measure fundamental diagrams, traffic phases and disturbance response.
"""

from .analytic import (
    EigenResult,
    PhaseBoundaries,
    PhaseLabel,
    RoadDiagramPoint,
    classify_phase_analytic,
    eigen_candidates,
    flow_approx,
    phase_boundaries,
    road_diagrams,
)
from .control import (
    GlobalFeedbackPolicy,
    LocalFeedbackPolicy,
    LQModel,
    LQRSolution,
    OpenLoopPolicy,
    RiccatiError,
    build_lq_model,
    global_feedback_timing,
    nominal_point,
    solve_lqr,
)
from .dynamics import (
    CONTINUOUS,
    DISCRETE,
    Simulation,
    check_occupancy,
    density,
    init_occupancy,
    occupancy_at,
    simulate,
    step,
)
from .metrics import (
    DiagramPoint,
    FundamentalDiagram,
    PeriodResult,
    classify_phases_empirical,
    clustered_occupancy,
    detect_period,
    distance_to_uniform,
    estimate_growth_rate,
    response_time,
    run_response_trace,
    run_response_traces,
    sweep_diagram,
    sweep_diagrams,
)
from .topology import (
    JunctionSpec,
    NetworkTopology,
    RoadSegment,
    build_figure_eight,
    build_topology,
    build_torus_city,
    build_two_junction,
    ratio_r,
)

__version__ = "0.1.0"
