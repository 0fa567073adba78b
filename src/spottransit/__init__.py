"""Spot Internet-transit pricing toolkit.

Sells under-utilized backbone capacity at a discount: calibrates demand
curves from published prices and traffic statistics, solves the static
profit-maximizing spot price under overflow risk, accounts for consumer
surplus and social welfare, and solves/validates the state-dependent
dynamic-pricing MDP.
"""

from .calibration import (
    CalibratedScenario,
    CalibrationError,
    CalibrationInput,
    IXP_STATS,
    REGION_PRICES,
    calibrate,
    ixp_input,
)
from .demand import (
    DemandSpec,
    DomainError,
    IsoElasticDemand,
    LinearDemand,
    demand_from_dict,
)
from .mdp import (
    DpSolution,
    MdpSpec,
    Policy,
    RateModel,
    average_revenue,
    bellman_backup,
    policy_iteration,
    relative_value_iteration,
    steady_state,
    uniformization_rate,
    verify_structure,
)
from .pricing import (
    MarketParams,
    PriceAdvantage,
    StaticSolution,
    check_price_advantage,
    expected_profit,
    optimize_price,
    optimize_prices,
    profit_derivative,
    regular_price,
)
from .simulate import SimConfig, SimResult, compare_to_analytic, simulate_policy
from .traffic import (
    PredictionReport,
    TrafficSeries,
    load_series,
    percentile_95,
    persistence_residuals,
    predict_persistence,
    prediction_errors,
)
from .uncertainty import UncertaintyModel, uncertainty_from_dict
from .welfare import (
    DivergentSurplusError,
    WelfareReport,
    baseline_profit,
    consumer_surplus,
    social_welfare,
    welfare_report,
)

__version__ = "0.1.0"
