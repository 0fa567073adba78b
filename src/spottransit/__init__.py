"""Spot Internet-transit pricing toolkit.

Sells under-utilized backbone capacity at a discount: calibrates demand
curves from published prices and traffic statistics, solves the static
profit-maximizing spot price under overflow risk, accounts for consumer
surplus and social welfare, and solves/validates the state-dependent
dynamic-pricing MDP.

Importing the package loads none of its submodules: each public name is
imported from its submodule on first access (PEP 562), so a program that
uses only the static half never loads the MDP, and the reverse.
"""

import importlib

#: the submodule that defines each public name
_EXPORTS = {
    "calibration": ("CalibratedScenario", "CalibrationError", "CalibrationInput", "IXP_STATS",
                    "REGION_PRICES", "calibrate", "ixp_input"),
    "demand": ("DemandSpec", "DomainError", "IsoElasticDemand", "LinearDemand",
               "demand_from_dict"),
    "mdp": ("DpSolution", "MdpSpec", "Policy", "RateModel", "average_revenue", "bellman_backup",
            "policy_iteration", "relative_value_iteration", "steady_state",
            "uniformization_rate", "verify_structure"),
    "pricing": ("MarketParams", "PriceAdvantage", "StaticSolution", "check_price_advantage",
                "expected_profit", "optimize_price", "optimize_prices", "profit_derivative",
                "regular_price"),
    "simulate": ("SimConfig", "SimResult", "compare_to_analytic", "simulate_policy"),
    "traffic": ("PredictionReport", "TrafficSeries", "load_series", "percentile_95",
                "persistence_residuals", "predict_persistence", "prediction_errors"),
    "uncertainty": ("UncertaintyModel", "uncertainty_from_dict"),
    "welfare": ("DivergentSurplusError", "WelfareReport", "baseline_profit", "consumer_surplus",
                "social_welfare", "welfare_report"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """Import a public name from its submodule on first access and keep it here."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value
