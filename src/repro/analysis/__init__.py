"""Statistics and reporting helpers."""

from .. import _lazy

__getattr__, __dir__ = _lazy.lazy_exports(
    __name__,
    {
        ".bench_gate": (
            "GateEntry",
            "GateReport",
            "collect_throughputs",
            "compare_baselines",
        ),
        ".statistics": (
            "ConfidenceInterval",
            "empirical_exceedance_probability",
            "linear_slope",
            "mean_confidence_interval",
            "relative_error",
            "trailing_window",
        ),
        ".tables": ("format_table", "table_to_csv_string", "write_csv"),
    },
)

__all__ = [
    "ConfidenceInterval",
    "GateEntry",
    "GateReport",
    "collect_throughputs",
    "compare_baselines",
    "empirical_exceedance_probability",
    "format_table",
    "linear_slope",
    "mean_confidence_interval",
    "relative_error",
    "table_to_csv_string",
    "trailing_window",
    "write_csv",
]
