// Shared export-format plumbing for the obs file writers.
//
// Every exporter in this module picks its on-disk format from the output
// path's suffix (".csv" -> CSV, ".jsonl" -> JSON lines, anything else ->
// the writer's default).  The suffix match used to be re-implemented,
// case-sensitively, in each writer; this header is the one shared,
// case-insensitive implementation, used by write_trace_file,
// write_metrics_file and write_series_file alike -- and exported so the
// experiment binaries can document the rule without restating it.
#pragma once

#include <string_view>

namespace p2plb::obs {

/// True iff `path` ends in `extension` (e.g. ".csv"), compared
/// case-insensitively, so "METRICS.CSV" and "metrics.csv" pick the same
/// format.  `extension` must include the leading dot.
[[nodiscard]] bool path_has_extension(std::string_view path,
                                      std::string_view extension) noexcept;

/// Shared --trace / --metrics / --series flag documentation, so the
/// binaries that expose the flags describe the one suffix rule
/// identically instead of each paraphrasing it.
inline constexpr const char* kTraceFlagHelp =
    "write the structured trace here (Chrome trace_event JSON; JSONL if "
    "the name ends in .jsonl, compact binary p2plb-btrace-1 if it ends "
    "in .btrace, case-insensitive)";
inline constexpr const char* kMetricsFlagHelp =
    "write the metrics registry here (CSV if the name ends in .csv, "
    "case-insensitive; aligned text otherwise)";
inline constexpr const char* kSeriesFlagHelp =
    "write the closed window buckets here as a time series, one row "
    "per series per bucket (JSONL if the name ends in .jsonl, "
    "case-insensitive; CSV otherwise)";
inline constexpr const char* kProfileFlagHelp =
    "write the host-time profile here (collapsed flamegraph stacks if "
    "the name ends in .folded, case-insensitive; p2plb-prof-1 text "
    "otherwise)";
inline constexpr const char* kWindowsFlagHelp =
    "bucket width for the online windowed-metrics plane (sim time; "
    "attaches a WindowedAggregator fed from the network, health and "
    "maintenance hooks)";
inline constexpr const char* kAlertsFlagHelp =
    "evaluate the alert rules in this file at window boundaries (one "
    "'<name> <metric> <agg>[:k[,k2]] <op> <threshold> [for <dur>]' per "
    "line; implies --windows)";
inline constexpr const char* kAlertsOutFlagHelp =
    "write fired/resolved alerts here (p2plb-alerts-1; JSONL if the "
    "name ends in .jsonl, case-insensitive, CSV otherwise)";

}  // namespace p2plb::obs
