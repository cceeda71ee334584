// Shared export-format plumbing for the obs file writers.
//
// Every artifact has one on-disk format: series, alerts and metrics are
// CSV, profiles are p2plb-prof-1.  Traces are the one artifact with a
// choice between two lossless encodings, picked from the output path's
// suffix (".jsonl" -> JSON lines, ".btrace" -> binary; anything else is
// rejected, see obs::open_trace_sink).  This header holds the one
// case-insensitive suffix match open_trace_sink uses, the one strict
// number parser the CSV and trace readers share, and the flag
// documentation the experiment binaries print.
#pragma once

#include <string>
#include <string_view>

namespace p2plb::obs {

/// True iff `path` ends in `extension` (e.g. ".jsonl"), compared
/// case-insensitively, so "TRACE.JSONL" and "trace.jsonl" pick the same
/// format.  `extension` must include the leading dot.
[[nodiscard]] bool path_has_extension(std::string_view path,
                                      std::string_view extension) noexcept;

/// Parse all of `text` as a double.  Throws PreconditionError naming
/// `context` (the offending line) when `text` is not a number, has
/// trailing characters, or is out of range.
[[nodiscard]] double parse_number(std::string_view text,
                                  const std::string& context);

/// Shared --trace / --metrics / --series flag documentation, so the
/// binaries that expose the flags describe each format identically
/// instead of each paraphrasing it.
inline constexpr const char* kTraceFlagHelp =
    "stream the structured trace here: JSONL if the name ends in .jsonl, "
    "compact binary p2plb-btrace-1 if it ends in .btrace "
    "(case-insensitive); p2plb_trace --out FILE.json converts either to "
    "Chrome trace_event JSON";
inline constexpr const char* kMetricsFlagHelp =
    "write the end-of-run totals here as CSV (time,metric,value), one row "
    "per net.* traffic tally (and per sim.* engine counter where the "
    "driver exports them), stamped with the end time";
inline constexpr const char* kSeriesFlagHelp =
    "write the closed window buckets here as a CSV time series "
    "(time,metric,value), one row per series per bucket";
inline constexpr const char* kProfileFlagHelp =
    "write the host-time profile here as p2plb-prof-1 text (p2plb_prof "
    "--folded derives flamegraph stacks from it)";
inline constexpr const char* kWindowsFlagHelp =
    "bucket width for the online windowed-metrics plane (sim time; "
    "attaches a WindowedAggregator fed from the network, health and "
    "maintenance hooks)";
inline constexpr const char* kAlertsFlagHelp =
    "evaluate the alert rules in this file at window boundaries (one "
    "'<name> <metric> <agg>[:k[,k2]] <op> <threshold> [for <dur>]' per "
    "line; implies --windows)";
inline constexpr const char* kAlertsOutFlagHelp =
    "write fired/resolved alerts here as p2plb-alerts-1 CSV "
    "(time,rule,event,value,threshold)";

}  // namespace p2plb::obs
