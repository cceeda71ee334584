// p2plb_trace -- explain round latency from a causal trace.
//
// Reads the trace a traced run exported -- flat JSONL (--trace
// *.jsonl) or the compact p2plb-btrace-1 binary format (--trace
// *.btrace); the format is sniffed from the file's magic, not its name
// -- reconstructs each balancing round's causal span DAG, and reports
// the critical path, per-phase hop-depth / fan-out histograms and
// per-span slack:
//
//   $ p2plb_sim --nodes 64 --seed 7 --timed --trace trace.btrace
//   $ p2plb_trace --in trace.btrace --md report.md --csv spans.csv
//
// The analysis is streaming: each round's span DAG is retired the
// moment its root span closes, so peak memory is proportional to the
// largest concurrently-active round, not the file (the report's
// "peak resident spans" line is the witness).  With no --md the
// Markdown report goes to stdout.  The analyzer always cross-checks the
// trace against itself -- every finished round's critical path must end
// exactly completion_time after the round began, and at least
// --min-connectivity of each round's spans must connect to the round
// root -- and exits non-zero on any violation, so CI can gate on a
// healthy causal DAG.
//
// --out OUT instead converts the trace and exits: OUT ending in .jsonl
// gets the JSONL the run would have written directly (byte-identical),
// OUT ending in .json the Chrome trace_event view for Perfetto:
//
//   $ p2plb_trace --in trace.btrace --out trace.json
#include <exception>
#include <fstream>
#include <iostream>
#include <ostream>

#include "common/cli.h"
#include "common/error.h"
#include "obs/binary_trace.h"
#include "obs/format.h"
#include "obs/trace.h"
#include "trace_analysis.h"

namespace {

using namespace p2plb;

/// --out: convert the trace in `is` to `out_path` by its suffix.
int convert(std::istream& is, const std::string& out_path) {
  const bool chrome = obs::path_has_extension(out_path, ".json");
  if (!chrome && !obs::path_has_extension(out_path, ".jsonl")) {
    std::cerr << "p2plb_trace: --out must end in .jsonl (JSONL) or .json "
                 "(Chrome trace_event), got "
              << out_path << "\n";
    return 1;
  }
  std::ofstream os(out_path);
  P2PLB_REQUIRE_MSG(os.good(), "cannot open " + out_path);
  const std::uint64_t n =
      chrome ? tracetool::write_chrome_json(is, os)
             : tracetool::read_trace(is, [&os](const obs::TraceEvent& e) {
                 obs::write_jsonl_event(os, e);
               });
  std::cout << "p2plb_trace: wrote " << n << " events to " << out_path
            << "\n";
  return 0;
}

int run(const Cli& cli) {
  const std::string in_path = cli.get_string("in");
  if (in_path.empty()) {
    std::cerr << "p2plb_trace: --in is required\n";
    return 1;
  }
  std::ifstream is(in_path, std::ios::binary);
  if (!is.good()) {
    std::cerr << "p2plb_trace: cannot open " << in_path << "\n";
    return 1;
  }
  const std::string out_path = cli.get_string("out");
  if (!out_path.empty()) return convert(is, out_path);
  const bool binary = obs::sniff_binary_trace(is);

  // Streaming analysis: per-round report sections are rendered the
  // moment the round finalizes, then its spans are retired.
  std::ofstream md_file;
  const std::string md_path = cli.get_string("md");
  if (!md_path.empty()) {
    md_file.open(md_path);
    P2PLB_REQUIRE_MSG(md_file.good(), "cannot open " + md_path);
  }
  std::ostream& md = md_path.empty() ? std::cout : md_file;

  std::ofstream csv_file;
  const std::string csv_path = cli.get_string("csv");
  if (!csv_path.empty()) {
    csv_file.open(csv_path);
    P2PLB_REQUIRE_MSG(csv_file.good(), "cannot open " + csv_path);
    tracetool::write_csv_header(csv_file);
  }

  md << "# Causal trace analysis\n";

  tracetool::StreamingAnalyzer analyzer(/*retire_completed=*/true);
  analyzer.set_round_sink([&](const tracetool::RoundAnalysis& r) {
    const std::size_t index = analyzer.rounds().size() - 1;
    tracetool::write_round_markdown(r, analyzer.spans(), index, md);
    if (csv_file.is_open())
      tracetool::write_round_csv(r, analyzer.spans(), index, csv_file);
  });

  tracetool::read_trace(
      is, [&analyzer](const obs::TraceEvent& e) { analyzer.feed(e); });
  analyzer.finish();

  md << "\n## Totals\n\n";
  md << "- format: " << (binary ? "p2plb-btrace-1" : "jsonl") << "\n";
  md << "- events: " << analyzer.total_events() << "\n";
  md << "- spans: " << analyzer.total_spans() << "\n";
  md << "- rounds: " << analyzer.rounds().size() << "\n";
  md << "- other traces: " << analyzer.other_traces() << "\n";
  md << "- peak resident spans: " << analyzer.peak_retained_spans() << "\n";
  md << "- peak active traces: " << analyzer.peak_active_traces() << "\n";
  if (!md_path.empty())
    std::cout << "p2plb_trace: wrote " << md_path << "\n";
  if (!csv_path.empty())
    std::cout << "p2plb_trace: wrote " << csv_path << "\n";
  // Echo the memory bound into the job log even when the report goes
  // to a file.
  std::cout << "p2plb_trace: " << analyzer.total_events() << " events, "
            << analyzer.total_spans() << " spans, peak resident "
            << analyzer.peak_retained_spans() << " spans / "
            << analyzer.peak_active_traces() << " traces\n";

  if (analyzer.total_events() == 0) {
    std::cerr << "p2plb_trace: " << in_path << " holds no events\n";
    return 1;
  }
  const std::vector<std::string> violations = tracetool::validate(
      analyzer.rounds(), cli.get_double("min-connectivity"));
  for (const std::string& v : violations)
    std::cerr << "p2plb_trace: VIOLATION: " << v << "\n";
  if (analyzer.rounds().empty()) {
    std::cerr << "p2plb_trace: no balancing rounds in " << in_path << "\n";
    return 1;
  }
  return violations.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_flag("in",
               "input causal trace (JSONL or p2plb-btrace-1 binary, from "
               "--trace *.jsonl / *.btrace; format auto-detected)",
               "");
  cli.add_flag("md", "write the Markdown report here (default: stdout)", "");
  cli.add_flag("csv", "write the span-level CSV here", "");
  cli.add_flag("out",
               "convert the trace and exit (no analysis): JSONL if the "
               "name ends in .jsonl, Chrome trace_event JSON if it ends in "
               ".json",
               "");
  cli.add_flag("min-connectivity",
               "fail unless this fraction of each round's spans connects "
               "to the round root",
               "0.99");
  try {
    if (!cli.parse(argc, argv)) return 0;
    return run(cli);
  } catch (const std::exception& e) {
    std::cerr << "p2plb_trace: " << e.what() << "\n";
    return 1;
  }
}
