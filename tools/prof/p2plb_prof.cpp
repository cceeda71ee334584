// p2plb_prof -- explain where the host's wall clock went.
//
// Reads the "p2plb-prof-1" profile a profiled run exported
// (p2plb_sim --profile prof.txt, bench/time_protocol --profile ...)
// and serves the host-time reports:
//
//   $ p2plb_sim --nodes 16384 --seed 7 --timed --profile prof.txt
//   $ p2plb_prof --in prof.txt                    # top-K hot-frame table
//   $ p2plb_prof --in prof.txt --crosstab         # sim-time x host-time
//   $ p2plb_prof --in prof.txt --folded - | flamegraph.pl > flame.svg
//
// --check-coverage FRAC exits non-zero unless the top-K table attributes
// at least that fraction of the measured wall time, so CI can gate on
// the profiler staying honest.  A run's --profile is always the text
// profile; --folded is the one writer of collapsed flamegraph stacks.
#include <cstddef>
#include <exception>
#include <fstream>
#include <iostream>
#include <ostream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/error.h"
#include "common/table.h"
#include "prof_analysis.h"

namespace {

using namespace p2plb;

int run(const Cli& cli) {
  const std::string in_path = cli.get_string("in");
  P2PLB_REQUIRE_MSG(!in_path.empty(), "--in is required");
  std::ifstream in(in_path);
  P2PLB_REQUIRE_MSG(in.is_open(), "cannot open profile: " + in_path);
  const proftool::Profile profile = proftool::parse_profile(in);

  const auto top_k = static_cast<std::size_t>(cli.get_count("top"));
  P2PLB_REQUIRE_MSG(top_k > 0, "--top must be > 0");

  const std::string folded = cli.get_string("folded");
  if (!folded.empty()) {
    if (folded == "-") {
      proftool::write_collapsed(profile, std::cout);
    } else {
      std::ofstream os(folded);
      P2PLB_REQUIRE_MSG(os.is_open(), "cannot open output: " + folded);
      proftool::write_collapsed(profile, os);
    }
  }

  const Table top = proftool::top_table(profile, top_k);
  const Table cross = proftool::crosstab_table(profile);
  if (folded != "-") {  // keep a stdout folded stream pipeable
    std::cout << "# hot frames (total_ns " << profile.total_ns << ")\n";
    top.print_text(std::cout);
    if (cli.get_bool("crosstab") && cross.row_count() > 0) {
      std::cout << "\n# sim-time x host-time crosstab\n";
      cross.print_text(std::cout);
    }
  }

  const std::string md = cli.get_string("md");
  if (!md.empty()) {
    std::ofstream os(md);
    P2PLB_REQUIRE_MSG(os.is_open(), "cannot open output: " + md);
    os << "# Host-time profile\n\ntotal measured wall time: "
       << Table::num(static_cast<double>(profile.total_ns) / 1e6, 3)
       << " ms\n\n## Hot frames\n\n";
    top.print_markdown(os);
    if (cross.row_count() > 0) {
      os << "\n## Sim-time x host-time crosstab\n\n";
      cross.print_markdown(os);
    }
  }

  const double want = cli.get_double("check-coverage");
  if (want > 0.0) {
    const double got =
        proftool::coverage(proftool::frame_rows(profile), profile.total_ns,
                           top_k);
    if (got < want) {
      std::cerr << "p2plb_prof: top-" << top_k << " frames attribute only "
                << Table::num(100.0 * got, 2) << "% of measured wall time ("
                << Table::num(100.0 * want, 2) << "% required)\n";
      return 1;
    }
    std::cerr << "p2plb_prof: coverage ok (top-" << top_k << " = "
              << Table::num(100.0 * got, 2) << "%)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_flag("in", "input p2plb-prof-1 profile (from --profile)", "");
  cli.add_flag("top", "rows in the hot-frame table", "20");
  cli.add_flag("folded",
               "write collapsed flamegraph stacks (flamegraph.pl / "
               "speedscope input) here ('-' for stdout, suppressing the "
               "tables)",
               "");
  cli.add_flag("crosstab", "also print the sim-time x host-time crosstab",
               "false");
  cli.add_flag("md", "write a Markdown report here", "");
  cli.add_flag("check-coverage",
               "exit non-zero unless the top-K table attributes at least "
               "this fraction of measured wall time (0 disables)",
               "0");
  try {
    if (!cli.parse(argc, argv)) return 0;
    return run(cli);
  } catch (const std::exception& e) {
    std::cerr << "p2plb_prof: " << e.what() << "\n";
    return 1;
  }
}
