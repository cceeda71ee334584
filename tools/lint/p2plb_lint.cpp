// p2plb-lint CLI: lint the tree rooted at --root (default: cwd).
//
//   p2plb_lint --root /path/to/repo     lint src/tools/bench/examples/tests
//   p2plb_lint --list-rules             print every rule id and exit
//   p2plb_lint --json FILE              also write findings as JSON
//   p2plb_lint --github                 print ::error workflow commands
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error.
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "lint_core.h"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    if (c == '"' || c == '\\') { out += '\\'; out += c; }
    else if (c == '\n') out += "\\n";
    else if (static_cast<unsigned char>(c) < 0x20) out += ' ';
    else out += c;
  }
  return out;
}

std::string findings_json(const std::vector<p2plb::lint::Finding>& findings) {
  std::string out = "[\n";
  bool first = true;
  for (const p2plb::lint::Finding& f : findings) {
    out += first ? "" : ",\n";
    first = false;
    out += "{\"file\":\"" + json_escape(f.file) +
           "\",\"line\":" + std::to_string(f.line) + ",\"rule\":\"" +
           json_escape(f.rule) + "\",\"message\":\"" + json_escape(f.message) +
           "\"}";
  }
  out += "\n]\n";
  return out;
}

bool write_file(const std::string& path, const std::string& contents) {
  std::ofstream os(path, std::ios::binary);
  os << contents;
  if (!os) {
    std::cerr << "p2plb_lint: cannot write " << path << '\n';
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string json_path;
  bool github = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const std::string& rule : p2plb::lint::all_rules())
        std::cout << rule << '\n';
      return 0;
    }
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
      continue;
    }
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    if (arg == "--github") {
      github = true;
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      std::cout << "usage: p2plb_lint [--root DIR] [--list-rules] "
                   "[--json FILE] [--github]\n";
      return 0;
    }
    std::cerr << "p2plb_lint: unknown argument '" << arg << "'\n";
    return 2;
  }

  try {
    const std::vector<p2plb::lint::Finding> findings =
        p2plb::lint::lint_tree(root);
    if (!json_path.empty() && !write_file(json_path, findings_json(findings)))
      return 2;

    for (const p2plb::lint::Finding& f : findings)
      std::cerr << f.to_string() << '\n';
    if (github) {
      // GitHub Actions workflow commands: these annotate the PR diff.
      for (const p2plb::lint::Finding& f : findings)
        std::cout << "::error file=" << f.file << ",line=" << f.line
                  << ",title=p2plb-lint " << f.rule << "::" << f.message
                  << '\n';
    }
    if (!findings.empty()) {
      std::cerr << "p2plb_lint: " << findings.size() << " finding"
                << (findings.size() == 1 ? "" : "s")
                << " (suppress a justified one with '// p2plb-lint: "
                   "allow(<rule>)')\n";
      return 1;
    }
    std::cout << "p2plb_lint: clean\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
}
