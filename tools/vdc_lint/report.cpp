#include "report.hpp"

#include <algorithm>
#include <ostream>
#include <tuple>

#include "cli/cli.hpp"

namespace vdc::lint {

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.col, a.rule, a.message) <
           std::tie(b.file, b.line, b.col, b.rule, b.message);
  });
}

std::size_t unsuppressed_count(const std::vector<Finding>& findings) {
  std::size_t n = 0;
  for (const Finding& f : findings) {
    if (!f.suppressed) ++n;
  }
  return n;
}

void write_text(std::ostream& os, const std::vector<Finding>& findings,
                std::size_t files_scanned) {
  for (const Finding& f : findings) {
    if (f.suppressed) continue;
    os << f.file << ':' << f.line << ':' << f.col << ": [" << f.rule << "] " << f.message
       << '\n';
  }
  const std::size_t open = unsuppressed_count(findings);
  os << "vdc-lint: " << open << " finding" << (open == 1 ? "" : "s") << " ("
     << (findings.size() - open) << " suppressed) across " << files_scanned << " files\n";
}

void write_json(std::ostream& os, const std::vector<Finding>& findings,
                std::size_t files_scanned) {
  cli::Json items = cli::Json::array();
  for (const Finding& f : findings) {
    items.push(cli::Json::object({{"file", f.file}, {"line", f.line}, {"col", f.col},
                                  {"rule", f.rule}, {"suppressed", f.suppressed},
                                  {"message", f.message}}));
  }
  os << cli::Json::object({{"files_scanned", files_scanned},
                           {"unsuppressed", unsuppressed_count(findings)}, {"findings", items}})
            .dump();
}

}  // namespace vdc::lint
