#include "trace/trace_io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/csv.hpp"

namespace vdc::trace {

void write_trace_csv(std::ostream& out, const UtilizationTrace& trace) {
  out << "server,label";
  for (std::size_t k = 0; k < trace.sample_count(); ++k) out << ",u" << k;
  out << '\n';
  for (std::size_t s = 0; s < trace.server_count(); ++s) {
    out << s << ',';
    if (s < trace.labels.size()) out << trace.labels[s];
    for (const double u : trace.series(s)) out << ',' << u;
    out << '\n';
  }
}

void write_trace_csv_file(const std::filesystem::path& path, const UtilizationTrace& trace) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_trace_csv_file: cannot open " + path.string());
  write_trace_csv(out, trace);
}

UtilizationTrace read_trace_csv(std::istream& in, double sample_period_s) {
  std::ostringstream text;
  text << in.rdbuf();
  const util::CsvTable table = util::parse_csv(text.str());
  if (table.header.empty()) throw std::runtime_error("read_trace_csv: empty input");
  const bool has_label = table.header.size() > 1 && table.header[1] == "label";
  const std::size_t first = has_label ? 2 : 1;  // first sample column
  if (table.header.size() <= first) throw std::runtime_error("read_trace_csv: no sample columns");
  const std::size_t samples = table.header.size() - first;
  if (table.rows.empty()) throw std::runtime_error("read_trace_csv: no data rows");

  UtilizationTrace trace(table.rows.size(), samples, sample_period_s);
  trace.labels.reserve(table.rows.size());
  for (std::size_t s = 0; s < table.rows.size(); ++s) {
    const std::vector<std::string>& row = table.rows[s];
    if (row.size() != table.header.size()) {
      throw std::runtime_error("read_trace_csv: row " + std::to_string(s + 1) + " has " +
                               std::to_string(row.size()) + " cells, header has " +
                               std::to_string(table.header.size()));
    }
    trace.labels.push_back(has_label ? row[1] : std::string());
    for (std::size_t k = 0; k < samples; ++k) {
      const std::string& cell = row[first + k];
      double u = 0.0;
      const auto [ptr, ec] = std::from_chars(cell.data(), cell.data() + cell.size(), u);
      if (ec != std::errc{} || ptr != cell.data() + cell.size() ||
          !(u >= 0.0 && u <= 1.0)) {
        throw std::runtime_error("read_trace_csv: row " + std::to_string(s + 1) + " column '" +
                                 table.header[first + k] + "': bad cell '" + cell +
                                 "' (utilization must be a number in [0,1])");
      }
      trace.set(s, k, u);
    }
  }
  return trace;
}

UtilizationTrace read_trace_csv_file(const std::filesystem::path& path,
                                     double sample_period_s) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_trace_csv_file: cannot open " + path.string());
  return read_trace_csv(in, sample_period_s);
}

}  // namespace vdc::trace
