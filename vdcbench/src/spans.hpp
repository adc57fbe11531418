// In-memory span log for the traced run. Spans are recorded from the
// benchmark's own code around calls into the simulator's public API; they
// are kept in memory while the run is timed and written out once at the end.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace vdcbench {

struct Span {
  std::string name;
  std::string layer;  ///< module the span's time is attributed to
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  ///< index into the log, -1 for the root
};

class SpanLog {
 public:
  explicit SpanLog(std::string run_id) : run_id_(std::move(run_id)) {}

  /// Opens a span starting now; close it with close().
  int open(std::string name, std::string layer, int parent);
  void close(int id);
  /// Adds a span whose bounds were measured elsewhere.
  int add(std::string name, std::string layer, int parent, double start_s, double end_s);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] const Span& at(int id) const { return spans_.at(static_cast<std::size_t>(id)); }
  [[nodiscard]] double duration_s(int id) const { return at(id).end_s - at(id).start_s; }
  /// Each span's duration minus the part of it its children cover
  /// (children never overlap one another).
  [[nodiscard]] std::vector<double> self_times_s() const;

  /// Writes the spans as a JSON array, start/end relative to the first span.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  std::string run_id_;
  std::vector<Span> spans_;
};

}  // namespace vdcbench
