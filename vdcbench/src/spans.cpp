#include "spans.hpp"

#include <cstdio>
#include <stdexcept>

#include "measure.hpp"

namespace vdcbench {

int SpanLog::open(std::string name, std::string layer, int parent) {
  const double now = wall_s();
  return add(std::move(name), std::move(layer), parent, now, now);
}

void SpanLog::close(int id) { spans_.at(static_cast<std::size_t>(id)).end_s = wall_s(); }

int SpanLog::add(std::string name, std::string layer, int parent, double start_s,
                 double end_s) {
  if (parent >= static_cast<int>(spans_.size())) {
    throw std::out_of_range("SpanLog: unknown parent span");
  }
  spans_.push_back(Span{std::move(name), std::move(layer), start_s, end_s, parent});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> SpanLog::self_times_s() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].end_s - spans_[i].start_s;
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
  }
  return self;
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"run\": \"%s\", \"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                 "\"layer\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                 run_id_.c_str(), i, s.parent, s.name.c_str(), s.layer.c_str(),
                 1e6 * (s.start_s - t0), 1e6 * (s.end_s - t0),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace vdcbench
