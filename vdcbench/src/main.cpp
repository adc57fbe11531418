// vdcbench: the repository's end-to-end benchmark.
//
//   vdcbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//            [--git-sha SHA] [--tamper-digest]
//
// Repeats one workload (set-up, run, export, output checks) until S seconds
// have passed, at least three times, each repetition between two runs of
// the reference kernel (reference.hpp). Timing metrics are medians over the
// repetitions of standard-host time: host time scaled by the reference
// kernel's time on the standard host over its time around the repetition.
// That cancels the drift of a shared host's speed; the raw host rates are
// printed alongside. With --trace 1 it runs half of S untraced, then one
// traced repetition whose layer replay gives the per-layer metrics and whose
// spans are written to DIR. Every repetition must produce the same output
// digest; --tamper-digest corrupts the last one (self-test).
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every check passed, 1 when one failed, 2 on bad usage.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "measure.hpp"
#include "reference.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace {

using namespace vdcbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
  bool tamper_digest = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: vdcbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--git-sha SHA] [--tamper-digest]\nworkloads:");
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
}

bool parse(int argc, char** argv, Options& opt) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tamper-digest") {
      opt.tamper_digest = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--workload") {
      opt.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed") {
      char* end = nullptr;
      opt.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return false;
    } else if (arg == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      opt.trace = v == "1";
    } else if (arg == "--out-dir") {
      opt.out_dir = argv[++i];
    } else if (arg == "--git-sha") {
      opt.git_sha = argv[++i];
    } else {
      return false;
    }
  }
  return have_workload;
}

double median(std::vector<double> xs) { return quantile_of(xs, 0.5); }

struct Provenance {
  std::string git_sha;
  std::string compiler = VDCBENCH_COMPILER;
  std::string build_type = VDCBENCH_BUILD_TYPE;
  std::string flags = VDCBENCH_CXX_FLAGS;
  bool vdc_checks = VDCBENCH_CHECKS != 0;
  unsigned hardware_concurrency = std::max(1u, std::thread::hardware_concurrency());
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(x) ? x : 0.0);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  const Workload* w = find_workload(opt.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    usage();
    return 2;
  }

  Provenance prov;
  prov.git_sha = opt.git_sha;
  std::printf("# vdcbench %s seed=%llu seconds=%g trace=%d\n", w->name.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::printf("# provenance: git=%s compiler=\"%s\" build=%s flags=\"%s\" VDC_CHECKS=%s "
              "hardware_concurrency=%u\n",
              prov.git_sha.c_str(), prov.compiler.c_str(), prov.build_type.c_str(),
              prov.flags.c_str(), prov.vdc_checks ? "ON" : "OFF", prov.hardware_concurrency);

  // ---- untraced repetitions ----
  const double start = wall_s();
  const double budget_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const std::size_t min_reps = opt.trace ? 2 : 3;
  std::vector<Repetition> reps;
  while (reps.size() < min_reps || wall_s() - start < budget_s) {
    reps.push_back(run_repetition(*w, opt.seed));
    const Repetition& r = reps.back();
    std::printf("# rep %zu: setup %.4f s, window %.4f s wall / %.4f s cpu, digest %016llx%s\n",
                reps.size(), r.setup_s, r.window_wall_s, r.window_cpu_s,
                static_cast<unsigned long long>(r.outcome.digest),
                r.failures.empty() ? "" : ", CHECK FAILED");
  }
  if (opt.tamper_digest) reps.back().outcome.digest ^= 1;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    if (!(reps[i].outcome == reps.front().outcome)) {
      reps[i].failures.push_back("output differs from repetition 1");
    }
  }

  std::vector<double> wall_rate;  // simulated seconds per standard-host second
  std::vector<double> cpu_rate;
  std::vector<double> setup;  // standard-host seconds
  std::vector<double> host_wall_rate;  // simulated seconds per host second
  std::vector<double> host_cpu_rate;
  std::vector<double> window;  // standard-host seconds
  std::vector<double> ref;
  for (const Repetition& r : reps) {
    const double to_standard = kStandardReferenceS / r.ref_s;
    wall_rate.push_back(r.sim_s / (r.window_wall_s * to_standard));
    cpu_rate.push_back(r.sim_s / (r.window_cpu_s * to_standard));
    setup.push_back(r.setup_s * to_standard);
    host_wall_rate.push_back(r.sim_s / r.window_wall_s);
    host_cpu_rate.push_back(r.sim_s / r.window_cpu_s);
    window.push_back(r.window_wall_s * to_standard);
    ref.push_back(r.ref_s);
  }
  std::printf("# host rates (not standardised): sim_s_per_wall_s %.6g, sim_s_per_cpu_s %.6g, "
              "reference kernel %.6f s (medians)\n",
              median(host_wall_rate), median(host_cpu_rate), median(ref));
  const Outcome& outcome = reps.front().outcome;

  std::vector<Metric> metrics;
  std::string spans_path;
  if (!opt.trace) {
    metrics = {
        {"sim_s_per_wall_s", "s/s", median(wall_rate)},
        {"sim_s_per_cpu_s", "s/s", median(cpu_rate)},
        {"setup_s", "s", median(setup)},
        {"peak_rss_mib", "MiB", peak_rss_mib()},
        {"energy_kwh", "kWh", outcome.energy_kwh},
    };
  } else {
    const std::string run_id = w->name + "-seed" + std::to_string(opt.seed) + "-pid" +
                               std::to_string(static_cast<long>(getpid()));
    Capture capture(run_id);
    capture.root = capture.spans.open(w->name, "bench", -1);
    Repetition traced = run_repetition(*w, opt.seed, &capture);
    if (!(traced.outcome == outcome)) {
      traced.failures.push_back("traced output differs from the untraced run");
    }
    const double traced_window = traced.window_wall_s * kStandardReferenceS / traced.ref_s;
    const double overhead_s = traced_window - median(window);
    LayerReport layers = replay_layers(*w, capture, traced, overhead_s);
    capture.spans.close(capture.root);
    traced.failures.insert(traced.failures.end(), layers.failures.begin(), layers.failures.end());
    std::printf("# traced rep: window %.4f s (untraced median %.4f s, standard-host), "
                "digest %016llx%s\n",
                traced_window, median(window), static_cast<unsigned long long>(traced.outcome.digest),
                traced.failures.empty() ? "" : ", CHECK FAILED");

    // Self time by layer over the whole traced workload.
    const std::vector<double> self = capture.spans.self_times_s();
    std::vector<std::pair<std::string, double>> by_layer;
    double total = 0.0;
    for (std::size_t i = 0; i < self.size(); ++i) {
      const std::string& layer = capture.spans.spans()[i].layer;
      auto it = std::find_if(by_layer.begin(), by_layer.end(),
                             [&](const auto& p) { return p.first == layer; });
      if (it == by_layer.end()) {
        by_layer.emplace_back(layer, 0.0);
        it = by_layer.end() - 1;
      }
      it->second += self[i];
      total += self[i];
    }
    std::printf("# span self time by layer (setup + traced run + export + replay, %.3f s):",
                total);
    for (const auto& [layer, s] : by_layer) {
      std::printf(" %s %.1f%%", layer.c_str(), total > 0.0 ? 100.0 * s / total : 0.0);
    }
    std::printf("\n");

    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);
    spans_path = opt.out_dir + "/spans-" + w->name + "-seed" + std::to_string(opt.seed) + ".json";
    if (!capture.spans.write_json(spans_path)) {
      traced.failures.push_back("could not write " + spans_path);
    }
    reps.push_back(std::move(traced));
    metrics = std::move(layers.metrics);
  }

  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      reps.back().failures.push_back("metric " + m.name + " is not finite");
    }
  }
  std::size_t failed = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    if (reps[i].failures.empty()) continue;
    ++failed;
    for (const std::string& f : reps[i].failures) {
      std::printf("# FAILED rep %zu: %s\n", i + 1, f.c_str());
    }
  }
  const bool correct = failed == 0;

  std::printf("# outcome: energy_kwh %.6f slo_miss_pct %.4f overload_pct %.4f digest %016llx\n",
              outcome.energy_kwh, outcome.slo_miss_pct, outcome.overload_pct,
              static_cast<unsigned long long>(outcome.digest));
  std::printf("# runs_failed / runs_attempted: %zu / %zu\n", failed, reps.size());
  for (const Metric& m : metrics) {
    std::printf("%-34s %20.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  // Full report next to the spans: provenance, every repetition, metrics.
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string report_path = opt.out_dir + "/report-" + w->name + "-seed" +
                                  std::to_string(opt.seed) + "-trace" +
                                  (opt.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(report_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"workload\": %s,\n  \"seed\": %llu,\n  \"trace\": %s,\n",
                 json_string(w->name).c_str(), static_cast<unsigned long long>(opt.seed),
                 opt.trace ? "true" : "false");
    std::fprintf(f,
                 "  \"provenance\": {\"git_sha\": %s, \"compiler\": %s, \"build_type\": %s, "
                 "\"cxx_flags\": %s, \"vdc_checks\": %s, \"hardware_concurrency\": %u, "
                 "\"repetitions\": %zu},\n",
                 json_string(prov.git_sha).c_str(), json_string(prov.compiler).c_str(),
                 json_string(prov.build_type).c_str(), json_string(prov.flags).c_str(),
                 prov.vdc_checks ? "true" : "false", prov.hardware_concurrency, reps.size());
    std::fprintf(f, "  \"runs_attempted\": %zu,\n  \"runs_failed\": %zu,\n", reps.size(), failed);
    std::fprintf(f,
                 "  \"outcome\": {\"energy_kwh\": %s, \"slo_miss_pct\": %s, \"overload_pct\": %s, "
                 "\"digest\": \"%016llx\"},\n",
                 json_number(outcome.energy_kwh).c_str(), json_number(outcome.slo_miss_pct).c_str(),
                 json_number(outcome.overload_pct).c_str(),
                 static_cast<unsigned long long>(outcome.digest));
    std::fprintf(f, "  \"repetitions\": [");
    for (std::size_t i = 0; i < reps.size(); ++i) {
      std::fprintf(f, "%s\n    {\"setup_s\": %s, \"window_wall_s\": %s, \"window_cpu_s\": %s, "
                      "\"sim_s\": %s, \"ref_s\": %s, \"failures\": %zu}",
                   i == 0 ? "" : ",", json_number(reps[i].setup_s).c_str(),
                   json_number(reps[i].window_wall_s).c_str(),
                   json_number(reps[i].window_cpu_s).c_str(), json_number(reps[i].sim_s).c_str(),
                   json_number(reps[i].ref_s).c_str(), reps[i].failures.size());
    }
    std::fprintf(f, "\n  ],\n  \"spans\": %s,\n  \"metrics\": %s\n}\n",
                 json_string(spans_path).c_str(), metrics_json(metrics).c_str());
    std::fclose(f);
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", reps.size(), failed, metrics_json(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
