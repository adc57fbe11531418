// vdc_trace_tool — generate and inspect utilization traces.
//
// `generate` writes a synthetic trace in the CSV format the simulator
// imports (see src/trace/trace_io.hpp); `profile` prints the statistical
// fingerprint (mean, diurnality, per-sector summaries) of any trace, so
// users can compare their real traces against the synthetic stand-in.
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "cli/cli.hpp"
#include "trace/analysis.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"

int main(int argc, char** argv) {
  using namespace vdc;
  const std::string command = argc >= 2 ? argv[1] : "";

  trace::SyntheticTraceOptions options;
  std::string out_path;
  cli::Parser generate("vdc_trace_tool generate [options]");
  generate.option("--servers", options.servers, "N", "series (servers) to generate")
      .option("--samples", options.samples, "N", "samples per series")
      .option("--seed", options.seed, "S", "generator seed")
      .option("--out", out_path, "FILE", "write the CSV here (default: stdout)");

  std::string in_path;
  double period_s = trace::kPaperSamplePeriodS;
  cli::Parser profile("vdc_trace_tool profile --in FILE [options]");
  profile.option("--in", in_path, "FILE", "trace CSV to profile (required)")
      .option("--period-s", period_s, "S", "trace sample period, seconds (default 900)");

  if (command == "generate") {
    generate.parse(argc, argv, 2);
    try {
      const trace::UtilizationTrace trace = trace::generate_synthetic_trace(options);
      if (out_path.empty()) {
        trace::write_trace_csv(std::cout, trace);
      } else {
        trace::write_trace_csv_file(out_path, trace);
        std::fprintf(stderr, "wrote %zu servers x %zu samples to %s\n",
                     trace.server_count(), trace.sample_count(), out_path.c_str());
      }
    } catch (const std::invalid_argument& e) {  // options the generator rejects
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    } catch (const std::exception& e) {  // the output file
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    return 0;
  }

  if (command == "profile") {
    profile.parse(argc, argv, 2);
    if (in_path.empty()) profile.fail("--in: missing (required)");
    try {
      const trace::UtilizationTrace trace = trace::read_trace_csv_file(in_path, period_s);
      std::printf("%zu servers x %zu samples (%.0f s period, %.1f days)\n",
                  trace.server_count(), trace.sample_count(), trace.sample_period_s(),
                  trace.duration_s() / 86400.0);
      std::printf("%s", trace::to_string(trace::profile_trace(trace)).c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    return 0;
  }

  std::fprintf(stderr, "error: expected a command, generate or profile\n%s%s",
               generate.usage().c_str(), profile.usage().c_str());
  return 2;
}
