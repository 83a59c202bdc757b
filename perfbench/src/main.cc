// mdqa_perf: the repository's benchmark. Runs one workload for a given
// number of measured seconds, checks every answer, and prints the result:
// a stamp line, the workload's figures by name and unit, and, as the last
// line, one JSON object with the end-to-end metrics (untraced run) or the
// per-layer metrics (--trace 1). Exits 1 when any correctness gate fails.
// run.py builds and invokes it; README.md documents the workloads.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace mdqa::perfbench {
namespace {

// The seed claims are developed against, and the one they are re-checked
// on before they count (a seed the change's author did not tune on).
constexpr uint32_t kDefaultSeed = 1;
constexpr uint32_t kHeldOutSeed = 97;

int Usage(const char* why) {
  std::cerr << "mdqa_perf: " << why << "\n"
            << "usage: mdqa_perf --workload "
               "assess-batch|assess-pooled|session-updates|serve-mixed\n"
               "                 [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--trace-out FILE] [--git-sha SHA] "
               "[--smoke]\n";
  return 2;
}

bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return MDQA_PERF_SANITIZED != 0;
#endif
}

using Runner = WorkloadResult (*)(const RunOptions&);

Runner FindWorkload(const std::string& name) {
  if (name == "assess-batch") {
    return [](const RunOptions& o) { return RunAssess(o, /*pooled=*/false); };
  }
  if (name == "assess-pooled") {
    return [](const RunOptions& o) { return RunAssess(o, /*pooled=*/true); };
  }
  if (name == "session-updates") return RunSession;
  if (name == "serve-mixed") return RunServe;
  return nullptr;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace mdqa::perfbench

int main(int argc, char** argv) {
  using namespace mdqa::perfbench;
  RunOptions options;
  options.seed = kDefaultSeed;
  options.seconds = 10;
  std::string trace_out;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (!has_value) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed =
          static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return Usage("--trace takes 0 or 1");
      options.trace = v == "1";
    } else if (arg == "--trace-out") {
      trace_out = argv[++i];
    } else if (arg == "--git-sha") {
      git_sha = argv[++i];
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  const Runner run = FindWorkload(options.workload);
  if (run == nullptr) {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (!(options.seconds > 0 && options.seconds <= 600)) {
    return Usage("--seconds must be in (0, 600]");
  }
  const std::string build_type = MDQA_PERF_BUILD_TYPE;
  if (SanitizedBuild() ||
      (build_type != "Release" && build_type != "RelWithDebInfo")) {
    std::cerr << "mdqa_perf: refusing to report from a " << build_type
              << (SanitizedBuild() ? " sanitizer" : "")
              << " build; timings need an optimized, uninstrumented one\n";
    return 2;
  }

  std::cout << "# mdqa perfbench workload=" << options.workload
            << " seed=" << options.seed << " held_out_seed=" << kHeldOutSeed
            << " default_seed=" << kDefaultSeed
            << " seconds=" << Number(options.seconds)
            << " trace=" << (options.trace ? 1 : 0)
            << " smoke=" << (options.smoke ? 1 : 0) << " git_sha=" << git_sha
            << " build_type=" << build_type
            << " nproc=" << std::thread::hardware_concurrency() << std::endl;

  WorkloadResult result = run(options);

  bool correct = result.failed == 0 && result.attempted > 0;
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      correct = false;
      result.messages.push_back("metric " + m.name + " is not finite");
    }
  }
  if (!options.trace) {
    const double error_rate =
        result.attempted > 0
            ? static_cast<double>(result.failed) /
                  static_cast<double>(result.attempted)
            : 1.0;
    result.report.push_back({"error_rate", error_rate, "ratio"});
  }
  for (const Metric& m : result.report) {
    std::cout << "  " << m.name << " = " << Number(m.value) << " " << m.unit
              << "\n";
  }
  if (options.trace) {
    for (const Metric& m : result.metrics) {
      std::cout << "  " << m.name << " = " << Number(m.value) << " "
                << m.unit << "\n";
    }
    if (!trace_out.empty() && !result.trace.WriteChromeTrace(trace_out)) {
      correct = false;
      result.messages.push_back("writing " + trace_out + " failed");
    }
    if (!trace_out.empty()) {
      std::cout << "  spans written to " << trace_out << "\n";
    }
  }
  for (const std::string& m : result.messages) {
    std::cerr << "mdqa_perf: gate failed: " << m << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::cout << (i > 0 ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << (std::isfinite(m.value) ? Number(m.value) : "0")
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
