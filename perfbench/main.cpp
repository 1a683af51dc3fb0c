// rtnn_perfbench — runs one workload of the repo benchmark and prints its
// metrics (see README.md in this directory; perfbench/run.py builds this
// binary and turns its RESULT line into the benchmark's JSON result).
//
//   rtnn_perfbench --workload <batch_knn|serve_mixed|serve_update>
//                  --seed <n> --seconds <s> --trace <0|1> --state-dir <dir>
//
// Exit status: 0 when every checked answer matched brute force, 1 on a
// mismatch or an error, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench.hpp"
#include "harness.hpp"

using namespace rtnn;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "rtnn_perfbench: %s\nusage: rtnn_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --state-dir <dir>\n",
               why);
  return 2;
}

/// JSON string body: the metric names and units here are plain ASCII
/// identifiers, so only the quote and backslash need escaping.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Settings& s = perfbench::settings();
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      s.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      s.seconds = std::atof(value);
    } else if (flag == "--trace") {
      s.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--state-dir") {
      s.state_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("every flag takes one value");
  if (workload.empty() || s.state_dir.empty()) return usage("--workload and --state-dir are required");
  if (!(s.seconds > 0.0)) return usage("--seconds must be positive");

  const std::vector<const bench::CaseInfo*> cases =
      bench::BenchRegistry::instance().match("^" + workload + "$");
  if (cases.size() != 1) return usage(("unknown workload " + workload).c_str());

  const bench::Environment env = bench::capture_environment();
#ifdef RTNN_HAVE_AVX2
  const char* avx2 = "on";
#else
  const char* avx2 = "off";
#endif
  std::printf("env: nproc %d, build %s, avx2 %s, git %s, %s\n", perfbench::nproc(),
              env.build_type.c_str(), avx2, env.git_sha.c_str(), env.compiler.c_str());
  if (env.build_type != "Release" && env.build_type != "RelWithDebInfo") {
    std::printf("WARNING: build type '%s' is not optimized; timings are not comparable\n",
                env.build_type.c_str());
  }
  std::printf("run: workload %s, seed %llu, %.3f s, trace %d\n", workload.c_str(),
              static_cast<unsigned long long>(s.seed), s.seconds, s.trace ? 1 : 0);
  std::fflush(stdout);

  bench::RunnerOptions options;
  options.seed = s.seed;
  options.verbose = false;
  options.filter = workload;
  const bench::SuiteResult suite = bench::run_cases(cases, options);
  const bench::CaseResult& result = suite.results.front();
  if (result.status != "ok") {
    std::fprintf(stderr, "rtnn_perfbench: %s failed: %s\n", workload.c_str(),
                 result.error.c_str());
    return 1;
  }

  double attempted = 0, failed = 0, mismatches = 0;
  std::string json = "{";
  for (const bench::MetricRecord& m : result.metrics) {
    if (m.name == "run.attempted") attempted = m.value;
    if (m.name == "run.failed") failed = m.value;
    if (m.name == "run.mismatches") mismatches = m.value;
    std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (json.size() > 1) json += ",";
    json += quoted(m.name) + ":{\"value\":" + value + ",\"unit\":" + quoted(m.unit) + "}";
  }
  std::printf("  %-28s %18.6f %s\n", "fail_share", attempted > 0 ? failed / attempted : 0.0,
              "ratio");
  if (mismatches > 0) {
    std::printf("WRONG ANSWERS: %.0f operations disagree with brute force\n", mismatches);
  }
  std::printf("RESULT %s}\n", json.c_str());
  return mismatches > 0 ? 1 : 0;
}
