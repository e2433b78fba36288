// perfbench: measures one workload for run.py and writes its raw record
// (samples, counters, span sums) as JSON. Usage:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --expected expected.txt --workdir DIR --raw-out FILE
//             [--toy] [--corrupt-expected] [--record FILE]
//
// Exit code 0 when every answer was right (and, when traced, the replay
// reproduced the untraced run); 1 otherwise; 2 on bad usage.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.h"
#include "util/bitset_kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

int Usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  options.nproc = static_cast<uint32_t>(std::max<std::size_t>(1, CpuTurns().size()));
  std::string raw_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (flag == "--workload") options.workload = value();
    else if (flag == "--seed") options.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (flag == "--seconds") options.seconds = std::atof(value().c_str());
    else if (flag == "--trace") options.trace = value() == "1";
    else if (flag == "--expected") options.expected_path = value();
    else if (flag == "--workdir") options.workdir = value();
    else if (flag == "--raw-out") raw_out = value();
    else if (flag == "--record") options.record_path = value();
    else if (flag == "--toy") options.toy = true;
    else if (flag == "--corrupt-expected") options.corrupt_expected = true;
    else return Usage(("unknown flag " + flag).c_str());
  }
  if (options.workdir.empty()) return Usage("--workdir is required");
  if (options.record_path.empty() && raw_out.empty()) {
    return Usage("--raw-out is required");
  }
  std::filesystem::create_directories(options.workdir);

  RawRecord record;
  if (IsEngineWorkload(options.workload)) {
    record = RunEngineWorkload(options);
  } else if (options.workload == "service-mix") {
    record = RunServiceMix(options);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (!options.record_path.empty()) return record.failed == 0 ? 0 : 1;

  Json json;
  json.Begin()
      .Str("workload", options.workload)
      .Int("seed", options.seed)
      .Bool("trace", options.trace)
      .Bool("toy", options.toy)
      .Num("run_seconds", options.seconds)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("compiler", "g++ " __VERSION__)
      .Str("kernels", kplex::kernels::DispatchedName())
      .Int("nproc", options.nproc)
      .Int("threads", record.threads)
      .Int("attempted", record.attempted)
      .Int("failed", record.failed)
      .BeginArray("errors");
  for (const std::string& error : record.errors) json.Str(nullptr, error);
  json.EndArray()
      .Int("peak_rss_kib", static_cast<uint64_t>(record.peak_rss_kib))
      .Nums("setup_s", record.setup_s)
      .BeginArray("rounds");
  for (const Round& round : record.rounds) {
    json.Begin()
        .Num("seconds", round.seconds)
        .Num("queries", round.queries)
        .Nums("query_ms", round.query_ms)
        .Nums("cold_ms", round.cold_ms)
        .Nums("warm_us", round.warm_us)
        .Nums("disk_ms", round.disk_ms)
        .Nums("ref_ms", round.ref_ms)
        .End();
  }
  json.EndArray();
  std::string text = json.str();
  if (!record.layers_json.empty()) text += ",\"layers\":" + record.layers_json;
  text += "}\n";
  std::ofstream out(raw_out);
  out << text;
  if (!out) return Usage(("cannot write " + raw_out).c_str());

  for (const std::string& error : record.errors) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  }
  return record.failed == 0 && record.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
