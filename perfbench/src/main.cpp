// perfbench: the repository benchmark's measuring binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Prints one JSON object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Human-readable tables go to stderr. With --out, a record
// carrying build provenance (and, traced, the benchmark's spans) is
// written under DIR. Exits 1 when any answer differs from
// vsa::Model::predict_reference, 2 on bad arguments.
#include <cstring>
#include <fstream>
#include <string>

#include "common.h"
#include "workloads.h"
#include "univsa/common/thread_pool.h"
#include "univsa/report/provenance.h"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload batch-isolet|batch-isolet-b32"
               " --seed N --seconds S --trace 0|1 [--out DIR]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  config.process_start_ns = now_ns();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--out") {
      config.out_dir = value;
    } else {
      usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || config.seconds <= 0.0) usage(argv[0]);

  RunResult result;
  try {
    if (config.workload == "batch-isolet") {
      result = run_batch_isolet(config, 256);
    } else if (config.workload == "batch-isolet-b32") {
      result = run_batch_isolet(config, 32);
    } else {
      usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 config.workload.c_str(), e.what());
    return 1;
  }

  const bool correct = result.mismatched == 0;
  const std::string metrics = result.report.metrics_json();
  const std::string provenance = univsa::report::provenance_json_fields();
  std::fprintf(stderr, "provenance:\n%s  \"nproc\": %u\n", provenance.c_str(),
               std::thread::hardware_concurrency());
  if (!config.out_dir.empty()) {
    const std::string stem = config.out_dir + "/" + config.workload +
                             "-seed" + std::to_string(config.seed) +
                             (config.trace ? "-trace1" : "-trace0");
    std::ofstream record(stem + ".json");
    record << "{\n  \"workload\": \"" << config.workload << "\",\n"
           << "  \"seed\": " << config.seed << ",\n"
           << "  \"seconds\": " << config.seconds << ",\n"
           << "  \"trace\": " << (config.trace ? 1 : 0) << ",\n"
           << provenance << "  \"nproc\": "
           << std::thread::hardware_concurrency() << ",\n"
           << "  \"attempted\": " << result.attempted << ",\n"
           << "  \"failed\": " << result.failed << ",\n"
           << "  \"mismatched\": " << result.mismatched << ",\n"
           << "  \"metrics\": " << metrics << ",\n"
           << "  \"detail\": " << result.detail_json << "\n}\n";
    if (result.spans.enabled()) {
      result.spans.write_json(stem + ".spans.json", config.process_start_ns);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed +
                                              result.mismatched),
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
