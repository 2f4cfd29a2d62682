// The workloads and the per-layer probes they share.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;             ///< records and span dumps land here
  std::uint64_t process_start_ns = 0;
};

struct RunResult {
  Report report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  SpanLog spans;
  /// Free-form per-rate rows and ledger lines for the record file.
  std::string detail_json = "{}";
};

/// batch-isolet (`batch` 256) and batch-isolet-b32 (`batch` 32).
RunResult run_batch_isolet(const RunConfig& config, std::size_t batch);

/// Per-sample ns of each vsa stage, and of the whole predict_into.
struct StageSamples {
  std::vector<double> dvp, biconv, encode, similarity, predict;
};

/// Times the four `*_into` stages, then predict_into, on samples
/// [begin, end) with `scratch`, checking both answers into `tally`.
void time_stages(const univsa::vsa::Model& model, const Samples& pool,
                 const std::vector<univsa::vsa::Prediction>& answers,
                 std::size_t begin, std::size_t end,
                 univsa::vsa::InferScratch& scratch, StageSamples& out,
                 Tally& tally);

/// The per-layer ladder on ISOLET geometry (simd, vsa stages, engine,
/// registry, codec, unloaded in-process and wire round trips, router,
/// sampled-tracing cost). Every answer a probe gets is parity-checked
/// into `tally`. Runs in the traced pass of every workload; metrics the
/// workload itself measures under load are overwritten afterwards.
void run_layer_probes(const univsa::vsa::Model& isolet, const Samples& pool,
                      const std::vector<univsa::vsa::Prediction>& answers,
                      Report& out, Tally& tally);

}  // namespace perfbench
