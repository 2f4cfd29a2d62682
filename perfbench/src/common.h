// Shared pieces of the benchmark binary: the one statistics helper, the
// metric report, the benchmark's own in-memory span log, the parity
// oracle, and the seeded inputs every workload draws from.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "univsa/common/rng.h"
#include "univsa/data/benchmarks.h"
#include "univsa/vsa/infer_engine.h"
#include "univsa/vsa/model.h"

namespace perfbench {

using Samples = std::vector<std::vector<std::uint16_t>>;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Busy-waits (yielding) until `t_ns`, sleeping through long gaps.
void wait_until_ns(std::uint64_t t_ns);

// ---------------------------------------------------------------------
// Statistics: every timing in the benchmark goes through summarize().

/// A distribution reduced the one way the benchmark reports timings:
/// the median, the highest percentile that has at least ten samples
/// beyond it (`tail` at quantile `tail_q`), and the sample count.
struct Dist {
  std::size_t count = 0;
  double median = 0.0;
  double tail_q = 0.0;
  double tail = 0.0;
  std::vector<double> sorted;

  /// Nearest-rank quantile; 0 when empty.
  double quantile(double q) const;
  /// True when at least ten samples lie beyond quantile `q`.
  bool supports(double q) const {
    return static_cast<double>(count) * (1.0 - q) >= 10.0;
  }
  /// quantile(q) when supported, else the highest supported tail.
  double tail_at_most(double q) const {
    return supports(q) ? quantile(q) : tail;
  }
};

Dist summarize(std::vector<double> values);

// ---------------------------------------------------------------------
// Metric report.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }
  /// {"name": {"value": v, "unit": u}, ...} with every digit of v.
  std::string metrics_json() const;

 private:
  std::vector<Metric> metrics_;
};

/// Peak resident set (VmHWM, as getrusage reports it) of this process
/// in MiB.
double peak_rss_mb();


/// Engines over one model whose scratch arenas sit at different heap
/// offsets: each is built after a seeded odd-sized spacer allocation.
/// An engine's per-thread arenas hold small buffers that can share cache
/// lines across threads, so one engine's parallel speed depends on where
/// the allocator happened to put them. Measuring round-robin over
/// several engines averages that luck instead of letting it decide a
/// run.
struct SpreadEngines {
  SpreadEngines(const univsa::vsa::Model& model, std::uint64_t seed);

  std::vector<std::unique_ptr<char[]>> spacers;
  std::vector<std::unique_ptr<univsa::vsa::InferEngine>> engines;
};

// ---------------------------------------------------------------------
// The benchmark's own spans, kept in memory and written out at exit
// (Chrome trace-event JSON, loadable in Perfetto). Only the traced pass
// records; untraced passes never touch the log.

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;  ///< request id, or 0
};

class SpanLog {
 public:
  bool enabled() const { return enabled_; }
  void enable(std::size_t reserve) {
    enabled_ = true;
    spans_.reserve(reserve);
  }
  /// Single-threaded use only (the generator thread / the main thread).
  void add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
           std::uint64_t id = 0) {
    if (enabled_) spans_.push_back({name, start_ns, end_ns, id});
  }
  void append(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }
  /// Durations (ns) of every span named `name`.
  std::vector<double> durations(const char* name) const;
  bool write_json(const std::string& path, std::uint64_t origin_ns) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Inputs and the parity oracle.

/// `count` samples of uniform levels in [0, M) for `config`.
Samples make_samples(const univsa::vsa::ModelConfig& config,
                     std::size_t count, std::uint64_t seed);

/// A random model for `config`, reproducible from `seed`.
univsa::vsa::Model make_model(const univsa::vsa::ModelConfig& config,
                              std::uint64_t seed);

/// predict_reference over every sample, spread over the global pool.
std::vector<univsa::vsa::Prediction> reference_answers(
    const univsa::vsa::Model& model, const Samples& samples);

inline bool same_answer(const univsa::vsa::Prediction& expect,
                        const univsa::vsa::Prediction& got) {
  return expect.label == got.label && expect.scores == got.scores;
}

/// Counts of one measured phase: every attempted request is either
/// completed with a bit-identical answer or counted as failed.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};      ///< refused, errored, timed out
  std::atomic<std::uint64_t> mismatched{0};  ///< answered, but not bit-exact
};

}  // namespace perfbench
