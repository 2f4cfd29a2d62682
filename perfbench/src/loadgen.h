// The benchmark's load generator: a seeded open-loop Poisson schedule
// driven by a single thread into the in-process server through
// Server::try_submit_async, with latency measured from each request's
// scheduled send time (a stall delays later sends, and that wait is
// counted, not hidden), and every answer checked against its reference.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "univsa/runtime/model_registry.h"
#include "univsa/runtime/server.h"

namespace perfbench {

/// One scheduled request.
struct Arrival {
  std::uint64_t offset_ns = 0;  ///< due time, from the phase start
  std::uint32_t sample = 0;     ///< index into the tenant's sample pool
  std::uint8_t tenant = 0;
};

/// What a schedule draws per arrival besides its due time.
struct Mix {
  std::vector<double> tenant_weights;    ///< one per tenant
  std::vector<std::size_t> pool_sizes;   ///< one per tenant
};

/// Poisson arrivals at `rate` per second over `seconds`, reproducible
/// from `seed`.
std::vector<Arrival> poisson_schedule(double rate, double seconds,
                                      const Mix& mix, std::uint64_t seed);

/// Completion bookkeeping for one phase. The generator thread fills
/// `expect` before it sends request i; whichever thread delivers the
/// answer compares it against that entry and stamps the time.
class Board {
 public:
  explicit Board(std::size_t n) : expect(n, nullptr), done_(n) {}

  void answer(std::size_t i, const univsa::vsa::Prediction& got) {
    const univsa::vsa::Prediction* e = expect[i];
    const bool exact = e != nullptr && same_answer(*e, got);
    if (!exact) tally.mismatched.fetch_add(1, std::memory_order_relaxed);
    finish(i, exact);
  }
  void fail(std::size_t i) {
    tally.failed.fetch_add(1, std::memory_order_relaxed);
    finish(i, false);
  }
  /// Completion time of request i, or 0 while pending / when it failed.
  std::uint64_t done_ns(std::size_t i) const {
    return done_[i].load(std::memory_order_acquire);
  }
  std::uint64_t finished() const {
    return finished_.load(std::memory_order_acquire);
  }

  std::vector<const univsa::vsa::Prediction*> expect;
  Tally tally;

 private:
  void finish(std::size_t i, bool ok) {
    // Failures stamp 1 so "settled" stays distinguishable from pending.
    std::uint64_t expected = 0;
    if (done_[i].compare_exchange_strong(expected, ok ? now_ns() : 1,
                                         std::memory_order_acq_rel)) {
      finished_.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  std::vector<std::atomic<std::uint64_t>> done_;
  std::atomic<std::uint64_t> finished_{0};
};

// ---------------------------------------------------------------------
// Republishing one tenant from the generator thread itself, so the model
// version a request resolves is known exactly when it is sent.

class Publisher {
 public:
  /// Publishes `variants` of `tenant` in turn, one every `period_ns`
  /// while phases run; variants[0] is live at first.
  Publisher(univsa::runtime::ModelRegistry& registry, std::string tenant,
            std::vector<const univsa::vsa::Model*> variants,
            std::uint64_t period_ns)
      : registry_(registry), tenant_(std::move(tenant)),
        variants_(std::move(variants)), period_ns_(period_ns) {}

  /// Restarts the period from now (a phase starts).
  void restart() { next_ns_ = now_ns() + period_ns_; }
  /// Publishes when due.
  void tick();
  /// Index of the variant served now.
  std::size_t live() const { return live_; }
  /// Completion time of every publish so far.
  const std::vector<std::uint64_t>& times() const { return times_; }

 private:
  univsa::runtime::ModelRegistry& registry_;
  std::string tenant_;
  std::vector<const univsa::vsa::Model*> variants_;
  std::uint64_t period_ns_ = 0;
  std::uint64_t next_ns_ = 0;
  std::size_t live_ = 0;
  std::vector<std::uint64_t> times_;
};

/// One tenant as the generator sends to it.
struct TenantFeed {
  std::string name;
  const Samples* pool = nullptr;
  /// answers[v][i]: reference answer of variant v for sample i.
  std::vector<const std::vector<univsa::vsa::Prediction>*> answers;
  /// The Publisher's live variant picks `answers`; otherwise variant 0.
  bool published = false;
  univsa::runtime::Priority priority = univsa::runtime::Priority::kNormal;
  std::uint64_t deadline_us = 0;  ///< 0 = none
};

struct PhaseOptions {
  double seconds = 1.0;
  /// Stop sending once this many requests are unanswered: the rate is
  /// past capacity, and pushing on would only fill the server queue
  /// until it sheds (keep it below the default shed watermark of 768).
  std::uint64_t abort_outstanding = 640;
  SpanLog* spans = nullptr;  ///< traced pass only
};

/// One open-loop phase at one offered rate.
struct PhaseResult {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  bool aborted = false;         ///< stopped early on outstanding requests
  Dist latency_ms;              ///< due -> answer, completed requests
  /// p99 of each run of kWindow consecutive answered requests. Its
  /// median is the phase's tail figure: a host hiccup (a preempted vCPU
  /// on a shared machine) then spoils one window, not the verdict.
  Dist window_p99_ms;
  Dist lateness_us;             ///< due -> send start
  std::uint64_t start_ns = 0;   ///< phase origin (offset 0)
  /// Per request: due -> answer in ms, or -1 when it got no answer.
  std::vector<double> latency_each_ms;

  double achieved_ratio() const {
    return offered_rps <= 0.0 ? 0.0 : achieved_rps / offered_rps;
  }
  /// The generator sent on schedule and the system answered at the
  /// offered rate; only then is a latency from this phase reported.
  bool kept_up() const { return !aborted && achieved_ratio() >= 0.95; }

  static constexpr std::size_t kWindow = 1000;
};

/// Drives `schedule` into `server` from the calling thread, ticking
/// `publisher` (may be null) before every send, and checks each answer
/// against its tenant's reference for the variant live at send time.
PhaseResult run_phase(const std::vector<Arrival>& schedule,
                      univsa::runtime::Server& server,
                      const std::vector<TenantFeed>& feeds,
                      Publisher* publisher, Board& board,
                      const PhaseOptions& options);

}  // namespace perfbench
