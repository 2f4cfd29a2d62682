#include "loadgen.h"

#include <cmath>

namespace perfbench {

namespace {

/// One request's tenant and sample drawn from `mix`.
Arrival draw_request(univsa::Rng& rng, const Mix& mix) {
  double total_weight = 0.0;
  for (const double w : mix.tenant_weights) total_weight += w;
  double pick = rng.uniform() * total_weight;
  std::size_t tenant = 0;
  while (tenant + 1 < mix.tenant_weights.size() &&
         pick >= mix.tenant_weights[tenant]) {
    pick -= mix.tenant_weights[tenant];
    ++tenant;
  }
  Arrival a;
  a.tenant = static_cast<std::uint8_t>(tenant);
  a.sample =
      static_cast<std::uint32_t>(rng.uniform_index(mix.pool_sizes[tenant]));
  return a;
}

}  // namespace

std::vector<Arrival> poisson_schedule(double rate, double seconds,
                                      const Mix& mix, std::uint64_t seed) {
  univsa::Rng rng(seed);
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    // Exponential inter-arrival gap; 1 - u keeps log() finite.
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    const double offset_s = t;
    Arrival a = draw_request(rng, mix);
    a.offset_ns = static_cast<std::uint64_t>(offset_s * 1e9);
    out.push_back(a);
  }
  return out;
}

namespace {

/// Publishes whatever is due, then returns the reference answer `a`
/// must match: the one of the variant its tenant serves now.
const univsa::vsa::Prediction* due_answer(const std::vector<TenantFeed>& feeds,
                                          Publisher* publisher,
                                          const Arrival& a) {
  if (publisher != nullptr) publisher->tick();
  const TenantFeed& feed = feeds[a.tenant];
  const std::size_t variant = feed.published ? publisher->live() : 0;
  return &(*feed.answers[variant])[a.sample];
}

/// Submits `a` to its tenant; `done` gets the answer, or null when the
/// request was refused or failed.
template <typename Done>
void submit(univsa::runtime::Server& server, const TenantFeed& feed,
            const Arrival& a, const Done& done) {
  univsa::runtime::SubmitOptions options;
  options.tenant = feed.name;
  options.priority = feed.priority;
  options.deadline_us = feed.deadline_us;
  const auto status = server.try_submit_async(
      (*feed.pool)[a.sample], options,
      [done](univsa::vsa::Prediction&& p, std::exception_ptr error) {
        done(error == nullptr ? &p : nullptr);
      });
  if (status != univsa::runtime::SubmitStatus::kOk) done(nullptr);
}

}  // namespace

PhaseResult run_phase(const std::vector<Arrival>& schedule,
                      univsa::runtime::Server& server,
                      const std::vector<TenantFeed>& feeds,
                      Publisher* publisher, Board& board,
                      const PhaseOptions& options) {
  PhaseResult r;
  const std::size_t n = schedule.size();
  std::vector<std::uint64_t> sent(n, 0);
  if (publisher != nullptr) publisher->restart();

  const std::uint64_t start = now_ns() + 1'000'000;
  r.start_ns = start;
  std::uint64_t attempted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t due = start + schedule[i].offset_ns;
    wait_until_ns(due);
    if (attempted - board.finished() > options.abort_outstanding) {
      r.aborted = true;
      break;
    }
    const std::uint64_t t0 = now_ns();
    sent[i] = t0;
    ++attempted;
    board.tally.attempted.fetch_add(1, std::memory_order_relaxed);
    board.expect[i] = due_answer(feeds, publisher, schedule[i]);
    Board* b = &board;
    submit(server, feeds[schedule[i].tenant], schedule[i],
           [b, i](const univsa::vsa::Prediction* p) {
             if (p == nullptr) {
               b->fail(i);
             } else {
               b->answer(i, *p);
             }
           });
    if (options.spans != nullptr) {
      options.spans->add("loadgen.send", t0, now_ns(), i);
    }
  }
  const double duration_s =
      n == 0 ? options.seconds
             : static_cast<double>(schedule.back().offset_ns) * 1e-9;
  r.offered_rps = duration_s <= 0.0 ? 0.0 : static_cast<double>(n) /
                                                duration_s;

  // Wait up to 2 s for the answers still in flight.
  const std::uint64_t drain_until = now_ns() + 2'000'000'000;
  while (board.finished() < attempted && now_ns() < drain_until) {
    wait_until_ns(now_ns() + 200'000);
  }

  r.attempted = attempted;
  r.failed = board.tally.failed.load();
  r.mismatched = board.tally.mismatched.load();
  r.latency_each_ms.assign(n, -1.0);
  std::vector<double> latency, lateness;
  latency.reserve(attempted);
  lateness.reserve(attempted);
  for (std::size_t i = 0; i < attempted; ++i) {
    const std::uint64_t due = start + schedule[i].offset_ns;
    lateness.push_back(static_cast<double>(sent[i] - std::min(sent[i], due)) /
                       1e3);
    const std::uint64_t done = board.done_ns(i);
    if (done <= 1) {
      if (done == 0) ++r.failed;  // never answered: timed out
      continue;
    }
    const double ms = static_cast<double>(done - due) / 1e6;
    r.latency_each_ms[i] = ms;
    latency.push_back(ms);
    if (options.spans != nullptr) {
      options.spans->add("loadgen.request", due, done, i);
      options.spans->add("loadgen.lateness", due, sent[i], i);
    }
  }
  r.completed = latency.size();
  // Answers over the schedule's length: below the offered rate only when
  // requests were not sent (an aborted phase) or not answered.
  r.achieved_rps =
      duration_s <= 0.0 ? 0.0 : static_cast<double>(r.completed) / duration_s;
  std::vector<double> p99s, window;
  for (const double ms : r.latency_each_ms) {
    if (ms < 0.0) continue;
    window.push_back(ms);
    if (window.size() == PhaseResult::kWindow) {
      const Dist w = summarize(std::move(window));
      p99s.push_back(w.quantile(0.99));
      window.clear();
    }
  }
  r.window_p99_ms = summarize(std::move(p99s));
  r.latency_ms = summarize(std::move(latency));
  r.lateness_us = summarize(std::move(lateness));
  return r;
}

// ---------------------------------------------------------------------

void Publisher::tick() {
  if (now_ns() < next_ns_) return;
  live_ = (live_ + 1) % variants_.size();
  registry_.publish(tenant_, *variants_[live_]);
  times_.push_back(now_ns());
  next_ns_ += period_ns_;
}

}  // namespace perfbench
