// The workloads. Each builds its inputs from the seed, computes the
// parity oracle (not counted in setup), sets up several times to time
// setup_s, measures, and checks every answer it gets.
//
//   batch-isolet      InferEngine::predict_batch at batch 256 over a
//                     pool of 4096 ISOLET samples at pool width: simd,
//                     the vsa stages and engine dispatch, with no queue
//                     and no wire.
//   batch-isolet-b32  the same samples in batches of 32, the server's
//                     max_batch: eight times the dispatches per sample.
//
// The traced pass of either adds the layer probes and the zoo serving
// phase: runtime::Server over a ModelRegistry with four tenants, driven
// open loop through try_submit_async with the zoo drill's per-tenant
// priorities and quota, one tenant republished on a fixed period.
#include "workloads.h"

#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "loadgen.h"
#include "univsa/runtime/model_registry.h"
#include "univsa/runtime/server.h"
#include "univsa/vsa/infer_engine.h"

namespace perfbench {

namespace {

using univsa::runtime::ModelRegistry;
using univsa::runtime::Server;
using univsa::runtime::ServerOptions;
using univsa::runtime::ServerStats;
using univsa::vsa::InferEngine;
using univsa::vsa::InferScratch;
using univsa::vsa::Model;
using univsa::vsa::ModelConfig;
using univsa::vsa::Prediction;

/// Set-ups timed in one run after the first; setup_s is their median.
/// The first one, which also carries process start-up, is kept out of
/// the figure and only recorded.
constexpr std::size_t kSetupReps = 31;
constexpr double kWarmUpSeconds = 0.3;
constexpr std::size_t kBatchPool = 4096;
constexpr std::size_t kServePool = 1024;
/// The serving phase's fixed rate, well under saturation (the zoo server
/// sustains about 25-35k requests/s on a 4-core host).
constexpr double kZooRefRps = 3000.0;
/// Republish period of the swapped tenant, and the window after each
/// publish whose requests count towards swap.post_publish_p99_ms.
constexpr std::uint64_t kSwapPeriodNs = 100'000'000;
constexpr std::uint64_t kPostPublishWindowNs = 20'000'000;
/// Deadline carried by the kHigh tenant's requests: the one the repo's
/// overload drill gives kHigh (bench_stream_saturation). kHigh is
/// dequeued first, so below saturation it does not fire; a rejection
/// counts as a failed request.
constexpr std::uint64_t kHighDeadlineUs = 250'000;
/// How long a serving phase is re-tried while the host stalls it.
constexpr std::uint64_t kRetryBudgetNs = 60'000'000'000;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + tag * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void count(Tally& total, std::uint64_t attempted, std::uint64_t failed,
           std::uint64_t mismatched) {
  total.attempted += attempted;
  total.failed += failed;
  total.mismatched += mismatched;
}

void count_batch(Tally& total, const std::vector<Prediction>& got,
                 const std::vector<Prediction>& answers, std::size_t first) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!same_answer(answers[first + i], got[i])) ++bad;
  }
  count(total, got.size(), 0, bad);
}

std::vector<Samples> split(const Samples& pool, std::size_t batch) {
  std::vector<Samples> out;
  for (std::size_t i = 0; i + batch <= pool.size(); i += batch) {
    out.emplace_back(pool.begin() + static_cast<std::ptrdiff_t>(i),
                     pool.begin() + static_cast<std::ptrdiff_t>(i + batch));
  }
  return out;
}

/// Keeps every core busy on `model` for `seconds` before measuring, so
/// clock ramp-up and first-touch page faults land outside the figures.
void warm_up(const Model& model, const Samples& pool, double seconds) {
  InferEngine engine(model);
  std::vector<Prediction> out;
  const Samples batch(pool.begin(), pool.begin() + 256);
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 <
         std::chrono::duration<double>(seconds)) {
    engine.predict_batch(batch, out, true);
  }
}

/// Seconds from `t0` to now.
double since_s(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

std::string fmt(double v, int precision = 3) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

/// Quantile of the events recorded between two snapshots of one
/// histogram (resolved to bucket upper bounds, like percentile()).
double delta_quantile(const univsa::telemetry::HistogramSnapshot& before,
                      const univsa::telemetry::HistogramSnapshot& after,
                      double q) {
  std::map<std::uint64_t, std::int64_t> counts;
  for (const auto& b : after.buckets) {
    counts[b.upper] += static_cast<std::int64_t>(b.count);
  }
  for (const auto& b : before.buckets) {
    counts[b.upper] -= static_cast<std::int64_t>(b.count);
  }
  std::int64_t total = 0;
  for (const auto& [upper, n] : counts) total += n;
  if (total <= 0) return 0.0;
  const auto target = static_cast<std::int64_t>(
      std::ceil(q * static_cast<double>(total)));
  std::int64_t seen = 0;
  for (const auto& [upper, n] : counts) {
    seen += n;
    if (seen >= std::max<std::int64_t>(1, target)) {
      return static_cast<double>(upper);
    }
  }
  return static_cast<double>(counts.rbegin()->first);
}

struct LedgerRow {
  std::string layer;
  double us = 0.0;
};

/// Prints the ledger of `total_us` with its explicit unaccounted row;
/// returns the unaccounted share in percent.
double print_ledger(const std::string& title, double total_us,
                    const std::vector<LedgerRow>& rows, std::string& json) {
  double covered = 0.0;
  std::fprintf(stderr, "ledger: %s = %.2f us\n", title.c_str(), total_us);
  json = "[";
  for (const LedgerRow& row : rows) {
    covered += row.us;
    std::fprintf(stderr, "  %-28s %10.2f us %6.1f%%\n", row.layer.c_str(),
                 row.us, 100.0 * row.us / total_us);
    json += "{\"layer\": \"" + row.layer + "\", \"us\": " + fmt(row.us) +
            "}, ";
  }
  const double rest = total_us - covered;
  std::fprintf(stderr, "  %-28s %10.2f us %6.1f%%\n", "unaccounted", rest,
               100.0 * rest / total_us);
  json += "{\"layer\": \"unaccounted\", \"us\": " + fmt(rest) + "}]";
  return 100.0 * rest / total_us;
}

// ---------------------------------------------------------------------
// Serving: open-loop phases at one rate, with a table row each.

struct Serving {
  Serving(Server& s, const std::vector<TenantFeed>& f, Publisher* p, Mix m,
          Tally& tally)
      : server(s), feeds(f), publisher(p), mix(std::move(m)), total(tally) {}

  Server& server;
  const std::vector<TenantFeed>& feeds;
  Publisher* publisher = nullptr;
  Mix mix;
  Tally& total;
  std::vector<std::unique_ptr<Board>> boards;  // with answers outstanding
  std::string rows_json;
  std::vector<Arrival> last_schedule;  ///< of the latest phase

  /// One phase, with its row in the table.
  PhaseResult run(double rate, double seconds, std::uint64_t seed,
                  SpanLog* spans, const char* label) {
    std::vector<Arrival> schedule = poisson_schedule(rate, seconds, mix, seed);
    boards.push_back(std::make_unique<Board>(schedule.size()));
    PhaseOptions options;
    options.seconds = seconds;
    options.spans = spans;
    // 100 ms of offered work: a host stall shorter than that does not
    // end the phase, and kHigh's deadline (kHighDeadlineUs) is not at
    // risk.
    options.abort_outstanding = static_cast<std::uint64_t>(
        std::clamp(rate * 0.1, 128.0, 640.0));
    PhaseResult r = run_phase(schedule, server, feeds, publisher,
                              *boards.back(), options);
    last_schedule = std::move(schedule);
    // A fully answered board has no callback left to touch it.
    if (boards.back()->finished() == r.attempted) boards.pop_back();
    count(total, r.attempted, r.failed, r.mismatched);
    report_rate(r, label);
    return r;
  }

  /// Runs the phase until the generator keeps up, so that no latency is
  /// ever taken from a phase where it fell behind (the host stalled the
  /// server for more than 100 ms of offered work). A phase that fell
  /// behind is re-run after a growing pause; after kRetryBudgetNs of
  /// tries the run fails without a figure. `traced` gets the spans of
  /// the phase that kept up and `before` / `after` the server's stats
  /// around it.
  PhaseResult run_kept_up(double rate, double seconds, std::uint64_t seed,
                          const char* label, SpanLog* traced,
                          ServerStats* before, ServerStats* after) {
    const std::uint64_t give_up = now_ns() + kRetryBudgetNs;
    for (std::uint64_t attempt = 1;; ++attempt) {
      SpanLog spans;
      if (traced != nullptr) spans.enable(1 << 16);
      if (before != nullptr) *before = server.stats();
      PhaseResult r = run(rate, seconds, seed + attempt,
                          traced != nullptr ? &spans : nullptr, label);
      if (after != nullptr) *after = server.stats();
      if (r.kept_up()) {
        if (traced != nullptr) traced->append(spans);
        return r;
      }
      if (now_ns() > give_up) {
        throw std::runtime_error(std::string("the generator fell behind in "
                                             "every try of the ") +
                                 label + " phase");
      }
      wait_until_ns(now_ns() + 250'000'000 * attempt);
    }
  }

  /// One row per phase: generator validity first, and the latency only
  /// when the generator kept up.
  void report_rate(const PhaseResult& r, const char* label) {
    const bool valid = r.kept_up();
    std::fprintf(stderr,
                 "  %-9s offered %9.0f/s achieved %5.3f lateness p99 %8.1f us"
                 "  p50 %s ms p99 %s ms  errors %llu\n",
                 label, r.offered_rps, r.achieved_ratio(),
                 r.lateness_us.tail_at_most(0.99),
                 valid ? fmt(r.latency_ms.median).c_str() : "  -  ",
                 valid ? fmt(r.window_p99_ms.median).c_str() : "  -  ",
                 static_cast<unsigned long long>(r.failed + r.mismatched));
    rows_json += std::string(rows_json.empty() ? "" : ", ") +
                 "{\"phase\": \"" + label + "\", \"offered_rps\": " +
                 fmt(r.offered_rps, 1) + ", \"achieved_ratio\": " +
                 fmt(r.achieved_ratio(), 4) + ", \"lateness_p99_us\": " +
                 fmt(r.lateness_us.tail_at_most(0.99), 2) +
                 ", \"count\": " + std::to_string(r.latency_ms.count) +
                 (valid ? ", \"p50_ms\": " + fmt(r.latency_ms.median, 4) +
                              ", \"p99_ms\": " +
                              fmt(r.window_p99_ms.median, 4) +
                              ", \"p99_windows\": " +
                              std::to_string(r.window_p99_ms.count)
                        : std::string()) +
                 "}";
  }
};

/// Per-layer figures of one traced reference phase on a server.
void server_layers(const ServerStats& before, const ServerStats& after,
                   Report& report) {
  const double completed =
      static_cast<double>(after.completed - before.completed);
  const double batches = static_cast<double>(after.batches - before.batches);
  report.add("server.queue_wait_p50_us",
             delta_quantile(before.queue_wait_ns, after.queue_wait_ns, 0.5) /
                 1e3,
             "us");
  report.add("server.queue_wait_p99_us",
             delta_quantile(before.queue_wait_ns, after.queue_wait_ns, 0.99) /
                 1e3,
             "us");
  report.add("server.service_ns_per_sample",
             completed <= 0.0
                 ? 0.0
                 : (after.service_ns.sum - before.service_ns.sum) / completed,
             "ns");
  report.add("server.mean_batch", batches <= 0.0 ? 0.0 : completed / batches,
             "count");
  report.add("server.shed", static_cast<double>(after.shed - before.shed),
             "count");
  report.add("server.deadline_rejected",
             static_cast<double>(after.deadline_rejected -
                                 before.deadline_rejected),
             "count");
}

void finish(RunResult& result, const Tally& total) {
  result.attempted = total.attempted.load();
  result.failed = total.failed.load();
  result.mismatched = total.mismatched.load();
}

double error_rate(const Tally& total) {
  const double attempted = static_cast<double>(total.attempted.load());
  return attempted <= 0.0
             ? 0.0
             : static_cast<double>(total.failed.load() +
                                   total.mismatched.load()) /
                   attempted;
}

}  // namespace

// ---------------------------------------------------------------------
// The zoo serving phase of the traced pass.

namespace {

/// The zoo drill's traffic (bench/bench_model_zoo.cpp, mixed-traffic
/// phase), with ISOLET as a fourth tenant: one request per tenant in
/// turn, so equal shares; zoo/anomaly submitted as kHigh under a kHigh
/// policy, zoo/gesture capped to kLow with a queue quota of 256 (so it is
/// the sheddable tenant), the rest kNormal. zoo/kws is the tenant the
/// drill hot-swaps.
struct ZooTenant {
  std::string name;
  ModelConfig geometry;
  univsa::runtime::Priority priority = univsa::runtime::Priority::kNormal;
  std::uint64_t deadline_us = 0;
};

std::vector<ZooTenant> zoo_tenants() {
  using univsa::runtime::Priority;
  std::vector<ZooTenant> tenants = {
      {"isolet", univsa::data::find_benchmark("ISOLET").config}};
  for (const auto& b : univsa::data::zoo_benchmarks()) {
    std::string name = b.spec.name;
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    tenants.push_back({"zoo/" + name, b.config});
  }
  for (ZooTenant& t : tenants) {
    if (t.name == "zoo/anomaly") {
      t.priority = Priority::kHigh;
      t.deadline_us = kHighDeadlineUs;
    }
  }
  return tenants;
}

ServerOptions zoo_server_options() {
  using univsa::runtime::Priority;
  ServerOptions options;  // as shipped, trace_sample_every = 64
  options.default_tenant = "isolet";
  options.tenant_policies["zoo/anomaly"] = {Priority::kHigh, 0};
  options.tenant_policies["zoo/gesture"] = {Priority::kLow, 256};
  return options;
}

/// The runtime under open-loop load: an in-process Server over a
/// ModelRegistry with the four zoo tenants, zoo/kws republished every
/// 100 ms alternating two variants, driven at the reference rate once
/// untraced and once with the benchmark's spans kept. Reports the
/// server, swap, generator and serving-ledger metrics.
void zoo_serving_layers(const RunConfig& config, RunResult& result,
                        Tally& total) {
  const std::vector<ZooTenant> tenants = zoo_tenants();
  const std::size_t swap = 1;  // zoo/kws alternates two variants
  const std::size_t n = tenants.size();
  const auto model_seed = [&](std::size_t t, std::size_t variant) {
    return mix_seed(config.seed, 10 + 2 * t + variant);
  };
  // Every tenant's pool and its answers under the first variant, and
  // the swapped tenant's answers under its second one too.
  std::vector<Samples> pools;
  std::vector<Model> models;
  std::vector<std::vector<Prediction>> answers;
  for (std::size_t t = 0; t < n; ++t) {
    pools.push_back(make_samples(tenants[t].geometry, kServePool,
                                 mix_seed(config.seed, 100 + t)));
    models.push_back(make_model(tenants[t].geometry, model_seed(t, 0)));
    answers.push_back(reference_answers(models[t], pools[t]));
  }
  models.push_back(make_model(tenants[swap].geometry, model_seed(swap, 1)));
  answers.push_back(reference_answers(models[n], pools[swap]));

  auto registry = std::make_shared<ModelRegistry>();
  for (std::size_t t = 0; t < n; ++t) {
    registry->publish(tenants[t].name, models[t]);
  }
  Server server(registry, zoo_server_options());
  std::vector<TenantFeed> feeds(n);
  Mix mix;
  for (std::size_t t = 0; t < n; ++t) {
    feeds[t].name = tenants[t].name;
    feeds[t].pool = &pools[t];
    feeds[t].answers = {&answers[t]};
    feeds[t].priority = tenants[t].priority;
    feeds[t].deadline_us = tenants[t].deadline_us;
    mix.tenant_weights.push_back(1.0);
    mix.pool_sizes.push_back(pools[t].size());
  }
  Publisher publisher(*registry, tenants[swap].name,
                      {&models[swap], &models[n]}, kSwapPeriodNs);
  feeds[swap].published = true;
  feeds[swap].answers.push_back(&answers[n]);
  Serving serving(server, feeds, &publisher, mix, total);

  std::fprintf(stderr, "zoo serving: %zu tenants at %.0f/s, %s republished "
               "every %llu ms\n", n, kZooRefRps, tenants[swap].name.c_str(),
               static_cast<unsigned long long>(kSwapPeriodNs / 1'000'000));
  const double seconds = 0.15 * config.seconds;
  const std::uint64_t seed = mix_seed(config.seed, 999);
  PhaseResult plain, traced;
  ServerStats before, after;
  try {
    plain = serving.run_kept_up(kZooRefRps, seconds, seed, "ref", nullptr,
                                nullptr, nullptr);
    wait_until_ns(now_ns() + 20'000'000);
    traced = serving.run_kept_up(kZooRefRps, seconds, seed + 100, "traced",
                                 &result.spans, &before, &after);
  } catch (...) {
    // Answers still in flight write to the serving boards: let them land
    // before the boards go.
    server.shutdown();
    throw;
  }
  server.shutdown();
  const std::vector<Arrival>& schedule = serving.last_schedule;

  Report& report = result.report;
  report.add("serve.p50_ms", plain.latency_ms.median, "ms");
  report.add("serve.p99_ms", plain.window_p99_ms.median, "ms");
  server_layers(before, after, report);
  const Dist submit = summarize(result.spans.durations("loadgen.send"));
  report.add("server.submit_ns", submit.median, "ns");
  // The swapped tenant's requests due within kPostPublishWindowNs after
  // a publish.
  std::vector<double> post_publish;
  const auto& pubs = publisher.times();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (schedule[i].tenant != swap || traced.latency_each_ms[i] < 0.0) {
      continue;
    }
    const std::uint64_t due = traced.start_ns + schedule[i].offset_ns;
    const auto it = std::upper_bound(pubs.begin(), pubs.end(), due);
    if (it != pubs.begin() && due - *std::prev(it) <= kPostPublishWindowNs) {
      post_publish.push_back(traced.latency_each_ms[i]);
    }
  }
  report.add("swap.post_publish_p99_ms",
             summarize(std::move(post_publish)).tail_at_most(0.99), "ms");
  report.add("loadgen.lateness_p99_us", traced.lateness_us.tail_at_most(0.99),
             "us");
  report.add("loadgen.achieved_ratio", traced.achieved_ratio(), "x");
  std::string ledger;
  report.add(
      "ledger.unaccounted_pct",
      print_ledger(
          "median serving latency at " + fmt(kZooRefRps, 0) + "/s",
          traced.latency_ms.median * 1e3,
          {{"loadgen lateness", traced.lateness_us.median},
           {"server.submit", submit.median / 1e3},
           {"server queue wait",
            delta_quantile(before.queue_wait_ns, after.queue_wait_ns, 0.5) /
                1e3},
           {"server service",
            delta_quantile(before.service_ns, after.service_ns, 0.5) / 1e3}},
          ledger),
      "%");
  result.detail_json = "{\"serving_ledger\": " + ledger +
                       ", \"serving_rates\": [" + serving.rows_json +
                       "], \"publishes\": " + std::to_string(pubs.size());
}

}  // namespace

// ---------------------------------------------------------------------

RunResult run_batch_isolet(const RunConfig& config, std::size_t batch) {
  RunResult result;
  Tally total;
  const std::uint64_t inputs_start = now_ns();
  const ModelConfig& geometry = univsa::data::find_benchmark("ISOLET").config;
  const std::uint64_t model_seed = mix_seed(config.seed, 1);
  const Samples pool =
      make_samples(geometry, kBatchPool, mix_seed(config.seed, 2));
  const std::vector<Samples> batches = split(pool, batch);
  const std::vector<Prediction> answers =
      reference_answers(make_model(geometry, model_seed), pool);

  // One set-up: model build and engine construction to the first
  // checked answer.
  std::vector<Prediction> out;
  const Samples first(pool.begin(), pool.begin() + 1);
  const auto set_up = [&](std::unique_ptr<Model>& m,
                          std::unique_ptr<InferEngine>& e) {
    e.reset();
    m = std::make_unique<Model>(make_model(geometry, model_seed));
    e = std::make_unique<InferEngine>(*m);
    e->predict_batch(first, out, true);
    if (!same_answer(answers[0], out[0])) {
      throw std::runtime_error("setup answer differs from the reference");
    }
    count_batch(total, out, answers, 0);
  };
  // The first set-up, timed from process start minus making the inputs
  // and the oracle, builds the model the run measures. It carries
  // start-up and first-touch costs that vary between runs, so it is only
  // recorded (first_setup_s); setup_s is the median of kSetupReps more,
  // spread over the measurement (below).
  const std::uint64_t first_t0 =
      config.process_start_ns + (now_ns() - inputs_start);
  std::unique_ptr<Model> model;
  std::unique_ptr<InferEngine> engine;
  set_up(model, engine);
  const double first_setup_s = since_s(first_t0);
  warm_up(*model, pool, kWarmUpSeconds);
  const SpreadEngines spread(*model, mix_seed(config.seed, 5));
  const auto& engines = spread.engines;

  // Passes over the whole pool, round-robin over the engines; every
  // figure but the tail is a mean over engines of one engine's figure.
  //   sps         `batch` over the engine's first-decile call time: its
  //               speed when the host does not interfere. On a shared VM
  //               the hypervisor takes vCPUs away in bursts lasting
  //               minutes, and a batch split over the pool waits for its
  //               slowest thread, so the median call slowed 2-5x between
  //               runs, and in the worst bursts the first quartile 2x,
  //               while the fastest tenth of calls held.
  //   median_sps  the engine's median pass throughput, as a user sees it
  //               on the host as it is.
  //   p50_ms      the engine's median call time.
  struct Measured {
    double sps = 0.0;
    double median_sps = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;  ///< median over 1000-call windows
    std::size_t p99_windows = 0;
    std::size_t calls = 0;
  };
  //
  // With `setups`, one more set-up is timed between passes every
  // budget_s / kSetupReps: on this kind of host one set-up takes 1.0 or
  // 1.4 ms depending on host state that changes within a run, and
  // back-to-back set-ups would sample a single moment of it.
  const auto measure = [&](double budget_s, SpanLog* spans,
                           std::vector<double>* setups) {
    const auto timed_set_up = [&] {
      std::unique_ptr<Model> m;
      std::unique_ptr<InferEngine> e;
      const std::uint64_t t0 = now_ns();
      set_up(m, e);
      setups->push_back(since_s(t0));
    };
    const std::size_t n = engines.size();
    std::vector<std::vector<double>> sps(n), call_ms(n);
    std::vector<double> all_calls;
    const std::uint64_t start = now_ns();
    for (std::size_t pass = 0; pass < n || since_s(start) < budget_s;
         ++pass) {
      const std::size_t e = pass % n;
      std::uint64_t busy = 0;
      for (std::size_t b = 0; b < batches.size(); ++b) {
        const std::uint64_t t0 = now_ns();
        engines[e]->predict_batch(batches[b], out, true);
        const std::uint64_t t1 = now_ns();
        busy += t1 - t0;
        call_ms[e].push_back(static_cast<double>(t1 - t0) / 1e6);
        all_calls.push_back(call_ms[e].back());
        if (spans != nullptr) spans->add("engine.predict_batch", t0, t1, e);
        count_batch(total, out, answers, b * batch);
      }
      sps[e].push_back(static_cast<double>(kBatchPool) * 1e9 /
                       static_cast<double>(busy));
      if (setups != nullptr && setups->size() < kSetupReps &&
          since_s(start) >= budget_s * static_cast<double>(setups->size()) /
                                static_cast<double>(kSetupReps)) {
        timed_set_up();
      }
    }
    while (setups != nullptr && setups->size() < kSetupReps) timed_set_up();
    Measured m;
    const double share = 1.0 / static_cast<double>(n);
    for (std::size_t e = 0; e < n; ++e) {
      const Dist calls = summarize(call_ms[e]);
      m.sps += share * static_cast<double>(batch) * 1e3 / calls.quantile(0.1);
      m.median_sps += share * summarize(sps[e]).median;
      m.p50_ms += share * calls.median;
    }
    // The tail: the median over windows of 1000 consecutive calls of each
    // window's p99, so a host hiccup spoils a window rather than the
    // figure.
    std::vector<double> window_p99;
    for (std::size_t i = 0; i + 1000 <= all_calls.size(); i += 1000) {
      window_p99.push_back(
          summarize(std::vector<double>(all_calls.begin() + i,
                                        all_calls.begin() + i + 1000))
              .quantile(0.99));
    }
    const Dist calls = summarize(std::move(all_calls));
    m.p99_ms = window_p99.empty() ? calls.tail_at_most(0.99)
                                  : summarize(window_p99).median;
    m.p99_windows = window_p99.size();
    m.calls = calls.count;
    return m;
  };

  Report& report = result.report;
  if (!config.trace) {
    std::vector<double> setups;
    const Measured m = measure(0.85 * config.seconds, nullptr, &setups);
    const Dist setup = summarize(std::move(setups));
    report.add("setup_s", setup.median, "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("sps", m.sps, "1/s");
    result.detail_json = "{\"calls\": " + std::to_string(m.calls) +
                         ", \"median_sps\": " + fmt(m.median_sps, 1) +
                         ", \"p50_ms\": " + fmt(m.p50_ms, 4) +
                         ", \"p99_ms\": " + fmt(m.p99_ms, 4) +
                         ", \"p99_windows\": " +
                         std::to_string(m.p99_windows) +
                         ", \"first_setup_s\": " + fmt(first_setup_s, 6) +
                         ", \"setup_s_p10_p90\": [" +
                         fmt(setup.quantile(0.1), 6) + ", " +
                         fmt(setup.quantile(0.9), 6) + "]}";
  } else {
    run_layer_probes(*model, pool, answers, report, total);
    const Measured plain = measure(0.25 * config.seconds, nullptr, nullptr);
    report.add("batch.median_sps", plain.median_sps, "1/s");
    report.add("batch.p50_ms", plain.p50_ms, "ms");
    report.add("batch.p99_ms", plain.p99_ms, "ms");
    result.spans.enable(1 << 20);
    const double traced =
        measure(0.25 * config.seconds, &result.spans, nullptr).sps;
    report.add("bench.trace_overhead_pct",
               100.0 * (plain.sps - traced) / plain.sps, "%");
    // Ledger of one single-thread batch-256 call against the four stages
    // timed per sample on the same 256 samples right after it, so both
    // sides see the same host conditions.
    const std::vector<Samples> ledger_batches = split(pool, 256);
    InferScratch scratch(model->config());
    StageSamples st;
    std::vector<double> call_us;
    for (std::size_t r = 0; r < 2 * ledger_batches.size(); ++r) {
      const std::size_t b = r % ledger_batches.size();
      const std::uint64_t t0 = now_ns();
      engines[r % engines.size()]->predict_batch(ledger_batches[b], out,
                                                 false);
      const std::uint64_t t1 = now_ns();
      result.spans.add("engine.predict_batch_1t", t0, t1, b);
      call_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      count_batch(total, out, answers, b * 256);
      time_stages(*model, pool, answers, b * 256, (b + 1) * 256, scratch, st,
                  total);
    }
    const std::vector<LedgerRow> rows = {
        {"vsa dvp x256", summarize(st.dvp).median * 256.0 / 1e3},
        {"vsa biconv x256", summarize(st.biconv).median * 256.0 / 1e3},
        {"vsa encode x256", summarize(st.encode).median * 256.0 / 1e3},
        {"vsa similarity x256", summarize(st.similarity).median * 256.0 / 1e3}};
    std::string ledger;
    report.add("ledger.batch_unaccounted_pct",
               print_ledger("median single-thread batch-256 call",
                            summarize(call_us).median, rows, ledger),
               "%");
    zoo_serving_layers(config, result, total);
    result.detail_json += ", \"batch_ledger\": " + ledger + "}";
    report.add("error_rate", error_rate(total), "ratio");
  }
  finish(result, total);
  return result;
}

}  // namespace perfbench
