// Per-layer probes: each one times calls into a single layer's public
// API on ISOLET geometry and reports a median (through summarize()).
// Nothing here reaches inside src/; the layer boundaries are the calls.
#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>

#include "workloads.h"
#include "univsa/common/simd.h"
#include "univsa/net/net_client.h"
#include "univsa/net/net_server.h"
#include "univsa/net/router.h"
#include "univsa/runtime/model_registry.h"
#include "univsa/runtime/server.h"
#include "univsa/vsa/infer_engine.h"

namespace perfbench {

namespace {

using univsa::vsa::InferEngine;
using univsa::vsa::InferScratch;
using univsa::vsa::Model;
using univsa::vsa::Prediction;

volatile std::uint64_t g_sink = 0;

/// Per-call ns of `fn`, timed over `blocks` blocks of `reps` calls.
template <typename F>
Dist per_call_ns(std::size_t blocks, std::size_t reps, F&& fn) {
  std::vector<double> per_call;
  per_call.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t r = 0; r < reps; ++r) fn();
    per_call.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(reps));
  }
  return summarize(std::move(per_call));
}

void check(bool exact, Tally& tally) {
  tally.attempted.fetch_add(1, std::memory_order_relaxed);
  if (!exact) tally.mismatched.fetch_add(1, std::memory_order_relaxed);
}

void probe_simd(const Model& model, const Samples& pool, Report& out) {
  const univsa::simd::Kernels& k = univsa::simd::active();
  InferScratch s(model.config());
  model.predict_into(pool[0], s);  // packs the kernel/validity tables
  // The BiConv sweep at ISOLET patch shape: one patch of words_per_patch
  // words against all O kernels, at an interior position's validity.
  const std::size_t words = s.words_per_patch;
  const std::size_t o = model.config().O;
  const std::size_t position = model.config().features() / 2;
  const std::uint64_t* valid = s.valid_words.data() + position * words;
  const Dist sweep = per_call_ns(41, 4000, [&] {
    k.masked_xnor_popcount_sweep(s.patch_words.data(), valid,
                                 s.kernel_words.data(), words, o,
                                 s.kernel_acc.data());
    g_sink = g_sink + s.kernel_acc[0];
  });
  out.add("simd.sweep_ns", sweep.median, "ns");

  // The similarity stage's Θ·C class dots over the sample vector.
  const auto sample = s.sample.words();
  const auto& classes = model.class_vectors();
  const Dist dots = per_call_ns(41, 400, [&] {
    std::uint64_t acc = 0;
    for (const auto& c : classes) {
      acc += k.xnor_popcount(sample.data(), c.words().data(), sample.size());
    }
    g_sink = g_sink + acc;
  });
  out.add("simd.class_sweep_ns", dots.median, "ns");
}

}  // namespace

void time_stages(const Model& model, const Samples& pool,
                 const std::vector<Prediction>& answers, std::size_t begin,
                 std::size_t end, InferScratch& s, StageSamples& out,
                 Tally& tally) {
  for (std::size_t i = begin; i < end; ++i) {
    const auto& values = pool[i];
    const std::uint64_t t0 = now_ns();
    model.project_values_into(values, s.volume);
    const std::uint64_t t1 = now_ns();
    model.convolve_into(s.volume, s);
    const std::uint64_t t2 = now_ns();
    model.encode_into(s);
    const std::uint64_t t3 = now_ns();
    model.similarity_into(s.sample, s.prediction);
    const std::uint64_t t4 = now_ns();
    check(same_answer(answers[i], s.prediction), tally);
    model.predict_into(values, s);
    const std::uint64_t t5 = now_ns();
    check(same_answer(answers[i], s.prediction), tally);
    out.dvp.push_back(static_cast<double>(t1 - t0));
    out.biconv.push_back(static_cast<double>(t2 - t1));
    out.encode.push_back(static_cast<double>(t3 - t2));
    out.similarity.push_back(static_cast<double>(t4 - t3));
    out.predict.push_back(static_cast<double>(t5 - t4));
  }
}

namespace {

void probe_vsa(const Model& model, const Samples& pool,
               const std::vector<Prediction>& answers, Report& out,
               Tally& tally) {
  // Scratches at spread heap offsets, used in turn: a stage's speed
  // depends on where its buffers landed, so one placement must not
  // decide the figures (see SpreadEngines).
  std::vector<std::unique_ptr<char[]>> spacers;
  std::vector<std::unique_ptr<InferScratch>> scratches;
  univsa::Rng rng(0x5c7a7c);
  for (int k = 0; k < 16; ++k) {
    spacers.emplace_back(new char[16 + 16 * rng.uniform_index(32)]);
    scratches.push_back(std::make_unique<InferScratch>(model.config()));
    for (std::size_t i = 0; i < 16; ++i) {
      model.predict_into(pool[i], *scratches.back());
    }
  }
  const std::size_t n = std::min<std::size_t>(pool.size(), 3000);
  StageSamples st;
  for (std::size_t i = 0; i < n; i += 16) {
    time_stages(model, pool, answers, i, std::min(n, i + 16),
                *scratches[(i / 16) % scratches.size()], st, tally);
  }
  const double d = summarize(st.dvp).median,
               b = summarize(st.biconv).median,
               e = summarize(st.encode).median,
               sim = summarize(st.similarity).median,
               p = summarize(st.predict).median;
  out.add("vsa.dvp_ns", d, "ns");
  out.add("vsa.biconv_ns", b, "ns");
  out.add("vsa.encode_ns", e, "ns");
  out.add("vsa.similarity_ns", sim, "ns");
  out.add("vsa.predict_ns", p, "ns");
  out.add("vsa.unaccounted_ns", p - (d + b + e + sim), "ns");

  std::vector<double> cold;
  for (std::size_t i = 0; i < 300; ++i) {
    InferScratch fresh(model.config());
    const std::uint64_t t0 = now_ns();
    model.predict_into(pool[i], fresh);
    cold.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    check(same_answer(answers[i], fresh.prediction), tally);
  }
  out.add("vsa.cold_predict_us", summarize(cold).median, "us");

  const InferScratch& s = *scratches[0];
  const double bytes =
      static_cast<double>(s.volume.capacity() * sizeof(s.volume[0]) +
                          s.patch_words.capacity() * 8 +
                          s.kernel_words.capacity() * 8 +
                          s.valid_words.capacity() * 8 +
                          s.kernel_acc.capacity() * 4 +
                          s.valid_halves.capacity() * 8 +
                          s.conv_words.capacity() * 8 +
                          s.sample.words().size() * 8 +
                          s.prediction.scores.capacity() * 8);
  out.add("vsa.scratch_bytes", bytes, "bytes");
}

/// Samples per second of predict_batch over `batches`, one pass.
double engine_pass_sps(InferEngine& engine, const std::vector<Samples>& batches,
                       bool parallel, std::vector<Prediction>& outp) {
  std::size_t samples = 0;
  const std::uint64_t t0 = now_ns();
  for (const Samples& batch : batches) {
    engine.predict_batch(batch, outp, parallel);
    samples += batch.size();
  }
  return static_cast<double>(samples) * 1e9 /
         static_cast<double>(now_ns() - t0);
}

std::vector<Samples> split(const Samples& pool, std::size_t count,
                           std::size_t batch) {
  std::vector<Samples> out;
  for (std::size_t i = 0; i + batch <= count; i += batch) {
    out.emplace_back(pool.begin() + static_cast<std::ptrdiff_t>(i),
                     pool.begin() + static_cast<std::ptrdiff_t>(i + batch));
  }
  return out;
}

void probe_engine(const Model& model, const Samples& pool,
                  const std::vector<Prediction>& answers, Report& out,
                  Tally& tally) {
  std::vector<double> construct;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t t0 = now_ns();
    InferEngine engine(model);
    construct.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  out.add("engine.construct_us", summarize(construct).median, "us");

  // Scaling per engine at spread heap layouts: the median is reported,
  // the per-engine figures show how much arena placement decides it.
  const SpreadEngines spread(model, 0x5ca1e);
  std::vector<Prediction> outp;
  for (const std::size_t batch : {std::size_t{256}, std::size_t{32}}) {
    const std::vector<Samples> batches = split(pool, 1024, batch);
    std::vector<double> serial, scaling;
    for (const auto& engine : spread.engines) {
      engine->predict_batch(batches[0], outp, true);
      for (std::size_t i = 0; i < outp.size(); ++i) {
        check(same_answer(answers[i], outp[i]), tally);
      }
      std::vector<double> par, ser;
      for (int round = 0; round < 2; ++round) {
        par.push_back(engine_pass_sps(*engine, batches, true, outp));
        ser.push_back(engine_pass_sps(*engine, batches, false, outp));
      }
      serial.push_back(summarize(ser).median);
      scaling.push_back(summarize(par).median / serial.back());
    }
    std::fprintf(stderr, "engine scaling at batch %zu per layout:", batch);
    for (const double x : scaling) std::fprintf(stderr, " %.2f", x);
    std::fprintf(stderr, "\n");
    if (batch == 256) {
      out.add("engine.sps_1t", summarize(serial).median, "1/s");
      out.add("engine.scaling", summarize(scaling).median, "x");
    } else {
      out.add("engine.scaling_b32", summarize(scaling).median, "x");
    }
  }
}

void probe_registry(const Model& model, Report& out) {
  std::vector<double> publish;
  for (int r = 0; r < 10; ++r) {
    univsa::runtime::ModelRegistry registry;
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t t0 = now_ns();
      registry.publish("probe", model);
      publish.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  }
  out.add("registry.publish_us", summarize(publish).median, "us");
}

void probe_codec(const Samples& pool, const std::vector<Prediction>& answers,
                 Report& out) {
  namespace net = univsa::net;
  net::SubmitFrame submit;
  submit.request_id = 42;
  submit.tenant = "isolet";
  submit.values.assign(pool[0].begin(), pool[0].end());
  net::ResponseFrame response;
  response.request_id = 42;
  response.label = answers[0].label;
  response.scores.assign(answers[0].scores.begin(), answers[0].scores.end());

  std::vector<std::uint8_t> buf;
  const Dist enc_submit = per_call_ns(41, 2000, [&] {
    buf.clear();
    net::encode(submit, buf);
  });
  const std::vector<std::uint8_t> submit_bytes = buf;
  const Dist enc_response = per_call_ns(41, 2000, [&] {
    buf.clear();
    net::encode(response, buf);
  });
  const std::vector<std::uint8_t> response_bytes = buf;

  net::FrameDecoder decoder;
  net::Frame frame;
  const auto decode_ns = [&](const std::vector<std::uint8_t>& bytes) {
    return per_call_ns(41, 2000, [&] {
      decoder.feed(bytes.data(), bytes.size());
      if (decoder.next(frame) != net::FrameDecoder::Result::kFrame) {
        throw std::runtime_error("codec probe: frame did not decode");
      }
    });
  };
  const Dist dec_submit = decode_ns(submit_bytes);
  if (frame.submit.values != submit.values) {
    throw std::runtime_error("codec probe: submit round trip differs");
  }
  const Dist dec_response = decode_ns(response_bytes);
  if (frame.response.scores != response.scores) {
    throw std::runtime_error("codec probe: response round trip differs");
  }
  out.add("codec.encode_submit_ns", enc_submit.median, "ns");
  out.add("codec.decode_submit_ns", dec_submit.median, "ns");
  out.add("codec.encode_response_ns", enc_response.median, "ns");
  out.add("codec.decode_response_ns", dec_response.median, "ns");
}

/// One unloaded in-process request; returns its round trip in ns (0 when
/// refused) and the try_submit_async call's own cost in `submit_ns`.
std::uint64_t inproc_round_trip(univsa::runtime::Server& server,
                                const std::vector<std::uint16_t>& values,
                                const Prediction& expect, Tally& tally,
                                std::uint64_t* submit_ns = nullptr) {
  std::atomic<int> state{0};  // 1 = exact answer, 2 = anything else
  const std::uint64_t t0 = now_ns();
  const auto status = server.try_submit_async(
      values, {},
      [&state, &expect](Prediction&& p, std::exception_ptr error) {
        state.store(error == nullptr && same_answer(expect, p) ? 1 : 2,
                    std::memory_order_release);
      });
  const std::uint64_t t1 = now_ns();
  if (status != univsa::runtime::SubmitStatus::kOk) {
    tally.attempted.fetch_add(1);
    tally.failed.fetch_add(1);
    return 0;
  }
  while (state.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  const std::uint64_t t2 = now_ns();
  check(state.load() == 1, tally);
  if (submit_ns != nullptr) *submit_ns = t1 - t0;
  return t2 - t0;
}

void probe_serving(const Model& model, const Samples& pool,
                   const std::vector<Prediction>& answers, Report& out,
                   Tally& tally) {
  auto registry = std::make_shared<univsa::runtime::ModelRegistry>();
  registry->publish("isolet", model);
  univsa::runtime::ServerOptions options;
  options.default_tenant = "isolet";
  auto server = std::make_shared<univsa::runtime::Server>(registry, options);
  univsa::net::NetServer shard_a(server);
  univsa::net::NetServer shard_b(server);
  univsa::net::NetClientOptions wire_options;
  wire_options.host = shard_a.host();
  wire_options.port = shard_a.port();
  univsa::net::NetClient wire(wire_options);
  univsa::runtime::SubmitOptions submit_options;
  submit_options.tenant = "isolet";
  // One request over the wire with nothing else in flight; returns its
  // round trip in ns.
  const auto wire_round_trip = [&](std::uint32_t i) {
    const std::uint64_t t0 = now_ns();
    const Prediction got = wire.predict(pool[i], submit_options);
    const std::uint64_t t1 = now_ns();
    check(same_answer(answers[i], got), tally);
    return t1 - t0;
  };

  // Warm every path once.
  for (std::uint32_t i = 0; i < 32; ++i) {
    inproc_round_trip(*server, pool[i], answers[i], tally);
    wire_round_trip(i);
  }

  // Unloaded in-process vs wire, interleaved so drift hits both alike.
  std::vector<double> inproc_us, wire_us, submit_ns;
  for (std::uint32_t i = 0; i < 800; ++i) {
    std::uint64_t submit = 0;
    const std::uint64_t local =
        inproc_round_trip(*server, pool[i], answers[i], tally, &submit);
    if (local != 0) {
      inproc_us.push_back(static_cast<double>(local) / 1e3);
      submit_ns.push_back(static_cast<double>(submit));
    }
    wire_us.push_back(static_cast<double>(wire_round_trip(i)) / 1e3);
  }
  const double local_us = summarize(inproc_us).median;
  const double remote_us = summarize(wire_us).median;
  out.add("server.unloaded_us", local_us, "us");
  out.add("wire.unloaded_rtt_us", remote_us, "us");
  out.add("wire.overhead_us", remote_us - local_us, "us");
  out.add("server.submit_ns", summarize(submit_ns).median, "ns");

  // Server-side layers of the same unloaded traffic; the serving
  // workloads overwrite these with their own loaded figures.
  const univsa::runtime::ServerStats stats = server->stats();
  out.add("server.queue_wait_p50_us",
          static_cast<double>(stats.queue_wait_ns.percentile(0.5)) / 1e3,
          "us");
  out.add("server.queue_wait_p99_us",
          static_cast<double>(stats.queue_wait_ns.percentile(0.99)) / 1e3,
          "us");
  out.add("server.service_ns_per_sample",
          stats.completed == 0
              ? 0.0
              : stats.service_ns.sum / static_cast<double>(stats.completed),
          "ns");
  out.add("server.mean_batch", stats.mean_batch(), "count");
  out.add("server.shed", static_cast<double>(stats.shed), "count");
  out.add("server.deadline_rejected",
          static_cast<double>(stats.deadline_rejected), "count");
  const univsa::net::NetServerStats net_stats = shard_a.stats();
  out.add("netserver.frames_in", static_cast<double>(net_stats.frames_in),
          "count");
  out.add("netserver.frames_out", static_cast<double>(net_stats.frames_out),
          "count");
  out.add("netserver.decode_errors",
          static_cast<double>(net_stats.decode_errors), "count");
  out.add("netserver.refused", static_cast<double>(net_stats.refused),
          "count");

  // ShardRouter::predict against NetClient::predict to the same shard,
  // unloaded, over two loopback shards fronting one runtime.
  univsa::net::ShardRouterOptions router_options;
  router_options.shards = {{{shard_a.host(), shard_a.port()}},
                           {{shard_b.host(), shard_b.port()}}};
  univsa::net::ShardRouter router(router_options);
  const univsa::net::NetServer& home =
      router.shard_for("isolet") == 0 ? shard_a : shard_b;
  univsa::net::NetClientOptions client_options;
  client_options.host = home.host();
  client_options.port = home.port();
  univsa::net::NetClient client(client_options);
  std::vector<double> routed_us, direct_us;
  for (std::uint32_t i = 0; i < 500; ++i) {
    const std::uint64_t t0 = now_ns();
    const Prediction a = router.predict(pool[i], submit_options);
    const std::uint64_t t1 = now_ns();
    const Prediction b = client.predict(pool[i], submit_options);
    const std::uint64_t t2 = now_ns();
    check(same_answer(answers[i], a), tally);
    check(same_answer(answers[i], b), tally);
    if (i >= 20) {
      routed_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      direct_us.push_back(static_cast<double>(t2 - t1) / 1e3);
    }
  }
  out.add("router.overhead_us",
          summarize(routed_us).median - summarize(direct_us).median, "us");
  shard_a.shutdown();
  shard_b.shutdown();
  server->shutdown();
}

/// Sampled tracing (trace_sample_every = 64, as shipped) against none,
/// in alternating blocks of unloaded requests; positive = tracing costs.
void probe_trace_cost(const Model& model, const Samples& pool,
                      const std::vector<Prediction>& answers, Report& out,
                      Tally& tally) {
  auto registry = std::make_shared<univsa::runtime::ModelRegistry>();
  registry->publish("isolet", model);
  univsa::runtime::ServerOptions sampled;
  sampled.default_tenant = "isolet";
  sampled.trace_sample_every = 64;
  univsa::runtime::ServerOptions untraced = sampled;
  untraced.trace_sample_every = 0;
  univsa::runtime::Server a(registry, sampled);
  univsa::runtime::Server b(registry, untraced);
  const auto block_median_us = [&](univsa::runtime::Server& server,
                                   std::uint32_t base) {
    std::vector<double> us;
    for (std::uint32_t i = 0; i < 128; ++i) {
      const std::uint32_t k = (base + i) % 1024;
      us.push_back(static_cast<double>(
                       inproc_round_trip(server, pool[k], answers[k], tally)) /
                   1e3);
    }
    return summarize(us).median;
  };
  block_median_us(a, 0);
  block_median_us(b, 0);
  std::vector<double> pct;
  for (std::uint32_t pair = 0; pair < 10; ++pair) {
    const double with = block_median_us(a, pair * 128);
    const double without = block_median_us(b, pair * 128);
    pct.push_back(100.0 * (with - without) / without);
  }
  out.add("telemetry.sampled_trace_cost_pct", summarize(pct).median, "%");
}

}  // namespace

void run_layer_probes(const Model& isolet, const Samples& pool,
                      const std::vector<Prediction>& answers, Report& out,
                      Tally& tally) {
  probe_simd(isolet, pool, out);
  probe_vsa(isolet, pool, answers, out, tally);
  probe_engine(isolet, pool, answers, out, tally);
  probe_registry(isolet, out);
  probe_codec(pool, answers, out);
  probe_serving(isolet, pool, answers, out, tally);
  probe_trace_cost(isolet, pool, answers, out, tally);
}

}  // namespace perfbench
