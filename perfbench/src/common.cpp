#include "common.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include <sys/resource.h>
#include <thread>

#include "univsa/common/thread_pool.h"

namespace perfbench {

void wait_until_ns(std::uint64_t t_ns) {
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= t_ns) return;
    const std::uint64_t gap = t_ns - now;
    if (gap > 300'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(gap - 200'000));
    } else {
      std::this_thread::yield();
    }
  }
}

SpreadEngines::SpreadEngines(const univsa::vsa::Model& model,
                             std::uint64_t seed) {
  constexpr std::size_t kEngines = 64;
  univsa::Rng rng(seed);
  for (std::size_t i = 0; i < kEngines; ++i) {
    spacers.emplace_back(new char[16 + 16 * rng.uniform_index(32)]);
    engines.push_back(std::make_unique<univsa::vsa::InferEngine>(model));
  }
}

double Dist::quantile(double q) const {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0
                 : std::min(sorted.size() - 1,
                            static_cast<std::size_t>(rank) - 1);
  return sorted[index];
}

Dist summarize(std::vector<double> values) {
  Dist d;
  std::sort(values.begin(), values.end());
  d.sorted = std::move(values);
  d.count = d.sorted.size();
  if (d.count == 0) return d;
  const std::size_t n = d.count;
  d.median = n % 2 == 1 ? d.sorted[n / 2]
                        : 0.5 * (d.sorted[n / 2 - 1] + d.sorted[n / 2]);
  d.tail_q = 0.5;
  d.tail = d.median;
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if (d.supports(q)) {
      d.tail_q = q;
      d.tail = d.quantile(q);
      break;
    }
  }
  return d;
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

std::string Report::metrics_json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << v
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}";
  return os.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<double> SpanLog::durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

bool SpanLog::write_json(const std::string& path,
                         std::uint64_t origin_ns) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  out.setf(std::ios::fixed);
  out.precision(3);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = static_cast<double>(s.start_ns - origin_ns) / 1e3;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << ts
        << ", \"dur\": " << dur << ", \"args\": {\"id\": " << s.id << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Samples make_samples(const univsa::vsa::ModelConfig& config,
                     std::size_t count, std::uint64_t seed) {
  univsa::Rng rng(seed);
  Samples samples(count);
  for (auto& s : samples) {
    s.resize(config.features());
    for (auto& v : s) {
      v = static_cast<std::uint16_t>(rng.uniform_index(config.M));
    }
  }
  return samples;
}

univsa::vsa::Model make_model(const univsa::vsa::ModelConfig& config,
                              std::uint64_t seed) {
  univsa::Rng rng(seed);
  return univsa::vsa::Model::random(config, rng);
}

std::vector<univsa::vsa::Prediction> reference_answers(
    const univsa::vsa::Model& model, const Samples& samples) {
  std::vector<univsa::vsa::Prediction> out(samples.size());
  univsa::global_pool().parallel_for(
      samples.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = model.predict_reference(samples[i]);
        }
      },
      16);
  return out;
}

}  // namespace perfbench
