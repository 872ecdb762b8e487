#include "bench.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace hostbench {

namespace {

// One splitmix64 call per 64-byte line; the eight words of a line add odd
// multiples of a constant, so a block copied from a shifted offset or from
// another key fails the comparison.
constexpr std::size_t kLineWords = 8;
constexpr std::uint64_t kStep = 0xd1b54a32d192ed03ull;

inline std::uint64_t word(std::uint64_t key, std::size_t i) {
  return mix64(key + i / kLineWords) + (i % kLineWords) * kStep;
}

} // namespace

void fill_bytes(void* dst, std::size_t n, std::uint64_t key) {
  auto* out = static_cast<unsigned char*>(dst);
  const std::size_t words = n / 8;
  for (std::size_t i = 0; i < words; i += kLineWords) {
    const std::uint64_t base = mix64(key + i / kLineWords);
    const std::size_t end = std::min(words, i + kLineWords);
    for (std::size_t j = i; j < end; ++j) {
      const std::uint64_t w = base + (j - i) * kStep;
      std::memcpy(out + 8 * j, &w, 8);
    }
  }
  if (n % 8 != 0) {
    const std::uint64_t w = word(key, words);
    std::memcpy(out + 8 * words, &w, n % 8);
  }
}

bool check_bytes(const void* src, std::size_t n, std::uint64_t key) {
  const auto* in = static_cast<const unsigned char*>(src);
  const std::size_t words = n / 8;
  for (std::size_t i = 0; i < words; i += kLineWords) {
    const std::uint64_t base = mix64(key + i / kLineWords);
    const std::size_t end = std::min(words, i + kLineWords);
    for (std::size_t j = i; j < end; ++j) {
      std::uint64_t got;
      std::memcpy(&got, in + 8 * j, 8);
      if (got != base + (j - i) * kStep) {
        return false;
      }
    }
  }
  if (n % 8 != 0) {
    const std::uint64_t w = word(key, words);
    return std::memcmp(in + 8 * words, &w, n % 8) == 0;
  }
  return true;
}

std::int64_t now_ns() {
  struct timespec ts {};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> v;
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) {
          v.push_back(c);
        }
      }
    }
    return v;
  }();
  return cpus;
}

void pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (::sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed for cpu " +
                             std::to_string(cpu));
  }
}

double peak_rss_mb(bool children) {
  struct rusage ru {};
  ::getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) {
    return q;
  }
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    q.q1 = q.median = q.q3 = v[0];
    return q;
  }
  const auto len = static_cast<long>(v.size());
  const long m = len + 1;
  double out[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp<long>(i * m / 4, 1, len - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    out[i - 1] = (v[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
                  v[static_cast<std::size_t>(j)] * delta) /
                 4.0;
  }
  q.q1 = out[0];
  q.median = out[1];
  q.q3 = out[2];
  return q;
}

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = pct / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void print_table(const std::string& title, const std::vector<Metric>& ms) {
  std::printf("== %s\n", title.c_str());
  std::printf("  %-28s %14s %-8s %7s %14s %14s\n", "metric", "value", "unit",
              "n", "q1", "q3");
  for (const Metric& m : ms) {
    if (m.n > 0) {
      std::printf("  %-28s %14.6g %-8s %7zu %14.6g %14.6g\n", m.name.c_str(),
                  m.value, m.unit.c_str(), m.n, m.q1, m.q3);
    } else {
      std::printf("  %-28s %14.6g %-8s %7s %14s %14s\n", m.name.c_str(),
                  m.value, m.unit.c_str(), "-", "-", "-");
    }
  }
  std::fflush(stdout);
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& ms) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i == 0 ? "" : ", ") << '"' << ms[i].name << "\": {\"value\": "
       << ms[i].value << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

} // namespace hostbench
