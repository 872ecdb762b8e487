// Shared plumbing of the host-time benchmark: the seeded input generator,
// shared-memory sample storage for forked ranks, CPU pinning, order
// statistics and the metric table / JSON result line.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

namespace hostbench {

// ----- seeded inputs ----------------------------------------------------

/// splitmix64 finalizer: the benchmark's only source of input bytes, so
/// the checks below never depend on kacc's own pattern generator.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Key naming one block of input: (seed, round, call, rank, block).
[[nodiscard]] inline std::uint64_t block_key(std::uint64_t seed,
                                             std::uint64_t round, int call,
                                             int rank, int block) {
  std::uint64_t k = mix64(seed ^ 0x6b61636362656e63ull);
  k = mix64(k ^ round);
  k = mix64(k ^ static_cast<std::uint64_t>(call));
  k = mix64(k ^ static_cast<std::uint64_t>(rank));
  return mix64(k ^ static_cast<std::uint64_t>(block));
}

/// Fills `n` bytes with the stream of `key`.
void fill_bytes(void* dst, std::size_t n, std::uint64_t key);
/// True iff `n` bytes at `src` equal the stream of `key`.
[[nodiscard]] bool check_bytes(const void* src, std::size_t n,
                               std::uint64_t key);

// ----- time and placement ------------------------------------------------

/// CLOCK_MONOTONIC nanoseconds: comparable across forked processes.
[[nodiscard]] std::int64_t now_ns();

/// CPUs this process was allowed to run on at its first call, ascending.
/// Cached: pinning the process afterwards must not shrink the set the
/// ranks are spread over.
[[nodiscard]] const std::vector<int>& allowed_cpus();
/// Pins the calling thread (and threads it creates later) to one CPU.
void pin_to_cpu(int cpu);

/// Peak resident set in MB of this process, or with `children` of the
/// largest reaped child (a native rank; the parent's own sample buffers
/// would otherwise dominate).
[[nodiscard]] double peak_rss_mb(bool children);

// ----- shared memory -----------------------------------------------------

/// Zeroed MAP_SHARED anonymous array of trivially copyable T, inherited by
/// forked ranks: the channel through which ranks report samples.
template <typename T> class SharedArray {
public:
  explicit SharedArray(std::size_t n) : n_(n) {
    void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      throw std::bad_alloc();
    }
    p_ = static_cast<T*>(p);
  }
  SharedArray(const SharedArray&) = delete;
  SharedArray& operator=(const SharedArray&) = delete;
  ~SharedArray() { ::munmap(p_, n_ * sizeof(T)); }

  T& operator[](std::size_t i) { return p_[i]; }
  const T& operator[](std::size_t i) const { return p_[i]; }
  [[nodiscard]] std::size_t size() const { return n_; }

private:
  T* p_ = nullptr;
  std::size_t n_ = 0;
};

// ----- statistics and output --------------------------------------------

/// Quartiles as Python's statistics.quantiles(values, n=4) ("exclusive").
struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> v);
/// Percentile by linear interpolation between order statistics.
[[nodiscard]] double percentile(std::vector<double> v, double pct);

/// One reported number with its unit and, for timed metrics, the sample
/// count and quartiles of the samples it was derived from (n == 0 for
/// counts and one-off measurements).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::size_t n = 0;
  double q1 = 0, q3 = 0;
};

/// Prints the human-readable metric table (stdout).
void print_table(const std::string& title, const std::vector<Metric>& ms);
/// The result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& ms);

} // namespace hostbench
