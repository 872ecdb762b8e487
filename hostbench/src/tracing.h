// Span tracing from the benchmark's side of each layer boundary.
//
// TracingComm wraps a rank's communicator and forwards every call, timing
// the data-plane and control-plane entry points (cma_read, ctrl_*, barrier,
// wait_signal, ...) as spans. Collectives compiled and drained against the
// wrapper therefore report their Comm traffic without any change to kacc.
// Spans nest on a per-rank stack, so each span's self time (its duration
// minus the part its direct children cover) is derived as it closes. Only
// per-name aggregates are kept: count, total and self nanoseconds.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "runtime/comm.h"

namespace hostbench {

enum class SpanKind : int {
  kColl,        ///< one whole blocking collective call
  kTune,        ///< coll::Tuner::<op>
  kCompile,     ///< nbc::compile_<op>
  kDrain,       ///< nbc::drain
  kPair,        ///< two overlapping ibcasts, start to wait_all return
  kNbcStart,    ///< nbc::ibcast (tune + compile + start, inside kacc)
  kNbcWait,     ///< nbc::wait_all
  kCmaRead,     ///< Comm::cma_read
  kCmaWrite,    ///< Comm::cma_write
  kLocalCopy,   ///< Comm::local_copy
  kCtrl,        ///< Comm::ctrl_bcast / ctrl_gather / ctrl_allgather
  kBarrier,     ///< Comm::barrier
  kWaitSignal,  ///< Comm::wait_signal
  kShm,         ///< Comm::shm_send / shm_recv / shm_bcast
  kCount
};
inline constexpr int kSpanKinds = static_cast<int>(SpanKind::kCount);
[[nodiscard]] const char* span_name(SpanKind k);

/// Per-name aggregate; plain data so it can sit in shared memory.
struct SpanAgg {
  std::uint64_t count;
  std::int64_t total_ns;
  std::int64_t self_ns;
};
using SpanTable = std::array<SpanAgg, kSpanKinds>;

/// One rank's open-span stack plus its aggregates.
class SpanLog {
public:
  void begin(SpanKind k);
  void end();
  [[nodiscard]] const SpanTable& table() const { return table_; }

private:
  struct Open {
    SpanKind kind;
    std::int64_t start;
    std::int64_t child_ns;
  };
  std::vector<Open> stack_;
  SpanTable table_{};
};

/// RAII span.
class Span {
public:
  Span(SpanLog& log, SpanKind k) : log_(log) { log_.begin(k); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { log_.end(); }

private:
  SpanLog& log_;
};

/// Forwards every Comm call to `inner`, timing the entry points above.
class TracingComm final : public kacc::Comm {
public:
  TracingComm(kacc::Comm& inner, SpanLog& log) : in_(inner), log_(log) {}

  [[nodiscard]] kacc::Comm& inner() const { return in_; }

  [[nodiscard]] kacc::obs::Recorder& recorder() override {
    return in_.recorder();
  }
  [[nodiscard]] int rank() const override { return in_.rank(); }
  [[nodiscard]] int size() const override { return in_.size(); }
  [[nodiscard]] const kacc::ArchSpec& arch() const override {
    return in_.arch();
  }
  [[nodiscard]] int global_rank_of(int r) const override {
    return in_.global_rank_of(r);
  }

  void cma_read(int src, std::uint64_t remote_addr, void* local,
                std::size_t bytes) override;
  void cma_write(int dst, std::uint64_t remote_addr, const void* local,
                 std::size_t bytes) override;
  void local_copy(void* dst, const void* src, std::size_t bytes) override;
  void compute_charge(std::size_t bytes) override {
    in_.compute_charge(bytes);
  }
  void ctrl_bcast(void* buf, std::size_t bytes, int root) override;
  void ctrl_gather(const void* send, void* recv, std::size_t bytes,
                   int root) override;
  void ctrl_allgather(const void* send, void* recv,
                      std::size_t bytes) override;
  void signal(int dst) override { in_.signal(dst); }
  void wait_signal(int src) override;
  void barrier() override;
  void shm_send(int dst, const void* buf, std::size_t bytes) override;
  void shm_recv(int src, void* buf, std::size_t bytes) override;
  void shm_bcast(void* buf, std::size_t bytes, int root) override;
  double now_us() override { return in_.now_us(); }

  void nbc_signal(int dst, int tag) override { in_.nbc_signal(dst, tag); }
  bool nbc_try_wait(int src, int tag) override {
    return in_.nbc_try_wait(src, tag);
  }
  void nbc_yield(int idle_rounds) override { in_.nbc_yield(idle_rounds); }
  [[nodiscard]] int nbc_inflight(int source) override {
    return in_.nbc_inflight(source);
  }
  void nbc_inflight_add(int source, int delta) override {
    in_.nbc_inflight_add(source, delta);
  }
  [[nodiscard]] double nbc_deadline_us() const override {
    return in_.nbc_deadline_us();
  }

private:
  kacc::Comm& in_;
  SpanLog& log_;
};

} // namespace hostbench
