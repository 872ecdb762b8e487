#include "tracing.h"

#include <stdexcept>

#include "bench.h"

namespace hostbench {

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kColl: return "coll";
    case SpanKind::kTune: return "tune";
    case SpanKind::kCompile: return "compile";
    case SpanKind::kDrain: return "drain";
    case SpanKind::kPair: return "ibcast_pair";
    case SpanKind::kNbcStart: return "nbc_start";
    case SpanKind::kNbcWait: return "nbc_wait";
    case SpanKind::kCmaRead: return "cma_read";
    case SpanKind::kCmaWrite: return "cma_write";
    case SpanKind::kLocalCopy: return "local_copy";
    case SpanKind::kCtrl: return "ctrl";
    case SpanKind::kBarrier: return "barrier";
    case SpanKind::kWaitSignal: return "wait_signal";
    case SpanKind::kShm: return "shm_pipe";
    case SpanKind::kCount: break;
  }
  return "?";
}

void SpanLog::begin(SpanKind k) { stack_.push_back({k, now_ns(), 0}); }

void SpanLog::end() {
  if (stack_.empty()) {
    throw std::logic_error("SpanLog::end without an open span");
  }
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = now_ns() - o.start;
  SpanAgg& a = table_[static_cast<std::size_t>(o.kind)];
  ++a.count;
  a.total_ns += dur;
  a.self_ns += dur - o.child_ns;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
  }
}

void TracingComm::cma_read(int src, std::uint64_t remote_addr, void* local,
                           std::size_t bytes) {
  Span s(log_, SpanKind::kCmaRead);
  in_.cma_read(src, remote_addr, local, bytes);
}

void TracingComm::cma_write(int dst, std::uint64_t remote_addr,
                            const void* local, std::size_t bytes) {
  Span s(log_, SpanKind::kCmaWrite);
  in_.cma_write(dst, remote_addr, local, bytes);
}

void TracingComm::local_copy(void* dst, const void* src, std::size_t bytes) {
  Span s(log_, SpanKind::kLocalCopy);
  in_.local_copy(dst, src, bytes);
}

void TracingComm::ctrl_bcast(void* buf, std::size_t bytes, int root) {
  Span s(log_, SpanKind::kCtrl);
  in_.ctrl_bcast(buf, bytes, root);
}

void TracingComm::ctrl_gather(const void* send, void* recv, std::size_t bytes,
                              int root) {
  Span s(log_, SpanKind::kCtrl);
  in_.ctrl_gather(send, recv, bytes, root);
}

void TracingComm::ctrl_allgather(const void* send, void* recv,
                                 std::size_t bytes) {
  Span s(log_, SpanKind::kCtrl);
  in_.ctrl_allgather(send, recv, bytes);
}

void TracingComm::wait_signal(int src) {
  Span s(log_, SpanKind::kWaitSignal);
  in_.wait_signal(src);
}

void TracingComm::barrier() {
  Span s(log_, SpanKind::kBarrier);
  in_.barrier();
}

void TracingComm::shm_send(int dst, const void* buf, std::size_t bytes) {
  Span s(log_, SpanKind::kShm);
  in_.shm_send(dst, buf, bytes);
}

void TracingComm::shm_recv(int src, void* buf, std::size_t bytes) {
  Span s(log_, SpanKind::kShm);
  in_.shm_recv(src, buf, bytes);
}

void TracingComm::shm_bcast(void* buf, std::size_t bytes, int root) {
  Span s(log_, SpanKind::kShm);
  in_.shm_bcast(buf, bytes, root);
}

} // namespace hostbench
