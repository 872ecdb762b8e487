#include "mix.h"

#include <array>
#include <cstdio>
#include <cstring>
#include <memory>

#include "bench.h"
#include "coll/allgather.h"
#include "coll/alltoall.h"
#include "coll/bcast.h"
#include "coll/gather.h"
#include "coll/reduce.h"
#include "coll/scatter.h"
#include "coll/tuner.h"
#include "nbc/compile.h"
#include "nbc/nbc.h"

namespace hostbench {

using kacc::coll::Tuner;
namespace coll = kacc::coll;
namespace nbc = kacc::nbc;

namespace {

// Reduction operands: x_s[i] = A_i + (s + 1) * B_i with A, B drawn from the
// round key. Integer-valued, so the sum over ranks is exact and has the
// closed form p * A_i + B_i * p (p + 1) / 2 that each rank checks in O(1).
double red_a(std::uint64_t key, std::size_t i) {
  return static_cast<double>(mix64(key + i) & 1023u);
}
double red_b(std::uint64_t key, std::size_t i) {
  return static_cast<double>(mix64((key ^ 0x5bd1e995ull) + i) & 255u);
}

} // namespace

Group group_of(OpKind k) {
  switch (k) {
    case OpKind::kBcast:
    case OpKind::kScatter:
    case OpKind::kGather:
    case OpKind::kReduce: return Group::kOneToAll;
    case OpKind::kAllgather:
    case OpKind::kAlltoall:
    case OpKind::kAllreduce: return Group::kAllToAll;
    case OpKind::kBarrier: return Group::kSync;
    case OpKind::kIbcastPair: return Group::kOverlap;
  }
  return Group::kSync;
}

std::string op_label(const OpSpec& op) {
  static constexpr std::array<const char*, 9> kNames = {
      "bcast",     "scatter",  "gather",    "reduce",     "allgather",
      "alltoall",  "allreduce", "barrier",  "ibcast_pair"};
  const char* name = kNames[static_cast<std::size_t>(op.kind)];
  if (op.kind == OpKind::kBarrier) {
    return name;
  }
  char buf[48];
  if (op.bytes >= (1u << 20)) {
    std::snprintf(buf, sizeof buf, "%s_%zuM", name, op.bytes >> 20);
  } else if (op.bytes >= 1024) {
    std::snprintf(buf, sizeof buf, "%s_%zuK", name, op.bytes >> 10);
  } else {
    std::snprintf(buf, sizeof buf, "%s_%zuB", name, op.bytes);
  }
  return buf;
}

int calls_of(OpKind k) { return k == OpKind::kIbcastPair ? 2 : 1; }

double payload_bytes(const OpSpec& op, int p) {
  const auto n = static_cast<double>(op.bytes);
  switch (op.kind) {
    case OpKind::kBcast:
    case OpKind::kScatter:
    case OpKind::kGather:
    case OpKind::kReduce: return (p - 1) * n;
    case OpKind::kAllgather:
    case OpKind::kAlltoall:
    case OpKind::kAllreduce: return static_cast<double>(p) * (p - 1) * n;
    case OpKind::kBarrier: return 0.0;
    case OpKind::kIbcastPair: return 2.0 * (p - 1) * n;
  }
  return 0.0;
}

OpBuffers::OpBuffers(const OpSpec& op, int rank, int p, bool root_capable)
    : op_(op), rank_(rank), p_(p) {
  const std::size_t n = op.bytes;
  const std::size_t pn = static_cast<std::size_t>(p) * n;
  switch (op.kind) {
    case OpKind::kBcast: a_ = kacc::AlignedBuffer(n); break;
    case OpKind::kScatter:
      a_ = kacc::AlignedBuffer(root_capable ? pn : 0);
      b_ = kacc::AlignedBuffer(n);
      break;
    case OpKind::kGather:
      a_ = kacc::AlignedBuffer(n);
      b_ = kacc::AlignedBuffer(root_capable ? pn : 0);
      break;
    case OpKind::kAllgather:
      a_ = kacc::AlignedBuffer(n);
      b_ = kacc::AlignedBuffer(pn);
      break;
    case OpKind::kAlltoall:
      a_ = kacc::AlignedBuffer(pn);
      b_ = kacc::AlignedBuffer(pn);
      break;
    case OpKind::kReduce:
    case OpKind::kAllreduce:
    case OpKind::kIbcastPair:
      a_ = kacc::AlignedBuffer(n);
      b_ = kacc::AlignedBuffer(n);
      break;
    case OpKind::kBarrier: break;
  }
}

std::uint64_t OpBuffers::src_key(std::uint64_t key, int src,
                                 int block) const {
  return mix64(mix64(key ^ static_cast<std::uint64_t>(src)) +
               static_cast<std::uint64_t>(block));
}

void OpBuffers::prepare(std::uint64_t key, int root) {
  const std::size_t n = op_.bytes;
  switch (op_.kind) {
    case OpKind::kBcast:
      if (rank_ == root) {
        fill_bytes(a_.data(), n, src_key(key, rank_, 0));
      }
      break;
    case OpKind::kGather:
    case OpKind::kAllgather:
      fill_bytes(a_.data(), n, src_key(key, rank_, 0));
      break;
    case OpKind::kScatter:
    case OpKind::kAlltoall:
      for (int b = 0; b < p_ && !a_.empty(); ++b) {
        fill_bytes(a_.data() + static_cast<std::size_t>(b) * n, n,
                   src_key(key, rank_, b));
      }
      break;
    case OpKind::kReduce:
    case OpKind::kAllreduce: {
      auto* x = reinterpret_cast<double*>(a_.data());
      for (std::size_t i = 0; i < n / 8; ++i) {
        x[i] = red_a(key, i) + (rank_ + 1) * red_b(key, i);
      }
      break;
    }
    case OpKind::kIbcastPair:
      if (rank_ == root) {
        fill_bytes(a_.data(), n, src_key(key, rank_, 0));
        fill_bytes(b_.data(), n, src_key(key, rank_, 1));
      }
      break;
    case OpKind::kBarrier: break;
  }
}

void OpBuffers::run(kacc::Comm& comm, int root) {
  const std::size_t n = op_.bytes;
  switch (op_.kind) {
    case OpKind::kBcast: coll::bcast(comm, a_.data(), n, root); break;
    case OpKind::kScatter:
      coll::scatter(comm, a_.data(), b_.data(), n, root);
      break;
    case OpKind::kGather:
      coll::gather(comm, a_.data(), b_.data(), n, root);
      break;
    case OpKind::kAllgather:
      coll::allgather(comm, a_.data(), b_.data(), n);
      break;
    case OpKind::kAlltoall:
      coll::alltoall(comm, a_.data(), b_.data(), n);
      break;
    case OpKind::kReduce:
      coll::reduce(comm, reinterpret_cast<const double*>(a_.data()),
                   reinterpret_cast<double*>(b_.data()), n / 8,
                   coll::ReduceOp::kSum, root);
      break;
    case OpKind::kAllreduce:
      coll::allreduce(comm, reinterpret_cast<const double*>(a_.data()),
                      reinterpret_cast<double*>(b_.data()), n / 8,
                      coll::ReduceOp::kSum);
      break;
    case OpKind::kBarrier: comm.barrier(); break;
    case OpKind::kIbcastPair: {
      std::array<nbc::Request, 2> r = {nbc::ibcast(comm, a_.data(), n, root),
                                       nbc::ibcast(comm, b_.data(), n, root)};
      nbc::wait_all(r);
      break;
    }
  }
}

void OpBuffers::run_traced(TracingComm& comm, SpanLog& log, int root) {
  const std::size_t n = op_.bytes;
  const int p = comm.size();
  const kacc::ArchSpec& arch = comm.arch();
  std::unique_ptr<nbc::Schedule> s;
  const auto compile = [&](auto&& f) {
    Span sp(log, SpanKind::kCompile);
    s = f();
  };

  if (op_.kind == OpKind::kIbcastPair) {
    kacc::Comm& raw = comm.inner();
    Span pair(log, SpanKind::kPair);
    std::array<nbc::Request, 2> r;
    {
      Span sp(log, SpanKind::kNbcStart);
      r[0] = nbc::ibcast(raw, a_.data(), n, root);
    }
    {
      Span sp(log, SpanKind::kNbcStart);
      r[1] = nbc::ibcast(raw, b_.data(), n, root);
    }
    Span w(log, SpanKind::kNbcWait);
    nbc::wait_all(r);
    return;
  }

  Span call(log, SpanKind::kColl);
  coll::CollOptions eff;
  switch (op_.kind) {
    case OpKind::kBcast: {
      coll::BcastAlgo algo;
      {
        Span sp(log, SpanKind::kTune);
        const Tuner::Choice c = Tuner().bcast(arch, p, n);
        algo = c.bcast;
        eff.throttle = c.throttle;
      }
      compile([&] {
        return nbc::compile_bcast(comm, a_.data(), n, root, algo, eff, {});
      });
      break;
    }
    case OpKind::kScatter: {
      coll::ScatterAlgo algo;
      {
        Span sp(log, SpanKind::kTune);
        const Tuner::Choice c = Tuner().scatter(arch, p, n);
        algo = c.scatter;
        eff.throttle = c.throttle;
      }
      compile([&] {
        return nbc::compile_scatter(comm, a_.data(), b_.data(), n, root, algo,
                                    eff, {});
      });
      break;
    }
    case OpKind::kGather: {
      coll::GatherAlgo algo;
      {
        Span sp(log, SpanKind::kTune);
        const Tuner::Choice c = Tuner().gather(arch, p, n);
        algo = c.gather;
        eff.throttle = c.throttle;
      }
      compile([&] {
        return nbc::compile_gather(comm, a_.data(), b_.data(), n, root, algo,
                                   eff, {});
      });
      break;
    }
    case OpKind::kAllgather: {
      coll::AllgatherAlgo algo;
      {
        Span sp(log, SpanKind::kTune);
        algo = Tuner().allgather(arch, p, n).allgather;
      }
      if (algo == coll::AllgatherAlgo::kRingNeighbor) {
        coll::validate_ring_stride(p, eff.ring_stride);
      }
      compile([&] {
        return nbc::compile_allgather(comm, a_.data(), b_.data(), n, algo,
                                      eff, {});
      });
      break;
    }
    case OpKind::kAlltoall: {
      coll::AlltoallAlgo algo;
      {
        Span sp(log, SpanKind::kTune);
        algo = Tuner().alltoall(arch, p, n).alltoall;
      }
      compile([&] {
        return nbc::compile_alltoall(comm, a_.data(), b_.data(), n, algo, eff,
                                     {});
      });
      break;
    }
    case OpKind::kReduce: {
      coll::ReduceAlgo algo;
      {
        Span sp(log, SpanKind::kTune);
        algo = Tuner().reduce(arch, p, n).reduce;
      }
      compile([&] {
        return nbc::compile_reduce(
            comm, reinterpret_cast<const double*>(a_.data()),
            reinterpret_cast<double*>(b_.data()), n / 8, coll::ReduceOp::kSum,
            root, algo, eff, {});
      });
      break;
    }
    case OpKind::kAllreduce: {
      coll::AllreduceAlgo algo;
      {
        Span sp(log, SpanKind::kTune);
        algo = Tuner().allreduce(arch, p, n).allreduce;
      }
      compile([&] {
        return nbc::compile_allreduce(
            comm, reinterpret_cast<const double*>(a_.data()),
            reinterpret_cast<double*>(b_.data()), n / 8, coll::ReduceOp::kSum,
            algo, eff, {});
      });
      break;
    }
    case OpKind::kBarrier: comm.barrier(); return;
    case OpKind::kIbcastPair: return;
  }
  Span sp(log, SpanKind::kDrain);
  nbc::drain(comm, *s);
}

bool OpBuffers::check_block(const std::byte* at, std::uint64_t key, int src,
                            int block) const {
  return check_bytes(at, op_.bytes, src_key(key, src, block));
}

bool OpBuffers::check(std::uint64_t key, int root) const {
  const std::size_t n = op_.bytes;
  switch (op_.kind) {
    case OpKind::kBcast: return check_block(a_.data(), key, root, 0);
    case OpKind::kScatter: return check_block(b_.data(), key, root, rank_);
    case OpKind::kGather:
    case OpKind::kAllgather:
      if (op_.kind == OpKind::kGather && rank_ != root) {
        return true;
      }
      for (int s = 0; s < p_; ++s) {
        if (!check_block(b_.data() + static_cast<std::size_t>(s) * n, key, s,
                         0)) {
          return false;
        }
      }
      return true;
    case OpKind::kAlltoall:
      for (int s = 0; s < p_; ++s) {
        if (!check_block(b_.data() + static_cast<std::size_t>(s) * n, key, s,
                         rank_)) {
          return false;
        }
      }
      return true;
    case OpKind::kReduce:
    case OpKind::kAllreduce: {
      if (op_.kind == OpKind::kReduce && rank_ != root) {
        return true;
      }
      const auto* y = reinterpret_cast<const double*>(b_.data());
      const double p = p_;
      for (std::size_t i = 0; i < n / 8; ++i) {
        if (y[i] != p * red_a(key, i) + red_b(key, i) * p * (p + 1) / 2) {
          return false;
        }
      }
      return true;
    }
    case OpKind::kIbcastPair:
      return check_block(a_.data(), key, root, 0) &&
             check_block(b_.data(), key, root, 1);
    case OpKind::kBarrier: return true;
  }
  return false;
}

double OpBuffers::predicted_us(const OpSpec& op, const kacc::ArchSpec& arch,
                               int p) {
  const Tuner t;
  switch (op.kind) {
    case OpKind::kBcast: return t.bcast(arch, p, op.bytes).predicted_us;
    case OpKind::kScatter: return t.scatter(arch, p, op.bytes).predicted_us;
    case OpKind::kGather: return t.gather(arch, p, op.bytes).predicted_us;
    case OpKind::kAllgather:
      return t.allgather(arch, p, op.bytes).predicted_us;
    case OpKind::kAlltoall: return t.alltoall(arch, p, op.bytes).predicted_us;
    case OpKind::kReduce: return t.reduce(arch, p, op.bytes).predicted_us;
    case OpKind::kAllreduce:
      return t.allreduce(arch, p, op.bytes).predicted_us;
    case OpKind::kBarrier:
    case OpKind::kIbcastPair: break;
  }
  return 0.0;
}

} // namespace hostbench
