// The operation mix of a workload: which collectives run, at what size,
// with which buffers, how their inputs are generated and how their outputs
// are checked. Checks use only the benchmark's own generator (bench.h):
// every received block is compared with the stream its source rank was
// given, and reductions with sums computed here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "runtime/comm.h"
#include "tracing.h"

namespace hostbench {

enum class OpKind {
  kBcast,
  kScatter,
  kGather,
  kReduce,
  kAllgather,
  kAlltoall,
  kAllreduce,
  kBarrier,
  kIbcastPair, ///< two same-root nbc::ibcast requests, then wait_all
};

/// Which end-to-end rate a call's time and payload count towards.
enum class Group { kOneToAll, kAllToAll, kSync, kOverlap };
inline constexpr int kGroups = 4;

struct OpSpec {
  OpKind kind;
  std::size_t bytes; ///< per block (reductions: whole vector, 8 B/elt)
};

[[nodiscard]] Group group_of(OpKind k);
[[nodiscard]] std::string op_label(const OpSpec& op);
/// Collective calls one op stands for (the ibcast pair counts as two).
[[nodiscard]] int calls_of(OpKind k);
/// Operand bytes that receivers take from other ranks, summed over ranks:
/// (p-1)*n for the one-to-all and all-to-one ops, p*(p-1)*n for the
/// all-to-all ones. The rates divide this by host time.
[[nodiscard]] double payload_bytes(const OpSpec& op, int p);

/// Buffers of one op instance on one rank.
class OpBuffers {
public:
  /// `root_capable` sizes the root-only buffers (scatter send, gather
  /// receive); ranks that never act as root leave them empty.
  OpBuffers(const OpSpec& op, int rank, int p, bool root_capable);

  /// Regenerates every send block for round key `key`. Keys differ every
  /// round, so a skipped or stale copy fails the next check.
  void prepare(std::uint64_t key, int root);
  /// Runs the op through kacc's public entry points (kAuto everywhere).
  void run(kacc::Comm& comm, int root);
  /// Same op split at the layer boundaries, with a span around the tuner,
  /// the schedule compiler and the drain (mirroring coll::<op>), or around
  /// the nbc start and wait_all calls for the ibcast pair. The pair runs on
  /// the wrapped communicator: nonblocking requests keep one progress
  /// engine per communicator, and the untraced rounds use that one.
  void run_traced(TracingComm& comm, SpanLog& log, int root);
  /// True iff this rank's outputs match the generator for `key`.
  [[nodiscard]] bool check(std::uint64_t key, int root) const;
  /// The tuner's predicted_us for this op on (arch, p).
  [[nodiscard]] static double predicted_us(const OpSpec& op,
                                           const kacc::ArchSpec& arch, int p);

private:
  [[nodiscard]] std::uint64_t src_key(std::uint64_t key, int src,
                                      int block) const;
  [[nodiscard]] bool check_block(const std::byte* at, std::uint64_t key,
                                 int src, int block) const;

  OpSpec op_;
  int rank_;
  int p_;
  kacc::AlignedBuffer a_; ///< send side (bcast: the buffer itself)
  kacc::AlignedBuffer b_; ///< receive side (ibcast pair: second buffer)
};

} // namespace hostbench
