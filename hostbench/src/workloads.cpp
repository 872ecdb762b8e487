#include "workloads.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <stdexcept>

#include "mix.h"
#include "obs/counters.h"
#include "runtime/process_team.h"
#include "runtime/sim_comm.h"
#include "topo/detect.h"
#include "topo/presets.h"

namespace hostbench {
namespace {

using kacc::Comm;
using kacc::obs::Counter;

constexpr int kNativeRanks = 3;
constexpr int kSimRanks = 128;
constexpr int kMaxRanks = kSimRanks;
constexpr std::size_t KiB = 1024;
constexpr std::size_t MiB = 1024 * 1024;

// ----- workload definitions ----------------------------------------------

struct Workload {
  const char* name;
  bool sim;
  int reps; ///< back-to-back repetitions of each op inside a timed batch
  std::vector<OpSpec> ops;
};

const std::vector<Workload>& workloads() {
  using K = OpKind;
  static const std::vector<Workload> w = {
      // Multi-MiB blocks, well past the per-core L2: time goes to CMA.
      {"native_bulk",
       false,
       1,
       {{K::kBcast, 8 * MiB},
        {K::kScatter, 4 * MiB},
        {K::kGather, 4 * MiB},
        {K::kAllgather, 4 * MiB},
        {K::kAlltoall, 4 * MiB},
        {K::kIbcastPair, 8 * MiB}}},
      // 8 B and 4 KiB: per-call software cost and the shm control plane.
      {"native_small",
       false,
       4,
       {{K::kBcast, 8},
        {K::kBcast, 4 * KiB},
        {K::kScatter, 8},
        {K::kScatter, 4 * KiB},
        {K::kGather, 8},
        {K::kGather, 4 * KiB},
        {K::kReduce, 8},
        {K::kReduce, 4 * KiB},
        {K::kAllgather, 8},
        {K::kAllgather, 4 * KiB},
        {K::kAlltoall, 8},
        {K::kAlltoall, 4 * KiB},
        {K::kAllreduce, 8},
        {K::kAllreduce, 4 * KiB},
        {K::kBarrier, 0},
        {K::kIbcastPair, 4 * KiB}}},
      // knl-snc4 p=128, one small and one large size per op. At the small
      // size host time is the tuner's deep-preset sweep (run by every rank
      // on every call); at the large size, where bcast is striped over the
      // level tree, it is the engine's per-rank thread handoffs.
      {"sim_deep",
       true,
       1,
       {{K::kBcast, 4 * KiB},
        {K::kBcast, 1 * MiB},
        {K::kScatter, 4 * KiB},
        {K::kScatter, 64 * KiB},
        {K::kAllgather, 512},
        {K::kAllgather, 4 * KiB},
        {K::kAllreduce, 4 * KiB},
        {K::kAllreduce, 128 * KiB},
        {K::kIbcastPair, 4 * KiB},
        {K::kIbcastPair, 512 * KiB}}},
  };
  return w;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) {
      return w;
    }
  }
  throw std::invalid_argument("unknown workload: " + name);
}

int ranks_of(const Workload& w) { return w.sim ? kSimRanks : kNativeRanks; }

kacc::ArchSpec arch_of(const Workload& w) {
  return w.sim ? kacc::knl_snc4() : kacc::detect_host();
}

/// A timed unit: ops run back to back (each `reps` times) after a barrier.
using Unit = std::vector<int>;

std::vector<Unit> group_units(const Workload& w) {
  std::vector<Unit> units;
  for (int g = 0; g < kGroups; ++g) {
    Unit u;
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
      if (static_cast<int>(group_of(w.ops[i].kind)) == g) {
        u.push_back(static_cast<int>(i));
      }
    }
    if (!u.empty()) {
      units.push_back(u);
    }
  }
  return units;
}

std::vector<Unit> op_units(const Workload& w) {
  std::vector<Unit> units;
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    units.push_back({static_cast<int>(i)});
  }
  return units;
}

int calls_per_round(const Workload& w) {
  int c = 0;
  for (const OpSpec& op : w.ops) {
    c += calls_of(op.kind) * w.reps;
  }
  return c;
}

// ----- shared state between the parent and its ranks ----------------------

/// Start/end of every (rank, unit, round); a unit's time in a round is
/// max(end) - min(start) over ranks. Kept in a memfd written with pwrite,
/// not in mapped memory: mapped sample pages would count in the ranks'
/// resident sets and make peak_rss_mb grow with the number of rounds.
class Timeline {
public:
  Timeline(int ranks, int units, int cap)
      : ranks_(ranks), units_(units), cap_(cap),
        fd_(::memfd_create("hostbench-timeline", MFD_CLOEXEC)) {
    if (fd_ < 0 ||
        ::ftruncate(fd_, static_cast<off_t>(index(ranks, 0, 0) * 8)) != 0) {
      throw std::runtime_error("memfd for the sample timeline failed");
    }
  }
  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;
  ~Timeline() { ::close(fd_); }

  [[nodiscard]] int cap() const { return cap_; }

  void put(int rank, int unit, int round, double s, double e) {
    const double v[2] = {s, e};
    if (::pwrite(fd_, v, sizeof v,
                 static_cast<off_t>(index(rank, unit, round) * 8)) !=
        static_cast<ssize_t>(sizeof v)) {
      throw std::runtime_error("timeline write failed");
    }
  }

  [[nodiscard]] double span(int unit, int round) const {
    double s = INFINITY;
    double e = -INFINITY;
    for (int r = 0; r < ranks_; ++r) {
      double v[2];
      if (::pread(fd_, v, sizeof v,
                  static_cast<off_t>(index(r, unit, round) * 8)) !=
          static_cast<ssize_t>(sizeof v)) {
        throw std::runtime_error("timeline read failed");
      }
      s = std::min(s, v[0]);
      e = std::max(e, v[1]);
    }
    return e - s;
  }

private:
  /// Offset in doubles of the (start, end) pair.
  [[nodiscard]] std::size_t index(int rank, int unit, int round) const {
    return 2 * ((static_cast<std::size_t>(rank) * units_ + unit) * cap_ +
                static_cast<std::size_t>(round));
  }

  int ranks_, units_, cap_;
  int fd_;
};

struct Board {
  std::int64_t ready_ns[kMaxRanks];
  SpanTable spans[kMaxRanks];
  std::uint64_t rounds;       ///< measured rounds (rank 0)
  std::uint64_t warm_rounds;  ///< warm-up rounds (rank 0)
  std::uint32_t stale_ranks;  ///< ranks whose drift alarm had fired
  std::uint32_t bad;          ///< a warm-up or count-pass check failed
};

enum class Phase {
  kSetup,   ///< allocate and first-touch buffers, then return
  kCount,   ///< one untimed pass of every op, no barriers (counter pass)
  kMeasure, ///< warm-up, then timed rounds until the budget is spent
};

struct Loop {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  std::vector<Unit> units;
  Phase phase = Phase::kMeasure;
  bool alternate_traced = false; ///< odd rounds traced (units + n series)
  double budget_s = 0;
  std::uint64_t max_rounds = 0; ///< 0: as many as the budget allows
  double warm_cap_s = 0; ///< 0: no warm-up
  std::vector<int> cpu_of_rank; ///< empty: leave ranks unpinned
};

struct Sinks {
  Board* board;
  Timeline* wall;
  Timeline* virt; ///< simulator clock; nullptr when unused
  SharedArray<std::uint8_t>* fails; ///< [round][instance]
};

std::uint64_t round_key(std::uint64_t seed, std::uint64_t round, int inst) {
  return block_key(seed, round, inst, 0, 0);
}

constexpr std::uint64_t kWarmRoundBase = 1ull << 40;

/// The rank body shared by every phase, in both runtimes.
void rank_body(Comm& comm, const Loop& L, const Sinks& out) {
  const int rank = comm.rank();
  const int p = comm.size();
  if (!L.cpu_of_rank.empty()) {
    pin_to_cpu(L.cpu_of_rank[static_cast<std::size_t>(rank)]);
  }
  const Workload& w = *L.w;
  const bool rotate_root = !w.sim;
  std::vector<OpBuffers> bufs;
  bufs.reserve(w.ops.size() * static_cast<std::size_t>(w.reps));
  for (const OpSpec& op : w.ops) {
    for (int j = 0; j < w.reps; ++j) {
      bufs.emplace_back(op, rank, p, rotate_root || rank == 0);
    }
  }
  const int insts = static_cast<int>(bufs.size());
  comm.barrier();
  out.board->ready_ns[rank] = now_ns();
  if (L.phase == Phase::kSetup) {
    return;
  }

  SpanLog log;
  TracingComm tcomm(comm, log);
  const int nunits = static_cast<int>(L.units.size());

  // One round: regenerate inputs, run each unit after a barrier, check.
  // Returns the number of op instances whose outputs were wrong.
  const auto round = [&](std::uint64_t r, int slot, bool traced) {
    const int root = rotate_root ? static_cast<int>((L.seed + r) % p) : 0;
    for (int k = 0; k < insts; ++k) {
      bufs[static_cast<std::size_t>(k)].prepare(round_key(L.seed, r, k), root);
    }
    for (int u = 0; u < nunits; ++u) {
      if (L.phase == Phase::kMeasure) {
        comm.barrier();
      }
      const double s = static_cast<double>(now_ns());
      const double vs = comm.now_us();
      for (int i : L.units[static_cast<std::size_t>(u)]) {
        for (int j = 0; j < w.reps; ++j) {
          OpBuffers& b = bufs[static_cast<std::size_t>(i * w.reps + j)];
          if (traced) {
            b.run_traced(tcomm, log, root);
          } else {
            b.run(comm, root);
          }
        }
      }
      const double e = static_cast<double>(now_ns());
      const double ve = comm.now_us();
      if (slot >= 0) {
        const int series = traced ? u + nunits : u;
        out.wall->put(rank, series, slot, s, e);
        if (out.virt != nullptr) {
          out.virt->put(rank, series, slot, vs, ve);
        }
      }
    }
    int bad = 0;
    for (int k = 0; k < insts; ++k) {
      if (!bufs[static_cast<std::size_t>(k)].check(round_key(L.seed, r, k),
                                                   root)) {
        ++bad;
        if (slot >= 0) {
          (*out.fails)[static_cast<std::size_t>(slot) * insts + k] = 1;
        }
      }
    }
    return bad;
  };

  if (L.phase == Phase::kCount) {
    if (round(0, -1, false) != 0) {
      out.board->bad = 1;
    }
    return;
  }

  // Warm up until every rank's drift alarm has fired, after which the nbc
  // governor stays on observed-T_cma caps for the whole timed phase. Where
  // the model holds, no alarm fires and the cap ends the warm-up with the
  // governor on model caps throughout.
  if (L.warm_cap_s > 0) {
    const std::int64_t t0 = now_ns();
    std::uint64_t wr = 0;
    std::vector<std::uint8_t> stale(static_cast<std::size_t>(p));
    for (;; ++wr) {
      const std::uint8_t mine = comm.recorder().drift.stale() ? 1 : 0;
      comm.ctrl_gather(&mine, stale.data(), 1, 0);
      int go = 0;
      if (rank == 0) {
        const auto n = static_cast<std::uint32_t>(
            std::count(stale.begin(), stale.end(), 1));
        out.board->stale_ranks = n;
        go = n < static_cast<std::uint32_t>(p) &&
             static_cast<double>(now_ns() - t0) < L.warm_cap_s * 1e9;
      }
      comm.ctrl_bcast(&go, sizeof go, 0);
      if (go == 0) {
        break;
      }
      if (round(kWarmRoundBase + wr, -1, false) != 0) {
        out.board->bad = 1;
      }
    }
    if (rank == 0) {
      out.board->warm_rounds = wr;
    }
  }

  // Rounds past the timeline's capacity wrap around it, so a run always
  // lasts its budget and the timeline keeps the latest rounds. The
  // capacity is even, so a slot keeps its round's traced/untraced parity.
  const std::int64_t t0 = now_ns();
  const auto cap = static_cast<std::uint64_t>(out.wall->cap());
  for (std::uint64_t r = 0;; ++r) {
    int go = 0;
    if (rank == 0) {
      // At least two rounds, so a traced run has one of each kind.
      go = (L.max_rounds == 0 || r < L.max_rounds) &&
           (r < 2 || static_cast<double>(now_ns() - t0) < L.budget_s * 1e9);
      if (go == 0) {
        out.board->rounds = r;
      }
    }
    comm.ctrl_bcast(&go, sizeof go, 0);
    if (go == 0) {
      break;
    }
    round(r, static_cast<int>(r % cap), L.alternate_traced && r % 2 == 1);
  }
  out.board->spans[rank] = log.table();
}

// ----- launching ---------------------------------------------------------

/// CPU placement for a native team: the parent keeps the first allowed
/// CPU and rank r gets the (r+1)-th, when there are enough of them.
struct Placement {
  int parent = -1;
  std::vector<int> ranks;
};

Placement native_placement() {
  const std::vector<int>& cpus = allowed_cpus();
  Placement pl;
  if (static_cast<int>(cpus.size()) >= kNativeRanks + 1) {
    pl.parent = cpus[0];
    for (int r = 0; r < kNativeRanks; ++r) {
      pl.ranks.push_back(cpus[static_cast<std::size_t>(r + 1)]);
    }
  }
  return pl;
}

kacc::obs::TeamObs launch(const Workload& w, const kacc::ArchSpec& arch,
                          const std::function<void(Comm&)>& body) {
  if (w.sim) {
    return kacc::run_sim(arch, kSimRanks, body).obs;
  }
  kacc::TeamOptions opts;
  opts.team_timeout_ms = 170'000.0;
  kacc::TeamResult res = kacc::run_native_team(arch, kNativeRanks, body, opts);
  if (!res.all_ok()) {
    throw std::runtime_error("native team failed: " + res.first_failure());
  }
  return std::move(res.obs);
}

double ms_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

/// Time from the launch call to the moment every rank had its buffers and
/// had passed the set-up barrier.
double setup_seconds(const Board& b, int p, std::int64_t launch_ns) {
  std::int64_t last = 0;
  for (int r = 0; r < p; ++r) {
    last = std::max(last, b.ready_ns[r]);
  }
  return static_cast<double>(last - launch_ns) / 1e9;
}

Metric timed_metric(const std::string& name, const std::string& unit,
                    const std::vector<double>& samples) {
  const Quartiles q = quartiles(samples);
  return {name, unit, q.median, samples.size(), q.q1, q.q3};
}

/// Rate metric: `bytes` per sample divided by each sample's ns (GB/s).
Metric rate_metric(const std::string& name, double bytes,
                   const std::vector<double>& ns) {
  std::vector<double> rates;
  rates.reserve(ns.size());
  for (double t : ns) {
    rates.push_back(bytes / t);
  }
  return timed_metric(name, "GB/s", rates);
}

/// Rounds measured by one or more launches, flattened per series.
struct Collected {
  std::vector<std::vector<double>> wall; ///< [series][round] ns
  std::vector<double> setup_s;
  std::uint64_t rounds = 0;
  std::uint64_t failed_calls = 0;
  std::uint64_t warm_rounds = 0;
  std::uint32_t stale_ranks = 0;
  bool bad = false;
  SpanTable spans{};
};

void absorb(Collected& c, const Loop& L, const Board& b, const Timeline& wall,
            const SharedArray<std::uint8_t>& fails, int series, int p) {
  c.wall.resize(static_cast<std::size_t>(series));
  const int insts = static_cast<int>(L.w->ops.size()) * L.w->reps;
  const std::uint64_t kept =
      std::min(b.rounds, static_cast<std::uint64_t>(wall.cap()));
  for (std::uint64_t r = 0; r < kept; ++r) {
    const int slot = static_cast<int>(r);
    for (int s = 0; s < series; ++s) {
      const bool traced_series = s >= static_cast<int>(L.units.size());
      if (L.alternate_traced && traced_series != (r % 2 == 1)) {
        continue;
      }
      c.wall[static_cast<std::size_t>(s)].push_back(wall.span(s, slot));
    }
    for (int k = 0; k < insts; ++k) {
      if (fails[static_cast<std::size_t>(slot) * insts + k] != 0) {
        c.failed_calls += calls_of(L.w->ops[static_cast<std::size_t>(
                                             k / L.w->reps)]
                                       .kind);
      }
    }
  }
  c.rounds += b.rounds;
  c.warm_rounds += b.warm_rounds;
  c.stale_ranks = b.stale_ranks;
  c.bad = c.bad || b.bad != 0;
  for (int r = 0; r < p; ++r) {
    for (int k = 0; k < kSpanKinds; ++k) {
      c.spans[static_cast<std::size_t>(k)].count +=
          b.spans[r][static_cast<std::size_t>(k)].count;
      c.spans[static_cast<std::size_t>(k)].total_ns +=
          b.spans[r][static_cast<std::size_t>(k)].total_ns;
      c.spans[static_cast<std::size_t>(k)].self_ns +=
          b.spans[r][static_cast<std::size_t>(k)].self_ns;
    }
  }
}

/// Runs the timed loop for `seconds`: one native team (after `setup_runs`
/// set-up-only launches), or as many simulator launches of at most
/// `kSimLaunchSeconds` each as the budget allows.
constexpr double kSimLaunchSeconds = 2.0;

Collected measure(const Workload& w, Loop L, double seconds, int setup_runs,
                  int cap) {
  const kacc::ArchSpec arch = arch_of(w);
  const int p = ranks_of(w);
  const int series =
      static_cast<int>(L.units.size()) * (L.alternate_traced ? 2 : 1);
  const int insts = static_cast<int>(w.ops.size()) * w.reps;
  Collected c;
  SharedArray<Board> board(1);
  Timeline wall(p, series, cap);
  SharedArray<std::uint8_t> fails(static_cast<std::size_t>(cap) * insts);
  const Sinks sinks{&board[0], &wall, nullptr, &fails};

  const auto one_launch = [&](Phase phase, double budget) {
    std::memset(&board[0], 0, sizeof(Board));
    std::memset(&fails[0], 0, fails.size());
    Loop l = L;
    l.phase = phase;
    l.budget_s = budget;
    const std::int64_t t0 = now_ns();
    (void)launch(w, arch, [&](Comm& comm) { rank_body(comm, l, sinks); });
    c.setup_s.push_back(setup_seconds(board[0], p, t0));
    if (phase == Phase::kMeasure) {
      absorb(c, l, board[0], wall, fails, series, p);
    }
  };

  for (int i = 0; i < setup_runs; ++i) {
    one_launch(Phase::kSetup, 0);
  }
  if (!w.sim) {
    one_launch(Phase::kMeasure, seconds);
    return c;
  }
  const std::int64_t t0 = now_ns();
  for (;;) {
    const double left = seconds - ms_since(t0) / 1e3;
    if (left <= 0) {
      break;
    }
    one_launch(Phase::kMeasure, std::min(kSimLaunchSeconds, left));
  }
  return c;
}

/// Set-up-only launches before the measured native team. A native set-up
/// takes 2-70 ms and swings by a third between launches (process creation,
/// the host's free-page state), so its median needs many samples.
constexpr int kNativeSetupRuns = 40;

/// Timeline capacity in rounds (even; later rounds wrap around it). The
/// native small-message mix completes about 1500 rounds a second, the
/// simulator about one.
int round_cap(const Workload& w) { return w.sim ? 1024 : 1 << 17; }

Loop base_loop(const Workload& w, std::uint64_t seed) {
  Loop L;
  L.w = &w;
  L.seed = seed;
  if (!w.sim) {
    L.cpu_of_rank = native_placement().ranks;
    L.warm_cap_s = 2.0;
  }
  return L;
}

/// Pins this process: native runs keep the parent off the ranks' CPUs;
/// the simulator runs one rank at a time, so it gets a single CPU.
void place_process(const Workload& w) {
  if (w.sim) {
    const std::vector<int>& cpus = allowed_cpus();
    if (!cpus.empty()) {
      pin_to_cpu(cpus.back());
    }
    return;
  }
  const Placement pl = native_placement();
  if (pl.parent >= 0) {
    pin_to_cpu(pl.parent);
  }
}

// ----- end-to-end run ----------------------------------------------------

Outcome run_end_to_end(const Workload& w, const RunConfig& cfg) {
  Loop L = base_loop(w, cfg.seed);
  L.units = group_units(w);
  const Collected c =
      measure(w, L, cfg.seconds, w.sim ? 0 : kNativeSetupRuns, round_cap(w));
  const int p = ranks_of(w);
  if (c.rounds == 0) {
    throw std::runtime_error("no round completed within the budget");
  }

  Outcome o;
  o.correct = !c.bad;
  o.attempted = c.rounds * static_cast<std::uint64_t>(calls_per_round(w));
  o.failed = c.failed_calls;

  // Per-round payload of each group, and the per-call time of the round.
  std::vector<double> group_bytes(kGroups, 0.0);
  std::vector<int> unit_group;
  for (const Unit& u : L.units) {
    unit_group.push_back(static_cast<int>(
        group_of(w.ops[static_cast<std::size_t>(u.front())].kind)));
    for (int i : u) {
      group_bytes[static_cast<std::size_t>(unit_group.back())] +=
          payload_bytes(w.ops[static_cast<std::size_t>(i)], p) * w.reps;
    }
  }
  std::vector<double> per_call;
  for (std::size_t r = 0; r < c.wall.front().size(); ++r) {
    double sum = 0;
    for (const auto& s : c.wall) {
      sum += s[r];
    }
    per_call.push_back(sum / 1e3 / calls_per_round(w));
  }
  const auto group_samples = [&](Group g) -> const std::vector<double>& {
    for (std::size_t u = 0; u < unit_group.size(); ++u) {
      if (unit_group[u] == static_cast<int>(g)) {
        return c.wall[u];
      }
    }
    throw std::logic_error("workload lacks a group");
  };

  o.metrics.push_back(timed_metric("setup_s", "s", c.setup_s));
  o.metrics.push_back({"peak_rss_mb", "MB", peak_rss_mb(!w.sim), 0, 0, 0});
  o.metrics.push_back(
      rate_metric("one_to_all_gbps",
                  group_bytes[static_cast<int>(Group::kOneToAll)],
                  group_samples(Group::kOneToAll)));
  o.metrics.push_back(
      rate_metric("all_to_all_gbps",
                  group_bytes[static_cast<int>(Group::kAllToAll)],
                  group_samples(Group::kAllToAll)));
  o.metrics.push_back(
      rate_metric("overlap_gbps", group_bytes[static_cast<int>(Group::kOverlap)],
                  group_samples(Group::kOverlap)));
  o.metrics.push_back(timed_metric("call_us", "us", per_call));

  std::printf("workload %s: p=%d, %llu rounds of %d calls in %zu "
              "launch(es)\n",
              w.name, p, static_cast<unsigned long long>(c.rounds),
              calls_per_round(w),
              c.setup_s.size() - (w.sim ? 0 : kNativeSetupRuns));
  if (!w.sim) {
    std::printf("warm-up: %llu rounds, drift alarm fired on %u/%d ranks\n",
                static_cast<unsigned long long>(c.warm_rounds), c.stale_ranks,
                p);
    std::printf("call_p90_us %.6g (per-call time across rounds, n=%zu)\n",
                percentile(per_call, 90), per_call.size());
  }
  return o;
}

// ----- traced run --------------------------------------------------------

/// Counters whose per-pass values are fixed by the op mix; they must
/// repeat exactly between two passes. The rest depend on timing.
constexpr Counter kExactCounters[] = {
    Counter::kCmaReadOps,      Counter::kCmaReadBytes,
    Counter::kCmaWriteOps,     Counter::kCmaWriteBytes,
    Counter::kCtrlBcasts,      Counter::kCtrlGathers,
    Counter::kCtrlAllgathers,  Counter::kSignalsPosted,
    Counter::kSignalsWaited,   Counter::kBarriers,
    Counter::kCollLaunches,    Counter::kNbcStepsIssued,
    Counter::kLocalCopyBytes,
};

using Snapshot = kacc::obs::CounterSnapshot;

Snapshot minus(const Snapshot& a, const Snapshot& b) {
  Snapshot d{};
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i] = a[i] - b[i];
  }
  return d;
}

/// Counter totals of one untimed pass of the mix, net of a set-up-only
/// launch of the same team.
Snapshot count_pass(const Workload& w, std::uint64_t seed, bool& bad) {
  const kacc::ArchSpec arch = arch_of(w);
  SharedArray<Board> board(1);
  Timeline none(1, 1, 1);
  SharedArray<std::uint8_t> fails(1);
  const Sinks sinks{&board[0], &none, nullptr, &fails};
  Loop L = base_loop(w, seed);
  L.units = op_units(w);
  L.phase = Phase::kSetup;
  const Snapshot base =
      launch(w, arch, [&](Comm& c) { rank_body(c, L, sinks); }).totals;
  L.phase = Phase::kCount;
  const Snapshot pass =
      launch(w, arch, [&](Comm& c) { rank_body(c, L, sinks); }).totals;
  bad = bad || board[0].bad != 0;
  return minus(pass, base);
}

struct Probes {
  double team_launch_ms = 0, local_copy_gbps = 0;
  double read_gbps_c1 = 0, read_gbps_c2 = 0;
  double barrier_us = 0, ctrl_allgather_us = 0;
  double sim_launch_ms = 0, sim_barrier_round_us = 0;
  bool bad = false;
};

/// Layer probes on a native team of three: CMA read bandwidth with one and
/// two concurrent readers of one source, local copy, barrier and ctrl
/// allgather latency; plus the empty-team launch time.
void native_probes(Probes& pr) {
  constexpr std::size_t kBytes = 8 * MiB;
  constexpr int kReps = 24;
  constexpr int kBatches = 24;
  constexpr int kBatch = 200;
  struct Board {
    double c1[kReps], c2[2][kReps], copy[kReps];
    double bar[kBatches], ctrl[kBatches];
    std::uint32_t bad;
  };
  SharedArray<Board> b(1);
  const Placement pl = native_placement();
  const kacc::ArchSpec arch = kacc::detect_host();
  kacc::TeamOptions opts;
  opts.team_timeout_ms = 120'000.0;

  std::vector<double> launches;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t t0 = now_ns();
    if (!kacc::run_native_team(arch, kNativeRanks, [](Comm&) {}, opts)
             .all_ok()) {
      throw std::runtime_error("empty native team failed");
    }
    launches.push_back(ms_since(t0));
  }
  pr.team_launch_ms = quartiles(launches).median;

  const auto body = [&](Comm& comm) {
    const int rank = comm.rank();
    if (!pl.ranks.empty()) {
      pin_to_cpu(pl.ranks[static_cast<std::size_t>(rank)]);
    }
    kacc::AlignedBuffer src(kBytes);
    kacc::AlignedBuffer dst(kBytes);
    fill_bytes(src.data(), kBytes, block_key(7, 0, 0, rank, 0));
    std::uint64_t addr = comm.expose(src.data());
    comm.ctrl_bcast(&addr, sizeof addr, 0);
    const auto read = [&](int rep, double* slot) {
      const std::int64_t t0 = now_ns();
      comm.cma_read(0, addr, dst.data(), kBytes);
      slot[rep] = static_cast<double>(now_ns() - t0);
      if (!check_bytes(dst.data(), kBytes, block_key(7, 0, 0, 0, 0))) {
        b[0].bad = 1;
      }
    };
    for (int rep = 0; rep < kReps; ++rep) {
      comm.barrier();
      if (rank == 1) {
        read(rep, b[0].c1);
      }
    }
    for (int rep = 0; rep < kReps; ++rep) {
      comm.barrier();
      if (rank >= 1) {
        read(rep, b[0].c2[rank - 1]);
      }
    }
    for (int rep = 0; rep < kReps; ++rep) {
      if (rank == 0) {
        const std::int64_t t0 = now_ns();
        comm.local_copy(dst.data(), src.data(), kBytes);
        b[0].copy[rep] = static_cast<double>(now_ns() - t0);
      }
    }
    std::uint64_t mine = static_cast<std::uint64_t>(rank) + 1;
    std::uint64_t all[kNativeRanks];
    for (int i = 0; i < kBatches; ++i) {
      comm.barrier();
      const std::int64_t t0 = now_ns();
      for (int k = 0; k < kBatch; ++k) {
        comm.barrier();
      }
      const std::int64_t t1 = now_ns();
      for (int k = 0; k < kBatch; ++k) {
        comm.ctrl_allgather(&mine, all, sizeof mine);
      }
      const std::int64_t t2 = now_ns();
      if (rank == 0) {
        b[0].bar[i] = static_cast<double>(t1 - t0) / kBatch;
        b[0].ctrl[i] = static_cast<double>(t2 - t1) / kBatch;
      }
      if (all[kNativeRanks - 1] != kNativeRanks) {
        b[0].bad = 1;
      }
    }
  };
  if (!kacc::run_native_team(arch, kNativeRanks, body, opts).all_ok()) {
    throw std::runtime_error("native probe team failed");
  }
  const auto vec = [](const double* v, int n) {
    return std::vector<double>(v, v + n);
  };
  std::vector<double> c2 = vec(b[0].c2[0], kReps);
  const std::vector<double> c2b = vec(b[0].c2[1], kReps);
  c2.insert(c2.end(), c2b.begin(), c2b.end());
  pr.read_gbps_c1 = kBytes / quartiles(vec(b[0].c1, kReps)).median;
  pr.read_gbps_c2 = kBytes / quartiles(c2).median;
  pr.local_copy_gbps = kBytes / quartiles(vec(b[0].copy, kReps)).median;
  pr.barrier_us = quartiles(vec(b[0].bar, kBatches)).median / 1e3;
  pr.ctrl_allgather_us = quartiles(vec(b[0].ctrl, kBatches)).median / 1e3;
  pr.bad = pr.bad || b[0].bad != 0;
}

/// Simulator probes at knl-snc4 p=128: empty-body launch, and the host
/// time of one barrier round as seen by rank 0.
void sim_probes(Probes& pr) {
  constexpr int kBarriers = 40;
  const kacc::ArchSpec arch = kacc::knl_snc4();
  std::vector<double> launches;
  std::vector<double> rounds;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t t0 = now_ns();
    (void)kacc::run_sim(arch, kSimRanks, [](Comm&) {});
    launches.push_back(ms_since(t0));
    double per = 0;
    (void)kacc::run_sim(arch, kSimRanks, [&](Comm& comm) {
      comm.barrier();
      const std::int64_t b0 = now_ns();
      for (int k = 0; k < kBarriers; ++k) {
        comm.barrier();
      }
      if (comm.rank() == 0) {
        per = static_cast<double>(now_ns() - b0) / kBarriers / 1e3;
      }
    });
    rounds.push_back(per);
  }
  pr.sim_launch_ms = quartiles(launches).median;
  pr.sim_barrier_round_us = quartiles(rounds).median;
}

/// Virtual makespan (simulated us) of one pass of the mix, op by op, on
/// the simulator: knl-snc4 p=128 for the simulator workloads, the host's
/// model at p=3 for the native ones.
std::vector<double> virtual_pass(const Workload& w, std::uint64_t seed,
                                 bool& bad) {
  const kacc::ArchSpec arch = arch_of(w);
  const int p = ranks_of(w);
  Loop L;
  L.w = &w;
  L.seed = seed;
  L.units = op_units(w);
  L.budget_s = 1e9;
  L.max_rounds = 1;
  const int n = static_cast<int>(L.units.size());
  SharedArray<Board> board(1);
  Timeline wall(p, n, 1);
  Timeline virt(p, n, 1);
  SharedArray<std::uint8_t> fails(w.ops.size() * w.reps);
  const Sinks sinks{&board[0], &wall, &virt, &fails};
  (void)kacc::run_sim(arch, p, [&](Comm& c) { rank_body(c, L, sinks); });
  std::vector<double> out;
  for (int u = 0; u < n; ++u) {
    out.push_back(virt.span(u, 0));
  }
  for (std::size_t k = 0; k < fails.size(); ++k) {
    bad = bad || fails[k] != 0;
  }
  return out;
}

double us(const SpanAgg& a, bool self = false) {
  return a.count == 0 ? 0.0
                      : static_cast<double>(self ? a.self_ns : a.total_ns) /
                            1e3 / static_cast<double>(a.count);
}

Outcome run_traced(const Workload& w, const RunConfig& cfg) {
  Outcome o;
  const int p = ranks_of(w);
  const kacc::ArchSpec arch = arch_of(w);

  Probes pr;
  native_probes(pr);
  sim_probes(pr);

  // Counters: two identical untimed passes must agree exactly.
  bool bad = pr.bad;
  const Snapshot c1 = count_pass(w, cfg.seed, bad);
  const Snapshot c2 = count_pass(w, cfg.seed, bad);
  for (Counter k : kExactCounters) {
    if (kacc::obs::get(c1, k) != kacc::obs::get(c2, k)) {
      std::fprintf(stderr, "counter %s differs between passes: %llu vs %llu\n",
                   kacc::obs::counter_name(k),
                   static_cast<unsigned long long>(kacc::obs::get(c1, k)),
                   static_cast<unsigned long long>(kacc::obs::get(c2, k)));
      bad = true;
    }
  }
  const double colls = kacc::obs::get(c1, Counter::kCollLaunches);
  const auto per_coll = [&](std::initializer_list<Counter> ks) {
    double s = 0;
    for (Counter k : ks) {
      s += static_cast<double>(kacc::obs::get(c1, k));
    }
    return colls > 0 ? s / colls : 0.0;
  };

  // Virtual time: two passes must give identical makespans.
  const std::vector<double> v1 = virtual_pass(w, cfg.seed, bad);
  const std::vector<double> v2 = virtual_pass(w, cfg.seed, bad);
  if (v1 != v2) {
    std::fprintf(stderr, "virtual makespans differ between two passes\n");
    bad = true;
  }

  // Timed loop: op-by-op units, traced and untraced rounds alternating.
  Loop L = base_loop(w, cfg.seed);
  L.units = op_units(w);
  L.alternate_traced = true;
  const Collected c = measure(w, L, cfg.seconds, 0, round_cap(w) / 8);
  if (c.rounds < 2) {
    throw std::runtime_error("traced run completed fewer than two rounds");
  }
  bad = bad || c.bad;
  const std::size_t n = L.units.size();
  o.attempted = c.rounds * static_cast<std::uint64_t>(calls_per_round(w));
  o.failed = c.failed_calls;

  // Tracing overhead, and the model residual per op (Fig 12 on this host
  // for the native workloads, model vs simulator for the others).
  double plain = 0, traced = 0, resid = 0;
  int resid_n = 0;
  std::printf("%-18s %14s %14s %10s\n", "op", "measured_us", "predicted_us",
              "resid_%");
  for (std::size_t u = 0; u < n; ++u) {
    const double m_plain = quartiles(c.wall[u]).median / 1e3;
    plain += m_plain;
    traced += quartiles(c.wall[u + n]).median / 1e3;
    const OpSpec& op = w.ops[u];
    const double pred = OpBuffers::predicted_us(op, arch, p);
    if (pred <= 0) {
      continue;
    }
    const double measured =
        w.sim ? v1[u] : m_plain / static_cast<double>(w.reps);
    const double r = std::fabs(measured - pred) / measured * 100.0;
    resid += r;
    ++resid_n;
    std::printf("%-18s %14.3f %14.3f %10.1f\n", op_label(op).c_str(), measured,
                pred, r);
  }
  double vsum = 0;
  for (double v : v1) {
    vsum += v;
  }
  std::printf("spans (mean per call, all ranks):\n");
  for (int k = 0; k < kSpanKinds; ++k) {
    const SpanAgg& a = c.spans[static_cast<std::size_t>(k)];
    if (a.count > 0) {
      std::printf("  %-12s n=%-9llu total %10.3f us  self %10.3f us\n",
                  span_name(static_cast<SpanKind>(k)),
                  static_cast<unsigned long long>(a.count), us(a),
                  us(a, true));
    }
  }

  const auto span = [&](SpanKind k) {
    return c.spans[static_cast<std::size_t>(k)];
  };
  const auto cnt = [&](Counter k) {
    return static_cast<double>(kacc::obs::get(c1, k));
  };
  o.correct = !bad;
  o.metrics = {
      {"coll.tune_us", "us", us(span(SpanKind::kTune))},
      {"coll.call_us", "us", us(span(SpanKind::kColl))},
      {"coll.self_us", "us", us(span(SpanKind::kColl), true)},
      {"nbc.compile_us", "us", us(span(SpanKind::kCompile))},
      {"nbc.drain_us", "us", us(span(SpanKind::kDrain))},
      {"nbc.drain_self_us", "us", us(span(SpanKind::kDrain), true)},
      {"nbc.start_us", "us", us(span(SpanKind::kNbcStart))},
      {"nbc.wait_us", "us", us(span(SpanKind::kNbcWait))},
      {"nbc.steps_issued", "count", cnt(Counter::kNbcStepsIssued)},
      {"nbc.steps_deferred", "count", cnt(Counter::kNbcStepsDeferred)},
      {"nbc.admission_stalls", "count", cnt(Counter::kNbcAdmissionStalls)},
      {"cma.read_us", "us", us(span(SpanKind::kCmaRead))},
      {"cma.read_gbps_c1", "GB/s", pr.read_gbps_c1},
      {"cma.read_gbps_c2", "GB/s", pr.read_gbps_c2},
      {"cma.ops_per_coll", "count",
       per_coll({Counter::kCmaReadOps, Counter::kCmaWriteOps})},
      {"cma.bytes_per_coll", "B",
       per_coll({Counter::kCmaReadBytes, Counter::kCmaWriteBytes})},
      {"cma.retries", "count", cnt(Counter::kCmaRetries)},
      {"shm.barrier_us", "us", pr.barrier_us},
      {"shm.ctrl_allgather_us", "us", pr.ctrl_allgather_us},
      {"shm.ctrl_ops_per_coll", "count",
       per_coll({Counter::kCtrlBcasts, Counter::kCtrlGathers,
                 Counter::kCtrlAllgathers})},
      {"shm.signals_per_coll", "count", per_coll({Counter::kSignalsPosted})},
      {"shm.slow_waits", "count", cnt(Counter::kSpinSlowWaits)},
      {"runtime.team_launch_ms", "ms", pr.team_launch_ms},
      {"runtime.local_copy_gbps", "GB/s", pr.local_copy_gbps},
      {"sim.launch_ms", "ms", pr.sim_launch_ms},
      {"sim.barrier_round_us", "us", pr.sim_barrier_round_us},
      {"sim.virtual_us", "sim_us", vsum},
      {"model.residual_pct", "%", resid_n > 0 ? resid / resid_n : 0.0},
      {"trace.overhead_pct", "%", (traced - plain) / plain * 100.0},
  };
  std::printf("traced run: %llu rounds (half traced), drift alarm on %u/%d "
              "ranks, %zu ops per pass, %.0f collectives per count pass\n",
              static_cast<unsigned long long>(c.rounds), c.stale_ranks,
              w.sim ? 0 : p, n, colls);
  return o;
}

} // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> v;
  for (const Workload& w : workloads()) {
    v.emplace_back(w.name);
  }
  return v;
}

Outcome run_workload(const RunConfig& cfg) {
  const Workload& w = find_workload(cfg.workload);
  place_process(w);
  return cfg.trace ? run_traced(w, cfg) : run_end_to_end(w, cfg);
}

} // namespace hostbench
