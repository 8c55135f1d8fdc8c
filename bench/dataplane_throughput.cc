// Raw data-plane throughput: mutex channel vs lock-free SPSC ring, per-SDO
// vs batched endpoints.
//
// The figure benches cannot show substrate speed — the threaded runtime is
// paced by the wall clock (duration / time_scale), so a faster channel
// moves the same SDOs in the same wall time. This bench measures the
// transport itself: N 16-byte SDO-shaped records through one channel,
// reported as messages/second per (backend × threading × batch) leg.
//
//   inline  — push and pop alternate on one thread (no contention: the
//             pure per-operation cost, the dominant term on the engine's
//             hot path where the consumer polls without blocking)
//   xthread — a producer thread and a consumer thread (adds the
//             cache-line handoff, and on single-core CI, scheduler churn)
//
// The bench also emits a deterministic fingerprint (FNV-1a over the
// consumed sequence of a fixed single-threaded op script): a FIFO's
// consumed sequence is independent of backend and batch size, so the
// printed fingerprint must be identical for --batch=1 and --batch=16 —
// CI's bench smoke step asserts exactly that. The fingerprint plus the
// fixed message counts form the document's HARD work totals for
// `aces bench-diff` against the committed BENCH_dataplane.json.
//
// Flags: --messages=N (default 1000000), --batch=K (default 16),
//        --json=FILE, --csv, --help. Not parse_bench_options: --scale and
//        --seeds have no meaning for a transport microbench.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "harness/bench_json.h"
#include "harness/table.h"
#include "obs/registry.h"
#include "runtime/channel.h"
#include "runtime/spsc_ring.h"

namespace {

using aces::runtime::Channel;
using aces::runtime::SpscRing;

/// Same shape as the engine's Sdo: the cost being measured is the
/// channel's, so the payload matches the real one.
struct PodSdo {
  double birth = 0.0;
  std::int64_t seq = 0;
};

constexpr std::size_t kChannelCapacity = 1024;

std::uint64_t fnv1a_step(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// One same-thread leg: alternate a batched push phase and a batched pop
/// phase until `messages` records made the round trip. The scratch buffer
/// is caller-owned so the loop itself is allocation-free (the steady-state
/// alloc check measures across two calls). Returns wall ms.
template <typename Q>
double run_inline(Q& q, std::uint64_t messages, std::size_t batch,
                  std::vector<PodSdo>& buf) {
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  const aces::harness::WallTimer timer;
  while (popped < messages) {
    std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(batch, messages - pushed));
    if (want > 0) {
      for (std::size_t i = 0; i < want; ++i) {
        buf[i].birth = static_cast<double>(pushed + i);
        buf[i].seq = static_cast<std::int64_t>(pushed + i);
      }
      pushed += q.try_push_n(buf.data(), want);
    }
    popped += q.pop_burst(buf.data(), batch);
  }
  return timer.elapsed_ms();
}

/// One two-thread leg: a producer thread offers `messages` records, the
/// calling thread consumes them. Returns wall ms.
template <typename Q>
double run_xthread(Q& q, std::uint64_t messages, std::size_t batch) {
  const aces::harness::WallTimer timer;
  std::thread producer([&q, messages, batch] {
    std::vector<PodSdo> buf(batch);
    std::uint64_t sent = 0;
    while (sent < messages) {
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(batch, messages - sent));
      for (std::size_t i = 0; i < want; ++i) {
        buf[i].birth = static_cast<double>(sent + i);
        buf[i].seq = static_cast<std::int64_t>(sent + i);
      }
      std::size_t done = 0;
      while (done < want) {
        const std::size_t k = q.try_push_n(buf.data() + done, want - done);
        if (k == 0) std::this_thread::yield();
        done += k;
      }
      sent += want;
    }
  });
  std::vector<PodSdo> buf(batch);
  std::uint64_t received = 0;
  while (received < messages) {
    const std::size_t k = q.pop_burst(buf.data(), batch);
    if (k == 0) {
      std::this_thread::yield();
      continue;
    }
    received += k;
  }
  producer.join();
  return timer.elapsed_ms();
}

/// Deterministic op script (fixed push/pop phase lengths with partial
/// acceptance) — identical consumed sequence for every backend and batch
/// size, fingerprinted. Mirrors the differential in spsc_ring_test.cc.
template <typename Q>
std::uint64_t run_fingerprint(Q& q, std::size_t batch) {
  std::uint64_t fp = 0xCBF29CE484222325ull;
  std::uint64_t next_value = 0;
  std::vector<PodSdo> buf(batch);
  for (int round = 0; round < 4000; ++round) {
    const std::size_t pushes = 1 + (round * 7) % 13;
    const std::uint64_t base = next_value;
    next_value += pushes;
    std::size_t offered = 0;
    while (offered < pushes) {
      const std::size_t n = std::min<std::size_t>(batch, pushes - offered);
      for (std::size_t i = 0; i < n; ++i) {
        buf[i].seq = static_cast<std::int64_t>(base + offered + i);
      }
      const std::size_t k = q.try_push_n(buf.data(), n);
      offered += n;
      if (k < n) break;
    }
    const std::size_t pops = 1 + (round * 5) % 11;
    std::size_t drained = 0;
    while (drained < pops) {
      const std::size_t n = std::min<std::size_t>(batch, pops - drained);
      const std::size_t k = q.pop_burst(buf.data(), n);
      if (k == 0) break;
      for (std::size_t i = 0; i < k; ++i) {
        fp = fnv1a_step(fp, static_cast<std::uint64_t>(buf[i].seq));
      }
      drained += k;
    }
  }
  while (auto v = q.try_pop()) {
    fp = fnv1a_step(fp, static_cast<std::uint64_t>(v->seq));
  }
  return fp;
}

void usage() {
  std::cout << "dataplane_throughput [--messages=N] [--batch=K] "
               "[--json=FILE] [--csv] [--help]\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aces;

  std::uint64_t messages = 1000000;
  std::size_t batch = 16;
  std::string json_path;
  bool csv = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--messages=", 0) == 0) {
      messages = std::strtoull(arg.c_str() + 11, nullptr, 10);
    } else if (arg.rfind("--batch=", 0) == 0) {
      batch = std::strtoull(arg.c_str() + 8, nullptr, 10);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--help") {
      usage();
      return 0;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      usage();
      return 1;
    }
  }
  if (messages == 0 || batch == 0) {
    std::cerr << "--messages and --batch must be positive\n";
    return 1;
  }

  std::cout << "=== Data-plane transport throughput: mutex channel vs "
               "lock-free SPSC ring ===\n"
            << messages << " x 16-byte SDOs per leg, channel capacity "
            << kChannelCapacity << ", batch K=" << batch << "\n\n";

  harness::BenchJsonWriter json("dataplane_throughput");
  harness::Table table({"leg", "wall ms", "msgs/sec (M)"});
  const auto record = [&](const std::string& label, double wall_ms) {
    json.add_run(label, wall_ms);
    const double mps = static_cast<double>(messages) / (wall_ms / 1e3) / 1e6;
    table.add_row({label, harness::cell(wall_ms, 1), harness::cell(mps, 2)});
    return mps;
  };

  double mutex_inline_mps = 0.0;
  double ring_batched_mps = 0.0;
  std::vector<PodSdo> scratch(std::max<std::size_t>(batch, 1));
  {
    Channel<PodSdo> q(kChannelCapacity);
    mutex_inline_mps =
        record("mutex/inline/batch=1", run_inline(q, messages, 1, scratch));
  }
  {
    SpscRing<PodSdo> q(kChannelCapacity);
    record("ring/inline/batch=1", run_inline(q, messages, 1, scratch));
  }
  {
    Channel<PodSdo> q(kChannelCapacity);
    record("mutex/inline/batch=K", run_inline(q, messages, batch, scratch));
  }
  {
    SpscRing<PodSdo> q(kChannelCapacity);
    ring_batched_mps = record("ring/inline/batch=K",
                              run_inline(q, messages, batch, scratch));
  }
  {
    Channel<PodSdo> q(kChannelCapacity);
    record("mutex/xthread/batch=1", run_xthread(q, messages, 1));
  }
  {
    SpscRing<PodSdo> q(kChannelCapacity);
    record("ring/xthread/batch=1", run_xthread(q, messages, 1));
  }
  {
    SpscRing<PodSdo> q(kChannelCapacity);
    record("ring/xthread/batch=K", run_xthread(q, messages, batch));
  }

  // Steady-state allocation check: the second identical leg must allocate
  // nothing (all three backends preallocate), so the operator-new count is
  // flat across message volume. Only meaningful under ACES_PERF_INSTRUMENT.
  std::uint64_t steady_allocs = 0;
  {
    SpscRing<PodSdo> q(kChannelCapacity);
    run_inline(q, messages / 4, batch, scratch);  // warm everything up
    const std::uint64_t before = obs::alloc_count();
    run_inline(q, messages, batch, scratch);
    steady_allocs = obs::alloc_count() - before;
  }

  // Deterministic fingerprint: identical across backends and batch sizes.
  std::uint64_t fp_ring = 0;
  std::uint64_t fp_mutex = 0;
  {
    SpscRing<PodSdo> q(kChannelCapacity);
    fp_ring = run_fingerprint(q, batch);
  }
  {
    Channel<PodSdo> q(kChannelCapacity);
    fp_mutex = run_fingerprint(q, batch);
  }

  harness::print_table(table, csv, std::cout);
  char fp_line[128];
  std::snprintf(fp_line, sizeof(fp_line),
                "fingerprint=%016llx (backends %s)\n",
                static_cast<unsigned long long>(fp_ring),
                fp_ring == fp_mutex ? "agree" : "DISAGREE");
  std::cout << "\n" << fp_line
            << "steady-state allocations over " << messages
            << " msgs: " << steady_allocs
            << (obs::perf_instrumented() ? "" : " (uninstrumented build)")
            << "\nring/inline/batch=K vs mutex/inline/batch=1 speedup: "
            << harness::cell(ring_batched_mps / mutex_inline_mps, 2)
            << "x\n";
  if (fp_ring != fp_mutex) return 1;

  // HARD work totals: message counts and the op-script fingerprint are
  // bit-stable for fixed flags; wall times are the SOFT trajectory.
  json.set_perf_work(/*events_executed=*/messages * 7 + fp_ring % 1000,
                     /*sdos_processed=*/messages * 7,
                     /*reoptimizations=*/0);
  json.set_perf_memory(static_cast<double>(obs::peak_rss_bytes()) / 1e6,
                       steady_allocs);
  return json.write_file(json_path) ? 0 : 1;
}
