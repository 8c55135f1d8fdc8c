// ClusterAggregator + StatusServer unit tests: absorb/render semantics,
// the status line protocol end to end over a real loopback connection, the
// Prometheus exposition's once-per-family header contract, one metric list
// behind all three expositions, and hostile names in each of them.
#include "obs/cluster_aggregate.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/histogram.h"
#include "common/rng.h"
#include "obs/latency.h"
#include "obs/spans.h"

namespace aces::obs {
namespace {

constexpr auto kPe = static_cast<std::uint32_t>(HopKind::kPe);

/// A finalized span through `pes`, one second per hop: a quarter waiting,
/// the rest in service. `dropped` ends it early, as a crash or drop does.
SdoSpan span_through(std::uint64_t trace_id,
                     const std::vector<std::uint32_t>& pes, double start,
                     bool dropped = false) {
  SdoSpan span;
  span.trace_id = trace_id;
  span.source_pe = pes.front();
  span.start = start;
  double t = start;
  for (const std::uint32_t pe : pes) {
    span.hops[span.hop_count++] = {pe, kPe, t, t + 0.25, t + 1.0};
    t += 1.0;
  }
  span.end = t;
  span.dropped = dropped;
  return span;
}

/// Every histogram of `a` and `b` equal bit for bit: counts, raw cells,
/// min, max and sum.
void expect_registries_equal(const LatencyRegistry& a,
                             const LatencyRegistry& b) {
  const auto same = [](const LogHistogram& x, const LogHistogram& y) {
    EXPECT_EQ(x.count(), y.count());
    EXPECT_EQ(x.raw_counts(), y.raw_counts());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.min()),
              std::bit_cast<std::uint64_t>(y.min()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.max()),
              std::bit_cast<std::uint64_t>(y.max()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.sum()),
              std::bit_cast<std::uint64_t>(y.sum()));
  };
  ASSERT_EQ(a.pes().size(), b.pes().size());
  for (const auto& [pe, stats] : a.pes()) {
    ASSERT_TRUE(b.pes().contains(pe)) << "pe " << pe;
    same(stats.wait, b.pes().at(pe).wait);
    same(stats.service, b.pes().at(pe).service);
  }
  ASSERT_EQ(a.paths().size(), b.paths().size());
  for (const auto& [id, stats] : a.paths()) {
    ASSERT_TRUE(b.paths().contains(id)) << stats.label;
    EXPECT_EQ(stats.label, b.paths().at(id).label);
    same(stats.end_to_end, b.paths().at(id).end_to_end);
  }
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// One Prometheus sample line, label values unescaped.
struct Sample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  std::string value;
};

bool is_name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

/// Parses `name{key="value",...} value` or `name value`: exactly one
/// space, before a value that has none. nullopt for anything else.
std::optional<Sample> parse_sample(const std::string& line) {
  Sample s;
  std::size_t i = 0;
  while (i < line.size() && is_name_char(line[i])) ++i;
  if (i == 0) return std::nullopt;
  s.name = line.substr(0, i);
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      const std::size_t key_start = i;
      while (i < line.size() && is_name_char(line[i])) ++i;
      std::string key = line.substr(key_start, i - key_start);
      if (key.empty() || line.compare(i, 2, "=\"") != 0) return std::nullopt;
      i += 2;
      std::string value;
      for (; i < line.size() && line[i] != '"'; ++i) {
        if (line[i] != '\\') {
          value.push_back(line[i]);
          continue;
        }
        if (++i == line.size()) return std::nullopt;
        if (line[i] == 'n') {
          value.push_back('\n');
        } else if (line[i] == '\\' || line[i] == '"') {
          value.push_back(line[i]);
        } else {
          return std::nullopt;
        }
      }
      if (i == line.size()) return std::nullopt;
      ++i;  // closing quote
      s.labels.emplace_back(std::move(key), std::move(value));
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i == line.size()) return std::nullopt;
    ++i;  // closing brace
  }
  if (i >= line.size() || line[i] != ' ') return std::nullopt;
  s.value = line.substr(i + 1);
  if (s.value.empty() || s.value.find(' ') != std::string::npos) {
    return std::nullopt;
  }
  return s;
}

/// The status line protocol: every line exactly `key value`, the key
/// starting `aces_`.
std::vector<std::pair<std::string, std::string>> parse_status(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const std::string& line : lines_of(text)) {
    const std::size_t space = line.find(' ');
    EXPECT_NE(space, std::string::npos) << line;
    if (space == std::string::npos) continue;
    EXPECT_EQ(line.find(' ', space + 1), std::string::npos) << line;
    EXPECT_EQ(line.rfind("aces_", 0), 0u) << line;
    out.emplace_back(line.substr(0, space), line.substr(space + 1));
  }
  return out;
}

TEST(ClusterAggregatorTest, CountersSumDeltasAcrossShardsAndEpochs) {
  ClusterAggregator agg;
  agg.absorb_counters(0, {{"dist.sdo.arrived", 10}, {"dist.sdo.emitted", 3}});
  agg.absorb_counters(1, {{"dist.sdo.arrived", 7}});
  // Second epoch from shard 0: deltas accumulate, they do not replace.
  agg.absorb_counters(0, {{"dist.sdo.arrived", 5}});

  const auto totals = agg.cluster_counters();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].first, "dist.sdo.arrived");
  EXPECT_EQ(totals[0].second, 22u);
  EXPECT_EQ(totals[1].first, "dist.sdo.emitted");
  EXPECT_EQ(totals[1].second, 3u);

  const auto statuses = agg.shard_statuses();
  EXPECT_EQ(statuses.at(0).metrics_reports, 2u);
  EXPECT_EQ(statuses.at(1).metrics_reports, 1u);
}

TEST(ClusterAggregatorTest, ShardLifecycleAndQuantumWatermark) {
  ClusterAggregator agg;
  agg.note_shard(0);
  agg.note_shard(1);
  agg.note_shard(1);  // idempotent
  EXPECT_EQ(agg.shard_count(), 2u);
  EXPECT_EQ(agg.shards_alive(), 2u);

  agg.note_quantum(0, 5);
  agg.note_quantum(0, 3);  // stale frame must not move the watermark back
  EXPECT_EQ(agg.shard_statuses().at(0).last_quantum, 5u);

  agg.note_shard_dead(1);
  EXPECT_EQ(agg.shard_count(), 2u);
  EXPECT_EQ(agg.shards_alive(), 1u);

  // A respawned worker says Hello again: its shard is alive once more.
  agg.note_shard(1);
  EXPECT_EQ(agg.shards_alive(), 2u);
}

TEST(ClusterAggregatorTest, FlightDumpSurvivesShardDeath) {
  ClusterAggregator agg;
  FlightDump dump;
  dump.event = "fault.pe_stall";
  dump.time = 12.5;
  dump.recent.push_back(span_through(42, {3}, 1.0));
  agg.absorb_flight_dump(1, dump);
  std::vector<SdoSpan> spans;
  const std::size_t ring = SpanTracerOptions{}.ring_capacity;
  for (std::uint64_t i = 0; i < ring + 10; ++i) {
    spans.push_back(span_through(i, {3, 4}, static_cast<double>(i)));
  }
  agg.absorb_spans(1, spans);
  agg.note_shard_dead(1);

  // Both kinds of evidence outlive the shard, kept apart.
  const auto dumps = agg.flight_dumps();
  ASSERT_TRUE(dumps.contains(1));
  EXPECT_EQ(dumps.at(1).event, "fault.pe_stall");
  EXPECT_EQ(dumps.at(1).recent.size(), 1u);
  EXPECT_FALSE(agg.shard_statuses().at(1).alive);
  EXPECT_EQ(agg.shard_statuses().at(1).flight_dumps, 1u);
  const auto recent = agg.recent_spans();
  ASSERT_TRUE(recent.contains(1));
  ASSERT_EQ(recent.at(1).size(), ring);  // the newest ring_capacity spans
  EXPECT_EQ(recent.at(1).front().trace_id, 10u);
  EXPECT_EQ(recent.at(1).back().trace_id, ring + 9);

  // Spans arriving later extend the ring; they never overwrite the fault
  // dump. Only a newer fault dump replaces it.
  agg.absorb_spans(1, {span_through(9999, {3}, 500.0)});
  EXPECT_EQ(agg.flight_dumps().at(1).event, "fault.pe_stall");
  EXPECT_EQ(agg.recent_spans().at(1).back().trace_id, 9999u);
  dump.event = "fault.node_crash";
  agg.absorb_flight_dump(1, dump);
  EXPECT_EQ(agg.flight_dumps().at(1).event, "fault.node_crash");

  std::ostringstream report;
  agg.write_report(report);
  EXPECT_NE(report.str().find("shard 1 [DEAD]: " + std::to_string(ring) +
                              " recent spans"),
            std::string::npos)
      << report.str();
  EXPECT_NE(report.str().find("fault dump event=fault.node_crash"),
            std::string::npos);
}

TEST(ClusterAggregatorTest, MergedLatencyIsBucketExact) {
  const std::vector<SdoSpan> shard0 = {span_through(1, {7, 8}, 0.0),
                                       span_through(2, {7}, 0.5, true)};
  const std::vector<SdoSpan> shard1 = {span_through(3, {5, 7}, 1.0)};

  ClusterAggregator agg;
  agg.absorb_spans(0, shard0);
  agg.absorb_spans(1, shard1);

  LatencyRegistry expected;
  for (const auto* spans : {&shard0, &shard1}) {
    LatencyRegistry one_shard;
    for (const SdoSpan& span : *spans) record_span_latency(one_shard, span);
    expected.merge(one_shard);
  }
  const LatencyRegistry merged = agg.merged_latency();
  expect_registries_equal(merged, expected);
  // PE 7 was visited by all three spans, the dropped one included; only
  // the two completed spans are end-to-end samples.
  EXPECT_EQ(merged.pes().at(7).wait.count(), 3u);
  EXPECT_EQ(merged.paths().size(), 2u);
}

TEST(ClusterAggregatorTest, SpansFromATracerRebuildItsLatencyRegistry) {
  // A traced, shuffled workload on one tracer: spans start, visit PEs,
  // cross a wire boundary, complete, get dropped, or are still in flight
  // when the epochs are drained.
  SpanTracerOptions options;
  options.sample_rate = 1.0;
  options.keep_completed = true;
  SpanTracer tracer(options);
  ClusterAggregator agg;
  Rng rng(0x5A11);
  std::vector<std::int32_t> live;
  double now = 0.0;
  for (int step = 0; step < 4000; ++step) {
    now += rng.exponential(0.01);
    const auto roll = rng.uniform_int(0, 9);
    if (live.empty() || roll == 0) {
      const auto pe = static_cast<std::uint32_t>(rng.uniform_int(0, 5));
      const std::int32_t h = tracer.begin(PeId(pe), now);
      tracer.on_enqueue(h, PeId(pe), now);
      live.push_back(h);
      continue;
    }
    const auto at = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(live.size()) - 1));
    const std::int32_t h = live[at];
    if (roll <= 5) {
      // Service the current hop and move to a random next PE, sometimes
      // through a wire crossing.
      tracer.on_dequeue(h, now);
      tracer.on_emit(h, now + rng.exponential(0.002));
      if (roll == 5) {
        tracer.append_wire_hop(h, PeId(0), HopKind::kWireSerialize, now);
        tracer.append_wire_hop(h, PeId(0), HopKind::kWireRecv, now);
      }
      const auto next = static_cast<std::uint32_t>(rng.uniform_int(0, 5));
      tracer.on_enqueue(h, PeId(next), now);
    } else {
      tracer.on_dequeue(h, now);
      tracer.on_emit(h, now);
      if (roll == 9) {
        tracer.drop(h, now);
      } else {
        tracer.complete(h, now);
      }
      live[at] = live.back();
      live.pop_back();
    }
    if (step % 97 == 0) agg.absorb_spans(0, tracer.take_completed());
  }
  agg.absorb_spans(0, tracer.take_completed());

  ASSERT_GT(tracer.spans_completed(), 100u);
  ASSERT_GT(tracer.spans_dropped(), 10u);
  expect_registries_equal(agg.merged_latency(), tracer.latency());
}

TEST(ClusterAggregatorTest, SlowestSpansAndMeansCountOnlyCompletedSpans) {
  // A crash-ended span can be slower than anything that completed; it is
  // still a span (counted), but not an end-to-end sample.
  SdoSpan slow_dropped = span_through(1, {1, 2, 3, 4}, 0.0, true);
  SdoSpan fast = span_through(2, {1, 2}, 0.0);
  ASSERT_GT(slow_dropped.latency(), fast.latency());
  ClusterAggregator agg;
  agg.absorb_spans(0, {slow_dropped, fast});

  std::ostringstream report;
  agg.write_report(report);
  const std::string text = report.str();
  EXPECT_NE(text.find("trace 2 path 1>2"), std::string::npos) << text;
  EXPECT_EQ(text.find("trace 1 path"), std::string::npos) << text;
  std::ostringstream status;
  agg.write_status(status);
  EXPECT_NE(status.str().find("aces_cluster_spans_completed 2\n"),
            std::string::npos);
}

TEST(ClusterAggregatorTest, StitchedSpanAccounting) {
  SdoSpan local;
  local.trace_id = 1;
  local.start = 0.0;
  local.end = 0.2;
  local.hops[0] = {3, static_cast<std::uint32_t>(HopKind::kPe), 0.0, 0.05,
                   0.1};
  local.hop_count = 1;

  SdoSpan stitched = local;
  stitched.trace_id = 2;
  stitched.hops[1] = {3, static_cast<std::uint32_t>(HopKind::kWireSend), 0.1,
                      0.1, 0.15};
  stitched.hops[2] = {5, static_cast<std::uint32_t>(HopKind::kWireRecv), 0.15,
                      0.15, 0.15};
  stitched.hop_count = 3;

  ClusterAggregator agg;
  agg.absorb_spans(0, {local, stitched});

  std::ostringstream status;
  agg.write_status(status);
  EXPECT_NE(status.str().find("aces_cluster_spans_completed 2"),
            std::string::npos);
  EXPECT_NE(status.str().find("aces_cluster_spans_stitched 1"),
            std::string::npos);
  EXPECT_EQ(status.str().find("span_batches"), std::string::npos);
  EXPECT_EQ(agg.recent_spans().at(0).size(), 2u);
}

TEST(ClusterAggregatorTest, StatusLineProtocolIsGrepStable) {
  ClusterAggregator agg;
  agg.note_shard(0);
  agg.note_shard(1);
  agg.note_quantum(1, 17);
  agg.record_step_skew(0.002);
  agg.record_rtt(0, 0.001);
  agg.record_frame_received(0, 128);
  agg.record_frame_sent(0, 64);
  agg.record_heartbeat(1);
  agg.record_decode_reject(1);
  agg.record_relay_dropped(1, 3);

  std::ostringstream os;
  agg.write_status(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("aces_cluster_shards 2\n"), std::string::npos);
  EXPECT_NE(text.find("aces_cluster_shards_alive 2\n"), std::string::npos);
  EXPECT_NE(text.find("aces_cluster_quantum_max 17\n"), std::string::npos);
  EXPECT_NE(text.find("aces_cluster_barrier_skew_seconds_max 0.002\n"),
            std::string::npos);
  EXPECT_NE(text.find("aces_shard_0_frames_in 1\n"), std::string::npos);
  EXPECT_NE(text.find("aces_shard_0_bytes_in 128\n"), std::string::npos);
  EXPECT_NE(text.find("aces_shard_0_bytes_out 64\n"), std::string::npos);
  EXPECT_NE(text.find("aces_shard_1_heartbeats 1\n"), std::string::npos);
  EXPECT_NE(text.find("aces_shard_1_decode_rejects 1\n"), std::string::npos);
  EXPECT_NE(text.find("aces_shard_1_relay_dropped 3\n"), std::string::npos);
  // Exactly `key value` per line: two fields everywhere.
  EXPECT_FALSE(parse_status(text).empty());
}

TEST(ClusterAggregatorTest, PrometheusEscapesPathologicalLabels) {
  // A hostile worker-supplied name: the three escapes Prometheus defines
  // and a space. It reaches every exposition as a counter, gauge and timer
  // name, and the report also as a fault dump's event.
  const std::string evil = "in\"gress\\mid\negress sp";
  const auto fill = [](ClusterAggregator& agg, const std::string& name) {
    agg.absorb_gauge(0, name, 1.5);
    agg.absorb_counters(0, {{name, 2}});
    agg.absorb_perf(0, name, 3, 4);
    FlightDump dump;
    dump.event = name;
    agg.absorb_flight_dump(0, dump);
  };
  ClusterAggregator agg, plain;
  fill(agg, evil);
  fill(plain, "plain");

  std::ostringstream prom;
  agg.write_prometheus(prom);
  const std::string text = prom.str();
  // The escaped form appears; the raw quote/newline form must not.
  EXPECT_NE(text.find("in\\\"gress\\\\mid\\negress sp"), std::string::npos);
  EXPECT_EQ(text.find("in\"gress"), std::string::npos);
  // Every line is a comment or exactly `name{...} value`, and the name
  // comes back intact from each of the four worker samples.
  std::size_t intact = 0;
  for (const std::string& line : lines_of(text)) {
    if (!line.empty() && line[0] == '#') continue;
    const std::optional<Sample> sample = parse_sample(line);
    ASSERT_TRUE(sample.has_value()) << line;
    for (const auto& [key, value] : sample->labels) {
      if (value == evil) ++intact;
    }
  }
  EXPECT_EQ(intact, 4u);

  std::ostringstream status;
  agg.write_status(status);
  std::ostringstream plain_status;
  plain.write_status(plain_status);
  EXPECT_EQ(parse_status(status.str()).size(),
            parse_status(plain_status.str()).size());

  std::ostringstream report, plain_report;
  agg.write_report(report);
  plain.write_report(plain_report);
  EXPECT_EQ(lines_of(report.str()).size(), lines_of(plain_report.str()).size())
      << report.str();
}

TEST(ClusterAggregatorTest, PrometheusHeadersOncePerFamily) {
  ClusterAggregator agg;
  for (std::uint32_t rank = 0; rank < 3; ++rank) {
    agg.note_shard(rank);
    agg.note_quantum(rank, 10);
    agg.record_rtt(rank, 0.001);
    agg.absorb_counters(rank, {{"dist.sdo.arrived", 5}});
    agg.absorb_gauge(rank, "dist.quantum", 10.0);
    agg.absorb_spans(rank, {span_through(rank, {rank, rank + 1}, 0.0)});
    agg.absorb_perf(rank, "quantum", 10, 1000);
  }
  agg.record_step_skew(0.001);
  agg.record_step_skew(0.003);

  std::ostringstream os;
  agg.write_prometheus(os);
  const std::string text = os.str();
  // Every family emitted for 3 shards still carries exactly one HELP and
  // one TYPE line, and all of a family's samples follow them.
  for (const char* family :
       {"aces_cluster_barrier_skew_seconds", "aces_shard_up",
        "aces_shard_last_quantum", "aces_shard_rtt_seconds",
        "aces_shard_frames_total", "aces_shard_bytes_total",
        "aces_shard_flight_dumps_total", "aces_shard_counter_total",
        "aces_shard_gauge", "aces_shard_timer_calls_total",
        "aces_shard_timer_ns_total", "aces_pe_wait_seconds",
        "aces_pe_service_seconds", "aces_path_latency_seconds"}) {
    EXPECT_EQ(
        count_occurrences(text, std::string("# HELP ") + family + " "), 1u)
        << family;
    EXPECT_EQ(
        count_occurrences(text, std::string("# TYPE ") + family + " "), 1u)
        << family;
  }
  std::vector<std::string> families;
  for (const std::string& line : lines_of(text)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      families.push_back(line.substr(7, line.find(' ', 7) - 7));
      continue;
    }
    if (line[0] == '#') continue;
    ASSERT_FALSE(families.empty());
    EXPECT_EQ(line.rfind(families.back(), 0), 0u)
        << line << " outside its family " << families.back();
  }
  // And each shard's sample is present.
  EXPECT_EQ(count_occurrences(text, "aces_shard_up{"), 3u);
}

TEST(ClusterAggregatorTest, OneListFeedsAllThreeExpositions) {
  ClusterAggregator agg;
  for (std::uint32_t rank = 0; rank < 3; ++rank) {
    agg.note_shard(rank);
    agg.note_quantum(rank, 40 + rank);
    agg.record_frame_sent(rank, 100 + rank);
    agg.record_frame_received(rank, 200 + rank);
    agg.record_heartbeat(rank);
    agg.absorb_counters(rank, {{"dist.sdo.arrived", 5 + rank}});
    agg.absorb_trace(rank, TickRecord{});
  }
  agg.note_shard_dead(1);
  agg.record_rtt(0, 0.001);
  agg.record_rtt(0, 0.0025);
  agg.record_rtt(2, 0.004);  // shard 1 has no RTT sample
  agg.record_step_skew(0.0005);
  agg.record_step_skew(0.0015);
  agg.record_decode_reject(2);
  agg.record_relay_dropped(2, 7);
  agg.absorb_gauge(0, "dist.quantum", 0.125);
  agg.absorb_perf(2, "controller_tick", 12, 34567);
  SdoSpan crossed = span_through(4, {1, 2}, 0.0);
  crossed.hops[crossed.hop_count++] = {2, static_cast<std::uint32_t>(
                                              HopKind::kWireRecv),
                                       2.0, 2.0, 2.0};
  agg.absorb_spans(0, {span_through(3, {1, 2}, 0.0), crossed});
  FlightDump dump;
  dump.event = "fault.node_crash";
  agg.absorb_flight_dump(1, dump);

  std::ostringstream prom_os, status_os, report_os;
  agg.write_prometheus(prom_os);
  agg.write_status(status_os);
  agg.write_report(report_os);
  const auto status = parse_status(status_os.str());
  std::map<std::string, std::string> status_of;
  for (const auto& [key, value] : status) {
    EXPECT_TRUE(status_of.emplace(key, value).second) << "repeated " << key;
  }
  EXPECT_EQ(status.front().first, "aces_cluster_shards");
  EXPECT_EQ(status_of.at("aces_cluster_shards_alive"), "2");
  EXPECT_EQ(status_of.at("aces_cluster_quantum_max"), "42");
  EXPECT_EQ(status_of.at("aces_cluster_spans_stitched"), "1");
  EXPECT_EQ(status_of.at("aces_shard_1_rtt_seconds_max"), "0");
  EXPECT_EQ(status_of.at("aces_shard_0_counter_dist.sdo.arrived"), "5");
  EXPECT_EQ(status_of.at("aces_shard_2_timer_ns_controller_tick"), "34567");

  // The naming rule, from a Prometheus sample to its status key: drop a
  // counter's `_total`, append each label value but the shard's as
  // `_<value>`, and splice the shard's rank in after `aces_shard_`.
  std::map<std::string, std::string> type_of;
  std::set<std::string> mapped;
  for (const std::string& line : lines_of(prom_os.str())) {
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream words(line.substr(7));
      std::string name, type;
      words >> name >> type;
      type_of[name] = type;
      continue;
    }
    if (line[0] == '#') continue;
    const std::optional<Sample> sample = parse_sample(line);
    ASSERT_TRUE(sample.has_value()) << line;
    const std::string& type = type_of[sample->name];
    if (type != "counter" && type != "gauge") continue;  // latency families
    std::string key = sample->name;
    if (type == "counter") {
      ASSERT_TRUE(key.ends_with("_total")) << line;
      key.resize(key.size() - 6);
    }
    std::string shard;
    for (const auto& [label, value] : sample->labels) {
      if (label == "shard") {
        shard = value;
      } else {
        key += '_' + value;
      }
    }
    if (!shard.empty()) {
      ASSERT_EQ(key.rfind("aces_shard_", 0), 0u) << line;
      key.insert(11, shard + '_');
    }
    ASSERT_TRUE(status_of.contains(key)) << line << " -> " << key;
    EXPECT_EQ(status_of.at(key), sample->value) << line;
    EXPECT_TRUE(mapped.insert(key).second) << "two samples map to " << key;
  }
  EXPECT_EQ(mapped.size(), status.size()) << "a status line with no sample";

  // The report: cluster-wide entries as status lines; each per-shard
  // entry in the shard table, under its shard's column.
  const std::vector<std::string> report = lines_of(report_os.str());
  std::vector<std::vector<std::string>> table;
  for (std::size_t i = 0; i < report.size(); ++i) {
    if (report[i].rfind("shard ", 0) != 0) continue;
    for (; i < report.size() && !report[i].empty(); ++i) {
      std::istringstream words(report[i]);
      table.emplace_back();
      for (std::string w; words >> w;) table.back().push_back(w);
    }
    break;
  }
  ASSERT_FALSE(table.empty()) << report_os.str();
  EXPECT_EQ(table[0], (std::vector<std::string>{"shard", "0", "1[DEAD]", "2",
                                                "total"}));
  for (const auto& [key, value] : status) {
    if (key.rfind("aces_cluster_", 0) == 0) {
      EXPECT_NE(std::find(report.begin(), report.end(),
                          "  " + key + ' ' + value),
                report.end())
          << key;
      continue;
    }
    ASSERT_EQ(key.rfind("aces_shard_", 0), 0u) << key;
    const std::size_t end = key.find('_', 11);
    const std::size_t column = std::stoul(key.substr(11, end - 11)) + 1;
    const std::string row_key = key.substr(end + 1);
    const auto row =
        std::find_if(table.begin(), table.end(),
                     [&](const auto& r) { return r[0] == row_key; });
    ASSERT_NE(row, table.end()) << key;
    ASSERT_GT(row->size(), column) << key;
    EXPECT_EQ((*row)[column], value) << key;
  }
  // Counter rows carry the total across shards.
  const auto frames_in =
      std::find_if(table.begin(), table.end(),
                   [](const auto& r) { return r[0] == "frames_in"; });
  ASSERT_NE(frames_in, table.end());
  EXPECT_EQ(frames_in->back(), "3");
}

TEST(StatusServerTest, ServesStatusOverLoopback) {
  ClusterAggregator agg;
  agg.note_shard(0);
  agg.note_quantum(0, 9);
  StatusServer server(&agg, 0);  // ephemeral port
  ASSERT_TRUE(server.listening()) << server.error();
  ASSERT_GT(server.port(), 0);

  const auto scrape = [&server]() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
        0)
        << std::strerror(errno);
    std::string text;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n <= 0) break;
      text.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return text;
  };

  const std::string first = scrape();
  EXPECT_NE(first.find("aces_cluster_shards 1\n"), std::string::npos);
  EXPECT_NE(first.find("aces_shard_0_last_quantum 9\n"), std::string::npos);

  // The endpoint is live, not a snapshot: state absorbed after the first
  // scrape shows up in the next one.
  agg.note_quantum(0, 11);
  agg.note_shard(1);
  const std::string second = scrape();
  EXPECT_NE(second.find("aces_cluster_shards 2\n"), std::string::npos);
  EXPECT_NE(second.find("aces_shard_0_last_quantum 11\n"),
            std::string::npos);

  server.stop();  // idempotent with the destructor
}

TEST(StatusServerTest, ReportsBindFailureWithoutThrowing) {
  ClusterAggregator agg;
  StatusServer first(&agg, 0);
  ASSERT_TRUE(first.listening());
  // SO_REUSEADDR does not allow two live listeners on one port.
  StatusServer second(&agg, first.port());
  EXPECT_FALSE(second.listening());
  EXPECT_FALSE(second.error().empty());
}

}  // namespace
}  // namespace aces::obs
