// Self-tests of the benchmark's own logic: the percentile rule, the
// self-time subtraction, and that each correctness check fails the run
// when a violation is injected.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "campaign.hpp"
#include "raw.hpp"
#include "report.hpp"
#include "serve.hpp"
#include "speed_probe.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

// --- percentile rule ------------------------------------------------------

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile({4, 1, 3, 2}, 50.0), 2.0);
  EXPECT_EQ(percentile({4, 1, 3, 2}, 100.0), 4.0);
  EXPECT_EQ(percentile(one_to(1000), 99.0), 990.0);
  EXPECT_EQ(median({7.0}), 7.0);
}

TEST(Percentile, TailIsHighestWithTenSamplesBeyond) {
  const Tail t1000 = tail_percentile(one_to(1000));
  EXPECT_EQ(t1000.percentile, 99.0);
  EXPECT_EQ(t1000.beyond, 10u);
  EXPECT_EQ(t1000.value, 990.0);
  EXPECT_EQ(t1000.samples, 1000u);

  // One sample short of p99: falls back to p90.
  const Tail t999 = tail_percentile(one_to(999));
  EXPECT_EQ(t999.percentile, 90.0);
  EXPECT_EQ(t999.beyond, 99u);
  EXPECT_EQ(t999.samples, 999u);

  EXPECT_EQ(tail_percentile(one_to(10000)).percentile, 99.9);
  EXPECT_EQ(tail_percentile(one_to(20)).percentile, 50.0);
}

TEST(Percentile, TooFewSamplesReportNoTail) {
  const Tail t = tail_percentile(one_to(19));
  EXPECT_EQ(t.percentile, 0.0);
  EXPECT_EQ(t.samples, 19u);
}

// --- host-speed probe -----------------------------------------------------

TEST(SpeedProbe, OneCompressionIsTheDigestOfTheEmptyMessage) {
  const std::array<std::uint32_t, 8> want = {
      0xe3b0c442, 0x98fc1c14, 0x9afbf4c8, 0x996fb924,
      0x27ae41e4, 0x649b934c, 0xa495991b, 0x7852b855};
  EXPECT_EQ(probe_state(1), want);
  EXPECT_TRUE(probe_computes_sha256());
  EXPECT_NE(probe_state(2), want);
  EXPECT_GT(probe_host_ns(), 0.0);
}

TEST(SpeedProbe, OpsAreScaledByTheProbesAroundThem) {
  // A probe at the nominal time leaves an op as it is; a host at half
  // speed doubles the probe time and halves the op's normalized time.
  const double k = kProbeNominalNs;
  const std::vector<double> probes = {k, k, 2 * k, 2 * k};
  const std::vector<double> ops = {4.0, 6.0, 8.0, 8.0};
  const std::vector<std::uint32_t> before = {0, 1, 2, 3};
  const auto n = speed_normalized(ops, before, probes);
  ASSERT_EQ(n.size(), 4u);
  EXPECT_DOUBLE_EQ(n[0], 4.0);          // nominal on both sides
  EXPECT_DOUBLE_EQ(n[1], 6.0 / 1.5);    // the host slowed mid-op
  EXPECT_DOUBLE_EQ(n[2], 4.0);          // half speed on both sides
  EXPECT_DOUBLE_EQ(n[3], 4.0);          // the last probe stands alone
  EXPECT_THROW((void)speed_normalized(ops, {0, 1}, probes),
               std::invalid_argument);
  EXPECT_THROW((void)speed_normalized(ops, before, {}),
               std::invalid_argument);
}

TEST(SpeedProbe, TimedWorkIsReadAgainstTheProbesAroundIt) {
  const Timed t = time_normalized([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  EXPECT_GE(t.wall_s, 0.02);
  EXPECT_GT(t.normalized_s, 0.0);
}

TEST(SpeedProbe, ProbingLoopBracketsEveryOp) {
  Result r;
  Loop loop;
  run_slice(r, loop, 0.0, 3, [](std::size_t) {});
  run_slice(r, loop, 0.0, 2, [](std::size_t) {});
  ASSERT_EQ(loop.ops(), 5u);
  ASSERT_EQ(loop.op_probe.size(), 5u);
  // Ops this fast share one probe per slice; each slice ends on a probe.
  EXPECT_EQ(loop.probe_ns.size(), 4u);
  const std::vector<std::uint32_t> want = {0, 0, 0, 2, 2};
  EXPECT_EQ(loop.op_probe, want);
}

// --- self time ------------------------------------------------------------

SpanRecord span(std::uint32_t parent, std::int64_t start, std::int64_t end) {
  SpanRecord s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, SubtractsOnlyDirectChildren) {
  // a [0,100] > b [10,60] > c [20,40]
  const std::vector<SpanRecord> spans = {span(kNoSpan, 0, 100),
                                         span(0, 10, 60), span(1, 20, 40)};
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 20);
}

TEST(SelfTime, OverlappingChildrenCountOnceAndAreClipped) {
  const std::vector<SpanRecord> spans = {
      span(kNoSpan, 0, 100), span(0, 10, 30), span(0, 20, 50),
      span(0, 90, 120)};
  // Covered: [10,50] and [90,100] = 50.
  EXPECT_EQ(self_times(spans)[0], 50);
}

TEST(SelfTime, TracerNestsByCallOrder) {
  Tracer tracer;
  const auto outer = tracer.name_id("outer");
  const auto inner = tracer.name_id("inner");
  EXPECT_EQ(tracer.name_id("outer"), outer);
  tracer.set_op(7);
  {
    Span a(tracer, outer, 1);
    { Span b(tracer, inner, 4096); }
    { Span c(tracer, inner, 4096); }
  }
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, kNoSpan);
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[2].parent, 0u);
  EXPECT_EQ(spans[2].op, 7u);
  const auto layers = layer_stats(tracer);
  EXPECT_EQ(layers.at("inner").spans, 2u);
  EXPECT_EQ(layers.at("inner").units, 8192u);
  EXPECT_EQ(layers.at("outer").self_ns,
            layers.at("outer").total_ns - layers.at("inner").total_ns);
}

// --- run verdict ----------------------------------------------------------

TEST(Result, CorrectOnlyWhenEveryCheckPassed) {
  Result r;
  EXPECT_FALSE(r.correct());  // nothing checked is not a pass
  r.check("a", true);
  EXPECT_TRUE(r.correct());
  r.check("b", false, "injected");
  EXPECT_FALSE(r.correct());
}

TEST(Result, SummaryHasExactlyTheContractKeys) {
  Result r;
  r.check("a", true);
  r.record_op(true, "op");
  r.metric("ops_per_s", 12.5, "1/s");
  EXPECT_EQ(r.summary_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
            "\"metrics\": {\"ops_per_s\": {\"value\": 12.5, \"unit\": "
            "\"1/s\"}}}");
}

// --- loop and thread checks ----------------------------------------------

TEST(Loop, SlicesCountOpsAcrossSlicesAndStopOnTheGranule) {
  Result r;
  Loop loop(3);
  std::vector<std::size_t> seen;
  run_slice(r, loop, 0.0, 1, [&](std::size_t i) { seen.push_back(i); });
  run_slice(r, loop, 0.0, 4, [&](std::size_t i) { seen.push_back(i); });
  // 3 ops, then 6 (the first multiple of 3 with at least 4 in the slice).
  ASSERT_EQ(loop.ops(), 9u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
  EXPECT_EQ(r.attempted(), 0u);  // the ops recorded nothing themselves
}

TEST(Loop, ThrowingOpIsAFailedOp) {
  Result r;
  Loop loop;
  run_slice(r, loop, 0.0, 2, [&](std::size_t i) {
    if (i == 1) throw std::runtime_error("injected");
  });
  EXPECT_EQ(loop.ops(), 2u);
  EXPECT_EQ(r.failed(), 1u);
  EXPECT_FALSE(r.correct());
}

TEST(Loop, ThreadThatLivesOnlyMidLoopIsSeen) {
  const int before = live_threads();
  const auto sample = std::chrono::nanoseconds(kThreadSampleNs);
  const auto start = std::chrono::steady_clock::now();
  Result r;
  Loop loop;
  std::thread extra;
  // The extra thread lives from the first op to two sampling periods in
  // and is joined before the loop ends: only a mid-loop sample sees it.
  run_slice(r, loop, 4 * kThreadSampleNs * 1e-9, 1, [&](std::size_t i) {
    if (i == 0)
      extra = std::thread([&] { std::this_thread::sleep_for(2 * sample); });
    if (extra.joinable() &&
        std::chrono::steady_clock::now() - start > 3 * sample)
      extra.join();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  if (extra.joinable()) extra.join();
  EXPECT_EQ(live_threads(), before);
  EXPECT_EQ(loop.max_threads, before + 1);
}

TEST(ThreadChecks, PoolWiderThanOneFailsTheRun) {
  Result good;
  check_thread_use(good, 1, 2, 2);
  EXPECT_TRUE(good.correct());
  Result wide_pool;
  check_thread_use(wide_pool, 4, 1, 2);
  EXPECT_FALSE(wide_pool.correct());
}

TEST(ThreadChecks, MoreThreadsThanTheLimitFailTheRun) {
  Result r;
  check_thread_use(r, 1, 3, 2);
  EXPECT_FALSE(r.correct());
}

// --- serve checks ---------------------------------------------------------

TEST(ServeChecks, NonOkFillIsCountedAsFailedAndFailsTheRun) {
  Result r;
  r.check("setup", true);
  record_fill(r, trng::RandomByteService::FillStatus::kOk);
  EXPECT_TRUE(r.correct());
  record_fill(r, trng::RandomByteService::FillStatus::kStarved);
  record_fill(r, trng::RandomByteService::FillStatus::kDegraded);
  EXPECT_EQ(r.attempted(), 3u);
  EXPECT_EQ(r.failed(), 2u);
  EXPECT_FALSE(r.correct());
}

TEST(ServeChecks, TwinStreamsMustAgreeAndOtherIdsDiffer) {
  const std::vector<std::byte> a(64, std::byte{1}), b(64, std::byte{2});
  Result good;
  check_stream_twins(good, a, a, b);
  EXPECT_TRUE(good.correct());

  Result twin_differs;
  check_stream_twins(twin_differs, a, b, b);
  EXPECT_FALSE(twin_differs.correct());

  Result other_id_same;
  check_stream_twins(other_id_same, a, a, a);
  EXPECT_FALSE(other_id_same.correct());

  Result nothing_served;
  check_stream_twins(nothing_served, {}, {}, b);
  EXPECT_FALSE(nothing_served.correct());
}

TEST(ServeChecks, RingNotFilledInSetUpFailsTheRun) {
  Result good;
  check_ring_filled(good, true);
  EXPECT_TRUE(good.correct());
  Result bad;
  check_ring_filled(bad, false);
  EXPECT_FALSE(bad.correct());
}

// --- raw checks -----------------------------------------------------------

TEST(RawChecks, DecomposedMatchesComposedOnTwins) {
  Tracer tracer;
  RawChain composed(42);
  TracedRawChain decomposed(42, tracer);
  Result r;
  check_decomposed_matches_composed(r, composed, decomposed, 2);
  EXPECT_TRUE(r.correct());
  // Every op was one pump: one source pull and one health scan each.
  const auto layers = layer_stats(tracer);
  EXPECT_EQ(layers.at("raw.op").spans, 2u);
  EXPECT_EQ(layers.at("trng.ero.generate_into").units, 2 * kRawBlockBits);
  EXPECT_EQ(layers.at("trng.health.process").units, 2 * kRawBlockBits);
}

TEST(RawChecks, DesynchronizedTwinFailsTheRun) {
  Tracer tracer;
  RawChain composed(42);
  TracedRawChain decomposed(42, tracer);
  std::vector<std::byte> out(kRawOpBytes);
  composed.op(out);  // injected: the composed twin runs one op ahead
  Result r;
  check_decomposed_matches_composed(r, composed, decomposed, 1);
  EXPECT_FALSE(r.correct());
}

TEST(RawChecks, BitsInMustBeExactly4096PerOp) {
  Result good;
  check_raw_bits(good, 4096 * 3, 4096 * 3, 3);
  EXPECT_TRUE(good.correct());
  Result short_ledger;
  check_raw_bits(short_ledger, 4096 * 3 - 8, 4096 * 3, 3);
  EXPECT_FALSE(short_ledger.correct());
  Result extra_pump;
  check_raw_bits(extra_pump, 4096 * 3, 4096 * 4, 3);
  EXPECT_FALSE(extra_pump.correct());
}

TEST(RawChecks, HealthLeavingNominalIsAFailedOp) {
  Result r;
  r.check("setup", true);
  r.record_op(false, "raw: health engine stays nominal");
  r.record_op(false, "raw: health engine stays nominal");
  EXPECT_EQ(r.failed(), 2u);
  EXPECT_FALSE(r.correct());
  // One failing check per failure kind, not one per op.
  EXPECT_EQ(r.checks().size(), 2u);
}

TEST(RawCounts, Sha256BytesFollowFromSizes) {
  // 4096 raw bits pack into 512 bytes; 248 output bytes take 8 hash_df
  // messages of counter(1) + length(4) + 512 input bytes.
  EXPECT_EQ(hash_df_sha256_bytes(512, 248), 8u * 517u);
  EXPECT_EQ(hash_df_sha256_bytes(80, 32), 85u);
}

// --- campaign checks ------------------------------------------------------

TEST(CampaignChecks, OwnFoldMatchesRunCampaignAndMismatchFails) {
  model::CampaignConfig config = campaign_config(9);
  config.corners = 2;
  config.seeds = 2;
  const auto report = model::run_campaign(config);
  const auto grid = model::expand_grid(config);
  std::vector<model::CornerAccumulator> own(grid.size());
  for (std::uint64_t s = 0; s < 4; ++s) fold_shard(grid, config, own, s);
  std::vector<model::CornerAccumulator> library;
  for (const auto& row : report.corners) library.push_back(row.acc);

  Result good;
  check_campaign_accumulators(good, library, own);
  EXPECT_TRUE(good.correct());

  // Injected: one extra shard folded into the benchmark's own corner.
  auto extra = own;
  fold_shard(grid, config, extra, 4);
  Result bad;
  check_campaign_accumulators(bad, library, extra);
  EXPECT_FALSE(bad.correct());

  Result missing;
  check_campaign_accumulators(missing, library, {own[0]});
  EXPECT_FALSE(missing.correct());
}

TEST(CampaignChecks, OpThatFoldedNoShardFailsTheRun) {
  Result good;
  check_folded(good, 648, 648);
  EXPECT_TRUE(good.correct());
  Result bad;
  check_folded(bad, 647, 648);
  EXPECT_FALSE(bad.correct());
}

TEST(CampaignChecks, ShardClassesCoverTheGrid) {
  const auto grid = model::expand_grid(campaign_config(1));
  ASSERT_EQ(grid.size(), 324u);
  std::size_t attacked = 0, cells = 0;
  for (const auto& spec : grid) {
    const std::string c = shard_class(spec);
    attacked += c.ends_with("_attacked");
    cells += c == "cell_array";
  }
  EXPECT_EQ(attacked, 216u);
  EXPECT_EQ(cells, 36u);
}

}  // namespace
}  // namespace perfbench
