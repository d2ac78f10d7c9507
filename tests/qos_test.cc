// Unit tests for tegra::qos — the degradation ladder's hysteresis state
// machine and the per-tenant token-bucket quotas, all on synthetic clocks,
// plus the rung-0 bit-identity guarantee of the per-rung engines.

#include <atomic>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/tegra.h"
#include "corpus/corpus_stats.h"
#include "health/timeseries.h"
#include "qos/degradation.h"
#include "qos/rung_engine.h"
#include "qos/rungs.h"
#include "qos/token_bucket.h"
#include "synth/corpus_gen.h"
#include "synth/list_gen.h"

namespace tegra {
namespace qos {
namespace {

DegradationOptions FastLadder() {
  DegradationOptions options;
  options.escalate_pressure = 1.0;
  options.recover_pressure = 0.5;
  options.escalate_hold_seconds = 1.0;
  options.recover_hold_seconds = 2.0;
  return options;
}

QosSignals QueuePressure(double pressure) {
  // target_queue_fraction defaults to 0.5, so queue_fraction = 0.5 * p
  // maps to exactly pressure p.
  QosSignals signals;
  signals.queue_fraction = 0.5 * pressure;
  return signals;
}

TEST(Pressure, IsMaxOfComponents) {
  DegradationController controller(FastLadder(), nullptr);
  QosSignals signals;
  signals.queue_fraction = 0.25;   // /0.5 -> 0.5
  signals.p99_seconds = 3.0;       // /2.0 -> 1.5
  signals.queue_p99_seconds = 0.2; // deadline off -> ignored
  EXPECT_DOUBLE_EQ(controller.Pressure(signals), 1.5);

  signals.deadline_seconds = 0.2;  // budget 0.1s; 0.2/0.1 -> 2.0
  EXPECT_DOUBLE_EQ(controller.Pressure(signals), 2.0);
}

TEST(DegradationController, EscalatesOnlyAfterSustainedPressure) {
  DegradationController controller(FastLadder(), nullptr);
  EXPECT_EQ(controller.Evaluate(QueuePressure(2.0), 0.0), 0);  // timer starts
  EXPECT_EQ(controller.Evaluate(QueuePressure(2.0), 0.5), 0);  // hold not met
  EXPECT_EQ(controller.Evaluate(QueuePressure(2.0), 1.0), 1);  // 1s held
  // The hold restarts per rung: no cascade to the floor in one tick.
  EXPECT_EQ(controller.Evaluate(QueuePressure(2.0), 1.5), 1);
  EXPECT_EQ(controller.Evaluate(QueuePressure(2.0), 2.0), 2);
}

TEST(DegradationController, DeadBandHoldsWithoutFlapping) {
  DegradationController controller(FastLadder(), nullptr);
  controller.Evaluate(QueuePressure(2.0), 0.0);
  ASSERT_EQ(controller.Evaluate(QueuePressure(2.0), 1.0), 1);
  // Pressure oscillating inside the dead band (0.5 .. 1.0): the rung must
  // hold, and every dead-band sample resets both hold timers.
  for (int i = 0; i < 20; ++i) {
    const double pressure = (i % 2 == 0) ? 0.6 : 0.95;
    EXPECT_EQ(controller.Evaluate(QueuePressure(pressure), 1.0 + 0.5 * i), 1);
  }
  const auto snapshot = controller.snapshot();
  EXPECT_EQ(snapshot.escalations, 1u);
  EXPECT_EQ(snapshot.recoveries, 0u);
}

TEST(DegradationController, BoundaryOscillationDoesNotFlap) {
  // Alternating one high and one low sample: neither hold window is ever
  // satisfied, so the rung never moves in either direction.
  DegradationController controller(FastLadder(), nullptr);
  for (int i = 0; i < 40; ++i) {
    const double pressure = (i % 2 == 0) ? 1.5 : 0.2;
    EXPECT_EQ(controller.Evaluate(QueuePressure(pressure), 0.5 * i), 0);
  }
  EXPECT_EQ(controller.snapshot().escalations, 0u);
}

TEST(DegradationController, RecoversAfterSustainedCalm) {
  DegradationController controller(FastLadder(), nullptr);
  controller.Evaluate(QueuePressure(2.0), 0.0);
  controller.Evaluate(QueuePressure(2.0), 1.0);
  controller.Evaluate(QueuePressure(2.0), 2.0);
  ASSERT_EQ(controller.rung(), 2);
  EXPECT_EQ(controller.Evaluate(QueuePressure(0.1), 3.0), 2);  // timer starts
  EXPECT_EQ(controller.Evaluate(QueuePressure(0.1), 4.0), 2);  // 1s < 2s hold
  EXPECT_EQ(controller.Evaluate(QueuePressure(0.1), 5.0), 1);  // recovered
  EXPECT_EQ(controller.Evaluate(QueuePressure(0.1), 7.0), 0);  // and again
  const auto snapshot = controller.snapshot();
  EXPECT_EQ(snapshot.escalations, 2u);
  EXPECT_EQ(snapshot.recoveries, 2u);
}

TEST(DegradationController, RespectsMaxRung) {
  DegradationOptions options = FastLadder();
  options.max_rung = 2;
  DegradationController controller(options, nullptr);
  controller.Evaluate(QueuePressure(5.0), 0.0);
  for (int i = 1; i <= 10; ++i) {
    controller.Evaluate(QueuePressure(5.0), static_cast<double>(i));
  }
  EXPECT_EQ(controller.rung(), 2);
}

TEST(DegradationController, AccountsDegradedSeconds) {
  DegradationController controller(FastLadder(), nullptr);
  controller.Evaluate(QueuePressure(2.0), 0.0);
  controller.Evaluate(QueuePressure(2.0), 1.0);  // rung 1 from t=1
  controller.Evaluate(QueuePressure(0.7), 4.0);  // 3s at rung > 0
  EXPECT_DOUBLE_EQ(controller.snapshot().degraded_seconds, 3.0);
}

TEST(DegradationController, EvaluateFromStoreUsesQueueSignal) {
  // An empty store contributes zero latency signals; the queue fraction
  // alone must still drive the ladder.
  health::TimeSeriesStore store;
  DegradationController controller(FastLadder(), nullptr);
  EXPECT_EQ(controller.EvaluateFromStore(store, 1.0, 0, 0.0), 0);
  EXPECT_EQ(controller.EvaluateFromStore(store, 1.0, 0, 1.0), 1);
}

TEST(TokenBucket, BurstThenRefill) {
  TokenBucket bucket(/*rate=*/2.0, /*burst=*/4.0);
  // The full burst is available up front.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(bucket.TryAcquire(0.0));
  EXPECT_FALSE(bucket.TryAcquire(0.0));
  EXPECT_DOUBLE_EQ(bucket.RetryAfterSeconds(0.0), 0.5);  // 1 token / 2 per s
  // 1 second refills 2 tokens.
  EXPECT_TRUE(bucket.TryAcquire(1.0));
  EXPECT_TRUE(bucket.TryAcquire(1.0));
  EXPECT_FALSE(bucket.TryAcquire(1.0));
}

TEST(TokenBucket, RefillCapsAtBurst) {
  TokenBucket bucket(/*rate=*/10.0, /*burst=*/3.0);
  EXPECT_TRUE(bucket.TryAcquire(0.0, 3.0));
  // A long idle stretch must not bank more than `burst`.
  EXPECT_DOUBLE_EQ(bucket.tokens(100.0), 3.0);
  EXPECT_FALSE(bucket.TryAcquire(100.0, 4.0));
  EXPECT_TRUE(bucket.TryAcquire(100.0, 3.0));
}

TEST(TenantQuotas, DisabledAdmitsEverything) {
  TenantQuotas quotas(QuotaOptions{}, nullptr);
  EXPECT_FALSE(quotas.enabled());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(quotas.Check("heavy", 0.0).allowed);
  }
}

TEST(TenantQuotas, IsolatesTenants) {
  QuotaOptions options;
  options.rate = 1.0;
  options.burst = 2.0;
  TenantQuotas quotas(options, nullptr);
  // Tenant a exhausts its own bucket...
  EXPECT_TRUE(quotas.Check("a", 0.0).allowed);
  EXPECT_TRUE(quotas.Check("a", 0.0).allowed);
  const auto denied = quotas.Check("a", 0.0);
  EXPECT_FALSE(denied.allowed);
  EXPECT_GT(denied.retry_after_seconds, 0.0);
  // ...while tenant b is untouched.
  EXPECT_TRUE(quotas.Check("b", 0.0).allowed);

  const auto snapshot = quotas.Snapshot(0.0);
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].tenant, "a");
  EXPECT_EQ(snapshot[0].admitted, 2u);
  EXPECT_EQ(snapshot[0].rejected, 1u);
  EXPECT_EQ(snapshot[1].tenant, "b");
  EXPECT_EQ(snapshot[1].rejected, 0u);
}

TEST(TenantQuotas, EmptyTenantMapsToAnonymousBucket) {
  QuotaOptions options;
  options.rate = 1.0;
  options.burst = 1.0;
  TenantQuotas quotas(options, nullptr);
  EXPECT_TRUE(quotas.Check("", 0.0).allowed);
  EXPECT_FALSE(quotas.Check("", 0.0).allowed);
  const auto snapshot = quotas.Snapshot(0.0);
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].tenant, kAnonymousTenant);
}

TEST(TenantQuotas, BatchChargesPerItem) {
  QuotaOptions options;
  options.rate = 1.0;
  options.burst = 5.0;
  TenantQuotas quotas(options, nullptr);
  EXPECT_TRUE(quotas.Check("batcher", 0.0, /*tokens=*/4).allowed);
  EXPECT_FALSE(quotas.Check("batcher", 0.0, /*tokens=*/4).allowed);
  EXPECT_TRUE(quotas.Check("batcher", 0.0, /*tokens=*/1).allowed);
}

TEST(Rungs, NamesAndClamp) {
  EXPECT_STREQ(RungName(0), "full");
  EXPECT_STREQ(RungName(kNumRungs - 1), "baseline");
  EXPECT_STREQ(RungName(99), "invalid");
  EXPECT_EQ(ClampRung(-3), 0);
  EXPECT_EQ(ClampRung(99), kNumRungs - 1);
}

TEST(Rungs, RungZeroIsIdentity) {
  TegraOptions base;
  base.max_columns = 7;
  base.distance.alpha = 0.5;
  const TegraOptions rung0 = OptionsForRung(base, 0);
  EXPECT_EQ(rung0.max_columns, base.max_columns);
  EXPECT_EQ(rung0.max_anchor_nodes, base.max_anchor_nodes);
  EXPECT_EQ(rung0.slgr_width_cap, base.slgr_width_cap);
  EXPECT_EQ(rung0.max_sp_pairs, base.max_sp_pairs);
  EXPECT_DOUBLE_EQ(rung0.distance.alpha, base.distance.alpha);
}

TEST(Rungs, HigherRungsTightenBudgets) {
  TegraOptions base;
  const TegraOptions rung1 = OptionsForRung(base, 1);
  EXPECT_GT(rung1.max_anchor_nodes, 0u);  // anytime budget switched on
  const TegraOptions rung2 = OptionsForRung(base, 2);
  EXPECT_GT(rung2.slgr_width_cap, 0u);
  EXPECT_GT(rung2.max_sp_pairs, 0u);
  const TegraOptions rung3 = OptionsForRung(base, 3);
  EXPECT_DOUBLE_EQ(rung3.distance.alpha, 1.0);  // syntactic-only
}

std::vector<std::string> CityLines() {
  return {
      "Boston Massachusetts 645,966",
      "Worcester Massachusetts 182,544",
      "Providence Rhode Island 178,042",
      "Hartford Connecticut 124,775",
      "Springfield Massachusetts 153,060",
  };
}

TEST(RungEngine, RungZeroMatchesDirectExtractor) {
  TegraOptions base;
  RungEngine engine(/*stats=*/nullptr, base);
  TegraExtractor direct(/*stats=*/nullptr, base);

  const auto via_engine = engine.Extract(0, CityLines(), 3);
  const auto via_direct = direct.ExtractWithColumns(CityLines(), 3);
  ASSERT_TRUE(via_engine.ok()) << via_engine.status().ToString();
  ASSERT_TRUE(via_direct.ok()) << via_direct.status().ToString();
  EXPECT_TRUE(via_engine.value().table == via_direct.value().table);
  EXPECT_DOUBLE_EQ(via_engine.value().sp, via_direct.value().sp);
}

TEST(RungEngine, EveryRungExtracts) {
  TegraOptions base;
  RungEngine engine(/*stats=*/nullptr, base);
  for (int rung = 0; rung < kNumRungs; ++rung) {
    const auto result = engine.Extract(rung, CityLines(), 3);
    ASSERT_TRUE(result.ok()) << "rung " << rung << ": "
                             << result.status().ToString();
    EXPECT_EQ(result.value().num_columns, 3) << "rung " << rung;
    EXPECT_EQ(result.value().table.NumRows(), CityLines().size())
        << "rung " << rung;
  }
}

/// Forwards to `base`, counting CoOccurrenceCount calls.
class CoOccurrenceCounter : public CorpusView {
 public:
  explicit CoOccurrenceCounter(const CorpusView* base) : base_(base) {}

  uint64_t TotalColumns() const override { return base_->TotalColumns(); }
  size_t NumValues() const override { return base_->NumValues(); }
  ValueId Lookup(std::string_view value) const override {
    return base_->Lookup(value);
  }
  uint32_t ColumnCount(ValueId id) const override {
    return base_->ColumnCount(id);
  }
  uint32_t CoOccurrenceCount(ValueId a, ValueId b) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return base_->CoOccurrenceCount(a, b);
  }
  std::string ValueString(ValueId id) const override {
    return base_->ValueString(id);
  }
  const char* FormatName() const override { return base_->FormatName(); }
  size_t HeapBytes() const override { return base_->HeapBytes(); }
  size_t MappedBytes() const override { return base_->MappedBytes(); }

  size_t calls() const { return calls_.load(); }

 private:
  const CorpusView* base_;
  mutable std::atomic<size_t> calls_{0};
};

TEST(RungEngine, SyntacticRungMakesNoCoOccurrenceLookups) {
  const ColumnIndex index = synth::BuildBackgroundIndex(
      synth::CorpusProfile::kEnterprise, /*num_tables=*/200, /*seed=*/3);
  synth::TableGenerator generator(synth::CorpusProfile::kEnterprise,
                                  /*seed=*/4);
  const std::vector<std::string> lines =
      synth::MakeBenchmarkInstance(generator.Generate()).lines;

  // Each rung gets a fresh CorpusStats, so no memo hides a lookup.
  auto co_calls_at = [&](int rung) {
    const CoOccurrenceCounter counter(&index);
    const CorpusStats stats(&counter);
    const RungEngine engine(&stats, TegraOptions{});
    const auto result = engine.Extract(rung, lines, /*num_columns=*/0);
    EXPECT_TRUE(result.ok()) << "rung " << rung;
    return counter.calls();
  };
  EXPECT_GT(co_calls_at(0), 0u);  // The list's values are in the corpus.
  EXPECT_EQ(co_calls_at(3), 0u);
}

}  // namespace
}  // namespace qos
}  // namespace tegra
