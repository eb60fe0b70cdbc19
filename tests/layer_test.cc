// Layer-stack suite: the composable transport stack's three contracts.
// (1) Accounting balance — for every PT, after real fetches the per-layer
// byte counters sum exactly to the wire-byte total (the commitment-point
// invariant fig9's decomposition rests on). (2) LayerStack specs are
// well-nested, declared by every transport, and round-trip through their
// one-line text form. (3) Teardown under fault injection — a transport
// whose handshake is refused leaves a balanced ledger with no payload
// counted. Plus exact-unit tests for FramedStreamMeter.
#include <gtest/gtest.h>

#include "fault/fault_injector.h"
#include "pt/layer/layer.h"
#include "pt/layer/stack.h"
#include "ptperf/campaign.h"

namespace ptperf {
namespace {

using pt::layer::CarrierKind;
using pt::layer::FramedStreamMeter;
using pt::layer::LayerKind;
using pt::layer::LayerSpec;
using pt::layer::LayerStack;
using pt::layer::StackAccounting;
using pt::layer::StackSpec;

// ------------------------------------------------- per-transport balance --

class LayerAccounting : public ::testing::TestWithParam<PtId> {};

TEST_P(LayerAccounting, CountersSumToWireTotalAfterFetches) {
  ScenarioConfig cfg;
  cfg.seed = 17;
  cfg.tranco_sites = 3;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);
  PtStack stack = factory.create(GetParam());

  const pt::layer::LayerStack* layers = stack.transport->layer_stack();
  ASSERT_NE(layers, nullptr) << stack.name();
  EXPECT_EQ(layers->spec().transport, stack.name());
  EXPECT_EQ(layers->validate(), std::nullopt) << stack.name();

  // Two successful fetches over fresh circuits. Modeled hazards (e.g.
  // camoufler's IM session drops) can legitimately fail an attempt, so
  // retry within a bounded attempt budget.
  int successes = 0, attempts = 0;
  bool idle = true;
  std::string last_error;
  std::function<void()> next = [&] {
    if (successes >= 2 || attempts >= 6) return;
    ++attempts;
    idle = false;
    stack.socks->new_identity();
    const workload::Website& site =
        scenario.tranco().sites()[attempts % 2];
    stack.fetcher->fetch(site.hostname, "/", sim::from_seconds(300),
                         [&](workload::FetchResult r) {
                           if (r.success) ++successes;
                           else last_error = r.error;
                           idle = true;
                           next();
                         });
  };
  next();
  scenario.loop().run_until_done([&] { return idle && successes >= 2; });
  ASSERT_GE(successes, 2) << stack.name() << ": " << attempts
                          << " attempts, last error: " << last_error;

  const StackAccounting& a = *layers->accounting();
  EXPECT_TRUE(a.balanced())
      << stack.name() << ": wire=" << a.wire_bytes
      << " payload=" << a.payload_bytes << " handshake=" << a.handshake_bytes
      << " framing=" << a.framing_bytes << " carrier=" << a.carrier_bytes;
  EXPECT_GT(a.wire_bytes, 0) << stack.name();
  EXPECT_GT(a.payload_bytes, 0) << stack.name();
  EXPECT_GE(a.handshake_bytes, 0) << stack.name();
  EXPECT_GE(a.framing_bytes, 0) << stack.name();
  EXPECT_GE(a.carrier_bytes, 0) << stack.name();
  // The tunnel carries at least the fetched pages.
  EXPECT_GE(a.wire_bytes, a.payload_bytes) << stack.name();
}

TEST_P(LayerAccounting, SpecRoundTripsThroughText) {
  ScenarioConfig cfg;
  cfg.seed = 19;
  cfg.tranco_sites = 1;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  TransportFactory factory(scenario);
  PtStack stack = factory.create(GetParam());

  const StackSpec& spec = stack.transport->layer_stack()->spec();
  std::string text = pt::layer::to_string(spec);
  std::optional<StackSpec> parsed = pt::layer::parse_stack_spec(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  EXPECT_EQ(*parsed, spec) << text;
}

INSTANTIATE_TEST_SUITE_P(
    AllTransports, LayerAccounting, ::testing::ValuesIn(all_pt_ids()),
    [](const ::testing::TestParamInfo<PtId>& info) {
      return std::string(pt_id_name(info.param));
    });

// ------------------------------------------------------- spec validation --

StackSpec spec_of(std::vector<LayerSpec> layers) {
  return StackSpec{"test", std::move(layers)};
}

TEST(LayerStackValidate, AcceptsWellNestedStacks) {
  EXPECT_EQ(LayerStack(spec_of({{LayerKind::kCarrier, "raw", ""}})).validate(),
            std::nullopt);
  EXPECT_EQ(LayerStack(spec_of({{LayerKind::kHandshake, "hs", ""},
                                {LayerKind::kFraming, "fr", ""},
                                {LayerKind::kRateLimit, "rl", ""},
                                {LayerKind::kCarrier, "tls", ""}}))
                .validate(),
            std::nullopt);
}

TEST(LayerStackValidate, RejectsEmptyStack) {
  EXPECT_NE(LayerStack(spec_of({})).validate(), std::nullopt);
}

TEST(LayerStackValidate, RejectsMissingCarrier) {
  EXPECT_NE(LayerStack(spec_of({{LayerKind::kHandshake, "hs", ""},
                                {LayerKind::kFraming, "fr", ""}}))
                .validate(),
            std::nullopt);
}

TEST(LayerStackValidate, RejectsCarrierNotAtBottom) {
  EXPECT_NE(LayerStack(spec_of({{LayerKind::kCarrier, "raw", ""},
                                {LayerKind::kFraming, "fr", ""}}))
                .validate(),
            std::nullopt);
}

TEST(LayerStackValidate, RejectsTwoCarriers) {
  EXPECT_NE(LayerStack(spec_of({{LayerKind::kCarrier, "raw", ""},
                                {LayerKind::kCarrier, "tls", ""}}))
                .validate(),
            std::nullopt);
}

TEST(LayerStackValidate, RejectsOutOfOrderKinds) {
  EXPECT_NE(LayerStack(spec_of({{LayerKind::kFraming, "fr", ""},
                                {LayerKind::kHandshake, "hs", ""},
                                {LayerKind::kCarrier, "raw", ""}}))
                .validate(),
            std::nullopt);
}

TEST(LayerStackValidate, RejectsUnknownCarrierName) {
  EXPECT_NE(
      LayerStack(spec_of({{LayerKind::kCarrier, "carrier-pigeon", ""}}))
          .validate(),
      std::nullopt);
}

TEST(LayerSpecText, ParseRejectsGarbage) {
  EXPECT_EQ(pt::layer::parse_stack_spec(""), std::nullopt);
  EXPECT_EQ(pt::layer::parse_stack_spec("no-colon-here"), std::nullopt);
  EXPECT_EQ(pt::layer::parse_stack_spec("x: bogus-kind/name"), std::nullopt);
}

// ------------------------------------------- teardown on fault injection --

TEST(LayerTeardown, RefusedHandshakeLeavesBalancedLedgerWithoutPayload) {
  ScenarioConfig cfg;
  cfg.seed = 23;
  cfg.tranco_sites = 1;
  cfg.cbl_sites = 0;
  Scenario scenario(cfg);
  fault::FaultPlan plan;
  plan.tls_handshake_reject_probability = 1.0;
  scenario.install_fault_plan(plan);
  TransportFactory factory(scenario);
  PtStack stack = factory.create(PtId::kWebTunnel);

  bool done = false;
  workload::FetchResult result;
  stack.fetcher->fetch(scenario.tranco().sites()[0].hostname, "/",
                       sim::from_seconds(60), [&](workload::FetchResult r) {
                         result = std::move(r);
                         done = true;
                       });
  scenario.loop().run_until_done([&] { return done; });

  ASSERT_TRUE(done);
  EXPECT_FALSE(result.success);
  const StackAccounting& a = *stack.transport->layer_stack()->accounting();
  EXPECT_TRUE(a.balanced())
      << "wire=" << a.wire_bytes << " payload=" << a.payload_bytes
      << " handshake=" << a.handshake_bytes << " framing=" << a.framing_bytes
      << " carrier=" << a.carrier_bytes;
  // The tunnel never opened: no payload crossed the carrier.
  EXPECT_EQ(a.payload_bytes, 0);
  EXPECT_EQ(a.handshake_rtts, 0);
}

// ------------------------------------------------------ FramedStreamMeter --

TEST(FramedStreamMeterTest, SplitsSingleFrameCut) {
  FramedStreamMeter m;
  m.push(100);  // framed on the wire as 4 + 100 bytes
  FramedStreamMeter::Cut cut = m.consume(104);
  EXPECT_EQ(cut.header, 4u);
  EXPECT_EQ(cut.payload, 100u);
  EXPECT_TRUE(m.empty());
}

TEST(FramedStreamMeterTest, SplitsCutCrossingFrameBoundaries) {
  FramedStreamMeter m;
  m.push(10);
  m.push(20);
  // First cut takes frame 1 (4+10) and the header + 6 payload of frame 2.
  FramedStreamMeter::Cut cut = m.consume(24);
  EXPECT_EQ(cut.header, 8u);
  EXPECT_EQ(cut.payload, 16u);
  // Remainder of frame 2.
  cut = m.consume(14);
  EXPECT_EQ(cut.header, 0u);
  EXPECT_EQ(cut.payload, 14u);
  EXPECT_TRUE(m.empty());
}

TEST(FramedStreamMeterTest, PartialHeaderCut) {
  FramedStreamMeter m;
  m.push(5);
  FramedStreamMeter::Cut cut = m.consume(2);  // inside the header
  EXPECT_EQ(cut.header, 2u);
  EXPECT_EQ(cut.payload, 0u);
  cut = m.consume(7);  // rest of header + all payload
  EXPECT_EQ(cut.header, 2u);
  EXPECT_EQ(cut.payload, 5u);
  EXPECT_TRUE(m.empty());
}

TEST(FramedStreamMeterTest, ConservesBytesUnderArbitraryCuts) {
  FramedStreamMeter m;
  std::size_t total = 0;
  for (std::size_t payload : {1u, 7u, 100u, 512u, 3u}) {
    m.push(payload);
    total += 4 + payload;
  }
  sim::Rng rng(42);
  std::size_t consumed = 0, headers = 0, payloads = 0;
  while (consumed < total) {
    std::size_t n = std::min<std::size_t>(
        total - consumed, 1 + rng.next_below(64));
    FramedStreamMeter::Cut cut = m.consume(n);
    EXPECT_EQ(cut.header + cut.payload, n);
    headers += cut.header;
    payloads += cut.payload;
    consumed += n;
  }
  EXPECT_EQ(headers, 5u * 4u);
  EXPECT_EQ(payloads, 1u + 7u + 100u + 512u + 3u);
  EXPECT_TRUE(m.empty());
}

}  // namespace
}  // namespace ptperf
