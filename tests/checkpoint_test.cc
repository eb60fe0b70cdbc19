// Property tests for the checkpoint layer (src/ptperf/checkpoint.*,
// src/util/codec.*): every serializable accumulator round-trips
// bit-exactly through its codec — empty, singleton, merged, and
// randomized — and every corrupted byte stream (truncation at each
// prefix, bit flips, invariant violations) is rejected with a typed
// error, never UB. The Store itself is covered at the snapshot-file
// level: record/flush/resume identity, per-field fingerprint refusal,
// plan-hash (repetition cursor) refusal, torn-file and old-version
// rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "ptperf/checkpoint.h"
#include "pt/layer/layer.h"
#include "sim/rng.h"
#include "stats/descriptive.h"
#include "util/codec.h"

namespace ptperf {
namespace {

using checkpoint::FaultCounts;
using util::Bytes;
using util::CodecError;
using util::CodecReader;
using util::CodecWriter;

class TempDir {
 public:
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "checkpoint_XXXXXX";
    dir_ = mkdtemp(tmpl.data());
  }
  ~TempDir() {
    if (dir_.empty()) return;
    std::string cmd = "rm -rf '" + dir_ + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

// ---------------------------------------------------------------------------
// Codec primitives

TEST(Codec, PrimitivesRoundTripExactly) {
  CodecWriter w;
  w.u8(0xAB).u32(0xDEADBEEF).u64(0x0123456789ABCDEFULL).i64(-42).b(true);
  w.f64(-0.0).f64(3.141592653589793).f64(-1e308);
  w.str("fig5").str("").blob(Bytes{1, 2, 3}).blob(Bytes{});

  CodecReader r(w.view());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.b());
  double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_EQ(r.f64(), -1e308);
  EXPECT_EQ(r.str(), "fig5");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.blob(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.blob(), Bytes{});
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Codec, NanBitPatternSurvivesRoundTrip) {
  double qnan = std::numeric_limits<double>::quiet_NaN();
  CodecWriter w;
  w.f64(qnan);
  CodecReader r(w.view());
  double back = r.f64();
  EXPECT_TRUE(std::isnan(back));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
            std::bit_cast<std::uint64_t>(qnan));
}

TEST(Codec, EveryTruncationPrefixThrowsCodecError) {
  CodecWriter w;
  w.u32(7).str("payload").u64(99).blob(Bytes{9, 8, 7});
  Bytes full = w.take();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Bytes prefix(full.begin(), full.begin() + static_cast<long>(cut));
    CodecReader r(prefix);
    EXPECT_THROW(
        {
          r.u32("head");
          r.str("name");
          r.u64("tail");
          r.blob("body");
        },
        CodecError)
        << "prefix length " << cut;
  }
}

TEST(Codec, TrailingBytesAreRejected) {
  CodecWriter w;
  w.u64(1).u8(0);
  CodecReader r(w.view());
  r.u64();
  EXPECT_THROW(r.expect_end("unit"), CodecError);
}

TEST(Codec, BoolRejectsNonCanonicalByte) {
  CodecWriter w;
  w.u8(2);
  CodecReader r(w.view());
  EXPECT_THROW(r.b("flag"), CodecError);
}

TEST(Codec, GarbageLengthFieldFailsFastNotOverreads) {
  // A blob whose length prefix claims far more bytes than exist.
  CodecWriter w;
  w.u32(0xFFFFFF00u);
  CodecReader r(w.view());
  EXPECT_THROW(r.blob("payload"), CodecError);
}

TEST(Codec, Fnv1aMatchesKnownVectorAndSeparatesInputs) {
  // FNV-1a 64 of the empty string is the offset basis.
  EXPECT_EQ(util::fnv1a(Bytes{}), 0xcbf29ce484222325ULL);
  Bytes a{1, 2, 3}, b{1, 2, 4};
  EXPECT_NE(util::fnv1a(a), util::fnv1a(b));
}

// ---------------------------------------------------------------------------
// Accumulator codecs: Welford, Ecdf, StackAccounting, fault counters

Bytes welford_bytes(const stats::Welford& wf) {
  CodecWriter w;
  wf.serialize(w);
  return w.take();
}

TEST(WelfordCodec, RoundTripsEmptySingletonAndRandomized) {
  std::vector<stats::Welford> cases(3);
  cases[1].add(42.5);
  sim::Rng rng(7);
  for (int i = 0; i < 1000; ++i) cases[2].add(rng.lognormal(0, 2));

  for (const stats::Welford& wf : cases) {
    Bytes bytes = welford_bytes(wf);
    CodecReader r(bytes);
    stats::Welford back = stats::Welford::deserialize(r);
    EXPECT_EQ(back.count(), wf.count());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.mean()),
              std::bit_cast<std::uint64_t>(wf.mean()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.variance()),
              std::bit_cast<std::uint64_t>(wf.variance()));
  }
}

TEST(WelfordCodec, RejectsCorruptMoments) {
  // Non-finite mean.
  CodecWriter nan;
  nan.u64(3).f64(std::numeric_limits<double>::quiet_NaN()).f64(1.0);
  CodecReader r1(nan.view());
  EXPECT_THROW(stats::Welford::deserialize(r1), CodecError);
  // Negative m2 (variance accumulator can never go negative).
  CodecWriter neg;
  neg.u64(3).f64(1.0).f64(-0.5);
  CodecReader r2(neg.view());
  EXPECT_THROW(stats::Welford::deserialize(r2), CodecError);
  // Nonzero moments with n == 0.
  CodecWriter ghost;
  ghost.u64(0).f64(1.0).f64(0.0);
  CodecReader r3(ghost.view());
  EXPECT_THROW(stats::Welford::deserialize(r3), CodecError);
}

TEST(WelfordCodec, TruncationAtEveryPrefixThrows) {
  stats::Welford wf;
  wf.add(1.0);
  wf.add(2.0);
  Bytes full = welford_bytes(wf);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Bytes prefix(full.begin(), full.begin() + static_cast<long>(cut));
    CodecReader r(prefix);
    EXPECT_THROW(stats::Welford::deserialize(r), CodecError);
  }
}

Bytes ecdf_bytes(const stats::Ecdf& e) {
  CodecWriter w;
  e.serialize(w);
  return w.take();
}

TEST(EcdfCodec, RoundTripsEmptySingletonRandomizedAndMerged) {
  sim::Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.pareto(1.0, 1.3));
  std::vector<double> ys;
  for (int i = 0; i < 137; ++i) ys.push_back(rng.normal(5, 2));

  stats::Ecdf merged_ab = stats::merged(stats::Ecdf(xs), stats::Ecdf(ys));
  std::vector<stats::Ecdf> cases = {stats::Ecdf({}), stats::Ecdf({3.25}),
                                    stats::Ecdf(xs), merged_ab};
  for (const stats::Ecdf& e : cases) {
    Bytes bytes = ecdf_bytes(e);
    CodecReader r(bytes);
    stats::Ecdf back = stats::Ecdf::deserialize(r);
    ASSERT_EQ(back.size(), e.size());
    for (std::size_t i = 0; i < e.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back.sorted()[i]),
                std::bit_cast<std::uint64_t>(e.sorted()[i]));
    }
  }
}

TEST(EcdfCodec, RejectsOutOfOrderAndNonFiniteSamples) {
  CodecWriter unordered;
  unordered.u64(2).f64(2.0).f64(1.0);
  CodecReader r1(unordered.view());
  EXPECT_THROW(stats::Ecdf::deserialize(r1), CodecError);

  CodecWriter infinite;
  infinite.u64(1).f64(std::numeric_limits<double>::infinity());
  CodecReader r2(infinite.view());
  EXPECT_THROW(stats::Ecdf::deserialize(r2), CodecError);
}

TEST(StackAccountingCodec, RoundTripsBalancedLedger) {
  pt::layer::StackAccounting acc;
  acc.on_handshake(120);
  acc.on_handshake_rtt();
  acc.on_frame(1024, 980);
  acc.on_carrier_unit(2048, 16, 1900);
  acc.on_payload(512);
  acc.on_carrier(64);
  ASSERT_TRUE(acc.balanced());

  CodecWriter w;
  acc.serialize(w);
  CodecReader r(w.view());
  pt::layer::StackAccounting back = pt::layer::StackAccounting::deserialize(r);
  EXPECT_EQ(back.wire_bytes, acc.wire_bytes);
  EXPECT_EQ(back.payload_bytes, acc.payload_bytes);
  EXPECT_EQ(back.handshake_bytes, acc.handshake_bytes);
  EXPECT_EQ(back.framing_bytes, acc.framing_bytes);
  EXPECT_EQ(back.carrier_bytes, acc.carrier_bytes);
  EXPECT_EQ(back.handshake_rtts, acc.handshake_rtts);
  EXPECT_EQ(back.overhead(), acc.overhead());
}

TEST(StackAccountingCodec, RejectsUnbalancedLedgerAndNegativeRtts) {
  // wire != payload + handshake + framing + carrier: a flipped counter
  // cannot masquerade as a valid overhead ledger.
  CodecWriter bad;
  bad.i64(1000).i64(100).i64(100).i64(100).i64(100).i64(1);
  CodecReader r1(bad.view());
  EXPECT_THROW(pt::layer::StackAccounting::deserialize(r1), CodecError);

  CodecWriter neg;
  neg.i64(0).i64(0).i64(0).i64(0).i64(0).i64(-1);
  CodecReader r2(neg.view());
  EXPECT_THROW(pt::layer::StackAccounting::deserialize(r2), CodecError);
}

// ---------------------------------------------------------------------------
// Shard-unit codec

FileSample make_file_sample(sim::Rng& rng, int rep) {
  FileSample s;
  s.pt = "obfs4";
  s.size_bytes = 5'242'880;
  s.rep = rep;
  s.result.target = "file/5MiB";
  s.result.start_s = rng.uniform(0, 100);
  s.result.ttfb_s = s.result.start_s + rng.uniform(0.01, 1);
  s.result.complete_s = s.result.ttfb_s + rng.uniform(0.1, 30);
  s.result.expected_bytes = s.size_bytes;
  s.result.received_bytes = s.size_bytes;
  s.result.success = true;
  return s;
}

TEST(UnitCodec, FileSampleUnitRoundTripsBitExactly) {
  sim::Rng rng(3);
  std::vector<FileSample> samples;
  for (int i = 0; i < 17; ++i) samples.push_back(make_file_sample(rng, i));
  ShardTiming timing{4, "obfs4", samples.size(), 123.5, 9876};
  FaultCounts faults{};
  faults[0] = 2;
  faults[5] = 7;

  CodecWriter w;
  checkpoint::encode_unit(w, samples, timing, faults);
  Bytes bytes = w.take();

  std::vector<FileSample> back;
  ShardTiming back_timing;
  FaultCounts back_faults{};
  CodecReader r(bytes);
  checkpoint::decode_unit(r, back, back_timing, back_faults);

  ASSERT_EQ(back.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(back[i].pt, samples[i].pt);
    EXPECT_EQ(back[i].size_bytes, samples[i].size_bytes);
    EXPECT_EQ(back[i].rep, samples[i].rep);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i].result.complete_s),
              std::bit_cast<std::uint64_t>(samples[i].result.complete_s));
    EXPECT_EQ(back[i].result.received_bytes, samples[i].result.received_bytes);
    EXPECT_EQ(back[i].result.success, samples[i].result.success);
  }
  EXPECT_EQ(back_timing.shard, timing.shard);
  EXPECT_EQ(back_timing.pt, timing.pt);
  EXPECT_EQ(back_timing.items, timing.items);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back_timing.virtual_seconds),
            std::bit_cast<std::uint64_t>(timing.virtual_seconds));
  EXPECT_EQ(back_timing.wall_us, timing.wall_us);
  EXPECT_EQ(back_faults, faults);
}

TEST(UnitCodec, ReliabilityOutcomeByteIsRangeChecked) {
  ReliabilitySample s;
  s.pt = "meek";
  s.outcome = DownloadOutcome::kPartial;
  CodecWriter w;
  checkpoint::write_sample(w, s);
  Bytes bytes = w.take();
  // Corrupt the outcome enum byte: find the last occurrence of value 1
  // (kPartial) and raise it past kFailed.
  for (std::size_t i = bytes.size(); i-- > 0;) {
    if (bytes[i] == 1) {
      bytes[i] = 17;
      break;
    }
  }
  CodecReader r(bytes);
  ReliabilitySample back;
  EXPECT_THROW(checkpoint::read_sample(r, back), CodecError);
}

TEST(UnitCodec, TruncatedUnitThrowsAtEveryPrefix) {
  sim::Rng rng(5);
  std::vector<FileSample> samples{make_file_sample(rng, 0)};
  ShardTiming timing{0, "snowflake", 1, 1.0, 1};
  FaultCounts faults{};
  CodecWriter w;
  checkpoint::encode_unit(w, samples, timing, faults);
  Bytes full = w.take();

  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Bytes prefix(full.begin(), full.begin() + static_cast<long>(cut));
    std::vector<FileSample> out;
    ShardTiming t;
    FaultCounts f{};
    CodecReader r(prefix);
    EXPECT_THROW(checkpoint::decode_unit(r, out, t, f), CodecError)
        << "prefix length " << cut;
  }
}

TEST(UnitCodec, FaultKindCountMismatchIsRejected) {
  std::vector<FileSample> samples;
  ShardTiming timing{0, "obfs4", 0, 0, 0};
  FaultCounts faults{};
  CodecWriter w;
  w.u32(0);  // no samples
  checkpoint::write_timing(w, timing);
  w.u32(static_cast<std::uint32_t>(faults.size()) + 1);
  for (std::size_t i = 0; i <= faults.size(); ++i) w.u64(0);

  std::vector<FileSample> out;
  ShardTiming t;
  FaultCounts f{};
  CodecReader r(w.view());
  EXPECT_THROW(checkpoint::decode_unit(r, out, t, f), CodecError);
}

// ---------------------------------------------------------------------------
// Store: snapshot file round trip, fingerprint policy, corruption

checkpoint::Fingerprint test_fp() {
  checkpoint::Fingerprint fp;
  fp.figure = "fig5";
  fp.seed = 1;
  fp.scale = 0.05;
  fp.jobs = 2;
  fp.repeats = 3;
  fp.flags = "faults=none;retries=0";
  return fp;
}

Bytes payload_bytes(std::uint8_t tag) {
  return Bytes{tag, 1, 2, 3, tag};
}

TEST(Store, RecordFlushResumeRoundTrip) {
  TempDir dir;
  {
    checkpoint::Store store({dir.path(), 1, false}, test_fp());
    int c0 = store.begin_campaign(111);
    int c1 = store.begin_campaign(222);
    store.record(c0, 0, payload_bytes(10));
    store.record(c0, 2, payload_bytes(12));
    store.record(c1, 1, payload_bytes(21));
    store.flush();
  }
  checkpoint::Store back({dir.path(), 1, true}, test_fp());
  EXPECT_TRUE(back.resumed());
  EXPECT_EQ(back.unit_count(), 3u);
  int c0 = back.begin_campaign(111);
  int c1 = back.begin_campaign(222);
  EXPECT_EQ(back.completed(c0, 0), payload_bytes(10));
  EXPECT_EQ(back.completed(c0, 2), payload_bytes(12));
  EXPECT_EQ(back.completed(c1, 1), payload_bytes(21));
  EXPECT_FALSE(back.completed(c0, 1).has_value());
  EXPECT_FALSE(back.completed(c1, 0).has_value());
}

TEST(Store, ResumeWithoutSnapshotIsAnError) {
  TempDir dir;
  EXPECT_THROW(checkpoint::Store({dir.path(), 1, true}, test_fp()),
               checkpoint::Error);
}

TEST(Store, EveryFingerprintFieldExceptJobsIsValidated) {
  TempDir dir;
  {
    checkpoint::Store store({dir.path(), 1, false}, test_fp());
    store.begin_campaign(111);
    store.record(0, 0, payload_bytes(1));
    store.flush();
  }
  auto expect_refused = [&](checkpoint::Fingerprint fp, const char* field) {
    try {
      checkpoint::Store store({dir.path(), 1, true}, fp);
      FAIL() << "resume accepted a mismatched " << field;
    } catch (const checkpoint::Error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  checkpoint::Fingerprint fp = test_fp();
  fp.figure = "fig8";
  expect_refused(fp, "figure");
  fp = test_fp();
  fp.seed = 2;
  expect_refused(fp, "seed");
  fp = test_fp();
  fp.scale = 0.1;
  expect_refused(fp, "scale");
  fp = test_fp();
  fp.repeats = 1;
  expect_refused(fp, "repeats");
  fp = test_fp();
  fp.flags = "faults=paper;retries=2";
  expect_refused(fp, "flags");
  // jobs is provenance only: resuming at a different pool width is the
  // documented, supported path (output is jobs-independent).
  fp = test_fp();
  fp.jobs = 64;
  EXPECT_NO_THROW(checkpoint::Store({dir.path(), 1, true}, fp));
}

TEST(Store, PlanHashMismatchRefusesTheRepetitionCursor) {
  TempDir dir;
  {
    checkpoint::Store store({dir.path(), 1, false}, test_fp());
    store.begin_campaign(111);
    store.flush();
  }
  checkpoint::Store back({dir.path(), 1, true}, test_fp());
  EXPECT_THROW(back.begin_campaign(999), checkpoint::Error);
}

Bytes read_snapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

void write_snapshot(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<long>(bytes.size()));
}

TEST(Store, TruncatedSnapshotIsRejectedAtEveryLength) {
  TempDir dir;
  std::string snap;
  {
    checkpoint::Store store({dir.path(), 1, false}, test_fp());
    store.begin_campaign(111);
    store.record(0, 0, payload_bytes(1));
    store.flush();
    snap = store.path();
  }
  Bytes full = read_snapshot(snap);
  ASSERT_GT(full.size(), 16u);
  // Every 7th prefix keeps the test fast while still hitting header, body
  // and trailer cuts; size-1 (lost trailer byte) is always included.
  std::vector<std::size_t> cuts;
  for (std::size_t cut = 0; cut < full.size(); cut += 7) cuts.push_back(cut);
  cuts.push_back(full.size() - 1);
  for (std::size_t cut : cuts) {
    write_snapshot(snap, Bytes(full.begin(),
                               full.begin() + static_cast<long>(cut)));
    EXPECT_THROW(checkpoint::Store({dir.path(), 1, true}, test_fp()),
                 checkpoint::Error)
        << "prefix length " << cut;
  }
}

TEST(Store, EveryBitFlipIsCaughtByTheChecksum) {
  TempDir dir;
  std::string snap;
  {
    checkpoint::Store store({dir.path(), 1, false}, test_fp());
    store.begin_campaign(111);
    store.record(0, 0, payload_bytes(1));
    store.flush();
    snap = store.path();
  }
  Bytes full = read_snapshot(snap);
  for (std::size_t i = 0; i < full.size(); ++i) {
    Bytes flipped = full;
    flipped[i] ^= 0x40;
    write_snapshot(snap, flipped);
    EXPECT_THROW(checkpoint::Store({dir.path(), 1, true}, test_fp()),
                 checkpoint::Error)
        << "flipped byte " << i;
  }
  // Restore the pristine bytes: the original must still load.
  write_snapshot(snap, full);
  EXPECT_NO_THROW(checkpoint::Store({dir.path(), 1, true}, test_fp()));
}

TEST(Store, VersionOneSnapshotIsRefused) {
  // Format version 1 predates fig8's no-fault path recording reliability
  // samples; its units must never be decoded as today's sample types. The
  // patched header keeps a valid checksum, so only the version check can
  // refuse it.
  TempDir dir;
  std::string snap;
  {
    checkpoint::Store store({dir.path(), 1, false}, test_fp());
    store.begin_campaign(111);
    store.record(0, 0, payload_bytes(1));
    store.flush();
    snap = store.path();
  }
  Bytes full = read_snapshot(snap);
  Bytes body(full.begin(), full.end() - 8);
  CodecWriter version;
  version.u32(1);
  std::copy(version.view().begin(), version.view().end(), body.begin() + 4);
  CodecWriter checksum;
  checksum.u64(util::fnv1a(body));
  body.insert(body.end(), checksum.view().begin(), checksum.view().end());
  write_snapshot(snap, body);
  try {
    checkpoint::Store store({dir.path(), 1, true}, test_fp());
    FAIL() << "resume accepted a version-1 snapshot";
  } catch (const checkpoint::Error& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
        << e.what();
  }
}

TEST(Store, SimulatedCrashFreezesTheSnapshotAtTheKillPoint) {
  TempDir dir;
  {
    checkpoint::Store store({dir.path(), 1, false}, test_fp());
    store.simulate_crash_after(2);
    store.begin_campaign(111);
    store.record(0, 0, payload_bytes(1));
    store.record(0, 1, payload_bytes(2));
    store.record(0, 2, payload_bytes(3));  // after the kill: dropped
    store.flush();                         // dropped too
  }
  checkpoint::Store back({dir.path(), 1, true}, test_fp());
  EXPECT_EQ(back.unit_count(), 2u);
  int c0 = back.begin_campaign(111);
  EXPECT_TRUE(back.completed(c0, 0).has_value());
  EXPECT_TRUE(back.completed(c0, 1).has_value());
  EXPECT_FALSE(back.completed(c0, 2).has_value());
}

TEST(Store, CheckpointEveryBatchesSnapshotWrites) {
  TempDir dir;
  checkpoint::Store store({dir.path(), 3, false}, test_fp());
  store.begin_campaign(111);
  store.record(0, 0, payload_bytes(1));
  store.record(0, 1, payload_bytes(2));
  // Two units recorded, cadence three: nothing on disk yet.
  std::ifstream probe(store.path(), std::ios::binary);
  EXPECT_FALSE(probe.good());
  store.record(0, 2, payload_bytes(3));
  std::ifstream after(store.path(), std::ios::binary);
  EXPECT_TRUE(after.good());
}

}  // namespace
}  // namespace ptperf
