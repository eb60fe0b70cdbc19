// Micro-benchmarks (google-benchmark) for the hot paths of the simulator:
// the crypto suite, cell codec, onion layer processing, DNS codec, the
// event loop, and the statistics kernels. These bound how fast measurement
// campaigns replay.
//
// The suite doubles as the repo's perf gate: tools/bench_check.sh runs it
// with --benchmark_format=json, condenses the output into BENCH_micro.json
// and compares against bench/baseline.json (see docs/PERFORMANCE.md).
#include <benchmark/benchmark.h>

#include <algorithm>

#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/hmac.h"
#include "crypto/poly1305.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"
#include "net/channel.h"
#include "net/dns.h"
#include "net/network.h"
#include "population/contention.h"
#include "pt/layer/framing.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "stats/ttest.h"
#include "tor/cell.h"
#include "tor/ntor.h"
#include "tor/onion.h"
#include "util/buf.h"

namespace {

using namespace ptperf;

void BM_Sha256(benchmark::State& state) {
  util::Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::digest(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ChaCha20(benchmark::State& state) {
  sim::Rng rng(1);
  util::Bytes key = rng.bytes(32), nonce = rng.bytes(12);
  util::Bytes data(static_cast<std::size_t>(state.range(0)), 0x42);
  crypto::ChaCha20 cipher(key, nonce);
  for (auto _ : state) {
    cipher.process(data.data(), data.size());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(512)->Arg(16384);

void BM_Poly1305(benchmark::State& state) {
  sim::Rng rng(2);
  util::Bytes key = rng.bytes(32);
  util::Bytes data(static_cast<std::size_t>(state.range(0)), 0x42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Poly1305::mac(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Poly1305)->Arg(512)->Arg(16384);

void BM_X25519(benchmark::State& state) {
  sim::Rng rng(4);
  crypto::X25519Key scalar{};
  rng.fill_bytes(scalar.data(), scalar.size());
  scalar = crypto::x25519_clamp(scalar);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::x25519_base(scalar));
  }
}
BENCHMARK(BM_X25519);

void BM_OnionLayer3Hop(benchmark::State& state) {
  sim::Rng rng(6);
  auto keys = [&rng]() {
    tor::CircuitKeys k;
    k.forward_key = rng.bytes(32);
    k.backward_key = rng.bytes(32);
    k.forward_nonce = rng.bytes(12);
    k.backward_nonce = rng.bytes(12);
    k.digest_seed = rng.bytes(16);
    return k;
  };
  tor::RelayLayer l1(keys()), l2(keys()), l3(keys());
  util::Bytes payload = rng.bytes(tor::kCellPayloadSize);
  for (auto _ : state) {
    l3.process_forward(payload);
    l2.process_forward(payload);
    l1.process_forward(payload);
    benchmark::DoNotOptimize(payload.data());
  }
  state.SetBytesProcessed(state.iterations() * tor::kCellPayloadSize * 3);
}
BENCHMARK(BM_OnionLayer3Hop);

/// One relay cell's rolling digest at both ends: the sender commits it,
/// the receiver (same keys) checks it, so both hashes advance in step.
void BM_RelayDigest(benchmark::State& state) {
  sim::Rng rng(7);
  tor::CircuitKeys keys;
  keys.forward_key = rng.bytes(32);
  keys.backward_key = rng.bytes(32);
  keys.forward_nonce = rng.bytes(12);
  keys.backward_nonce = rng.bytes(12);
  keys.digest_seed = rng.bytes(16);
  tor::RelayLayer sender(keys), receiver(keys);
  util::Bytes payload = rng.bytes(tor::kCellPayloadSize);
  for (auto _ : state) {
    std::uint32_t digest = sender.commit_forward_digest(payload);
    benchmark::DoNotOptimize(receiver.check_forward_digest(payload, digest));
  }
  state.SetBytesProcessed(state.iterations() * tor::kCellPayloadSize);
}
BENCHMARK(BM_RelayDigest);

// --------------------------------------------- zero-copy cell pipeline --

/// The refactored hot path end to end: lease a pooled wire buffer, encode
/// the relay cell and cell header straight into it, then parse both back
/// as borrowed views.
void BM_CellPipeline(benchmark::State& state) {
  sim::Rng rng(5);
  util::Bytes data = rng.bytes(tor::kRelayDataMax);
  util::BufPool pool;
  for (auto _ : state) {
    util::Buf wire = pool.acquire(tor::kCellSize);
    tor::encode_relay_cell_into(
        wire.span().subspan(tor::kCellHeaderSize), tor::RelayCommand::kData,
        7, 0, data);
    tor::patch_circ_id(wire.span(), 99);
    wire[4] = static_cast<std::uint8_t>(tor::CellCommand::kRelay);
    auto cell = tor::parse_cell(wire.view());
    auto relay = tor::parse_relay_cell(cell->payload);
    benchmark::DoNotOptimize(relay);
  }
  state.SetBytesProcessed(state.iterations() * tor::kCellSize);
}
BENCHMARK(BM_CellPipeline);

/// In-place AEAD over one pooled buffer with a stack nonce — the framing
/// layers' record path.
void BM_AeadSealOpenInPlace(benchmark::State& state) {
  sim::Rng rng(3);
  crypto::ChaCha20Poly1305 aead(rng.bytes(32));
  auto n = static_cast<std::size_t>(state.range(0));
  util::BufPool pool;
  util::Buf buf = pool.acquire(n + crypto::ChaCha20Poly1305::kTagSize);
  std::fill(buf.begin(), buf.end(), 0x42);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    auto nonce = crypto::counter_nonce_arr(seq);
    util::BytesView nv(nonce.data(), nonce.size());
    aead.seal_in_place(nv, buf.span(), n);
    auto len = aead.open_in_place(nv, buf.span());
    benchmark::DoNotOptimize(len);
    ++seq;
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AeadSealOpenInPlace)->Arg(498)->Arg(8192);

/// Pool lease/release churn at cell size: the steady-state allocation
/// pattern of a busy circuit (LIFO free list, no malloc after warm-up).
void BM_BufPoolAcquireRelease(benchmark::State& state) {
  util::BufPool pool;
  for (auto _ : state) {
    util::Buf a = pool.acquire(tor::kCellSize);
    util::Buf b = pool.acquire(tor::kCellSize);
    a[0] = 1;
    b[0] = 2;
    benchmark::DoNotOptimize(a.data());
    benchmark::DoNotOptimize(b.data());
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_BufPoolAcquireRelease);

/// The relay splice: strip the cell header off a received wire buffer and
/// hand the same storage on (drop_front + move), versus copying the
/// payload out. This is what Channel::send(Buf) buys at every middle hop.
void BM_SpliceDropFrontForward(benchmark::State& state) {
  sim::Rng rng(11);
  util::Bytes cell = rng.bytes(tor::kCellSize);
  util::BufPool pool;
  std::size_t forwarded = 0;
  for (auto _ : state) {
    util::Buf wire = util::Buf::copy_of(cell, pool);
    wire.drop_front(tor::kCellHeaderSize);
    util::Buf handed = std::move(wire);  // the move-only channel handoff
    forwarded += handed.size();
    benchmark::DoNotOptimize(handed.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(forwarded));
}
BENCHMARK(BM_SpliceDropFrontForward);

void BM_DnsEncodeDecode(benchmark::State& state) {
  sim::Rng rng(7);
  util::Bytes data = rng.bytes(120);
  for (auto _ : state) {
    net::dns::Message q;
    q.id = 42;
    net::dns::Question question;
    question.name = net::dns::encode_data_name(data, "t.example.com");
    q.questions.push_back(question);
    util::Bytes wire = net::dns::encode(q);
    auto back = net::dns::decode(wire);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_DnsEncodeDecode);

/// A 2 MiB burst of 514-byte messages drained through a SegmentingChannel
/// in 1460-byte units over a loopback pipe: the standing backlog a paced
/// PT (marionette, camoufler) builds under a long download. Each cut
/// should cost its own bytes; an outbox that erases every unit from its
/// front moves the whole backlog per unit.
void BM_SegmentingBacklog(benchmark::State& state) {
  constexpr std::size_t kMessageSize = 514;
  constexpr std::size_t kMessages = (2u << 20) / kMessageSize;
  const util::Bytes message(kMessageSize, 0x5a);
  std::size_t delivered = 0;
  for (auto _ : state) {
    sim::EventLoop loop;
    net::Network net(loop, sim::Rng(12));
    net::HostId host = net.add_host("h", net::Region::kLondon);
    net::ChannelPtr client, server;
    net.listen(host, "svc",
               [&](net::Pipe p) { server = net::wrap_pipe(std::move(p)); });
    net.connect(host, host, "svc",
                [&](net::Pipe p) { client = net::wrap_pipe(std::move(p)); });
    loop.run();
    server->set_receiver([&](util::Buf unit) { delivered += unit.size(); });
    pt::layer::SegmentPolicy policy;
    policy.max_segment = 1460;
    auto tx = pt::layer::SegmentingChannel::create(loop, client, policy);
    for (std::size_t i = 0; i < kMessages; ++i) tx->send(util::Bytes(message));
    loop.run();
    // Closing clears the pipe's handlers, which hold the channel.
    tx->close();
    loop.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(kMessages * kMessageSize));
}
BENCHMARK(BM_SegmentingBacklog);

void BM_EventLoopSchedule(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    int count = 0;
    for (int i = 0; i < 1000; ++i) {
      loop.schedule(sim::from_millis(i % 100), [&count] { ++count; });
    }
    loop.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopSchedule);

/// One fleet step of the population engine over the canonical fig10
/// cohort mix: per-cohort survivor thinning + Poisson arrivals + exposure
/// thinning (src/population/population.cc). The reported rate is
/// cohort-steps/s; fig10's 12-week, 5-cohort trajectory is ~10k of these,
/// so this bounds how cheap the emergent-load mode keeps the benches.
void BM_PopulationStep(benchmark::State& state) {
  population::IranSurge surge = population::iran_surge(12);
  const std::size_t cohort_steps =
      surge.pop.steps() * surge.pop.cohorts.size();
  for (auto _ : state) {
    population::Trajectory traj =
        population::PopulationModel(surge.pop).simulate();
    benchmark::DoNotOptimize(traj.active.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cohort_steps));
}
BENCHMARK(BM_PopulationStep);

void BM_PairedTTest(benchmark::State& state) {
  sim::Rng rng(8);
  std::vector<double> x, y;
  for (int i = 0; i < 1000; ++i) {
    x.push_back(rng.normal(5.0, 1.0));
    y.push_back(rng.normal(5.2, 1.1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::paired_t_test(x, y));
  }
}
BENCHMARK(BM_PairedTTest);

}  // namespace

// BENCHMARK_MAIN() plus the SHA-256 and ChaCha20 kernels in the run's
// context, so a JSON run says which kernels its BM_Sha256 and BM_ChaCha20
// numbers came from: they differ several-fold between hosts with and
// without SHA extensions, and between 4-, 8- and 16-lane keystreams.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("sha256_kernel",
                              ptperf::crypto::Sha256::kernel());
  benchmark::AddCustomContext("chacha20_kernel",
                              ptperf::crypto::ChaCha20::kernel());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
