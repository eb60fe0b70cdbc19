#include "ptperf/checkpoint.h"

#include <cstdio>
#include <filesystem>

namespace ptperf::checkpoint {

namespace {

constexpr std::uint32_t kMagic = 0x5054434B;  // "PTCK"
// Version 2: fig8 without --faults records ReliabilitySample units (it
// ran plain file downloads before), so a version-1 snapshot must be
// refused rather than decoded as the wrong sample type.
constexpr std::uint32_t kVersion = 2;

/// The one sanctioned raw-file write path in src/ptperf (simlint's
/// checkpoint-io rule bans fopen/ofstream everywhere else in the
/// directory): serialize fully in memory, write a sibling temp file,
/// fsync-free rename into place. A crash at any point leaves either the
/// old snapshot or the new one — never a torn file.
void atomic_write_file(const std::string& path, util::BytesView data) {
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) throw Error("checkpoint: cannot open " + tmp);
  std::size_t written =
      data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), f);
  int close_rc = std::fclose(f);
  if (written != data.size() || close_rc != 0) {
    std::remove(tmp.c_str());
    throw Error("checkpoint: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("checkpoint: cannot rename " + tmp + " to " + path);
  }
}

/// Whole-file read; returns nullopt when the file does not exist.
std::optional<util::Bytes> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  util::Bytes out;
  std::uint8_t buf[4096];
  for (;;) {
    std::size_t n = std::fread(buf, 1, sizeof buf, f);
    out.insert(out.end(), buf, buf + n);
    if (n < sizeof buf) break;
  }
  bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) throw Error("checkpoint: cannot read " + path);
  return out;
}

void write_fingerprint(util::CodecWriter& w, const Fingerprint& fp) {
  w.str(fp.figure)
      .u64(fp.seed)
      .f64(fp.scale)
      .i64(fp.jobs)
      .i64(fp.repeats)
      .str(fp.flags);
}

Fingerprint read_fingerprint(util::CodecReader& r) {
  Fingerprint fp;
  fp.figure = r.str("fingerprint.figure");
  fp.seed = r.u64("fingerprint.seed");
  fp.scale = r.f64("fingerprint.scale");
  fp.jobs = static_cast<int>(r.i64("fingerprint.jobs"));
  fp.repeats = static_cast<int>(r.i64("fingerprint.repeats"));
  fp.flags = r.str("fingerprint.flags");
  return fp;
}

[[noreturn]] void refuse(const std::string& field, const std::string& have,
                         const std::string& want) {
  throw Error("checkpoint: fingerprint mismatch on " + field + ": snapshot " +
              "was taken with " + field + "=" + have + ", this run has " +
              field + "=" + want + " — refusing to resume");
}

/// Strict identity check for every field a resume must not change.
/// `jobs` is intentionally absent: shard merge order is plan order, so
/// the same snapshot resumes correctly at any pool width.
void validate_fingerprint(const Fingerprint& have, const Fingerprint& want) {
  if (have.figure != want.figure) refuse("figure", have.figure, want.figure);
  if (have.seed != want.seed)
    refuse("seed", std::to_string(have.seed), std::to_string(want.seed));
  if (std::bit_cast<std::uint64_t>(have.scale) !=
      std::bit_cast<std::uint64_t>(want.scale))
    refuse("scale", std::to_string(have.scale), std::to_string(want.scale));
  if (have.repeats != want.repeats)
    refuse("repeats", std::to_string(have.repeats),
           std::to_string(want.repeats));
  if (have.flags != want.flags) refuse("flags", have.flags, want.flags);
}

}  // namespace

std::uint64_t plan_hash(const ShardPlan& plan) {
  util::CodecWriter w;
  for (const ShardSpec& s : plan.shards()) {
    w.str(s.pt_name)
        .u64(s.item_begin)
        .u64(s.item_end)
        .u64(s.chunk_index)
        .u64(s.seed);
  }
  return util::fnv1a(w.view());
}

Store::Store(Options opts, Fingerprint fp)
    : opts_(std::move(opts)), fp_(std::move(fp)) {
  if (opts_.dir.empty()) throw Error("checkpoint: empty directory");
  if (opts_.every == 0) opts_.every = 1;
  std::error_code ec;
  std::filesystem::create_directories(opts_.dir, ec);
  if (ec) throw Error("checkpoint: cannot create directory " + opts_.dir);
  if (opts_.resume) load_snapshot();
}

std::string Store::path() const {
  return opts_.dir + "/" + std::string(kSnapshotFile);
}

std::size_t Store::unit_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return units_.size();
}

int Store::begin_campaign(std::uint64_t plan) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t index = next_campaign_++;
  if (index < plan_hashes_.size()) {
    if (plan_hashes_[index] != plan) {
      throw Error("checkpoint: plan mismatch for campaign " +
                  std::to_string(index) +
                  " — the snapshot was taken from a differently-sharded "
                  "run; refusing to resume");
    }
  } else {
    plan_hashes_.push_back(plan);
  }
  return static_cast<int>(index);
}

std::optional<util::Bytes> Store::completed(int campaign,
                                            std::size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = units_.find({static_cast<std::uint32_t>(campaign),
                         static_cast<std::uint64_t>(shard)});
  if (it == units_.end()) return std::nullopt;
  return it->second;
}

void Store::record(int campaign, std::size_t shard, util::Bytes payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_) return;
  if (crash_armed_ && crash_budget_ == 0) {
    dead_ = true;
    return;
  }
  if (crash_armed_) --crash_budget_;
  units_[{static_cast<std::uint32_t>(campaign),
          static_cast<std::uint64_t>(shard)}] = std::move(payload);
  ++since_write_;
  if (since_write_ >= opts_.every || (crash_armed_ && crash_budget_ == 0)) {
    write_snapshot_locked();
  }
}

void Store::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_) return;
  write_snapshot_locked();
}

void Store::simulate_crash_after(std::size_t units) {
  std::lock_guard<std::mutex> lock(mu_);
  crash_armed_ = true;
  crash_budget_ = units;
  if (units == 0) dead_ = true;
}

util::Bytes Store::serialize_locked() const {
  util::CodecWriter w(4096);
  w.u32(kMagic).u32(kVersion);
  write_fingerprint(w, fp_);
  w.u32(static_cast<std::uint32_t>(plan_hashes_.size()));
  for (std::uint64_t h : plan_hashes_) w.u64(h);
  w.u32(static_cast<std::uint32_t>(units_.size()));
  // std::map iterates in key order, so the serialized unit sequence is a
  // pure function of the completed set — two snapshots holding the same
  // units are byte-identical regardless of completion order.
  for (const auto& [key, payload] : units_) {
    w.u32(key.first).u64(key.second).blob(payload);
  }
  w.u64(util::fnv1a(w.view()));
  return w.take();
}

void Store::write_snapshot_locked() {
  atomic_write_file(path(), serialize_locked());
  since_write_ = 0;
}

void Store::load_snapshot() {
  std::optional<util::Bytes> raw = read_file(path());
  if (!raw) {
    throw Error("checkpoint: --resume but no snapshot at " + path());
  }
  if (raw->size() < 16) {
    throw Error("checkpoint: snapshot " + path() + " is truncated (" +
                std::to_string(raw->size()) + " bytes)");
  }
  util::BytesView body(raw->data(), raw->size() - 8);
  util::CodecReader trailer(
      util::BytesView(raw->data() + raw->size() - 8, 8));
  if (trailer.u64("checksum") != util::fnv1a(body)) {
    throw Error("checkpoint: snapshot " + path() +
                " failed its checksum — corrupt or torn file");
  }
  try {
    util::CodecReader r(body);
    if (r.u32("magic") != kMagic) {
      throw Error("checkpoint: " + path() + " is not a PTPerf snapshot");
    }
    if (std::uint32_t v = r.u32("version"); v != kVersion) {
      throw Error("checkpoint: snapshot version " + std::to_string(v) +
                  " unsupported (expected " + std::to_string(kVersion) + ")");
    }
    Fingerprint have = read_fingerprint(r);
    validate_fingerprint(have, fp_);
    std::uint32_t n_plans = r.u32("campaign_count");
    plan_hashes_.reserve(n_plans);
    for (std::uint32_t i = 0; i < n_plans; ++i)
      plan_hashes_.push_back(r.u64("plan_hash"));
    std::uint32_t n_units = r.u32("unit_count");
    for (std::uint32_t i = 0; i < n_units; ++i) {
      std::uint32_t campaign = r.u32("unit.campaign");
      std::uint64_t shard = r.u64("unit.shard");
      units_[{campaign, shard}] = r.blob("unit.payload");
    }
    r.expect_end("snapshot");
  } catch (const util::CodecError& e) {
    throw Error("checkpoint: snapshot " + path() + " is corrupt: " +
                e.what());
  }
  resumed_ = true;
}

// --- shard-unit payload codec ----------------------------------------

void write_sample(util::CodecWriter& w, const workload::FetchResult& r) {
  w.str(r.target)
      .f64(r.start_s)
      .f64(r.ttfb_s)
      .f64(r.complete_s)
      .u64(r.expected_bytes)
      .u64(r.received_bytes)
      .b(r.success)
      .b(r.timed_out)
      .str(r.error);
}

void read_sample(util::CodecReader& r, workload::FetchResult& out) {
  out.target = r.str("FetchResult.target");
  out.start_s = r.f64("FetchResult.start_s");
  out.ttfb_s = r.f64("FetchResult.ttfb_s");
  out.complete_s = r.f64("FetchResult.complete_s");
  out.expected_bytes = static_cast<std::size_t>(r.u64("FetchResult.expected"));
  out.received_bytes = static_cast<std::size_t>(r.u64("FetchResult.received"));
  out.success = r.b("FetchResult.success");
  out.timed_out = r.b("FetchResult.timed_out");
  out.error = r.str("FetchResult.error");
}

void write_sample(util::CodecWriter& w, const WebsiteSample& s) {
  w.str(s.pt).str(s.site).i64(s.rep);
  write_sample(w, s.result);
}

void read_sample(util::CodecReader& r, WebsiteSample& out) {
  out.pt = r.str("WebsiteSample.pt");
  out.site = r.str("WebsiteSample.site");
  out.rep = static_cast<int>(r.i64("WebsiteSample.rep"));
  read_sample(r, out.result);
}

void write_sample(util::CodecWriter& w, const PageSample& s) {
  w.str(s.pt).str(s.site).i64(s.rep);
  write_sample(w, s.result.page);
  w.u32(static_cast<std::uint32_t>(s.result.resources.size()));
  for (const workload::FetchResult& res : s.result.resources)
    write_sample(w, res);
  w.b(s.result.success)
      .f64(s.result.load_time_s)
      .f64(s.result.speed_index_s)
      .f64(s.speed_index_s);
}

void read_sample(util::CodecReader& r, PageSample& out) {
  out.pt = r.str("PageSample.pt");
  out.site = r.str("PageSample.site");
  out.rep = static_cast<int>(r.i64("PageSample.rep"));
  read_sample(r, out.result.page);
  std::uint32_t n = r.u32("PageSample.resource_count");
  out.result.resources.clear();
  out.result.resources.reserve(std::min<std::uint32_t>(n, 4096));
  for (std::uint32_t i = 0; i < n; ++i) {
    workload::FetchResult res;
    read_sample(r, res);
    out.result.resources.push_back(std::move(res));
  }
  out.result.success = r.b("PageSample.success");
  out.result.load_time_s = r.f64("PageSample.load_time_s");
  out.result.speed_index_s = r.f64("PageSample.result_speed_index");
  out.speed_index_s = r.f64("PageSample.speed_index");
}

void write_sample(util::CodecWriter& w, const FileSample& s) {
  w.str(s.pt).u64(s.size_bytes).i64(s.rep);
  write_sample(w, s.result);
}

void read_sample(util::CodecReader& r, FileSample& out) {
  out.pt = r.str("FileSample.pt");
  out.size_bytes = static_cast<std::size_t>(r.u64("FileSample.size_bytes"));
  out.rep = static_cast<int>(r.i64("FileSample.rep"));
  read_sample(r, out.result);
}

void write_sample(util::CodecWriter& w, const ReliabilitySample& s) {
  w.str(s.pt)
      .u64(s.size_bytes)
      .i64(s.rep)
      .i64(s.attempts)
      .u8(static_cast<std::uint8_t>(s.outcome));
  write_sample(w, s.result);
}

void read_sample(util::CodecReader& r, ReliabilitySample& out) {
  out.pt = r.str("ReliabilitySample.pt");
  out.size_bytes =
      static_cast<std::size_t>(r.u64("ReliabilitySample.size_bytes"));
  out.rep = static_cast<int>(r.i64("ReliabilitySample.rep"));
  out.attempts = static_cast<int>(r.i64("ReliabilitySample.attempts"));
  std::uint8_t outcome = r.u8("ReliabilitySample.outcome");
  if (outcome > static_cast<std::uint8_t>(DownloadOutcome::kFailed)) {
    throw util::CodecError("corrupt ReliabilitySample: outcome byte " +
                           std::to_string(outcome));
  }
  out.outcome = static_cast<DownloadOutcome>(outcome);
  read_sample(r, out.result);
}

void write_sample(util::CodecWriter& w, const OverheadSample& s) {
  w.str(s.pt)
      .str(s.site)
      .f64(s.tor_s)
      .f64(s.pt_s)
      .i64(s.payload_bytes)
      .i64(s.handshake_bytes)
      .i64(s.framing_bytes)
      .i64(s.carrier_bytes)
      .i64(s.wire_bytes)
      .i64(s.handshake_rtts);
}

void read_sample(util::CodecReader& r, OverheadSample& out) {
  out.pt = r.str("OverheadSample.pt");
  out.site = r.str("OverheadSample.site");
  out.tor_s = r.f64("OverheadSample.tor_s");
  out.pt_s = r.f64("OverheadSample.pt_s");
  out.payload_bytes = r.i64("OverheadSample.payload_bytes");
  out.handshake_bytes = r.i64("OverheadSample.handshake_bytes");
  out.framing_bytes = r.i64("OverheadSample.framing_bytes");
  out.carrier_bytes = r.i64("OverheadSample.carrier_bytes");
  out.wire_bytes = r.i64("OverheadSample.wire_bytes");
  out.handshake_rtts = r.i64("OverheadSample.handshake_rtts");
  if (out.wire_bytes != out.payload_bytes + out.handshake_bytes +
                            out.framing_bytes + out.carrier_bytes) {
    throw util::CodecError(
        "corrupt OverheadSample: byte ledger does not balance");
  }
}

void write_timing(util::CodecWriter& w, const ShardTiming& t) {
  w.u64(t.shard).str(t.pt).u64(t.items).f64(t.virtual_seconds).i64(t.wall_us);
}

void read_timing(util::CodecReader& r, ShardTiming& out) {
  out.shard = static_cast<std::size_t>(r.u64("ShardTiming.shard"));
  out.pt = r.str("ShardTiming.pt");
  out.items = static_cast<std::size_t>(r.u64("ShardTiming.items"));
  out.virtual_seconds = r.f64("ShardTiming.virtual_seconds");
  out.wall_us = r.i64("ShardTiming.wall_us");
}

}  // namespace ptperf::checkpoint
