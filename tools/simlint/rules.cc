#include "rules.h"

#include <algorithm>
#include <initializer_list>
#include <map>
#include <string_view>

#include "graph.h"
#include "project.h"

namespace simlint {
namespace {

// ---------------------------------------------------------------------------
// Shared helpers

/// True if the file lives under any of the given directories (substring
/// match on the normalized path, so absolute and relative invocations both
/// work).
bool path_under(const FileScan& scan,
                std::initializer_list<std::string_view> dirs) {
  for (std::string_view d : dirs) {
    if (scan.norm_path.find(d) != std::string::npos) return true;
  }
  return false;
}

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool ident_in(const Token& t, std::initializer_list<std::string_view> names) {
  if (t.kind != TokKind::kIdent) return false;
  for (std::string_view n : names) {
    if (t.text == n) return true;
  }
  return false;
}

/// True if token i is reached through member access (`x.f`, `p->f`): those
/// are our own methods that merely share a name with a banned C function.
bool member_access_before(const std::vector<Token>& toks, std::size_t i) {
  if (i == 0) return false;
  if (is_punct(toks[i - 1], ".")) return true;
  return i >= 2 && is_punct(toks[i - 1], ">") && is_punct(toks[i - 2], "-");
}

/// True if token i is a call (`name(...)`) that resolves to the global or
/// std:: function rather than a member or a project-namespace helper.
bool global_or_std_call(const std::vector<Token>& toks, std::size_t i) {
  if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "(")) return false;
  if (member_access_before(toks, i)) return false;
  if (i >= 2 && is_punct(toks[i - 1], "::")) {
    // Qualified: only std::name (or chrono::name) is the banned entity; a
    // project namespace deliberately shadowing the name is fine.
    return ident_in(toks[i - 2], {"std", "chrono"});
  }
  return true;
}

void flag(std::vector<Finding>& out, const FileScan& scan, int line,
          const char* rule, std::string message) {
  out.push_back(Finding{scan.path, line, rule, std::move(message)});
}

/// Flags every use of the listed type/function identifiers (qualified or
/// not), skipping member accesses that merely reuse a name.
void ban_idents(const FileScan& scan, std::vector<Finding>& out,
                const char* rule, std::initializer_list<std::string_view> names,
                std::string_view why) {
  const auto& toks = scan.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!ident_in(toks[i], names) || member_access_before(toks, i)) continue;
    flag(out, scan, toks[i].line, rule,
         "'" + toks[i].text + "' " + std::string(why));
  }
}

/// Flags calls to the listed free functions (global or std-qualified only).
void ban_calls(const FileScan& scan, std::vector<Finding>& out,
               const char* rule, std::initializer_list<std::string_view> names,
               std::string_view why) {
  const auto& toks = scan.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!ident_in(toks[i], names) || !global_or_std_call(toks, i)) continue;
    flag(out, scan, toks[i].line, rule,
         "'" + toks[i].text + "()' " + std::string(why));
  }
}

void ban_includes(const FileScan& scan, std::vector<Finding>& out,
                  const char* rule,
                  std::initializer_list<std::string_view> targets,
                  std::string_view why) {
  for (const Token& t : scan.tokens) {
    if (t.kind != TokKind::kInclude) continue;
    for (std::string_view target : targets) {
      if (t.text == target)
        flag(out, scan, t.line, rule,
             "#include " + t.text + " " + std::string(why));
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: banned-time — wall-clock sources corrupt same-seed replay. All
// simulation time must come from sim::TimePoint / the event loop.

constexpr std::string_view kTimeWhy =
    "reads wall-clock time; use sim::TimePoint from the event loop "
    "(src/sim/time.h) so runs replay bit-exactly";

void check_banned_time(const FileScan& scan, std::vector<Finding>& out) {
  if (path_under(scan, {"src/sim/time."})) return;
  ban_idents(scan, out, "banned-time",
             {"system_clock", "steady_clock", "high_resolution_clock",
              "file_clock", "utc_clock", "gettimeofday", "clock_gettime",
              "timespec_get", "localtime", "gmtime", "mktime"},
             kTimeWhy);
  ban_calls(scan, out, "banned-time", {"time", "clock"}, kTimeWhy);
  ban_includes(scan, out, "banned-time",
               {"<ctime>", "<time.h>", "<sys/time.h>"},
               "pulls in wall-clock APIs; virtual time only (src/sim/time.h)");
}

// ---------------------------------------------------------------------------
// Rule: banned-rng — ambient entropy breaks the root-seed contract. Every
// random draw must come from a stream forked off sim::Rng.

constexpr std::string_view kRngWhy =
    "is ambient randomness; derive a stream from the campaign's seeded "
    "sim::Rng (src/sim/rng.h) instead";

void check_banned_rng(const FileScan& scan, std::vector<Finding>& out) {
  if (path_under(scan, {"src/sim/rng."})) return;
  ban_idents(scan, out, "banned-rng",
             {"random_device", "mt19937", "mt19937_64", "minstd_rand",
              "minstd_rand0", "default_random_engine", "knuth_b", "ranlux24",
              "ranlux48", "random_shuffle", "shuffle",
              "uniform_int_distribution", "uniform_real_distribution",
              "normal_distribution", "lognormal_distribution",
              "bernoulli_distribution", "exponential_distribution",
              "poisson_distribution", "discrete_distribution"},
             kRngWhy);
  ban_calls(scan, out, "banned-rng", {"rand", "srand", "random", "drand48"},
            kRngWhy);
  ban_includes(scan, out, "banned-rng", {"<random>"},
               "provides ambient engines/distributions; use sim::Rng "
               "(src/sim/rng.h)");
}

// ---------------------------------------------------------------------------
// Rule: banned-thread — the simulation core must stay single-threaded so a
// shard's world is a pure function of its seed; threads would let real
// scheduling order leak into event order. All threading lives in the shard
// executor (src/ptperf/parallel.*) and the bench harness.

constexpr std::string_view kThreadWhy =
    "introduces real concurrency into the deterministic core; run work as "
    "shards via ptperf::ParallelExecutor (src/ptperf/parallel.h) instead";

void check_banned_thread(const FileScan& scan, std::vector<Finding>& out) {
  if (path_under(scan,
                 {"src/ptperf/parallel", "src/ptperf/checkpoint.", "bench/"}))
    return;
  ban_idents(scan, out, "banned-thread",
             {"thread", "jthread", "mutex", "recursive_mutex", "timed_mutex",
              "recursive_timed_mutex", "shared_mutex", "shared_timed_mutex",
              "condition_variable", "condition_variable_any", "lock_guard",
              "unique_lock", "scoped_lock", "shared_lock", "future", "promise",
              "shared_future", "packaged_task", "latch", "barrier",
              "counting_semaphore", "binary_semaphore", "this_thread"},
             kThreadWhy);
  ban_calls(scan, out, "banned-thread", {"async", "pthread_create"},
            kThreadWhy);
  ban_includes(scan, out, "banned-thread",
               {"<thread>", "<mutex>", "<future>", "<condition_variable>",
                "<shared_mutex>", "<latch>", "<barrier>", "<semaphore>",
                "<pthread.h>"},
               "pulls in threading primitives; only src/ptperf/parallel.*, "
               "src/ptperf/checkpoint.* and bench/ may spawn or synchronize "
               "threads");
}

// ---------------------------------------------------------------------------
// Rule: hash-container — unordered_{map,set} iteration order is
// implementation- and size-dependent, which leaks into event ordering and
// RNG draw order in the deterministic core. Banned outright there because a
// token scanner cannot prove a given instance is never iterated; suppress
// with a reason for genuinely lookup-only tables.

bool in_deterministic_core(const FileScan& scan) {
  return path_under(scan, {"src/sim/", "src/net/", "src/tor/", "src/fault/"});
}

void check_hash_container(const FileScan& scan, std::vector<Finding>& out) {
  if (!in_deterministic_core(scan)) return;
  ban_idents(scan, out, "hash-container",
             {"unordered_map", "unordered_set", "unordered_multimap",
              "unordered_multiset"},
             "has nondeterministic iteration order; use std::map/std::set "
             "or a sorted vector in the deterministic core");
}

// ---------------------------------------------------------------------------
// Rule: pointer-keyed-map — std::map/set ordered by pointer value iterate in
// allocation-address order, which varies run to run (ASLR, allocator state).

void check_pointer_keyed_map(const FileScan& scan, std::vector<Finding>& out) {
  if (!in_deterministic_core(scan)) return;
  const auto& toks = scan.tokens;
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!ident_in(toks[i], {"map", "set", "multimap", "multiset"})) continue;
    if (i < 2 || !is_punct(toks[i - 1], "::") ||
        !ident_in(toks[i - 2], {"std"}))
      continue;
    if (!is_punct(toks[i + 1], "<")) continue;
    // Scan the first template argument (up to a top-level ',' or the
    // closing '>') for a pointer declarator at any nesting depth.
    int depth = 1;
    for (std::size_t j = i + 2; j < toks.size() && depth > 0; ++j) {
      const Token& t = toks[j];
      if (is_punct(t, "<")) ++depth;
      else if (is_punct(t, ">")) --depth;
      else if (is_punct(t, ",") && depth == 1) break;
      else if (is_punct(t, ";") || is_punct(t, "{")) break;  // malformed
      else if (is_punct(t, "*")) {
        flag(out, scan, toks[i].line, "pointer-keyed-map",
             "'std::" + toks[i].text +
                 "' keyed by a pointer iterates in allocation-address "
                 "order; key by a deterministic id (e.g. Channel::serial)");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: unsafe-c — unbounded C string/parse functions; src/util has bounded,
// checked equivalents.

void check_unsafe_c(const FileScan& scan, std::vector<Finding>& out) {
  ban_calls(scan, out, "unsafe-c",
            {"strcpy", "strcat", "sprintf", "vsprintf", "gets", "strtok",
             "atoi", "atol", "atoll", "atof"},
            "is unbounded/unchecked; use the src/util helpers "
            "(util::parse_int / util::fmt_double / util::Bytes)");
}

// ---------------------------------------------------------------------------
// Rule: hot-path-copy — the cell pipeline (the cell/onion/relay codecs and
// the crypto beneath them) moves every tunnel byte, so an owning
// util::Bytes allocation or a Reader copy there is a per-cell heap round
// trip the zero-copy buffer layer exists to remove. Views (BytesView /
// rest_view), pooled util::Buf and in-place spans are the sanctioned
// currencies; the copying surfaces that legitimately remain (legacy golden
// codecs, per-handshake key derivation) carry explicit allow-suppressions
// so a new copy cannot slip in silently.

bool in_cell_hot_path(const FileScan& scan) {
  return path_under(scan, {"src/tor/cell.cc", "src/tor/onion.cc",
                           "src/tor/relay.cc", "src/crypto/"});
}

void check_hot_path_copy(const FileScan& scan, std::vector<Finding>& out) {
  if (!in_cell_hot_path(scan) || scan.is_header) return;
  const auto& toks = scan.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (ident_in(toks[i], {"take_copy", "rest"}) &&
        member_access_before(toks, i) && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "(")) {
      flag(out, scan, toks[i].line, "hot-path-copy",
           "'" + toks[i].text +
               "()' copies the remaining bytes on the cell hot path; read "
               "through take()/rest_view() views (src/util/bytes.h) instead");
      continue;
    }
    if (ident_in(toks[i], {"Bytes"}) && !member_access_before(toks, i)) {
      // A reference to an existing buffer is not a construction.
      if (i + 1 < toks.size() && is_punct(toks[i + 1], "&")) continue;
      flag(out, scan, toks[i].line, "hot-path-copy",
           "'util::Bytes' on the cell hot path allocates an owning copy per "
           "cell; use util::BytesView / std::span views or a pooled "
           "util::Buf (src/util/buf.h)");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: raw-instrumentation — ad-hoc printf/std::cerr telemetry in the
// library layer bypasses the flight recorder: it cannot merge across
// shards, is invisible to the exporters, and pollutes the byte-identical
// CSV contract. Only src/trace (the exporters themselves) and src/util
// (formatting helpers) may write to streams; everything else records
// spans/counters through trace::Recorder. snprintf (bounded, in-memory)
// stays legal everywhere. bench/ and tools/ are out of scope — they are
// the presentation layer.

constexpr std::string_view kInstrWhy =
    "is ad-hoc console instrumentation; record a span/counter through the "
    "flight recorder (src/trace/trace.h) so it merges deterministically "
    "across shards";

void check_raw_instrumentation(const FileScan& scan,
                               std::vector<Finding>& out) {
  if (!path_under(scan, {"src/"})) return;
  if (path_under(scan, {"src/trace/", "src/util/"})) return;
  ban_idents(scan, out, "raw-instrumentation", {"cout", "cerr", "clog"},
             kInstrWhy);
  ban_calls(scan, out, "raw-instrumentation",
            {"printf", "fprintf", "vprintf", "vfprintf", "puts", "fputs",
             "putchar", "fputc", "perror"},
            kInstrWhy);
  ban_includes(scan, out, "raw-instrumentation", {"<iostream>"},
               "pulls in global stream objects; library code reports "
               "through the flight recorder (src/trace/trace.h)");
}

// ---------------------------------------------------------------------------
// Rule: checkpoint-io — raw file writes in src/ptperf/ outside the snapshot
// store bypass its atomic temp+rename discipline: a crash mid-write would
// leave a torn file that --resume then trusts, and the byte-identity
// contract (docs/CHECKPOINTING.md) only holds for state that went through
// the versioned, checksummed snapshot codec. checkpoint.cc's
// atomic_write_file is the one sanctioned raw-file path in the engine
// layer; everything else persists state by handing bytes to the Store.

constexpr std::string_view kCheckpointIoWhy =
    "is raw file IO in the campaign engine; persist state through "
    "checkpoint::Store (src/ptperf/checkpoint.h) so writes stay atomic, "
    "checksummed and resumable";

void check_checkpoint_io(const FileScan& scan, std::vector<Finding>& out) {
  if (!path_under(scan, {"src/ptperf/"})) return;
  // Trailing dot: exactly checkpoint.{h,cc}, not e.g. checkpoint_io_*.
  if (path_under(scan, {"src/ptperf/checkpoint."})) return;
  ban_idents(scan, out, "checkpoint-io", {"ofstream", "fstream", "FILE"},
             kCheckpointIoWhy);
  ban_calls(scan, out, "checkpoint-io",
            {"fopen", "freopen", "fwrite", "open", "creat"},
            kCheckpointIoWhy);
  ban_includes(scan, out, "checkpoint-io",
               {"<fstream>", "<cstdio>", "<stdio.h>", "<fcntl.h>"},
               "pulls in raw file IO; only src/ptperf/checkpoint.* touches "
               "the filesystem in the engine layer (atomic temp+rename "
               "snapshot writes)");
}

// ---------------------------------------------------------------------------
// Rule: transport-bypass — a directly constructed *Transport skips the PtId
// registry (src/ptperf/transports.cc), so the measured stack has no declared
// LayerStack, no validated layer composition, and no per-layer overhead
// ledger behind fig9. src/pt/ (the implementations themselves) and the
// registry are the only construction sites; tests are out of scope.

void check_transport_bypass(const FileScan& scan, std::vector<Finding>& out) {
  if (!path_under(scan, {"src/", "bench/"})) return;
  // src/population/ names transport types only to apply operating points to
  // already-constructed stacks (population::apply_snowflake); it owns no
  // construction site.
  if (path_under(scan, {"src/pt/", "src/ptperf/transports", "src/population/"}))
    return;
  ban_idents(scan, out, "transport-bypass",
             {"Obfs4Transport", "MeekTransport", "SnowflakeTransport",
              "ConjureTransport", "PsiphonTransport", "DnsttTransport",
              "WebTunnelTransport", "CamouflerTransport", "CloakTransport",
              "StegotorusTransport", "MarionetteTransport",
              "ShadowsocksTransport", "MassbrowserTransport"},
             "bypasses the PtId registry; build stacks via "
             "TransportFactory::create (src/ptperf/transports.cc) so they "
             "carry a declared, validated LayerStack");
}

// ---------------------------------------------------------------------------
// Rule: load-bypass — a hand-set load knob (Network::set_background_load,
// SnowflakeTransport::set_overloaded) in bench/ or library code pins an
// operating point that the population engine is supposed to derive from
// simulated user demand: the figure silently stops responding to the
// demand model and regresses to the hard-coded constants the engine exists
// to retire. Load flows demand -> ContendedResource -> transport via
// src/population/ (apply_regime / apply_snowflake); the engine itself and
// the declaring classes are the only sanctioned callers, and legacy
// scenario-setup sites (static non-PT tenancy) carry reasoned
// suppressions. Unlike most ident bans, member accesses count here —
// `net.set_background_load(...)` IS the bypass.

void check_load_bypass(const FileScan& scan, std::vector<Finding>& out) {
  if (!path_under(scan, {"src/", "bench/"})) return;
  if (path_under(scan, {"src/population/", "src/net/resource.",
                        "src/net/network.", "src/pt/snowflake."}))
    return;
  const auto& toks = scan.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!ident_in(toks[i], {"set_background_load", "set_overloaded"}))
      continue;
    flag(out, scan, toks[i].line, "load-bypass",
         "'" + toks[i].text +
             "' hand-sets a load knob the population engine owns; drive "
             "load through population::apply_regime / the demand model "
             "(src/population/contention.h) so figures stay anchored on "
             "emergent utilization");
  }
}

// ---------------------------------------------------------------------------
// Rule: pragma-once — every header must have it (include-graph hygiene).

void check_pragma_once(const FileScan& scan, std::vector<Finding>& out) {
  if (!scan.is_header || scan.has_pragma_once) return;
  flag(out, scan, 1, "pragma-once", "header is missing '#pragma once'");
}

// ---------------------------------------------------------------------------
// Rule: using-namespace-header — a using-directive in a header leaks into
// every includer and can silently change overload resolution.

void check_using_namespace(const FileScan& scan, std::vector<Finding>& out) {
  if (!scan.is_header) return;
  const auto& toks = scan.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (ident_in(toks[i], {"using"}) && ident_in(toks[i + 1], {"namespace"}))
      flag(out, scan, toks[i].line, "using-namespace-header",
           "'using namespace' in a header leaks into every includer");
  }
}

// ---------------------------------------------------------------------------
// Rule: include-cycle (project) — a cycle in the include graph means no
// layering assignment can exist for the files involved, and usually that a
// type boundary has dissolved. Reported once per cycle, anchored at the
// lexicographically first file's offending #include line.

void check_include_cycle(const ProjectContext& ctx,
                         std::vector<Finding>& out) {
  const Project& p = *ctx.project;
  for (const std::vector<int>& cycle : find_include_cycles(p)) {
    const ProjectFile& first = p.files()[static_cast<std::size_t>(cycle[0])];
    int next = cycle.size() > 1 ? cycle[1] : cycle[0];
    int line = 1;
    for (const auto& [to, inc_line] : first.includes) {
      if (to == next) {
        line = inc_line;
        break;
      }
    }
    std::string chain;
    for (int id : cycle) {
      chain += baseline_key_path(
          p.files()[static_cast<std::size_t>(id)].scan.norm_path);
      chain += " -> ";
    }
    chain += baseline_key_path(first.scan.norm_path);
    out.push_back(Finding{first.scan.path, line, "include-cycle",
                          "#include cycle: " + chain +
                              "; break it with a forward declaration or by "
                              "moving the shared type down a layer"});
  }
}

// ---------------------------------------------------------------------------
// Rule: layer-violation (project) — the declared layer DAG in
// tools/simlint/layers.conf says which module may include which; an edge
// outside the allow-list is an upward (or sideways) dependency that will
// calcify into a cycle. Only runs when a --layers config is provided.

void check_layer_violation(const ProjectContext& ctx,
                           std::vector<Finding>& out) {
  if (!ctx.layers || ctx.layers->empty()) return;
  const Project& p = *ctx.project;
  const LayerConfig& layers = *ctx.layers;
  for (const ProjectFile& f : p.files()) {
    if (f.module.empty()) continue;  // outside the modeled tree
    if (!layers.knows(f.module)) {
      out.push_back(Finding{f.scan.path, 1, "layer-violation",
                            "module '" + f.module +
                                "' is not declared in layers.conf; add it "
                                "to the layer DAG before adding code here"});
      continue;
    }
    for (const auto& [to, line] : f.includes) {
      const ProjectFile& g = p.files()[static_cast<std::size_t>(to)];
      if (g.module.empty() || !layers.allowed(f.module, g.module)) {
        if (g.module.empty()) continue;
        out.push_back(Finding{
            f.scan.path, line, "layer-violation",
            "include of '" + baseline_key_path(g.scan.norm_path) +
                "' reaches up the layer DAG (" + f.module + " may not "
                "depend on " + g.module + "; see tools/simlint/layers.conf)"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: unordered-iteration (project) — iterating an unordered container in
// a TU that also emits output (Table/CSV/trace writers) feeds hash-order
// into the byte-identical output contract. The deterministic core bans the
// containers outright (hash-container); everywhere else under src/ and
// bench/ they are legal for lookups, but the moment the same TU both
// iterates one and writes output, the iteration order can reach the bytes.
// The container may be declared in a header and iterated in the .cc — the
// taint set is the TU's include closure, which is why this is a project
// rule.

bool float_scope_stats(const std::string& module) {
  return module == "src/stats";
}

void check_unordered_iteration(const ProjectContext& ctx,
                               std::vector<Finding>& out) {
  const Project& p = *ctx.project;
  for (std::size_t id = 0; id < p.files().size(); ++id) {
    const ProjectFile& f = p.files()[id];
    if (f.scan.is_header) continue;  // TU view: checks anchor at the .cc
    bool in_scope = (f.module.rfind("src/", 0) == 0 || f.module == "bench");
    if (!in_scope || in_deterministic_core(f.scan)) continue;
    if (!f.summary.emits_output) continue;
    FileSummary closure = p.closure_summary(static_cast<int>(id));
    if (closure.unordered_idents.empty()) continue;
    const auto& tainted = closure.unordered_idents;
    auto is_tainted = [&](const Token& t) {
      return t.kind == TokKind::kIdent &&
             std::binary_search(tainted.begin(), tainted.end(), t.text);
    };
    const auto& toks = f.scan.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      // Range-for whose range expression names a tainted container.
      if (ident_in(toks[i], {"for"}) && is_punct(toks[i + 1], "(")) {
        int depth = 0;
        std::size_t colon = 0;
        for (std::size_t j = i + 1; j < toks.size(); ++j) {
          if (is_punct(toks[j], "(")) ++depth;
          else if (is_punct(toks[j], ")")) {
            if (--depth == 0) break;
          } else if (is_punct(toks[j], ":") && depth == 1 && !colon) {
            colon = j;
          }
        }
        if (colon) {
          int d = 1;
          for (std::size_t j = colon + 1; j < toks.size() && d > 0; ++j) {
            if (is_punct(toks[j], "(")) ++d;
            else if (is_punct(toks[j], ")")) --d;
            else if (d == 1 && is_tainted(toks[j])) {
              flag(out, f.scan, toks[i].line, "unordered-iteration",
                   "iterates '" + toks[j].text +
                       "' (unordered_*) in a TU that emits output; hash "
                       "order reaches the byte-identical outputs — use an "
                       "ordered container or sort before emitting");
              break;
            }
          }
        }
        continue;
      }
      // Explicit iterator walk: tainted.begin() / cbegin(). Deliberately not
      // end() — `it != m.end()` after a find() is the lookup idiom.
      if (is_tainted(toks[i]) && is_punct(toks[i + 1], ".") &&
          i + 2 < toks.size() && ident_in(toks[i + 2], {"begin", "cbegin"})) {
        flag(out, f.scan, toks[i].line, "unordered-iteration",
             "iterates '" + toks[i].text +
                 "' (unordered_*) in a TU that emits output; hash order "
                 "reaches the byte-identical outputs — use an ordered "
                 "container or sort before emitting");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: float-eq (project) — exact floating-point ==/!= in src/stats. The
// statistics layer is the last stop before CSV bytes; an exact comparison
// there is sensitive to FMA contraction, excess precision and evaluation
// order, i.e. to the compiler rather than the seed. Operand typing comes
// from the TU closure's declared double/float names plus floating literals.

bool float_literal(const Token& t) {
  if (t.kind != TokKind::kNumber) return false;
  if (t.text.rfind("0x", 0) == 0 || t.text.rfind("0X", 0) == 0) return false;
  return t.text.find('.') != std::string::npos ||
         t.text.find('e') != std::string::npos ||
         t.text.find('E') != std::string::npos;
}

void check_float_eq(const ProjectContext& ctx, std::vector<Finding>& out) {
  const Project& p = *ctx.project;
  for (std::size_t id = 0; id < p.files().size(); ++id) {
    const ProjectFile& f = p.files()[id];
    if (!float_scope_stats(f.module)) continue;
    FileSummary closure = p.closure_summary(static_cast<int>(id));
    const auto& floats = closure.float_idents;
    auto float_operand = [&](const Token& t) {
      if (float_literal(t)) return true;
      return t.kind == TokKind::kIdent &&
             std::binary_search(floats.begin(), floats.end(), t.text);
    };
    const auto& toks = f.scan.tokens;
    for (std::size_t i = 1; i + 2 < toks.size(); ++i) {
      bool eq = is_punct(toks[i], "=") && is_punct(toks[i + 1], "=");
      bool ne = is_punct(toks[i], "!") && is_punct(toks[i + 1], "=");
      if (!eq && !ne) continue;
      if (i >= 2 && is_punct(toks[i - 1], "=")) continue;  // second '=' of ==
      const Token& lhs = toks[i - 1];
      const Token& rhs = toks[i + 2];
      if (!float_operand(lhs) && !float_operand(rhs)) continue;
      flag(out, f.scan, toks[i].line, "float-eq",
           std::string("floating-point '") + (eq ? "==" : "!=") +
               "' is exact-representation comparison, fragile under FMA "
               "and excess precision; compare with an explicit tolerance "
               "or restructure around integers");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: switch-exhaustive (project) — a switch over PtId or CarrierKind
// that neither covers every enumerator nor has a default silently drops the
// next transport or carrier someone adds: it compiles, runs, and emits a
// figure missing a row. The enumerator lists come from the project model
// (src/ptperf/transports.h, src/pt/layer/layer.h), so the rule tightens
// itself when an enumerator is added.

constexpr std::string_view kGuardedEnums[] = {"PtId", "CarrierKind"};

bool guarded_enum(const std::string& name) {
  for (std::string_view e : kGuardedEnums) {
    if (name == e) return true;
  }
  return false;
}

void check_switch_exhaustive(const ProjectContext& ctx,
                             std::vector<Finding>& out) {
  const Project& p = *ctx.project;
  for (const ProjectFile& f : p.files()) {
    const auto& toks = f.scan.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!ident_in(toks[i], {"switch"}) || !is_punct(toks[i + 1], "(")) {
        continue;
      }
      // Find the body braces.
      int depth = 0;
      std::size_t body = 0;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (is_punct(toks[j], "(")) ++depth;
        else if (is_punct(toks[j], ")")) {
          if (--depth == 0) {
            if (j + 1 < toks.size() && is_punct(toks[j + 1], "{")) {
              body = j + 1;
            }
            break;
          }
        }
      }
      if (!body) continue;
      // Walk the body, collecting `case Enum::member` labels and `default`.
      std::map<std::string, std::vector<std::string>> cases;
      bool has_default = false;
      depth = 0;
      std::size_t j = body;
      for (; j < toks.size(); ++j) {
        if (is_punct(toks[j], "{")) ++depth;
        else if (is_punct(toks[j], "}")) {
          if (--depth == 0) break;
        } else if (ident_in(toks[j], {"default"}) && j + 1 < toks.size() &&
                   is_punct(toks[j + 1], ":")) {
          has_default = true;
        } else if (ident_in(toks[j], {"case"})) {
          // Scan the label up to its ':' for a `<Enum> :: <member>` pair.
          for (std::size_t k = j + 1; k + 2 < toks.size(); ++k) {
            if (is_punct(toks[k], ":")) break;
            if (toks[k].kind == TokKind::kIdent &&
                guarded_enum(toks[k].text) &&
                is_punct(toks[k + 1], "::") &&
                toks[k + 2].kind == TokKind::kIdent) {
              auto& seen = cases[toks[k].text];
              if (std::find(seen.begin(), seen.end(), toks[k + 2].text) ==
                  seen.end()) {
                seen.push_back(toks[k + 2].text);
              }
            }
          }
        }
      }
      if (has_default) continue;
      for (const auto& [enum_name, covered] : cases) {
        const std::vector<std::string>* members = p.enum_members(enum_name);
        if (!members) continue;  // enum not defined in the scanned set
        std::vector<std::string> missing;
        for (const std::string& m : *members) {
          if (std::find(covered.begin(), covered.end(), m) == covered.end()) {
            missing.push_back(m);
          }
        }
        if (missing.empty()) continue;
        std::string names;
        for (std::size_t m = 0; m < missing.size(); ++m) {
          if (m) names += ", ";
          names += missing[m];
        }
        flag(out, f.scan, toks[i].line, "switch-exhaustive",
             "switch over " + enum_name + " covers " +
                 std::to_string(covered.size()) + " of " +
                 std::to_string(members->size()) +
                 " enumerators and has no default (missing: " + names +
                 "); new variants would be silently dropped");
      }
    }
  }
}

const std::vector<Rule> kRules = {
    {"banned-time", "wall-clock time sources outside src/sim/time.*",
     check_banned_time, nullptr},
    {"banned-rng", "ambient randomness outside src/sim/rng.*",
     check_banned_rng, nullptr},
    {"banned-thread",
     "threading primitives outside src/ptperf/parallel.* and bench/",
     check_banned_thread, nullptr},
    {"hash-container",
     "unordered containers in the deterministic core (sim/net/tor/fault)",
     check_hash_container, nullptr},
    {"pointer-keyed-map",
     "pointer-keyed std::map/std::set in the deterministic core",
     check_pointer_keyed_map, nullptr},
    {"unsafe-c", "unbounded C string/parse functions", check_unsafe_c,
     nullptr},
    {"hot-path-copy",
     "owning byte copies on the cell hot path (tor cell/onion/relay codecs "
     "and src/crypto)",
     check_hot_path_copy, nullptr},
    {"raw-instrumentation",
     "printf/stream telemetry in src/ outside src/trace and src/util",
     check_raw_instrumentation, nullptr},
    {"checkpoint-io",
     "raw file IO in src/ptperf outside the checkpoint.* snapshot store",
     check_checkpoint_io, nullptr},
    {"transport-bypass",
     "direct *Transport construction outside src/pt/ and the PtId registry",
     check_transport_bypass, nullptr},
    {"load-bypass",
     "hand-set load knobs (set_background_load/set_overloaded) outside the "
     "population engine",
     check_load_bypass, nullptr},
    {"pragma-once", "headers must contain #pragma once", check_pragma_once,
     nullptr},
    {"using-namespace-header", "no using-directives in headers",
     check_using_namespace, nullptr},
    {"include-cycle", "cycles in the project include graph", nullptr,
     check_include_cycle},
    {"layer-violation",
     "include edges outside the declared layer DAG (layers.conf)", nullptr,
     check_layer_violation},
    {"unordered-iteration",
     "unordered container iteration in a TU that emits output", nullptr,
     check_unordered_iteration},
    {"float-eq", "exact floating-point ==/!= in src/stats", nullptr,
     check_float_eq},
    {"switch-exhaustive",
     "non-exhaustive switch over PtId/CarrierKind without default", nullptr,
     check_switch_exhaustive},
    {"unused-suppression",
     "allow-suppressions that no longer match any finding", nullptr, nullptr},
    {"bad-suppression", "malformed or reason-less allow-suppressions",
     nullptr, nullptr},
};

/// Rules whose findings are never themselves suppressible: the suppression
/// hygiene rules (a waiver cannot waive waiver defects).
bool suppressible(const std::string& rule) {
  return rule != "bad-suppression" && rule != "unused-suppression";
}

}  // namespace

const std::vector<Rule>& rules() { return kRules; }

bool known_rule(const std::string& name) {
  if (name == "all") return true;
  return std::any_of(kRules.begin(), kRules.end(),
                     [&](const Rule& r) { return name == r.name; });
}

std::vector<Finding> lint_project(const ProjectContext& ctx) {
  const Project& p = *ctx.project;

  std::vector<Finding> raw;
  for (const ProjectFile& f : p.files()) {
    for (const Rule& rule : kRules) {
      if (rule.check) rule.check(f.scan, raw);
    }
  }
  for (const Rule& rule : kRules) {
    if (rule.project_check) rule.project_check(ctx, raw);
  }

  // Suppression filtering, per owning file. A suppression is "used" once it
  // absorbs at least one finding; the rest become unused-suppression
  // findings below, so the waiver set can only shrink.
  std::map<std::string, const ProjectFile*> by_path;
  for (const ProjectFile& f : p.files()) by_path[f.scan.path] = &f;
  std::map<std::pair<std::string, int>, bool> suppression_used;

  std::vector<Finding> out;
  for (Finding& f : raw) {
    bool suppressed = false;
    auto it = by_path.find(f.file);
    if (it != by_path.end() && suppressible(f.rule)) {
      for (const Suppression& s : it->second->scan.suppressions) {
        if (!s.parse_ok || !s.has_reason) continue;
        if (f.line != s.line && f.line != s.line + 1) continue;
        for (const std::string& r : s.rules) {
          if (r == "all" || r == f.rule) {
            suppressed = true;
            suppression_used[{f.file, s.line}] = true;
            break;
          }
        }
        if (suppressed) break;
      }
    }
    if (!suppressed) out.push_back(std::move(f));
  }

  for (const ProjectFile& pf : p.files()) {
    const FileScan& scan = pf.scan;
    for (const Suppression& s : scan.suppressions) {
      // A suppression that cannot take effect is itself a defect: it either
      // failed to parse, lacks the mandatory `-- reason`, or names an
      // unknown rule.
      if (!s.parse_ok) {
        flag(out, scan, s.line, "bad-suppression",
             "malformed suppression; expected "
             "'simlint: allow(<rule>[, <rule>]) -- <reason>'");
        continue;
      }
      bool well_formed = s.has_reason;
      if (!s.has_reason) {
        flag(out, scan, s.line, "bad-suppression",
             "suppression is missing the mandatory '-- <reason>'");
      }
      for (const std::string& r : s.rules) {
        if (!known_rule(r)) {
          well_formed = false;
          flag(out, scan, s.line, "bad-suppression",
               "suppression names unknown rule '" + r + "'");
        }
      }
      // A well-formed suppression that matched nothing is stale: the code
      // it waived was fixed or moved, so the waiver must be deleted.
      if (well_formed && !suppression_used[{scan.path, s.line}]) {
        std::string names;
        for (std::size_t i = 0; i < s.rules.size(); ++i) {
          if (i) names += ", ";
          names += s.rules[i];
        }
        flag(out, scan, s.line, "unused-suppression",
             "suppression for (" + names +
                 ") no longer matches any finding; delete it — the waiver "
                 "set may only shrink");
      }
    }
  }

  std::sort(out.begin(), out.end());
  // Identical (file, line, rule, message) findings collapse to one report:
  // `a.begin()`/`a.end()` in one loop header are one defect, not two.
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Finding& a, const Finding& b) {
                          return a.file == b.file && a.line == b.line &&
                                 a.rule == b.rule && a.message == b.message;
                        }),
            out.end());
  return out;
}

}  // namespace simlint
