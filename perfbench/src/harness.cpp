// The benchmark harness: runs one workload against the real serving stack
// (serving::Oracle behind serving::Daemon on a unix socket) and prints one
// JSON result line. perfbench/run.py builds and drives it; see
// perfbench/README.md for the workloads and every metric.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> --workdir <dir> [--trace-out <file>]
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same body
// twice, untraced then traced, and prints the per-layer metrics (measured
// from outside, by timing public calls and reading counter deltas) plus the
// tracing overhead, the traced end-to-end numbers minus the untraced ones.
// Exit codes: 0 correct, 1 a wrong distance or an open ledger (the result
// line says correct=false), 2 the harness could not run.
#include <time.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "client.hpp"
#include "core/solver.hpp"
#include "gate.hpp"
#include "inputs.hpp"
#include "labeling/inverted_index.hpp"
#include "labeling/label_filter.hpp"
#include "persist/frozen_image.hpp"
#include "serving/daemon.hpp"
#include "trace.hpp"
#include "util/flags.hpp"
#include "util/mmap_file.hpp"

namespace {

using namespace perfbench;
namespace serving = lowtw::serving;
using lowtw::graph::WeightedDigraph;

constexpr int kVertices = 2000;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 15;
/// Image restarts after each rebuild in the lifecycle loop.
constexpr int kRestartsPerRebuild = 4;
/// Each serving slice follows its query window with lifecycle rounds for
/// this share of the window's length, which gives the serving workloads
/// rebuild_ms and restart_ms over a few dozen rebuilds.
constexpr double kServingLifecycleShare = 0.5;
/// First answers fetched over the socket after each lifecycle publish.
constexpr std::uint64_t kBurst = 16;
/// Cap on calls per in-process probe phase (trace runs).
constexpr std::uint64_t kMaxProbeCalls = 200000;
/// Lookups timed as one span when probing the result cache.
constexpr std::size_t kLookupBatch = 4096;

struct Workload {
  const char* name;
  Endpoints endpoints;
  double skew;
  int in_flight;
  /// Untimed requests before the window, so the caches reach steady state.
  std::uint64_t warmup;
  /// True: the timed body is the rebuild/restart loop, not a query window.
  bool lifecycle;
};

constexpr Workload kWorkloads[] = {
    {"interactive_uniform", Endpoints::kUniform, 0.0, 1, 1000, false},
    {"pipelined_zipf", Endpoints::kZipf, 1.2, 256, 200000, false},
    {"lifecycle", Endpoints::kUniform, 0.0, 1, 0, true},
};

/// oracle_daemon's defaults, except 2 pool workers so the server and the
/// load generator fit a 4-CPU host.
serving::OracleOptions oracle_options(std::uint64_t seed) {
  serving::OracleOptions o;
  o.seed = seed;
  o.pool.workers = 2;
  o.cache.enabled = true;
  o.cache.capacity = 1 << 16;
  o.cache.shards = 8;
  o.row_cache_slots = 4;
  return o;
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Serving-side CPU: process CPU time minus the calling thread's, which is
/// the load generator's. Accumulates over start()/stop() intervals.
class ServingCpu {
 public:
  void start() {
    process0_ = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    thread0_ = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  }
  void stop() {
    total_ += (cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - process0_) -
              (cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - thread0_);
  }
  double seconds() const { return total_; }

 private:
  double process0_ = 0;
  double thread0_ = 0;
  double total_ = 0;
};

/// Metrics in print order: name -> (value, unit).
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      char num[64];
      const auto res = std::to_chars(num, num + sizeof(num), items_[i].value);
      s += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " +
           std::string(num, res.ptr) + ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return s + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Operations attempted and failed, and every answer awaiting the gate.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  bool ledger_ok = true;
  std::vector<Answer> answers;

  /// Runs the correctness gate over the answers collected so far and
  /// releases them.
  void verify(const WeightedDigraph& g) {
    const std::uint64_t w = count_wrong(g, answers);
    wrong += w;
    failed += w;
    answers = {};
  }
  void answer(VertexId u, VertexId v, const serving::QueryResponse& r) {
    ++attempted;
    if (r.status == serving::ServeStatus::kOk) {
      answers.push_back({u, v, r.distance});
    } else {
      ++failed;
    }
  }
};

struct Counters {
  serving::OracleStats oracle;
  serving::DaemonStats daemon;
};

/// The harness conservation check over one measured interval: every frame
/// the client sent reached the oracle, and every submit resolved exactly
/// once. Catches a load generator that silently drops requests.
bool ledger_closes(const Counters& a, const Counters& b, std::uint64_t sent,
                   const char* what) {
  const std::uint64_t requests = b.daemon.requests - a.daemon.requests;
  const auto d = [&](std::uint64_t serving::OracleStats::*f) {
    return b.oracle.*f - a.oracle.*f;
  };
  using S = serving::OracleStats;
  const std::uint64_t admitted = d(&S::admitted);
  const bool ok =
      requests == sent &&
      admitted + d(&S::sheds) + d(&S::served_cached) == requests &&
      admitted == d(&S::served_batched_index) + d(&S::served_flat) +
                      d(&S::served_dijkstra) + d(&S::timeouts) + d(&S::failed);
  if (!ok) {
    std::fprintf(stderr,
                 "ledger open over %s: sent=%llu requests=%llu admitted=%llu "
                 "sheds=%llu served_cached=%llu\n",
                 what, static_cast<unsigned long long>(sent),
                 static_cast<unsigned long long>(requests),
                 static_cast<unsigned long long>(admitted),
                 static_cast<unsigned long long>(d(&S::sheds)),
                 static_cast<unsigned long long>(d(&S::served_cached)));
  }
  return ok;
}

/// One workload run: the server, its client, and the measurements.
class Run {
 public:
  Run(const Workload& w, std::uint64_t seed, double seconds,
      const std::string& workdir)
      : w_(w),
        seed_(seed),
        seconds_(seconds),
        instance_(make_instance(seed, kVertices)),
        options_(oracle_options(seed)),
        requests_(kVertices, w.endpoints, w.skew, seed),
        socket_(workdir + "/daemon.sock"),
        image_(workdir + "/snapshot.img") {}

  /// Sets the server up kSetups times (keeping the last) and connects.
  /// Returns the median set-up time in seconds.
  double set_up() {
    std::vector<double> samples;
    for (int i = 0; i < kSetups; ++i) {
      daemon_.reset();
      oracle_.reset();
      const auto t0 = Clock::now();
      oracle_ = std::make_unique<serving::Oracle>(instance_, options_);
      oracle_->rebuild_snapshot();
      if (!oracle_->write_image(image_)) throw std::runtime_error("write_image failed");
      oracle_->start();
      serving::DaemonParams params;
      params.socket_path = socket_;
      // Longer than any pause between the harness's own frames.
      params.idle_timeout = std::chrono::milliseconds(600000);
      daemon_ = std::make_unique<serving::Daemon>(*oracle_, params);
      if (!daemon_->start()) throw std::runtime_error("daemon start failed: " + socket_);
      samples.push_back(micros(Clock::now() - t0) * 1e-6);
      ++tally_.attempted;
    }
    standby_ = std::make_unique<serving::Oracle>(instance_, options_);
    client_ = std::make_unique<Client>(socket_);
    if (w_.warmup > 0) {
      Tracer off(false);
      drive(w_.warmup, Clock::time_point::max(), off);
    }
    tally_.verify(instance_);
    return median(samples);
  }

  /// The timed body, cut into one-second slices so every metric samples
  /// the whole run. A serving slice is a query window followed by lifecycle
  /// rounds on a standby oracle (the live server's caches stay warm); a
  /// lifecycle slice is rounds on the live server with first-answer bursts.
  struct Body {
    std::uint64_t sent = 0;
    std::vector<float> rtt_us;
    std::uint64_t answered = 0;
    double busy_seconds = 0;  ///< client time spent waiting on replies
    /// Serving CPU per answer of each slice; the metric is their median.
    std::vector<double> cpu_us_per_answer;
    std::vector<double> rebuild_ms;
    std::vector<double> restart_ms;
    Counters before;
    Counters after;

    void add(const Client::Result& r) {
      sent += r.sent;
      rtt_us.insert(rtt_us.end(), r.rtt_us.begin(), r.rtt_us.end());
      answered += r.ok;
      busy_seconds += r.seconds;
    }
  };

  Body body(double seconds, Tracer& tracer) {
    Body b;
    b.before = counters();
    const int slices = std::max(1, static_cast<int>(std::lround(seconds)));
    const double slice = seconds / slices;
    for (int k = 0; k < slices; ++k) {
      ServingCpu cpu;
      const std::uint64_t answered = b.answered;
      if (!w_.lifecycle) {
        cpu.start();
        b.add(drive(~0ull, after(slice), tracer));
        cpu.stop();
        const auto tail = after(slice * kServingLifecycleShare);
        do {
          lifecycle_round(*standby_, b, 0, cpu, tracer);
        } while (Clock::now() < tail);
      } else {
        const auto end = after(slice);
        do {
          lifecycle_round(*oracle_, b, kBurst, cpu, tracer);
        } while (Clock::now() < end);
      }
      b.cpu_us_per_answer.push_back(
          cpu.seconds() * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, b.answered - answered)));
    }
    b.after = counters();
    tally_.ledger_ok &= ledger_closes(b.before, b.after, b.sent, w_.name);
    tally_.verify(instance_);
    return b;
  }

  /// In-process probes on the same mix (trace runs): Oracle::query with the
  /// workload's in-flight count, Oracle::serve_now, and serve_now on a
  /// cache-off twin (the label decode alone). Returns their p50s in µs.
  struct Probes {
    double query_us = 0;
    double serve_now_us = 0;
    double decode_us = 0;
  };
  Probes probes(Tracer& tracer) {
    Probes p;
    const double phase = std::max(1.0, seconds_ / 8);
    inproc_query(phase, tracer);
    p.query_us = median(tracer.durations_us("oracle.query"));
    timed_calls(phase, tracer, "oracle.serve_now", *oracle_);
    p.serve_now_us = median(tracer.durations_us("oracle.serve_now"));
    serving::OracleOptions off = options_;
    off.cache.enabled = false;
    serving::Oracle twin(instance_, off);
    if (!twin.load_image(image_)) throw std::runtime_error("load_image failed");
    timed_calls(phase, tracer, "query_plane.decode", twin);
    p.decode_us = median(tracer.durations_us("query_plane.decode"));
    tally_.verify(instance_);
    return p;
  }

  /// ResultCache::lookup timed over the workload's mix on a standalone cache
  /// of the serving shape; misses are inserted between timed batches so the
  /// hit pattern follows the mix. Returns ns per lookup (median of batches).
  double cache_lookup_ns(Tracer& tracer) {
    serving::ResultCache cache(options_.cache);
    RequestStream mix(kVertices, w_.endpoints, w_.skew, seed_);
    std::vector<std::pair<VertexId, VertexId>> batch(kLookupBatch);
    std::vector<bool> hit(kLookupBatch);
    std::vector<double> ns;
    for (int round = 0; round < 256; ++round) {
      for (auto& q : batch) q = mix.next();
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kLookupBatch; ++i) {
        hit[i] = cache.lookup(batch[i].first, batch[i].second, 1).has_value();
      }
      const auto t1 = Clock::now();
      tracer.record("result_cache.lookup_batch", t0, t1);
      ns.push_back(micros(t1 - t0) * 1e3 / kLookupBatch);
      // The stored value is never served; only the key pattern matters.
      for (std::size_t i = 0; i < kLookupBatch; ++i) {
        if (!hit[i]) {
          cache.insert(batch[i].first, batch[i].second, 1, 0,
                       serving::ServeLevel::kBatchedIndex);
        }
      }
    }
    return median(ns);
  }

  /// The rebuild path split at its public calls, three times (medians).
  void build_layers(Tracer& tracer, Metrics& m) {
    std::vector<double> diameter, td, labeling, transpose, filter, install;
    double td_rounds = 0;
    double dl_rounds = 0;
    for (int i = 0; i < 3; ++i) {
      serving::Oracle probe(instance_, options_);
      const std::int32_t root = tracer.open("build");
      lowtw::SolverOptions so;
      so.seed = options_.seed;
      std::optional<lowtw::Solver> solver;
      timed(tracer, "graph.diameter", root, diameter, 1e-3,
            [&] { solver.emplace(instance_, so); });
      timed(tracer, "td.build", root, td, 1e-3, [&] { solver->tree_decomposition(); });
      const lowtw::labeling::FlatLabeling* flat = nullptr;
      timed(tracer, "labeling.build", root, labeling, 1e-3,
            [&] { flat = &solver->distance_labeling().flat; });
      std::optional<lowtw::labeling::InvertedHubIndex> index;
      timed(tracer, "labeling.transpose", root, transpose, 1e-3,
            [&] { index.emplace(*flat); });
      timed(tracer, "label_filter.build", root, filter, 1e-3, [&] {
        const int parts = 16;
        lowtw::labeling::LabelFilter::build(
            *flat, *index, lowtw::labeling::partition_bfs(instance_, parts, options_.seed),
            parts);
      });
      lowtw::labeling::FlatLabeling copy = *flat;
      timed(tracer, "oracle.install", root, install, 1e-3,
            [&] { probe.install_snapshot(std::move(copy)); });
      tracer.close(root);
      td_rounds = dl_rounds = 0;
      for (const auto& [tag, rounds] : solver->report().by_tag) {
        if (tag.rfind("sep/", 0) == 0 || tag.rfind("td/", 0) == 0) td_rounds += rounds;
        if (tag.rfind("dl/", 0) == 0) dl_rounds += rounds;
      }
    }
    m.add("graph.diameter_ms", median(diameter), "ms");
    m.add("td.build_ms", median(td), "ms");
    m.add("td.rounds", td_rounds, "rounds");
    m.add("labeling.build_ms", median(labeling), "ms");
    m.add("labeling.rounds", dl_rounds, "rounds");
    m.add("labeling.transpose_ms", median(transpose), "ms");
    m.add("label_filter.build_ms", median(filter), "ms");
    m.add("oracle.install_ms", median(install), "ms");
  }

  /// The image restart split at its public calls, 20 times (medians).
  void load_layers(Tracer& tracer, Metrics& m) {
    std::vector<double> map, parse, load, first;
    std::size_t bytes = 0;
    for (int i = 0; i < 20; ++i) {
      serving::Oracle o(instance_, options_);
      const std::int32_t root = tracer.open("restart");
      std::optional<lowtw::util::MmapFile> mapping;
      timed(tracer, "persist.map", root, map, 1, [&] { mapping.emplace(image_); });
      timed(tracer, "persist.parse", root, parse, 1, [&] {
        lowtw::persist::parse_frozen_image(mapping->data(), mapping->size());
      });
      bytes = mapping->size();
      mapping.reset();
      bool loaded = false;
      timed(tracer, "oracle.load_image", root, load, 1, [&] { loaded = o.load_image(image_); });
      if (!loaded) throw std::runtime_error("load_image failed");
      o.start();
      const auto [u, v] = requests_.next();
      timed(tracer, "oracle.first_answer", root, first, 1,
            [&] { tally_.answer(u, v, o.query(u, v)); });
      tracer.close(root);
    }
    tally_.verify(instance_);
    const double parse_us = median(parse);
    m.add("persist.map_us", median(map), "us");
    m.add("persist.parse_us", parse_us, "us");
    m.add("persist.image_bytes", static_cast<double>(bytes), "bytes");
    m.add("persist.parse_MBps", static_cast<double>(bytes) / parse_us, "MB/s");
    m.add("oracle.assemble_us", median(load) - median(map) - parse_us, "us");
    m.add("oracle.first_answer_us", median(first), "us");
  }

  Tally& tally() { return tally_; }

 private:
  Counters counters() const { return {oracle_->stats(), daemon_->stats()}; }

  /// Runs `f` under a span named `name` and appends its duration, in µs
  /// times `scale`, to `out`.
  template <typename F>
  static void timed(Tracer& tracer, const char* name, std::int32_t parent,
                    std::vector<double>& out, double scale, F&& f) {
    const auto t0 = Clock::now();
    f();
    const auto t1 = Clock::now();
    out.push_back(micros(t1 - t0) * scale);
    tracer.record(name, t0, t1, parent);
  }

  static Clock::time_point after(double seconds) {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  }

  Client::Result drive(std::uint64_t max_requests, Clock::time_point deadline,
                       Tracer& tracer) {
    Client::Result r =
        client_->run(requests_, w_.in_flight, max_requests, deadline, tally_.answers, tracer);
    tally_.attempted += r.sent;
    tally_.failed += r.failed;
    return r;
  }

  /// rebuild_snapshot on `rebuilt`, then `burst` first answers over
  /// the socket (one in flight), then kRestartsPerRebuild image restarts:
  /// fresh Oracle -> load_image -> start -> first query().
  void lifecycle_round(serving::Oracle& rebuilt, Body& b, std::uint64_t burst,
                       ServingCpu& cpu, Tracer& tracer) {
    const std::uint64_t gen = rebuilt.generation();
    std::uint64_t next = 0;
    timed(tracer, "lifecycle.rebuild", -1, b.rebuild_ms, 1e-3,
          [&] { next = rebuilt.rebuild_snapshot(); });
    ++tally_.attempted;
    if (next <= gen) ++tally_.failed;

    if (burst > 0) {
      cpu.start();
      const Client::Result r = drive(burst, Clock::time_point::max(), tracer);
      cpu.stop();
      b.add(r);
    }

    for (int i = 0; i < kRestartsPerRebuild; ++i) {
      const auto [u, v] = requests_.next();
      std::optional<serving::Oracle> o;
      bool loaded = false;
      serving::QueryResponse r;
      timed(tracer, "lifecycle.restart", -1, b.restart_ms, 1e-3, [&] {
        o.emplace(instance_, options_);
        loaded = o->load_image(image_);
        o->start();
        r = o->query(u, v);
      });
      tally_.answer(u, v, r);
      if (!loaded) ++tally_.failed;
    }
  }

  /// Closed loop straight into Oracle::submit with the workload's in-flight
  /// count; each request's span runs from submit to the moment its answer
  /// is taken, in submission order as the daemon answers.
  void inproc_query(double seconds, Tracer& tracer) {
    struct Pending {
      VertexId u;
      VertexId v;
      std::uint64_t id;
      Clock::time_point t0;
      std::optional<serving::QueryResponse> done;
      std::optional<std::future<serving::QueryResponse>> reply;
    };
    const auto deadline = after(seconds);
    std::deque<Pending> q;
    std::uint64_t calls = 0;
    auto submit = [&] {
      const auto [u, v] = requests_.next();
      Pending p{u, v, calls, Clock::now(), std::nullopt, std::nullopt};
      auto out = oracle_->submit(u, v, std::chrono::microseconds(50000));
      if (out.immediate.has_value()) {
        p.done = *out.immediate;
      } else if (out.reply.has_value()) {
        p.reply = std::move(*out.reply);
      } else {
        serving::QueryResponse shed;
        shed.status = out.reject_reason;
        p.done = shed;
      }
      q.push_back(std::move(p));
      ++calls;
    };
    while (q.size() < static_cast<std::size_t>(w_.in_flight)) submit();
    while (!q.empty()) {
      Pending& p = q.front();
      const serving::QueryResponse r = p.done.has_value() ? *p.done : p.reply->get();
      tracer.record("oracle.query", p.t0, Clock::now(), -1, p.id);
      tally_.answer(p.u, p.v, r);
      q.pop_front();
      if (Clock::now() < deadline && calls < kMaxProbeCalls) submit();
    }
  }

  void timed_calls(double seconds, Tracer& tracer, const char* name,
                   serving::Oracle& oracle) {
    const auto deadline = after(seconds);
    for (std::uint64_t calls = 0; calls < kMaxProbeCalls && Clock::now() < deadline;
         ++calls) {
      const auto [u, v] = requests_.next();
      const auto t0 = Clock::now();
      const serving::QueryResponse r = oracle.serve_now(u, v);
      tracer.record(name, t0, Clock::now(), -1, calls);
      tally_.answer(u, v, r);
    }
  }

  const Workload& w_;
  std::uint64_t seed_;
  double seconds_;
  WeightedDigraph instance_;
  serving::OracleOptions options_;
  RequestStream requests_;
  std::string socket_;
  std::string image_;
  Tally tally_;
  // Destroyed in reverse: the client disconnects, then the daemon drains,
  // then the oracle stops.
  std::unique_ptr<serving::Oracle> oracle_;
  std::unique_ptr<serving::Daemon> daemon_;
  std::unique_ptr<serving::Oracle> standby_;  ///< rebuilt by serving workloads
  std::unique_ptr<Client> client_;
};

double rtt_p50(const Run::Body& b) { return median(b.rtt_us); }
double cpu_per_answer(const Run::Body& b) { return median(b.cpu_us_per_answer); }

template <typename T>
double ratio(T num, T den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Per-layer metrics of the traced body plus the tracing overhead.
void layer_metrics(Run& run, const Run::Body& plain, const Run::Body& traced,
                   Tracer& tracer, Metrics& m) {
  const serving::OracleStats& o0 = traced.before.oracle;
  const serving::OracleStats& o1 = traced.after.oracle;
  const serving::DaemonStats& d0 = traced.before.daemon;
  const serving::DaemonStats& d1 = traced.after.daemon;
  const double rtt = rtt_p50(traced);

  m.add("client.qps", static_cast<double>(traced.answered) / std::max(1e-9, traced.busy_seconds),
        "1/s");
  m.add("client.rtt_p99_us", quantile(traced.rtt_us, 0.99), "us");
  m.add("client.samples", static_cast<double>(traced.rtt_us.size()), "count");

  const Run::Probes p = run.probes(tracer);
  m.add("daemon.wire_us", rtt - p.query_us, "us");
  m.add("daemon.cache_fast_share",
        ratio(d1.cache_fast - d0.cache_fast, d1.requests - d0.requests), "ratio");
  m.add("admission.handoff_us", p.query_us - p.serve_now_us, "us");
  m.add("admission.batch_fill", ratio(o1.admitted - o0.admitted, o1.batches - o0.batches),
        "count");
  m.add("admission.sheds", static_cast<double>(o1.sheds - o0.sheds), "count");
  m.add("admission.timeouts", static_cast<double>(o1.timeouts - o0.timeouts), "count");
  m.add("worker_pool.respawns", static_cast<double>(o1.pool.respawns - o0.pool.respawns),
        "count");
  m.add("result_cache.hit_rate",
        ratio(o1.cache_hits - o0.cache_hits,
              (o1.cache_hits - o0.cache_hits) + (o1.cache_misses - o0.cache_misses)),
        "ratio");
  m.add("result_cache.lookup_ns", run.cache_lookup_ns(tracer), "ns");
  m.add("result_cache.evictions", static_cast<double>(o1.cache_evictions - o0.cache_evictions),
        "count");
  m.add("query_plane.decode_us", p.decode_us, "us");
  m.add("query_plane.entries_touched_per_answer",
        ratio(o1.entries_touched - o0.entries_touched,
              (o1.served_batched_index - o0.served_batched_index) +
                  (o1.served_flat - o0.served_flat)),
        "count");
  m.add("query_plane.row_cache_hits", static_cast<double>(o1.row_cache_hits - o0.row_cache_hits),
        "count");
  run.build_layers(tracer, m);
  run.load_layers(tracer, m);

  m.add("trace.overhead_rtt_p50_us", rtt - rtt_p50(plain), "us");
  m.add("trace.overhead_cpu_us_per_answer", cpu_per_answer(traced) - cpu_per_answer(plain),
        "us");
  m.add("trace.overhead_rebuild_ms", median(traced.rebuild_ms) - median(plain.rebuild_ms),
        "ms");
  m.add("trace.overhead_restart_ms", median(traced.restart_ms) - median(plain.restart_ms),
        "ms");
}

int run_main(int argc, char** argv) {
  lowtw::util::Flags flags(argc, argv);
  const std::string name = flags.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 10);
  const bool trace = flags.get_int("trace", 0) != 0;
  const std::string workdir = flags.get_string("workdir", ".");
  const std::string trace_out = flags.get_string("trace-out", "");

  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (name == cand.name) w = &cand;
  }
  if (w == nullptr || seconds <= 0) {
    std::fprintf(stderr, "unknown workload '%s' or bad --seconds\n", name.c_str());
    return 2;
  }

  Run run(*w, seed, seconds, workdir);
  Metrics m;
  const double setup_s = run.set_up();
  Tracer off(false);
  // A trace run measures the body twice, so each half gets half the time.
  const double body_seconds = trace ? seconds / 2 : seconds;
  const Run::Body plain = run.body(body_seconds, off);
  if (!trace) {
    m.add("setup_s", setup_s, "s");
    m.add("rtt_p50_us", rtt_p50(plain), "us");
    m.add("cpu_us_per_answer", cpu_per_answer(plain), "us");
    m.add("rebuild_ms", median(plain.rebuild_ms), "ms");
    m.add("restart_ms", median(plain.restart_ms), "ms");
  } else {
    Tracer tracer(true);
    const Run::Body traced = run.body(body_seconds, tracer);
    layer_metrics(run, plain, traced, tracer, m);
    if (!trace_out.empty()) tracer.write(trace_out);
  }

  const Tally& t = run.tally();
  const bool correct = t.wrong == 0 && t.ledger_ok;
  if (t.wrong > 0) {
    std::fprintf(stderr, "correctness gate: %llu wrong distances\n",
                 static_cast<unsigned long long>(t.wrong));
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed), m.json().c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 2;
  }
}
