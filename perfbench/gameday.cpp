// One seeded game-day of the host-time benchmark (perfbench/README.md).
//
// Builds a cluster through the public fixture API, runs one workload's
// simulated horizon open-loop (the update schedule is fixed in simulated
// time, so a slower program takes longer but receives the same load), then
// audits the outputs and prints one JSON line: wall-clock spans around each
// call into the library, process CPU and peak RSS, the layers' work counts
// read from Simulator and MetricsRegistry, and the operation ledger.
//
//   perfbench_gameday --workload diurnal_churn --seed 7 [--threads N]
//                     [--profile-out PATH]
//
// With --profile-out the horizon is sampled with ITIMER_PROF and every
// sample's raw stack (offsets into this executable) is written to PATH;
// perfbench/run.py attributes the samples to repository modules.

#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/daily.h"
#include "src/core/device.h"
#include "src/pylon/topic.h"
#include "src/was/resolvers.h"
#include "src/workload/scenario_lib.h"

#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_UNTIMEABLE_BUILD 1
#endif

namespace bladerunner {
namespace {

// ---------------------------------------------------------------- timing

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Benchmark-side spans: wall time of each call into a layer, summed by name.
class Spans {
 public:
  template <typename Fn>
  void Time(const std::string& name, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    seconds_[name] += SecondsSince(start);
  }
  const std::map<std::string, double>& all() const { return seconds_; }

 private:
  std::map<std::string, double> seconds_;
};

// ---------------------------------------------------------------- sampler

// CPU-time stack sampler. The handler only copies return addresses into a
// preallocated buffer (backtrace() is warmed up before the timer starts, so
// it does not allocate inside the handler).
namespace sampler {

constexpr int kHz = 1000;
constexpr int kDepth = 64;
constexpr size_t kMaxSamples = 1 << 16;

struct Sample {
  int depth = 0;
  void* pcs[kDepth];
};

Sample* g_samples = nullptr;
std::atomic<size_t> g_next{0};

void OnProf(int) {
  const int saved_errno = errno;
  const size_t slot = g_next.fetch_add(1, std::memory_order_relaxed);
  if (slot < kMaxSamples) {
    g_samples[slot].depth = backtrace(g_samples[slot].pcs, kDepth);
  }
  errno = saved_errno;
}

void SetTimer(int hz) {
  itimerval timer{};
  if (hz > 0) {
    timer.it_interval.tv_usec = 1000000 / hz;
    timer.it_value = timer.it_interval;
  }
  setitimer(ITIMER_PROF, &timer, nullptr);
}

void Start() {
  g_samples = new Sample[kMaxSamples];
  void* warm[4];
  backtrace(warm, 4);
  struct sigaction action {};
  action.sa_handler = OnProf;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  SetTimer(kHz);
}

void Stop() { SetTimer(0); }

int FindExecutableBase(dl_phdr_info* info, size_t, void* out) {
  *static_cast<uintptr_t*>(out) = info->dlpi_addr;
  return 1;  // the first object reported is the executable itself
}

// One line per sample: the interrupted PC first, then return addresses,
// each as a hex offset into the executable. Frames 0 and 1 are this
// handler and the kernel's signal trampoline.
bool Write(const std::string& path) {
  uintptr_t base = 0;
  dl_iterate_phdr(FindExecutableBase, &base);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t taken = std::min(g_next.load(), kMaxSamples);
  std::fprintf(f, "hz %d samples %zu dropped %zu\n", kHz, taken, g_next.load() - taken);
  for (size_t i = 0; i < taken; ++i) {
    for (int d = 2; d < g_samples[i].depth; ++d) {
      const uintptr_t pc = reinterpret_cast<uintptr_t>(g_samples[i].pcs[d]);
      std::fprintf(f, d == 2 ? "%" PRIxPTR : " %" PRIxPTR, pc - base);
    }
    std::fputc('\n', f);
  }
  return std::fclose(f) == 0;
}

}  // namespace sampler

// ---------------------------------------------------------------- ledgers

// Comments the benchmark issues: comment i is posted with text "pb<i>" and
// its k-th edit rewrites it to "pb<i>.<k>", so every receipt names the
// mutation and the version it carries.
std::string CommentText(int i, int k) {
  return "pb" + std::to_string(i) + (k > 0 ? "." + std::to_string(k) : "");
}

bool ParseCommentText(const std::string& text, int* i, int* k) {
  if (text.rfind("pb", 0) != 0) return false;
  char* end = nullptr;
  const long index = std::strtol(text.c_str() + 2, &end, 10);
  if (end == text.c_str() + 2) return false;
  long version = 0;
  if (*end == '.') {
    const char* digits = end + 1;
    version = std::strtol(digits, &end, 10);
    if (end == digits || version < 1) return false;
  }
  if (*end != '\0') return false;
  *i = static_cast<int>(index);
  *k = static_cast<int>(version);
  return true;
}

// What the benchmark issued, filled in from the mutation responses.
struct CommentLedger {
  std::vector<ObjectId> ids;    // comment index -> TAO id (0 until the post returns)
  std::vector<int> edits;       // comment index -> edits scheduled
  std::vector<int> edits_done;  // comment index -> newest edit acknowledged

  void Resize(int count) {
    ids.assign(static_cast<size_t>(count), 0);
    edits.assign(static_cast<size_t>(count), 0);
    edits_done.assign(static_cast<size_t>(count), 0);
  }
  int64_t updates() const {
    int64_t n = static_cast<int64_t>(ids.size());
    for (int e : edits) n += e;
    return n;
  }
};

struct Receipt {
  ObjectId id = 0;
  std::string text;
  int64_t author = 0;
  int64_t video = 0;
  std::string language;
  int64_t view_seq = -1;  // live-query payloads only
};

// Per probe device: every comment-bearing receipt, in arrival order. One
// slot per device, allocated before any hook is installed, so a hook in a
// device-group LP only touches its own slot.
struct ProbeLog {
  std::vector<Receipt> receipts;
};

void AttachCommentProbe(DeviceAgent& device, ProbeLog* log) {
  device.set_payload_hook([log](uint64_t, const Value& payload) {
    if (!payload.Get("text").is_string()) return;  // live-query count/remove ops
    Receipt r;
    r.id = payload.Get("id").AsInt(0);
    r.text = payload.Get("text").AsString();
    r.author = payload.Get("author").AsInt(0);
    r.video = payload.Get("video").AsInt(0);
    r.language = payload.Get("language").AsString();
    if (payload.Get("viewSeq").is_int()) r.view_seq = payload.Get("viewSeq").AsInt(0);
    log->receipts.push_back(std::move(r));
  });
}

struct ReceiptAudit {
  int64_t receipts = 0;
  int64_t duplicates = 0;
  int64_t regressions = 0;
  int64_t mismatches = 0;
};

// Checks every receipt of the probe fleet against the ledger and TAO:
//  - the text names a comment the benchmark posted as that object id, at a
//    version (edit) the benchmark issued and TAO acknowledged;
//  - author, video and language equal the TAO object's;
//  - a device receives each version of a comment at most once — per
//    (device, object, version) on LVC streams, per (device, viewSeq) on
//    live-query streams, whose row ops may legitimately carry one version
//    more than once;
//  - a device never receives an older version of a comment after a newer
//    one.
ReceiptAudit AuditReceipts(BladerunnerCluster& cluster, const CommentLedger& ledger,
                           const std::vector<ProbeLog>& logs, bool live_query) {
  std::map<ObjectId, int> index_of;
  for (size_t i = 0; i < ledger.ids.size(); ++i) {
    if (ledger.ids[i] != 0) index_of[ledger.ids[i]] = static_cast<int>(i);
  }
  ReceiptAudit audit;
  for (const ProbeLog& log : logs) {
    std::set<std::pair<ObjectId, int>> seen_versions;
    std::set<int64_t> seen_view_seqs;
    std::map<ObjectId, int> newest;
    for (const Receipt& r : log.receipts) {
      audit.receipts += 1;
      int i = 0;
      int k = 0;
      auto idx = index_of.find(r.id);
      std::optional<Object> object = cluster.tao().GetObject(0, r.id, nullptr);
      const bool known = ParseCommentText(r.text, &i, &k) && idx != index_of.end() &&
                         idx->second == i && k <= ledger.edits_done[static_cast<size_t>(i)];
      if (!known || !object.has_value() || object->data.Get("author").AsInt(0) != r.author ||
          object->data.Get("video").AsInt(0) != r.video ||
          object->data.Get("language").AsString() != r.language) {
        audit.mismatches += 1;
        continue;
      }
      const bool repeated = live_query ? r.view_seq >= 0 && !seen_view_seqs.insert(r.view_seq).second
                                       : !seen_versions.insert({r.id, k}).second;
      if (repeated) audit.duplicates += 1;
      auto [it, first] = newest.try_emplace(r.id, k);
      if (!first) {
        if (k < it->second) audit.regressions += 1;
        it->second = std::max(it->second, k);
      }
    }
  }
  return audit;
}

// Posts comment `i` from `author` `at` into the horizon and records its id
// from the mutation response.
void ScheduleProbeComment(DeviceAgent* author, ObjectId video, const std::string& language,
                          int i, SimTime at, CommentLedger* ledger) {
  const std::string post = "mutation { postComment(video: " + std::to_string(video) +
                           ", text: \"" + CommentText(i, 0) + "\", language: \"" + language +
                           "\") { id } }";
  author->ctx().Schedule(at, [author, post, i, ledger]() {
    author->Mutate(post, [i, ledger](bool ok, Value data) {
      if (ok) ledger->ids[static_cast<size_t>(i)] = data.Get("postComment").Get("id").AsInt(0);
    });
  });
}

// Rewrites comment `i` to its version `k` `at` into the horizon, a TAO
// version bump that LVC and the live-query feed carry to every viewer.
void ScheduleProbeEdit(DeviceAgent* author, int i, int k, SimTime at, CommentLedger* ledger) {
  ledger->edits[static_cast<size_t>(i)] = std::max(ledger->edits[static_cast<size_t>(i)], k);
  author->ctx().Schedule(at, [author, i, k, ledger]() {
    const ObjectId id = ledger->ids[static_cast<size_t>(i)];
    if (id == 0) return;  // the post never returned: audited as a lost update
    author->Mutate("mutation { editComment(comment: " + std::to_string(id) + ", text: \"" +
                       CommentText(i, k) + "\") { id } }",
                   [i, k, ledger](bool ok, Value) {
                     int& done = ledger->edits_done[static_cast<size_t>(i)];
                     if (ok) done = std::max(done, k);
                   });
  });
}

// ---------------------------------------------------------------- result

struct Result {
  std::string workload;
  uint64_t seed = 0;
  int threads = 1;
  int lp_groups = 0;
  Spans spans;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  int64_t deliveries = 0;  // device payload receipts over the horizon
  std::map<std::string, int64_t> counts;  // layer work over the horizon
  int64_t attempted = 0;
  std::map<std::string, int64_t> failures;  // by failure kind
  std::map<std::string, bool> checks;       // output checks that are not per-operation
};

const char* Bool(bool b) { return b ? "true" : "false"; }

void PrintResult(const Result& r) {
  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"threads\":%d,\"lp_groups\":%d",
              r.workload.c_str(), r.seed, r.threads, r.lp_groups);
  std::printf(",\"build_type\":\"%s\",\"compiler\":\"%s\"", PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER);
  std::printf(",\"spans\":{");
  bool first = true;
  for (const auto& [name, s] : r.spans.all()) {
    std::printf("%s\"%s\":%.6f", first ? "" : ",", name.c_str(), s);
    first = false;
  }
  std::printf("},\"cpu_s\":%.6f,\"peak_rss_mb\":%.3f,\"deliveries\":%" PRId64, r.cpu_s,
              r.peak_rss_mb, r.deliveries);
  std::printf(",\"counts\":{");
  first = true;
  for (const auto& [name, v] : r.counts) {
    std::printf("%s\"%s\":%" PRId64, first ? "" : ",", name.c_str(), v);
    first = false;
  }
  std::printf("},\"attempted\":%" PRId64 ",\"failures\":{", r.attempted);
  first = true;
  for (const auto& [name, v] : r.failures) {
    std::printf("%s\"%s\":%" PRId64, first ? "" : ",", name.c_str(), v);
    first = false;
  }
  std::printf("},\"checks\":{");
  first = true;
  for (const auto& [name, ok] : r.checks) {
    std::printf("%s\"%s\":%s", first ? "" : ",", name.c_str(), Bool(ok));
    first = false;
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------- counts

using CounterSnapshot = std::map<std::string, int64_t>;

// The counters each layer metric is read from (perfbench/README.md).
const std::vector<std::string>& LayerCounters() {
  static const std::vector<std::string> names = {
      "device.payloads_received", "pylon.fanout_sends", "pylon.kv_adds", "pylon.kv_removes",
      "pylon.kv_gets", "pylon.kv_patches", "brass.decisions", "brass.deliveries",
      "brass.fetch.rpcs", "brass.fetch.requests", "brass.fetch.cache_hits",
      "burst.pop_envelopes", "burst.pop_fetches", "burst.pop_cache_hits",
      "burst.pop_cache_misses", "burst.pop_backbone_bytes_up", "burst.pop_backbone_bytes_down",
      "burst.device_reconnect_attempts", "brass.durable_replayed", "tao.point_reads",
      "tao.range_reads", "tao.intersect_reads", "was.queries", "was.privacy_checks",
      "livequery.applied", "livequery.maintenance_reads"};
  return names;
}

CounterSnapshot Snap(BladerunnerCluster& cluster) {
  CounterSnapshot s;
  for (const std::string& name : LayerCounters()) {
    const Counter* c = cluster.metrics().FindCounter(name);
    s[name] = c == nullptr ? 0 : c->value();
  }
  Simulator& sim = cluster.sim();
  s["sim.events"] = static_cast<int64_t>(sim.events_executed());
  s["sim.rounds"] = static_cast<int64_t>(sim.rounds_executed());
  s["sim.cross_lp_sends"] = static_cast<int64_t>(sim.cross_lp_sends());
  return s;
}

void FillCounts(const CounterSnapshot& before, const CounterSnapshot& after, Result* r) {
  auto d = [&](const std::string& name) { return after.at(name) - before.at(name); };
  r->deliveries = d("device.payloads_received");
  r->counts["sim.events"] = d("sim.events");
  r->counts["sim.rounds"] = d("sim.rounds");
  r->counts["sim.cross_lp_sends"] = d("sim.cross_lp_sends");
  r->counts["pylon.fanout_sends"] = d("pylon.fanout_sends");
  r->counts["pylon.kv_ops"] =
      d("pylon.kv_adds") + d("pylon.kv_removes") + d("pylon.kv_gets") + d("pylon.kv_patches");
  r->counts["core.device_receipts"] = d("device.payloads_received");
  r->counts["brass.decisions"] = d("brass.decisions");
  r->counts["brass.deliveries"] = d("brass.deliveries");
  r->counts["brass.fetch_rpcs"] = d("brass.fetch.rpcs");
  r->counts["brass.fetch_requests"] = d("brass.fetch.requests");
  r->counts["brass.fetch_cache_hits"] = d("brass.fetch.cache_hits");
  r->counts["burst.pop_envelopes"] = d("burst.pop_envelopes");
  r->counts["burst.pop_fetches"] = d("burst.pop_fetches");
  r->counts["burst.pop_cache_hits"] = d("burst.pop_cache_hits");
  r->counts["burst.pop_cache_misses"] = d("burst.pop_cache_misses");
  r->counts["burst.backbone_bytes"] =
      d("burst.pop_backbone_bytes_up") + d("burst.pop_backbone_bytes_down");
  r->counts["burst.reconnects"] = d("burst.device_reconnect_attempts");
  r->counts["burst.durable_replayed"] = d("brass.durable_replayed");
  r->counts["tao.reads"] = d("tao.point_reads") + d("tao.range_reads") + d("tao.intersect_reads");
  r->counts["was.queries"] = d("was.queries");
  r->counts["was.privacy_checks"] = d("was.privacy_checks");
  r->counts["livequery.applied"] = d("livequery.applied");
  r->counts["livequery.maintenance_reads"] = d("livequery.maintenance_reads");
}

// ---------------------------------------------------------------- checks

int64_t CounterValue(BladerunnerCluster& cluster, const std::string& name) {
  const Counter* c = cluster.metrics().FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

// Checks that hold for every workload, read after the drain:
//  - every BRASS decision is positive or filtered;
//  - per app, a host never pushes, conflates or sheds more than it decided
//    to deliver (decided = delivered + filtered + conflated + shed +
//    degraded + in flight, with filtered, degraded and in-flight >= 0).
//    The reliable apps are exempt: Ticker replays its durable log and
//    Messenger redelivers unacked messages on resume, without new decisions;
//  - at the POP, delivered + conflated + shed + filtered + privacy drops
//    never exceed the envelopes that arrived;
//  - device-observed latency (every app's e2e histogram, whole fleet) is
//    never below the topology's minimum path: the fastest last mile plus
//    the POP-to-datacenter floor.
void CommonChecks(BladerunnerCluster& cluster, Result* r) {
  auto c = [&](const std::string& name) { return CounterValue(cluster, name); };
  r->checks["brass_decisions_conserved"] =
      c("brass.decisions") == c("brass.decisions_positive") + c("brass.filtered");
  bool per_app = true;
  for (const char* app : {"LVC", "AS", "TI", "Stories", "LiveFeed", "LiveCount"}) {
    const std::string a = app;
    const int64_t out =
        c("brass.deliveries." + a) + c("brass.conflated." + a) + c("brass.shed." + a);
    if (out > c("brass.decisions." + a)) per_app = false;
  }
  r->checks["brass_per_app_conservation"] = per_app;
  r->checks["pop_conservation"] =
      c("burst.pop_deliveries") + c("burst.pop_conflated") + c("burst.pop_shed") +
          c("burst.pop_filtered") + c("burst.pop_privacy_drops") <=
      c("burst.pop_envelopes");

  const Topology& topo = cluster.topology();
  double last_mile_ms = 1e18;
  for (DeviceProfile p :
       {DeviceProfile::kWifi, DeviceProfile::kMobile4g, DeviceProfile::kMobile2g}) {
    last_mile_ms = std::min(last_mile_ms, topo.LastMileModel(p).min_ms);
  }
  const double floor_us = (last_mile_ms + LatencyModel::PopToDatacenter().min_ms) * 1000.0;
  bool above_floor = true;
  uint64_t samples = 0;
  for (const char* app : {"LVC", "AS", "TI", "Stories", "Messenger", "Ticker", "LiveFeed",
                          "LiveCount"}) {
    const Histogram* h = cluster.metrics().FindHistogram(std::string("e2e.total_us.") + app);
    if (h == nullptr || h->count() == 0) continue;
    samples += h->count();
    if (h->min() < floor_us) above_floor = false;
  }
  r->checks["latency_above_min_path"] = above_floor && samples > 0;
}

// ---------------------------------------------------------------- workloads

struct Fleets {
  std::vector<std::unique_ptr<DeviceAgent>> lvc_viewers;
  std::vector<std::unique_ptr<DeviceAgent>> lq_viewers;
  std::vector<std::unique_ptr<DeviceAgent>> commenters;
  std::vector<ProbeLog> lvc_logs;
  std::vector<ProbeLog> lq_logs;
};

// Fixture pieces of MakeBenchCluster, timed apart: construction, graph
// generation, warmup.
BenchCluster BuildCluster(const ClusterConfig& config, const SocialGraphConfig& graph_config,
                          Spans* spans) {
  BenchCluster fixture;
  spans->Time("setup.cluster_s", [&] {
    fixture.cluster = std::make_unique<BladerunnerCluster>(config, Topology::ThreeRegions());
  });
  spans->Time("setup.graph_s", [&] {
    fixture.graph =
        GenerateSocialGraph(fixture.cluster->tao(), fixture.cluster->sim().rng(), graph_config);
  });
  spans->Time("setup.cluster_s", [&] { fixture.sim().RunFor(Seconds(2)); });
  return fixture;
}

// Probe devices on `video`: LVC viewers and live-query (LiveFeed) viewers,
// taken from graph users starting at *next_user.
void MakeProbeViewers(BenchCluster& fixture, ObjectId video, size_t lvc, size_t lq,
                      size_t* next_user, Fleets* f) {
  f->lvc_logs.resize(lvc);
  f->lq_logs.resize(lq);
  f->lvc_viewers = MakeDeviceFleet(fixture, *next_user, lvc, [&](DeviceAgent& d, size_t i) {
    d.SubscribeLvc(video);
    AttachCommentProbe(d, &f->lvc_logs[i]);
  });
  *next_user += lvc;
  f->lq_viewers = MakeDeviceFleet(fixture, *next_user, lq, [&](DeviceAgent& d, size_t i) {
    d.SubscribeRaw("LiveFeed",
                   "subscription { liveCommentFeed(videoId: " + std::to_string(video) + ") }");
    AttachCommentProbe(d, &f->lq_logs[i]);
  });
  *next_user += lq;
}

// The benchmark's comment schedule on `video`: `count` comments spread
// evenly over `window` starting at `start`, authors drawn from the
// commenter pool with `rng` (nullptr: round-robin). Every `edit_every`-th
// comment (0: none) is edited by its author `edit_after` its post.
struct CommentSchedule {
  int count = 0;
  SimTime start = 0;
  SimTime window = 0;
  int edit_every = 0;
  SimTime edit_after = 0;
};

void ScheduleComments(BenchCluster& fixture, Fleets& f, ObjectId video,
                      const CommentSchedule& schedule, Rng* rng, CommentLedger* ledger) {
  ledger->Resize(schedule.count);
  const SimTime gap = schedule.window / schedule.count;
  for (int i = 0; i < schedule.count; ++i) {
    const size_t pick = rng != nullptr ? rng->Index(f.commenters.size())
                                       : static_cast<size_t>(i) % f.commenters.size();
    DeviceAgent* author = f.commenters[pick].get();
    const std::string& language = fixture.graph.language.at(author->user());
    const SimTime at = schedule.start + gap * i;
    ScheduleProbeComment(author, video, language, i, at, ledger);
    if (schedule.edit_every > 0 && i % schedule.edit_every == schedule.edit_every - 1) {
      ScheduleProbeEdit(author, i, 1, at + schedule.edit_after, ledger);
    }
  }
}

// Per-operation audit of the probe fleet. Failure kinds are prefixed with
// `prefix`.
void AuditProbes(BenchCluster& fixture, const Fleets& f, const CommentLedger& ledger,
                 const std::string& prefix, Result* r) {
  BladerunnerCluster& cluster = *fixture.cluster;
  const int64_t viewers = static_cast<int64_t>(f.lvc_viewers.size() + f.lq_viewers.size());
  r->attempted += ledger.updates() * viewers;
  // A post or an edit that TAO never acknowledged (or that TAO does not
  // hold as the comment's newest text) fails for every viewer it was owed to.
  int64_t lost = 0;
  for (size_t i = 0; i < ledger.ids.size(); ++i) {
    if (ledger.ids[i] == 0) {
      lost += 1 + ledger.edits[i];
      continue;
    }
    lost += ledger.edits[i] - ledger.edits_done[i];
    std::optional<Object> object = cluster.tao().GetObject(0, ledger.ids[i], nullptr);
    const std::string newest = CommentText(static_cast<int>(i), ledger.edits_done[i]);
    if (!object.has_value() || object->data.Get("text").AsString() != newest) lost += 1;
  }
  r->failures[prefix + "updates_lost"] = lost * viewers;
  const ReceiptAudit lvc = AuditReceipts(cluster, ledger, f.lvc_logs, /*live_query=*/false);
  const ReceiptAudit lq = AuditReceipts(cluster, ledger, f.lq_logs, /*live_query=*/true);
  r->failures[prefix + "duplicate_receipts"] = lvc.duplicates + lq.duplicates;
  r->failures[prefix + "version_regressions"] = lvc.regressions + lq.regressions;
  r->failures[prefix + "payload_mismatches"] = lvc.mismatches + lq.mismatches;
  // A receipt check that saw nothing would pass vacuously.
  r->checks[prefix + "probe_receipts_seen"] =
      (f.lvc_viewers.empty() || lvc.receipts > 0) && (f.lq_viewers.empty() || lq.receipts > 0);
  if (!f.lq_viewers.empty()) {
    LiveQueryEngine* engine = cluster.livequery();
    const bool ok = engine != nullptr && engine->AuditAll();
    r->failures[prefix + "livequery_view_diverged"] =
        ok ? 0 : ledger.updates() * static_cast<int64_t>(f.lq_viewers.size());
  }
}

void AuditSubscriptions(BladerunnerCluster& cluster, Result* r) {
  const SubscriptionAudit subs = AuditSubscriptionDurability(cluster);
  r->failures["subscriptions_lost"] = static_cast<int64_t>(subs.lost);
  r->checks["subscriptions_audited"] = subs.audited > 0;
}

// Overload posture of a game-day (pacing, tight queue bounds, degrade
// armed), as in the composed scenarios of src/workload/scenario.cpp.
void ApplyOverloadKnobs(ClusterConfig* config) {
  config->brass.overload.min_push_gap = Millis(200);
  config->brass.overload.max_pending_per_stream = 8;
  config->brass.overload.degrade_min_sheds = 4;
  config->brass.overload.degrade_shed_fraction = 0.25;
  config->brass.overload.shed_window = Seconds(2);
  config->brass.overload.recover_check_interval = Seconds(2);
}

// Horizon bookkeeping shared by every workload.
struct Horizon {
  CounterSnapshot before;
  double cpu_before = 0;
  bool profile = false;

  void Begin(BladerunnerCluster& cluster, bool sample) {
    profile = sample;
    before = Snap(cluster);
    if (profile) sampler::Start();
    cpu_before = ProcessCpuSeconds();
  }
  void End(BladerunnerCluster& cluster, Result* r) {
    r->cpu_s = ProcessCpuSeconds() - cpu_before;
    if (profile) sampler::Stop();
    r->peak_rss_mb = PeakRssMb();
    FillCounts(before, Snap(cluster), r);
  }
};

// The edit race, on inputs fixed apart from the seed: 20 LVC viewers of one
// video and 12 comments, each edited 2 s after its post, while the post is
// still in ranking or waiting for its delivery. LVC then delivers the edited
// version twice, or an older version after the newer one (CHANGES.md,
// "FOUND"), on the same operations in every game-day. It runs after the
// timed horizon on a small cluster of its own with the sequential kernel;
// its operations count as attempted and its failures under "edit_race.".
void RunEditRaceProbe(BrassPlacement placement, Result* r) {
  constexpr size_t kViewers = 20;
  constexpr size_t kCommenters = 4;
  ClusterConfig config;
  config.seed = 4242;
  config.apps.lvc.placement = placement;
  config.burst.pop_placement_enabled = placement != BrassPlacement::kRegional;
  SocialGraphConfig graph_config;
  graph_config.num_users = static_cast<int>(kViewers + kCommenters);
  graph_config.num_videos = 1;
  graph_config.num_threads = 1;
  Spans untimed;
  BenchCluster fixture = BuildCluster(config, graph_config, &untimed);
  Fleets f;
  size_t next = 0;
  const ObjectId video = fixture.graph.videos[0];
  MakeProbeViewers(fixture, video, kViewers, 0, &next, &f);
  f.commenters = MakeDeviceFleet(fixture, next, kCommenters);
  fixture.sim().RunFor(Seconds(3));
  CommentLedger ledger;
  const CommentSchedule schedule{.count = 12, .start = Seconds(1), .window = Seconds(12),
                                 .edit_every = 1, .edit_after = Seconds(2)};
  ScheduleComments(fixture, f, video, schedule, /*rng=*/nullptr, &ledger);
  fixture.sim().RunFor(Seconds(40));
  AuditProbes(fixture, f, ledger, "edit_race.", r);
}

// diurnal_churn: Fig. 8 diurnal population with session churn over every
// stock app and a probe video watched by LVC and live-query viewers, on the
// partitioned kernel. Every fourth probe comment is edited 15 s after its
// post, once its first version has been delivered or aged out of the LVC
// ranking buffer. (Rolling BRASS host upgrades are left out: with them,
// some seeds lose a Pylon subscription — see CHANGES.md.)
void RunDiurnalChurn(Result* r, bool profile) {
  constexpr size_t kDailyUsers = 1000;
  constexpr size_t kLvcProbes = 60;
  constexpr size_t kLqProbes = 60;
  constexpr size_t kCommenters = 40;
  constexpr SimTime kDuration = Seconds(60);

  ClusterConfig config;
  config.seed = r->seed;
  config.parallel.threads = r->threads;
  config.parallel.device_lp_groups = r->lp_groups;
  config.livequery.enabled = true;
  SocialGraphConfig graph_config;
  graph_config.num_users = static_cast<int>(kDailyUsers + kLvcProbes + kLqProbes + kCommenters);
  graph_config.num_videos = 8;
  graph_config.num_threads = 8;
  BenchCluster fixture = BuildCluster(config, graph_config, &r->spans);
  BladerunnerCluster& cluster = *fixture.cluster;

  Fleets f;
  ObjectId video = 0;
  r->spans.Time("setup.fleet_s", [&] {
    // A video of its own, outside graph.videos, so the daily population's
    // comments never land on the probe streams.
    video = CreateVideo(cluster.tao(), fixture.graph.users[kDailyUsers], "probe");
    size_t next = kDailyUsers;
    MakeProbeViewers(fixture, video, kLvcProbes, kLqProbes, &next, &f);
    f.commenters = MakeDeviceFleet(fixture, next, kCommenters);
  });
  r->spans.Time("setup.settle_s", [&] { fixture.sim().RunFor(Seconds(5)); });

  Rng rng(r->seed * 2654435761ull + 977);
  CommentLedger ledger;
  const CommentSchedule schedule{.count = 240, .start = Seconds(2),
                                 .window = kDuration - Seconds(10), .edit_every = 4,
                                 .edit_after = Seconds(15)};
  ScheduleComments(fixture, f, video, schedule, &rng, &ledger);

  DailyScenarioConfig daily_config;
  daily_config.duration = kDuration;
  daily_config.user_limit = kDailyUsers;
  daily_config.streams_per_minute *= 10.0;
  daily_config.typing_toggles_per_minute *= 10.0;
  daily_config.comments_per_minute *= 10.0;
  daily_config.messages_per_minute *= 10.0;
  daily_config.stories_per_minute *= 10.0;

  std::unique_ptr<DailyScenario> daily;
  r->spans.Time("setup.fleet_s", [&] {
    daily = std::make_unique<DailyScenario>(&cluster, &fixture.graph, daily_config);
  });
  Horizon horizon;
  horizon.Begin(cluster, profile);
  r->spans.Time("run.load_s", [&] { daily->Run(); });
  r->spans.Time("run.drain_s", [&] { fixture.sim().RunFor(Seconds(20)); });
  horizon.End(cluster, r);

  AuditProbes(fixture, f, ledger, "", r);
  AuditSubscriptions(cluster, r);
  CommonChecks(cluster, r);
  RunEditRaceProbe(BrassPlacement::kRegional, r);
}

// flash_crowd_placed: a hot-video comment flood with version bumps (every
// fourth comment is edited 8 s after its post, once its first version has
// left the POP's pacing queue), LVC placed at the POP (filter + conflate),
// and a typing storm paced at the host.
void RunFlashCrowdPlaced(Result* r, bool profile) {
  constexpr size_t kViewers = 700;
  constexpr size_t kCommenters = 250;
  constexpr int kPerSecond = 40;
  constexpr SimTime kFlood = Seconds(15);
  constexpr SimTime kEditAfter = Seconds(29);

  ClusterConfig config;
  config.seed = r->seed;
  config.apps.lvc.placement = BrassPlacement::kPopFilterConflate;
  config.burst.pop_placement_enabled = true;
  config.apps.typing.backend_check = false;
  ApplyOverloadKnobs(&config);
  SocialGraphConfig graph_config;
  graph_config.num_users = static_cast<int>(kViewers + kCommenters + 2);
  graph_config.num_videos = 8;
  graph_config.num_threads = 8;
  BenchCluster fixture = BuildCluster(config, graph_config, &r->spans);
  BladerunnerCluster& cluster = *fixture.cluster;

  Fleets f;
  std::unique_ptr<DeviceAgent> watcher;
  std::unique_ptr<DeviceAgent> typist;
  ObjectId thread = 0;
  const ObjectId video = fixture.graph.videos[0];
  r->spans.Time("setup.fleet_s", [&] {
    size_t next = 0;
    MakeProbeViewers(fixture, video, kViewers, 0, &next, &f);
    f.commenters = MakeDeviceFleet(fixture, next, kCommenters);
    next += kCommenters;
    const UserId w = fixture.graph.users[next];
    const UserId t = fixture.graph.users[next + 1];
    thread = CreateThread(cluster.tao(), {w, t});
  });
  r->spans.Time("setup.settle_s", [&] { fixture.sim().RunFor(Seconds(1)); });
  r->spans.Time("setup.fleet_s", [&] {
    const size_t next = kViewers + kCommenters;
    watcher = std::make_unique<DeviceAgent>(&cluster, fixture.graph.users[next], 0,
                                            DeviceProfile::kWifi);
    watcher->SubscribeTyping(thread);
    typist = std::make_unique<DeviceAgent>(&cluster, fixture.graph.users[next + 1], 0,
                                           DeviceProfile::kWifi);
  });
  r->spans.Time("setup.settle_s", [&] { fixture.sim().RunFor(Seconds(5)); });

  Rng rng(r->seed * 2654435761ull + 977);
  CommentLedger ledger;
  const int comments = kPerSecond * static_cast<int>(kFlood / Seconds(1));
  const CommentSchedule schedule{.count = comments, .start = Seconds(1), .window = kFlood,
                                 .edit_every = 4, .edit_after = kEditAfter};
  ScheduleComments(fixture, f, video, schedule, &rng, &ledger);
  // The typing storm rides the flood's cadence: one toggle per comment slot.
  DeviceAgent* t = typist.get();
  for (int i = 0; i < comments; ++i) {
    const bool on = i % 2 == 0;
    t->ctx().Schedule(Seconds(1) + kFlood / comments * i,
                      [t, thread, on]() { t->SetTyping(thread, on); });
  }

  Horizon horizon;
  horizon.Begin(cluster, profile);
  r->spans.Time("run.load_s",
                [&] { fixture.sim().RunFor(kFlood + kEditAfter + Seconds(5)); });
  r->spans.Time("run.drain_s", [&] { fixture.sim().RunFor(Seconds(15)); });
  horizon.End(cluster, r);

  AuditProbes(fixture, f, ledger, "", r);
  AuditSubscriptions(cluster, r);
  CommonChecks(cluster, r);
  RunEditRaceProbe(BrassPlacement::kPopFilterConflate, r);
}

// reconnect_storm: a durable ticker fleet; POP 0 fails catastrophically
// mid-publish and every stream on it reconnects through the surviving POPs
// and replays its missed suffix from the durable log.
void RunReconnectStorm(Result* r, bool profile) {
  constexpr size_t kDevices = 3000;
  constexpr int kChannels = 60;
  constexpr int kSubsPerDevice = 3;
  constexpr int kTicks = 24;
  constexpr SimTime kTickGap = Millis(500);
  constexpr int64_t kDeviceBase = 9000000000;  // off-graph device ids

  ClusterConfig config;
  config.seed = r->seed;
  config.apps.ticker.durable = true;
  SocialGraphConfig graph_config;
  graph_config.num_users = 12;
  graph_config.num_videos = 2;
  graph_config.num_threads = 2;
  BenchCluster fixture = BuildCluster(config, graph_config, &r->spans);
  BladerunnerCluster& cluster = *fixture.cluster;

  // The seed picks which channels each device follows, so the fan-in per
  // channel (and with it the replay volume) varies with the seed.
  Rng rng(r->seed * 2654435761ull + 977);
  TickerSeqsSeen seen;
  std::vector<std::unique_ptr<DeviceAgent>> fleet;
  r->spans.Time("setup.fleet_s", [&] {
    fleet.reserve(kDevices);
    for (size_t d = 0; d < kDevices; ++d) {
      fleet.push_back(std::make_unique<DeviceAgent>(
          &cluster, kDeviceBase + static_cast<int64_t>(d),
          static_cast<RegionId>(d % static_cast<size_t>(cluster.topology().num_regions())),
          DeviceProfile::kWifi));
      const int64_t first = 1 + static_cast<int64_t>(rng.Index(kChannels));
      for (int s = 0; s < kSubsPerDevice; ++s) {
        const int64_t channel = 1 + (first - 1 + s * 7) % kChannels;
        fleet.back()->SubscribeTicker(channel);
        seen[static_cast<int>(d)][channel];
      }
      auto* slot = &seen[static_cast<int>(d)];
      fleet.back()->set_payload_hook([slot](uint64_t, const Value& payload) {
        const Value& seq = payload.Get("_seq");
        if (!seq.is_int()) return;
        const int64_t channel =
            std::stoll(SplitTopic(payload.Get("channel").AsString())[1]);
        (*slot)[channel].insert(static_cast<uint64_t>(seq.AsInt(0)));
      });
    }
  });
  r->spans.Time("setup.settle_s", [&] { fixture.sim().RunFor(Seconds(5)); });

  TickerPublishState published;
  ScheduleTickerTicks(cluster, kChannels, kTicks, kTickGap, /*start=*/0, &published);
  BladerunnerCluster* cl = &cluster;
  // Mid-publish: half the ticks are out when POP 0 dies.
  fixture.sim().Schedule(kTickGap * kTicks / 2, [cl]() { cl->pop(0).FailPop(); });

  Horizon horizon;
  horizon.Begin(cluster, profile);
  r->spans.Time("run.load_s", [&] { fixture.sim().RunFor(kTickGap * kTicks + Seconds(4)); });
  r->spans.Time("run.drain_s", [&] { fixture.sim().RunFor(Seconds(30)); });
  horizon.End(cluster, r);

  // Every tick is owed to every stream subscribed to its channel.
  for (const auto& [d, channels] : seen) {
    (void)d;
    for (const auto& [channel, seqs] : channels) {
      (void)seqs;
      r->attempted += kTicks;
    }
  }
  r->checks["all_ticks_published"] = published.total == static_cast<int64_t>(kChannels) * kTicks;
  const DurableTickerAudit audit =
      AuditDurableTicker(cluster, kChannels, published.per_channel, seen);
  r->failures["durable_lost"] = audit.lost;
  r->failures["durable_duplicates"] = audit.duplicates;
  r->checks["durable_log_matches_publishes"] = audit.log_matches_publishes;
  r->checks["pop_failed_over"] = r->counts["burst.reconnects"] > 0;
  AuditSubscriptions(cluster, r);
  CommonChecks(cluster, r);
}

// ---------------------------------------------------------------- main

int ParseInt(const char* flag, const char* text, long lo, long hi) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v < lo || v > hi) {
    std::fprintf(stderr, "%s expects an integer in [%ld, %ld], got '%s'\n", flag, lo, hi, text);
    std::exit(2);
  }
  return static_cast<int>(v);
}

int Main(int argc, char** argv) {
#ifdef PERFBENCH_UNTIMEABLE_BUILD
  std::fprintf(stderr, "perfbench_gameday: refusing to time an unoptimised or sanitizer build\n");
  return 3;
#endif
  std::string workload;
  uint64_t seed = 0;
  int threads = -1;
  std::string profile_out;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s expects a value\n", flag.c_str());
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = static_cast<uint64_t>(ParseInt("--seed", value, 0, 1L << 30));
      have_seed = true;
    } else if (flag == "--threads") {
      threads = ParseInt("--threads", value, 1, 64);
    } else if (flag == "--profile-out") {
      profile_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  void (*run)(Result*, bool) = nullptr;
  if (workload == "diurnal_churn") {
    run = RunDiurnalChurn;
  } else if (workload == "flash_crowd_placed") {
    run = RunFlashCrowdPlaced;
  } else if (workload == "reconnect_storm") {
    run = RunReconnectStorm;
  }
  if (!have_seed || run == nullptr) {
    std::fprintf(stderr, "usage: perfbench_gameday --workload diurnal_churn|flash_crowd_placed|"
                         "reconnect_storm --seed N [--threads N] [--profile-out PATH]\n");
    return 2;
  }
  Result r;
  r.workload = workload;
  r.seed = seed;
  r.threads = workload == "diurnal_churn" && threads > 0 ? threads : 1;
  r.lp_groups = workload == "diurnal_churn" ? 8 : 0;
  run(&r, !profile_out.empty());
  if (!profile_out.empty() && !sampler::Write(profile_out)) {
    std::fprintf(stderr, "cannot write %s\n", profile_out.c_str());
    return 1;
  }
  PrintResult(r);
  return 0;
}

}  // namespace
}  // namespace bladerunner

int main(int argc, char** argv) { return bladerunner::Main(argc, argv); }
