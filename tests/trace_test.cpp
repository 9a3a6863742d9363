// Tests for the src/trace subsystem: span tree structure across RPC hops,
// error-closure of failed stream spans, critical-path telescoping,
// determinism of exports, head-based sampling stability, and the compact
// store (record sizes, annotation lookups, label-id independence).

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/device.h"
#include "src/trace/analysis.h"
#include "src/trace/collector.h"
#include "src/trace/export.h"
#include "src/was/resolvers.h"
#include "src/workload/social_gen.h"

namespace bladerunner {
namespace {

// The store's memory budget: a reconnect storm retains ~1M spans and as
// many annotations at the default sample rate (docs/TRACING.md, "Memory").
static_assert(sizeof(Span) <= 32, "Span must stay a 32-byte record");
static_assert(std::is_trivially_copyable_v<Span>, "Span must stay trivially copyable");
static_assert(sizeof(SpanAnnotation) <= 64, "SpanAnnotation must fit in 64 bytes");

// A small end-to-end LVC scenario: viewers stream comments on one video
// while posters mutate through the WAS. Returns the cluster (and the
// devices that must outlive the run) for trace inspection.
struct ScenarioRun {
  std::unique_ptr<BladerunnerCluster> cluster;
  std::vector<std::unique_ptr<DeviceAgent>> devices;
};

ScenarioRun RunLvcScenario(uint64_t seed, double sample_rate = 1.0) {
  ScenarioRun run;
  ClusterConfig config;
  config.seed = seed;
  config.trace.sample_rate = sample_rate;
  run.cluster = std::make_unique<BladerunnerCluster>(config);
  BladerunnerCluster& cluster = *run.cluster;

  SocialGraphConfig graph_config;
  graph_config.num_users = 30;
  graph_config.num_videos = 1;
  graph_config.num_threads = 5;
  SocialGraph graph = GenerateSocialGraph(cluster.tao(), cluster.sim().rng(), graph_config);
  // The LVC filter only surfaces friends' comments; guarantee the poster
  // (users[20]) is a friend of every viewer so updates reach devices.
  for (int i = 0; i < 6; ++i) {
    MakeFriends(cluster.tao(), graph.users[static_cast<size_t>(i)], graph.users[20]);
  }
  cluster.sim().RunFor(Seconds(2));

  for (int i = 0; i < 6; ++i) {
    run.devices.push_back(std::make_unique<DeviceAgent>(
        &cluster, graph.users[static_cast<size_t>(i)], 0, DeviceProfile::kWifi));
    run.devices.back()->SubscribeLvc(graph.videos[0]);
  }
  cluster.sim().RunFor(Seconds(5));

  run.devices.push_back(std::make_unique<DeviceAgent>(&cluster, graph.users[20], 0,
                                                      DeviceProfile::kWifi));
  DeviceAgent* poster = run.devices.back().get();
  for (int round = 0; round < 10; ++round) {
    // Post in the first viewer's language so the BRASS-side language filter
    // passes for at least that stream and the update reaches a device.
    poster->PostComment(graph.videos[0], "c", graph.language[graph.users[0]]);
    cluster.sim().RunFor(Seconds(2));
  }
  cluster.sim().RunFor(Seconds(20));
  return run;
}

// Returns the first retained trace whose root span has the given name and
// which contains at least one "burst.deliver" span (i.e. an update that
// made it all the way to a device).
const TraceRecord* FindDeliveredUpdateTrace(const TraceCollector& trace) {
  for (const TraceRecord& record : trace.Traces()) {
    if (record.root() == nullptr || record.Name(*record.root()) != "update") {
      continue;
    }
    for (const Span& span : record.spans) {
      if (record.Name(span) == "burst.deliver" && !span.open()) {
        return &record;
      }
    }
  }
  return nullptr;
}

TEST(TraceTreeTest, UpdateSpansFormSingleRootedTreeAcrossHops) {
  ScenarioRun run = RunLvcScenario(101);
  const TraceRecord* record = FindDeliveredUpdateTrace(run.cluster->trace());
  ASSERT_NE(record, nullptr);

  // Exactly one root; every non-root span's parent exists in the same
  // trace, so the spans form a single rooted tree.
  int roots = 0;
  std::set<std::string> components;
  for (const Span& span : record->spans) {
    components.insert(std::string(record->Component(span)));
    if (span.parent_span_id == 0) {
      ++roots;
      EXPECT_EQ(record->Name(span), "update");
      continue;
    }
    const Span* parent = record->Find(span.parent_span_id);
    ASSERT_NE(parent, nullptr) << "span " << record->Name(span) << " has a dangling parent";
    EXPECT_LE(parent->start, span.start);
  }
  EXPECT_EQ(roots, 1);

  // The journey crosses at least WAS -> Pylon -> BRASS -> BURST (3+ RPC
  // hops), each contributing spans under the one root.
  EXPECT_TRUE(components.count("was"));
  EXPECT_TRUE(components.count("pylon"));
  EXPECT_TRUE(components.count("brass"));
  EXPECT_TRUE(components.count("burst"));
}

TEST(TraceTreeTest, FailedHostStreamSpansAreClosedWithError) {
  ScenarioRun run = RunLvcScenario(202);
  BladerunnerCluster& cluster = *run.cluster;
  for (size_t i = 0; i < cluster.NumBrassHosts(); ++i) {
    cluster.brass_host(i).FailHost();
  }
  cluster.sim().RunFor(Seconds(2));

  SpanQuery query;
  query.name = "brass.stream";
  std::vector<SpanRef> streams = FindSpans(cluster.trace(), query);
  ASSERT_FALSE(streams.empty());
  bool saw_error = false;
  for (const SpanRef& stream : streams) {
    if (!stream.span->error) {
      continue;
    }
    saw_error = true;
    EXPECT_FALSE(stream.span->open()) << "error-marked stream span left open";
    const Value* message = stream.trace->FindAnnotation(stream.span->span_id, "error");
    ASSERT_NE(message, nullptr);
    EXPECT_EQ(message->AsString(), "host failure");
  }
  EXPECT_TRUE(saw_error);
}

TEST(CriticalPathTest, ContributionsTelescopeOnLinearTrace) {
  TraceCollector trace;
  TraceContext root = trace.StartTrace("update", "was", 0, Millis(10));
  TraceContext child = trace.StartSpan(root, "pylon.publish", "pylon", 0, Millis(20));
  TraceContext grandchild = trace.StartSpan(child, "pylon.deliver", "pylon", 1, Millis(30));
  trace.EndSpan(grandchild, Millis(80));
  trace.EndSpan(child, Millis(90));
  trace.EndSpan(root, Millis(110));

  const TraceRecord* record = trace.FindTrace(root.trace_id);
  ASSERT_NE(record, nullptr);
  std::vector<CriticalPathSegment> path = CriticalPath(*record);
  ASSERT_EQ(path.size(), 3u);
  // On a linear fully-nested trace the per-segment contributions telescope:
  // their sum is exactly the root duration.
  EXPECT_EQ(CriticalPathDuration(*record), record->root()->duration());
  EXPECT_EQ(CriticalPathDuration(*record), Millis(100));
}

TEST(TraceDeterminismTest, SameSeedRunsExportByteIdenticalJson) {
  ScenarioRun a = RunLvcScenario(303);
  ScenarioRun b = RunLvcScenario(303);
  std::string json_a = ChromeTraceJson(a.cluster->trace());
  std::string json_b = ChromeTraceJson(b.cluster->trace());
  ASSERT_FALSE(json_a.empty());
  EXPECT_GT(a.cluster->trace().TraceCount(), 0u);
  EXPECT_EQ(json_a, json_b);
}

TEST(TraceDeterminismTest, SamplingKeepsSameTraceIds) {
  ScenarioRun full = RunLvcScenario(404, /*sample_rate=*/1.0);
  ScenarioRun sampled = RunLvcScenario(404, /*sample_rate=*/0.1);

  std::set<TraceId> full_ids;
  for (const TraceRecord& record : full.cluster->trace().Traces()) {
    full_ids.insert(record.trace_id);
  }
  std::set<TraceId> sampled_ids;
  for (const TraceRecord& record : sampled.cluster->trace().Traces()) {
    sampled_ids.insert(record.trace_id);
  }
  // Head-based sampling is a pure function of the trace id, so the sampled
  // run keeps a strict subset of the full run's trace ids.
  ASSERT_FALSE(full_ids.empty());
  EXPECT_LT(sampled_ids.size(), full_ids.size());
  for (TraceId id : sampled_ids) {
    EXPECT_TRUE(full_ids.count(id)) << "sampled run produced an unknown trace id";
  }
}

TEST(TraceExportTest, ChromeJsonHasAllComponentsUnderOneRoot) {
  ScenarioRun run = RunLvcScenario(505);
  const TraceRecord* record = FindDeliveredUpdateTrace(run.cluster->trace());
  ASSERT_NE(record, nullptr);
  std::string json = ChromeTraceJson(*record);

  // Structurally valid: balanced braces/brackets, trace-event envelope.
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Every pipeline component appears as a named thread in the export.
  for (const char* component : {"was", "pylon", "brass", "burst"}) {
    EXPECT_NE(json.find(std::string("\"") + component + "\""), std::string::npos)
        << "missing component " << component;
  }
  // And the trace renders as a tree rooted at the update span.
  std::string text = RenderTrace(*record);
  EXPECT_NE(text.find("update"), std::string::npos);
  EXPECT_NE(text.find("burst.deliver"), std::string::npos);
}

TEST(TraceStoreTest, FindAnnotationReturnsLastValueUnderKey) {
  TraceCollector trace;
  TraceContext root = trace.StartTrace("update", "was", 0, Millis(1));
  TraceContext child = trace.StartSpan(root, "pylon.publish", "pylon", 0, Millis(2));
  trace.Annotate(root, "outcome", Value("first"));
  trace.Annotate(child, "outcome", Value("child"));
  trace.Annotate(root, "topic", Value("t"));
  trace.Annotate(root, "outcome", Value("last"));

  const TraceRecord* record = trace.FindTrace(root.trace_id);
  ASSERT_NE(record, nullptr);
  const Value* outcome = record->FindAnnotation(root.span_id, "outcome");
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->AsString(), "last");
  EXPECT_EQ(record->FindAnnotation(child.span_id, "outcome")->AsString(), "child");
  EXPECT_EQ(record->FindAnnotation(child.span_id, "topic"), nullptr);
  EXPECT_EQ(record->FindAnnotation(root.span_id, "never-recorded"), nullptr);

  // Span queries match on the same last value.
  SpanQuery query;
  query.annotation_key = "outcome";
  query.annotation_value = Value("last");
  ASSERT_EQ(FindSpans(trace, query).size(), 1u);
  EXPECT_EQ(FindSpans(trace, query)[0].span, record->Find(root.span_id));
  query.annotation_value = Value("first");
  EXPECT_TRUE(FindSpans(trace, query).empty());
}

TEST(TraceStoreTest, MarkErrorOnClosedSpanKeepsEndAndGainsError) {
  TraceCollector trace;
  TraceContext root = trace.StartTrace("subscribe", "device", 0, Millis(0));
  TraceContext closed = trace.RecordSpan(root, "brass.stream", "brass", 1, Millis(10), Millis(20));
  trace.MarkError(closed, "host failure", Millis(50));
  TraceContext open = trace.StartSpan(root, "brass.stream", "brass", 1, Millis(30));
  trace.MarkError(open, "drained", Millis(60));

  const Span* span = trace.FindSpan(closed);
  ASSERT_NE(span, nullptr);
  EXPECT_TRUE(span->error);
  EXPECT_EQ(span->end, Millis(20));
  const TraceRecord* record = trace.FindTrace(root.trace_id);
  ASSERT_NE(record->FindAnnotation(closed.span_id, "error"), nullptr);
  EXPECT_EQ(record->FindAnnotation(closed.span_id, "error")->AsString(), "host failure");

  // An open span is closed at the error time.
  EXPECT_TRUE(trace.FindSpan(open)->error);
  EXPECT_EQ(trace.FindSpan(open)->end, Millis(60));
}

TEST(TraceExportTest, ChromeJsonKeepsEachSpansAnnotationOrder) {
  TraceCollector trace;
  TraceContext root = trace.StartTrace("update", "was", 0, Millis(0));
  TraceContext child = trace.StartSpan(root, "pylon.publish", "pylon", 0, Millis(1));
  // Interleaved across spans and out of key order: each span's export must
  // list its own annotations in record order.
  trace.Annotate(root, "zeta", Value(1));
  trace.Annotate(child, "mid", Value(2));
  trace.Annotate(root, "alpha", Value(3));
  trace.Annotate(child, "beta", Value(4));
  trace.Annotate(root, "zeta", Value(5));
  trace.EndSpan(child, Millis(2));
  trace.EndSpan(root, Millis(3));

  const TraceRecord* record = trace.FindTrace(root.trace_id);
  ASSERT_NE(record, nullptr);
  std::string json = ChromeTraceJson(*record);
  EXPECT_NE(json.find("\"span\":1,\"parent\":0,\"region\":0,\"zeta\":1,\"alpha\":3,\"zeta\":5}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"span\":2,\"parent\":1,\"region\":0,\"mid\":2,\"beta\":4}"),
            std::string::npos)
      << json;
  std::string text = RenderTrace(*record);
  EXPECT_NE(text.find("update [was] +0.0ms 3.0ms zeta=1 alpha=3 zeta=5\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("pylon.publish [pylon] +1.0ms 1.0ms mid=2 beta=4\n"), std::string::npos)
      << text;
}

TEST(TraceExportTest, LabelIdOrderNeverReachesExports) {
  // Two collectors with the same seed record the same trace, but interned
  // their labels in opposite orders first (a cleared warm-up trace each),
  // so every label id differs between them.
  TraceCollector forward;
  TraceCollector backward;
  forward.StartTrace("update", "was", 0, Millis(0));
  backward.StartTrace("zzz.warmup", "pylon", 0, Millis(0));
  backward.StartSpan(TraceContext{backward.Traces().front().trace_id, 1}, "pylon.publish",
                     "was", 0, Millis(0));
  forward.Clear();
  backward.Clear();

  for (TraceCollector* trace : {&forward, &backward}) {
    TraceContext root = trace->StartTrace("update", "was", 0, Millis(0));
    trace->Annotate(root, "topic", Value("t"));
    TraceContext publish = trace->StartSpan(root, "pylon.publish", "pylon", 1, Millis(1));
    trace->RecordSpan(publish, "brass.process", "brass", 1, Millis(2), Millis(4));
    trace->EndSpan(publish, Millis(5));
  }
  EXPECT_EQ(ChromeTraceJson(forward), ChromeTraceJson(backward));
  const TraceRecord& a = forward.Traces().front();
  const TraceRecord& b = backward.Traces().front();
  EXPECT_NE(a.root()->component, b.root()->component);  // the ids really differ
  EXPECT_EQ(RenderTrace(a), RenderTrace(b));
  EXPECT_EQ(ComponentBreakdown(a).begin()->first, "brass");  // keyed by text
}

// A partitioned cluster whose device LPs open and tear down streams while
// updates are in flight, so worker threads intern labels concurrently.
// Calls `inspect` with the collector once the run is over.
void RunPartitionedChurn(int threads,
                         const std::function<void(const TraceCollector&)>& inspect) {
  ClusterConfig config;
  config.seed = 17;
  config.parallel.threads = threads;
  config.parallel.device_lp_groups = 4;
  BladerunnerCluster cluster(config);
  UserId u1 = CreateUser(cluster.tao(), "a", "en");
  UserId u2 = CreateUser(cluster.tao(), "b", "en");
  MakeFriends(cluster.tao(), u1, u2);
  ObjectId video = CreateVideo(cluster.tao(), u1, "v");
  cluster.sim().RunFor(Seconds(2));
  DeviceAgent poster(&cluster, u2, 1, DeviceProfile::kWifi);
  std::vector<std::unique_ptr<DeviceAgent>> viewers;
  for (int i = 0; i < 8; ++i) {
    viewers.push_back(
        std::make_unique<DeviceAgent>(&cluster, u1, i % 2, DeviceProfile::kMobile4g));
    // Subscribe on the device's own LP, so its subscribe trace is rooted in
    // that LP's store and the backend grows it from another thread.
    DeviceAgent* v = viewers.back().get();
    v->ctx().Schedule(Millis(1), [v, video]() { v->SubscribeLvc(video); });
  }
  cluster.sim().RunFor(Seconds(1));
  for (int k = 0; k < 8; ++k) {
    poster.PostComment(video, "c", "en");
    for (size_t i = 0; i < viewers.size(); ++i) {
      DeviceAgent* v = viewers[i].get();
      v->ctx().Schedule(Millis(40 + 13 * static_cast<SimTime>(i)),
                        [v]() { v->burst().Disconnect(); });
      v->ctx().Schedule(Millis(230 + 13 * static_cast<SimTime>(i)),
                        [v]() { v->burst().Connect(); });
    }
    cluster.sim().RunFor(Millis(500));
  }
  cluster.sim().RunFor(Seconds(10));
  inspect(cluster.trace());
}

TEST(TraceDeterminismTest, PartitionedExportIdenticalAtOneAndFourThreads) {
  std::string one;
  std::string four;
  RunPartitionedChurn(1, [&](const TraceCollector& c) { one = ChromeTraceJson(c); });
  RunPartitionedChurn(4, [&](const TraceCollector& c) { four = ChromeTraceJson(c); });
  EXPECT_NE(one.find("\"burst.deliver\""), std::string::npos);
  EXPECT_EQ(one, four);
}

TEST(TraceDeterminismTest, SpanQueriesMatchAcrossLpStores) {
  RunPartitionedChurn(4, [](const TraceCollector& collector) {
    // Each LP store interns its own labels; a query must find the same
    // spans as a per-span FindAnnotation in every store.
    std::set<const TraceLabels*> tables;  // of the stores holding matches
    std::vector<const Span*> expected;
    SpanQuery query;
    query.annotation_key = "app";
    for (const TraceRecord* trace : collector.AllTraces()) {
      for (const Span& span : trace->spans) {
        const Value* app = trace->FindAnnotation(span.span_id, "app");
        if (app == nullptr) continue;
        if (expected.empty()) query.annotation_value = *app;
        if (*app != query.annotation_value) continue;
        expected.push_back(&span);
        tables.insert(trace->labels);
      }
    }
    EXPECT_GT(tables.size(), 1u);
    ASSERT_FALSE(expected.empty());
    std::vector<const Span*> found;
    for (const SpanRef& ref : FindSpans(collector, query)) found.push_back(ref.span);
    EXPECT_EQ(found, expected);
  });
}

}  // namespace
}  // namespace bladerunner
