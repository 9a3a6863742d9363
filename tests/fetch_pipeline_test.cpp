// Tests for the per-host shared fetch pipeline (src/brass/fetch_pipeline):
// singleflight coalescing, the versioned payload cache and its
// version-observation invalidation, batched per-viewer privacy checks, the
// bypass path, and the stale-version regression — a lagging follower WAS
// must never get an old payload cached (and served) as current.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/brass/fetch_pipeline.h"
#include "src/net/rpc.h"
#include "src/pylon/cluster.h"
#include "src/tao/store.h"
#include "src/was/messages.h"
#include "src/was/resolvers.h"
#include "src/was/server.h"

namespace bladerunner {
namespace {

// WAS + pipeline both live in region 1; test objects are written through a
// region-0 leader shard, so region 1 reads them region-relatively (with
// genuine replication lag right after a write).
constexpr RegionId kHostRegion = 1;
constexpr RegionId kLeaderRegion = 0;

struct FetchResult {
  bool done = false;
  bool allowed = false;
  Value payload;
};

class FetchPipelineTest : public ::testing::Test {
 protected:
  FetchPipelineTest() : topology_(Topology::ThreeRegions()), sim_(91) {
    tao_ = std::make_unique<TaoStore>(&sim_, &topology_, TaoConfig{}, &metrics_);
    PylonConfig pylon_config;
    pylon_config.servers_per_region = 1;
    pylon_config.kv_nodes_per_region = 3;
    pylon_ = std::make_unique<PylonCluster>(&sim_, &topology_, pylon_config, &metrics_, &trace_);
    // Fast WAS processing so a fetch round trip (couple of ms) completes
    // well inside the cross-region TAO replication window (tens of ms) —
    // the stale-follower test issues several fetches during that window.
    WasConfig was_config;
    was_config.fetch_base_ms = 2.0;
    was_config.query_base_ms = 1.0;
    was_config.privacy_check_ms = 0.5;
    was_ = std::make_unique<WebAppServer>(&sim_, kHostRegion, tao_.get(), pylon_.get(),
                                          was_config, &metrics_, &trace_);
    InstallSocialSchema(*was_);
    channel_ = std::make_unique<RpcChannel>(&sim_, was_->rpc(), LatencyModel::Fixed(0.1));

    author_ = CreateUser(*tao_, "author", "en");
    viewer_a_ = CreateUser(*tao_, "viewer-a", "en");
    viewer_b_ = CreateUser(*tao_, "viewer-b", "en");
    viewer_c_ = CreateUser(*tao_, "viewer-c", "en");
    batch_viewers_ = {viewer_a_, viewer_b_};
    MakePipeline(FetchPipelineConfig{});
    sim_.RunFor(Seconds(2));  // replicate the users everywhere
  }

  void MakePipeline(FetchPipelineConfig config) {
    pipeline_ = std::make_unique<FetchPipeline>(
        &sim_, kHostRegion, channel_.get(), Seconds(5), config, &metrics_, &trace_,
        [this](const std::string&) { return batch_viewers_; });
  }

  // Allocates an object id owned by a region-0 leader shard.
  ObjectId AllocLeaderRegionId() {
    ObjectId id = tao_->NextId();
    while (tao_->LeaderRegionOf(id) != kLeaderRegion) {
      id = tao_->NextId();
    }
    return id;
  }

  // Writes (a new version of) a comment object; returns the stamped version.
  uint64_t PutComment(ObjectId id, const std::string& text) {
    Object object;
    object.id = id;
    object.otype = "comment";
    object.data.Set("text", text);
    object.data.Set("author", author_);
    uint64_t version = 0;
    tao_->PutObject(std::move(object), &version);
    return version;
  }

  Value Meta(ObjectId id, uint64_t version) {
    Value meta;
    meta.Set("id", id);
    meta.Set("author", author_);
    meta.Set("version", static_cast<int64_t>(version));
    return meta;
  }

  std::shared_ptr<FetchResult> Fetch(UserId viewer, const Value& metadata,
                                     bool bypass_cache = false) {
    auto result = std::make_shared<FetchResult>();
    FetchOptions options;
    options.viewer = viewer;
    options.bypass_cache = bypass_cache;
    pipeline_->Fetch("LVC", metadata, options, [result](bool allowed, Value payload) {
      result->done = true;
      result->allowed = allowed;
      result->payload = std::move(payload);
    });
    return result;
  }

  int64_t Counter(const std::string& name) { return metrics_.GetCounter(name).value(); }

  Topology topology_;
  Simulator sim_;
  MetricsRegistry metrics_;
  TraceCollector trace_;
  std::unique_ptr<TaoStore> tao_;
  std::unique_ptr<PylonCluster> pylon_;
  std::unique_ptr<WebAppServer> was_;
  std::unique_ptr<RpcChannel> channel_;
  std::unique_ptr<FetchPipeline> pipeline_;
  UserId author_ = 0;
  UserId viewer_a_ = 0;
  UserId viewer_b_ = 0;
  UserId viewer_c_ = 0;
  std::vector<UserId> batch_viewers_;
};

TEST_F(FetchPipelineTest, CoalescesSameInstantFetchesIntoOneRoundTrip) {
  ObjectId id = AllocLeaderRegionId();
  uint64_t version = PutComment(id, "hello");
  sim_.RunFor(Seconds(2));

  auto a = Fetch(viewer_a_, Meta(id, version));
  auto b = Fetch(viewer_b_, Meta(id, version));
  sim_.RunFor(Seconds(1));

  EXPECT_EQ(Counter("was.fetches"), 1);
  EXPECT_EQ(Counter("brass.fetch.coalesced"), 1);
  ASSERT_TRUE(a->done);
  ASSERT_TRUE(b->done);
  EXPECT_TRUE(a->allowed);
  EXPECT_TRUE(b->allowed);
  EXPECT_EQ(a->payload.Get("text").AsString(), "hello");
  EXPECT_EQ(b->payload.Get("text").AsString(), "hello");
}

TEST_F(FetchPipelineTest, ServesFollowersFromVersionedCache) {
  ObjectId id = AllocLeaderRegionId();
  uint64_t version = PutComment(id, "cached");
  sim_.RunFor(Seconds(2));

  auto a = Fetch(viewer_a_, Meta(id, version));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(a->done);
  EXPECT_EQ(Counter("was.fetches"), 1);
  EXPECT_EQ(pipeline_->CacheSize(), 1u);

  // Viewer B arrives later; their decision was prefetched in the batched
  // RPC, so this is a pure cache hit: no new WAS round trip.
  auto b = Fetch(viewer_b_, Meta(id, version));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(b->done);
  EXPECT_TRUE(b->allowed);
  EXPECT_EQ(b->payload.Get("text").AsString(), "cached");
  EXPECT_EQ(Counter("was.fetches"), 1);
  EXPECT_EQ(Counter("brass.fetch.cache_hits"), 1);
}

TEST_F(FetchPipelineTest, PerViewerPrivacyPreservedInBatchAndCache) {
  BlockUser(*tao_, author_, viewer_b_);
  ObjectId id = AllocLeaderRegionId();
  uint64_t version = PutComment(id, "private");
  sim_.RunFor(Seconds(2));

  auto a = Fetch(viewer_a_, Meta(id, version));
  auto b = Fetch(viewer_b_, Meta(id, version));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(a->done);
  ASSERT_TRUE(b->done);
  EXPECT_TRUE(a->allowed);
  EXPECT_FALSE(b->allowed);
  EXPECT_TRUE(b->payload.is_null());

  // The cached denial is as authoritative as the WAS's answer: a repeat
  // fetch by the blocked viewer stays denied and payload-free.
  auto b2 = Fetch(viewer_b_, Meta(id, version));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(b2->done);
  EXPECT_FALSE(b2->allowed);
  EXPECT_TRUE(b2->payload.is_null());
  EXPECT_EQ(Counter("was.fetches"), 1);
}

TEST_F(FetchPipelineTest, LateViewerGetsPrivacyOnlyTopUp) {
  batch_viewers_ = {viewer_a_};  // only A's decision is prefetched
  ObjectId id = AllocLeaderRegionId();
  uint64_t version = PutComment(id, "topup");
  sim_.RunFor(Seconds(2));

  auto a = Fetch(viewer_a_, Meta(id, version));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(a->done);
  EXPECT_EQ(Counter("brass.fetch.rpcs"), 1);

  // C's decision is missing from the cache entry: a privacy-only RPC runs
  // (no payload re-fetch), then the cached payload is served.
  auto c = Fetch(viewer_c_, Meta(id, version));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(c->done);
  EXPECT_TRUE(c->allowed);
  EXPECT_EQ(c->payload.Get("text").AsString(), "topup");
  EXPECT_EQ(Counter("brass.fetch.privacy_rpcs"), 1);
  EXPECT_EQ(Counter("brass.fetch.rpcs"), 1);
}

TEST_F(FetchPipelineTest, BypassCacheAlwaysReachesTheWas) {
  ObjectId id = AllocLeaderRegionId();
  uint64_t version = PutComment(id, "direct");
  sim_.RunFor(Seconds(2));

  auto a = Fetch(viewer_a_, Meta(id, version));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(a->done);
  EXPECT_EQ(Counter("was.fetches"), 1);

  auto direct = Fetch(viewer_a_, Meta(id, version), /*bypass_cache=*/true);
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(direct->done);
  EXPECT_TRUE(direct->allowed);
  EXPECT_EQ(direct->payload.Get("text").AsString(), "direct");
  EXPECT_EQ(Counter("was.fetches"), 2);
  EXPECT_EQ(Counter("brass.fetch.bypass"), 1);
}

TEST_F(FetchPipelineTest, NewerObservedVersionInvalidatesCachedPayload) {
  ObjectId id = AllocLeaderRegionId();
  uint64_t v1 = PutComment(id, "v1");
  sim_.RunFor(Seconds(2));

  auto a = Fetch(viewer_a_, Meta(id, v1));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(a->done);
  EXPECT_EQ(pipeline_->CacheSize(), 1u);

  // A Pylon event announcing version 2 of the object arrives at the host.
  pipeline_->ObserveEvent(Meta(id, v1 + 1));
  EXPECT_EQ(pipeline_->CacheSize(), 0u);
  EXPECT_EQ(Counter("brass.fetch.invalidations"), 1);
}

// The regression this pipeline must never introduce: after version v+1 of
// an object has been observed, the cached version v payload must not be
// delivered for a new fetch — including when the follower-region WAS,
// still mid-replication, answers the fresh fetch with version v again.
TEST_F(FetchPipelineTest, StaleFollowerReadIsDeliveredButNeverCachedAsCurrent) {
  ObjectId id = AllocLeaderRegionId();
  uint64_t v1 = PutComment(id, "old");
  sim_.RunFor(Seconds(2));

  // Version 1 is cached on the host.
  auto warm = Fetch(viewer_a_, Meta(id, v1));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(warm->done);
  EXPECT_EQ(pipeline_->CacheSize(), 1u);

  // Version 2 is written through the region-0 leader and its Pylon event
  // reaches the host at once — long before TAO replication lands the new
  // version in this region.
  uint64_t v2 = PutComment(id, "new");
  ASSERT_EQ(v2, v1 + 1);
  pipeline_->ObserveEvent(Meta(id, v2));
  EXPECT_EQ(pipeline_->CacheSize(), 0u);  // v1 can no longer be served

  // A fetch for the v2 event during the replication lag: the cache must
  // miss (fresh WAS round trip), the follower WAS still serves v1 — which
  // is delivered, exactly as an unpipelined fetch would have — but the
  // stale payload must not be cached as the current version.
  int64_t rpcs_before = Counter("was.fetches");
  auto lagged = Fetch(viewer_a_, Meta(id, v2));
  sim_.RunFor(Millis(10));
  ASSERT_TRUE(lagged->done);
  EXPECT_TRUE(lagged->allowed);
  EXPECT_EQ(lagged->payload.Get("text").AsString(), "old");
  EXPECT_EQ(Counter("was.fetches"), rpcs_before + 1);
  EXPECT_EQ(Counter("brass.fetch.stale_returns"), 1);
  EXPECT_EQ(pipeline_->CacheSize(), 0u);

  // Another fetch during the lag must go to the WAS again — there is no
  // cached entry that could hand back the stale payload.
  auto lagged2 = Fetch(viewer_b_, Meta(id, v2));
  sim_.RunFor(Millis(10));
  ASSERT_TRUE(lagged2->done);
  EXPECT_EQ(lagged2->payload.Get("text").AsString(), "old");  // still mid-replication
  EXPECT_EQ(Counter("was.fetches"), rpcs_before + 2);
  EXPECT_EQ(pipeline_->CacheSize(), 0u);

  // Once replication lands, the fetch returns version 2 and only then is
  // the payload cached (and served to followers) as current.
  sim_.RunFor(Seconds(2));
  auto fresh = Fetch(viewer_a_, Meta(id, v2));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(fresh->done);
  EXPECT_EQ(fresh->payload.Get("text").AsString(), "new");
  EXPECT_EQ(pipeline_->CacheSize(), 1u);

  int64_t rpcs_after = Counter("was.fetches");
  auto hit = Fetch(viewer_b_, Meta(id, v2));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(hit->done);
  EXPECT_EQ(hit->payload.Get("text").AsString(), "new");
  EXPECT_EQ(Counter("was.fetches"), rpcs_after);
}

TEST_F(FetchPipelineTest, SupersededInFlightFetchIsNotCached) {
  ObjectId id = AllocLeaderRegionId();
  uint64_t v1 = PutComment(id, "v1");
  sim_.RunFor(Seconds(2));

  auto a = Fetch(viewer_a_, Meta(id, v1));
  // Before the flight's RPC returns, a newer version is observed.
  pipeline_->ObserveEvent(Meta(id, v1 + 1));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(a->done);
  EXPECT_TRUE(a->allowed);  // the waiter still gets the v1 result
  EXPECT_EQ(pipeline_->CacheSize(), 0u);
}

TEST_F(FetchPipelineTest, LruEvictionBoundsTheCache) {
  FetchPipelineConfig config;
  config.cache_capacity = 2;
  MakePipeline(config);

  std::vector<ObjectId> ids;
  for (int i = 0; i < 3; ++i) {
    ObjectId id = AllocLeaderRegionId();
    PutComment(id, "entry");
    ids.push_back(id);
  }
  sim_.RunFor(Seconds(2));

  for (ObjectId id : ids) {
    auto r = Fetch(viewer_a_, Meta(id, 1));
    sim_.RunFor(Seconds(1));
    ASSERT_TRUE(r->done);
  }
  EXPECT_EQ(pipeline_->CacheSize(), 2u);
  EXPECT_EQ(Counter("brass.fetch.evictions"), 1);
}

TEST_F(FetchPipelineTest, DisabledPipelineStillFetchesCorrectly) {
  FetchPipelineConfig config;
  config.enabled = false;
  MakePipeline(config);

  ObjectId id = AllocLeaderRegionId();
  uint64_t version = PutComment(id, "plain");
  sim_.RunFor(Seconds(2));

  auto a = Fetch(viewer_a_, Meta(id, version));
  auto b = Fetch(viewer_b_, Meta(id, version));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(a->done);
  ASSERT_TRUE(b->done);
  EXPECT_TRUE(a->allowed);
  EXPECT_EQ(b->payload.Get("text").AsString(), "plain");
  EXPECT_EQ(Counter("was.fetches"), 2);  // one round trip per stream
  EXPECT_EQ(pipeline_->CacheSize(), 0u);
}

TEST_F(FetchPipelineTest, ClearDropsCacheAndFlights) {
  ObjectId id = AllocLeaderRegionId();
  uint64_t version = PutComment(id, "gone");
  sim_.RunFor(Seconds(2));

  auto warm = Fetch(viewer_a_, Meta(id, version));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(warm->done);
  EXPECT_EQ(pipeline_->CacheSize(), 1u);

  // A second object's fetch is mid-flight when the host clears (drain or
  // crash): its waiter must never fire afterwards.
  ObjectId id2 = AllocLeaderRegionId();
  uint64_t version2 = PutComment(id2, "never");
  sim_.RunFor(Seconds(2));
  auto inflight = Fetch(viewer_a_, Meta(id2, version2));
  pipeline_->Clear();
  sim_.RunFor(Seconds(1));
  EXPECT_EQ(pipeline_->CacheSize(), 0u);
  EXPECT_FALSE(inflight->done);
}

// A payload flight carries at most max_batch_viewers (64) decisions, the
// requester's included, however many viewers the host holds and wherever
// the requester sorts among them.
TEST_F(FetchPipelineTest, PayloadFlightKeepsRequesterInsideBatchCap) {
  std::vector<UserId> host_viewers;
  for (int i = 0; i < 70; ++i) {
    host_viewers.push_back(CreateUser(*tao_, "host-" + std::to_string(i), "en"));
  }
  ObjectId id = AllocLeaderRegionId();
  uint64_t version = PutComment(id, "capped");
  sim_.RunFor(Seconds(2));

  // Requester not among the host's viewers, then among them past the cap.
  struct Case {
    std::vector<UserId> host;
    UserId requester;
  };
  std::vector<Case> cases = {
      {host_viewers, viewer_c_},
      {host_viewers, host_viewers.back()},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    batch_viewers_ = cases[i].host;
    pipeline_->Clear();
    const int64_t checks_before = Counter("was.privacy_checks");
    auto result = Fetch(cases[i].requester, Meta(id, version));
    sim_.RunFor(Seconds(1));
    ASSERT_TRUE(result->done) << i;
    EXPECT_TRUE(result->allowed) << i;
    EXPECT_EQ(result->payload.Get("text").AsString(), "capped") << i;
    EXPECT_EQ(Counter("was.privacy_checks") - checks_before, 64) << i;
  }
  EXPECT_EQ(Counter("brass.fetch.rpcs"), 2);
  EXPECT_EQ(Counter("brass.fetch.privacy_rpcs"), 0);
}

// One POP fill (BrassHost::OnPopFetch): a whole local flash crowd asks for
// one event in the same instant. Pins the round-trip shape and the request
// count of the pipeline as it stands: one payload flight carries at most
// max_batch_viewers decisions, and every waiter left out re-enters after
// each privacy-only round.
TEST_F(FetchPipelineTest, PopFillOfSevenHundredViewersKeepsItsRoundTripShape) {
  batch_viewers_.clear();  // POP viewers hold no streams on the host
  std::vector<UserId> crowd;
  for (int i = 0; i < 700; ++i) {
    crowd.push_back(CreateUser(*tao_, "crowd-" + std::to_string(i), "en"));
  }
  for (size_t i = 0; i < crowd.size(); i += 9) {
    BlockUser(*tao_, author_, crowd[i]);
  }
  ObjectId id = AllocLeaderRegionId();
  uint64_t version = PutComment(id, "flash");
  sim_.RunFor(Seconds(2));

  const Value meta = Meta(id, version);
  std::vector<std::shared_ptr<FetchResult>> results;
  for (UserId viewer : crowd) {
    results.push_back(Fetch(viewer, meta));
  }
  sim_.RunFor(Seconds(5));

  EXPECT_EQ(Counter("brass.fetch.rpcs"), 1);
  EXPECT_EQ(Counter("brass.fetch.privacy_rpcs"), 10);
  EXPECT_EQ(Counter("brass.fetch.requests"), 4180);
  EXPECT_EQ(Counter("brass.fetch.cache_hits"), 0);

  // Every decision is the WAS's own: ask it directly, one viewer at a time.
  std::vector<std::shared_ptr<FetchResult>> direct;
  for (UserId viewer : crowd) {
    direct.push_back(Fetch(viewer, meta, /*bypass_cache=*/true));
  }
  sim_.RunFor(Seconds(5));
  const Value* first_payload = nullptr;
  for (size_t i = 0; i < crowd.size(); ++i) {
    ASSERT_TRUE(results[i]->done) << i;
    ASSERT_TRUE(direct[i]->done) << i;
    EXPECT_EQ(results[i]->allowed, direct[i]->allowed) << i;
    EXPECT_EQ(results[i]->allowed, i % 9 != 0) << i;
    if (!results[i]->allowed) {
      EXPECT_TRUE(results[i]->payload.is_null()) << i;
      continue;
    }
    if (first_payload == nullptr) {
      first_payload = &results[i]->payload;
      EXPECT_EQ(first_payload->Get("text").AsString(), "flash");
    }
    EXPECT_EQ(results[i]->payload, *first_payload) << i;
  }

  // The game-day shape: the host also holds the crowd's streams, so the
  // first payload flight prefetches host viewers too, and the fill asks in
  // an order unrelated to user ids. That flight carries the requester and
  // the 63 lowest ids: 64 decisions, then 10 privacy-only top-ups.
  batch_viewers_ = crowd;
  ObjectId held = AllocLeaderRegionId();
  uint64_t held_version = PutComment(held, "held");
  sim_.RunFor(Seconds(2));
  const int64_t rpcs_before = Counter("brass.fetch.rpcs");
  const int64_t topups_before = Counter("brass.fetch.privacy_rpcs");
  const int64_t requests_before = Counter("brass.fetch.requests");
  const int64_t hits_before = Counter("brass.fetch.cache_hits");
  std::vector<std::shared_ptr<FetchResult>> held_results;
  for (auto it = crowd.rbegin(); it != crowd.rend(); ++it) {
    held_results.push_back(Fetch(*it, Meta(held, held_version)));
  }
  sim_.RunFor(Seconds(5));
  EXPECT_EQ(Counter("brass.fetch.rpcs") - rpcs_before, 1);
  EXPECT_EQ(Counter("brass.fetch.privacy_rpcs") - topups_before, 10);
  // Same count as a fill the host holds no streams for; with the requester
  // appended past the cap (65 decisions) it was 4170.
  EXPECT_EQ(Counter("brass.fetch.requests") - requests_before, 4180);
  EXPECT_EQ(Counter("brass.fetch.cache_hits") - hits_before, 0);
  for (size_t i = 0; i < held_results.size(); ++i) {
    ASSERT_TRUE(held_results[i]->done) << i;
    EXPECT_EQ(held_results[i]->allowed, (crowd.size() - 1 - i) % 9 != 0) << i;
  }
}

// FetchForViewers (a POP fill's entry) makes exactly the requests, round
// trips and decisions of one Fetch per viewer in the same order.
TEST_F(FetchPipelineTest, FetchForViewersMatchesOneFetchPerViewer) {
  batch_viewers_.clear();
  std::vector<UserId> crowd;
  for (int i = 0; i < 150; ++i) {
    crowd.push_back(CreateUser(*tao_, "fill-" + std::to_string(i), "en"));
  }
  for (size_t i = 0; i < crowd.size(); i += 7) {
    BlockUser(*tao_, author_, crowd[i]);
  }
  ObjectId looped = AllocLeaderRegionId();
  ObjectId batched = AllocLeaderRegionId();
  uint64_t looped_version = PutComment(looped, "same");
  uint64_t batched_version = PutComment(batched, "same");
  sim_.RunFor(Seconds(2));
  const std::vector<std::string> counters = {"brass.fetch.requests", "brass.fetch.coalesced",
                                             "brass.fetch.rpcs", "brass.fetch.privacy_rpcs",
                                             "brass.fetch.cache_hits", "was.privacy_checks"};
  auto snapshot = [&]() {
    std::vector<int64_t> values;
    for (const std::string& name : counters) {
      values.push_back(Counter(name));
    }
    return values;
  };

  std::vector<std::shared_ptr<FetchResult>> one_by_one;
  std::vector<int64_t> before = snapshot();
  for (UserId viewer : crowd) {
    one_by_one.push_back(Fetch(viewer, Meta(looped, looped_version)));
  }
  sim_.RunFor(Seconds(5));
  std::vector<int64_t> looped_cost = snapshot();

  std::vector<std::pair<UserId, FetchResult>> fill;
  pipeline_->FetchForViewers("LVC", Meta(batched, batched_version), crowd, TraceContext{},
                             [&fill](UserId viewer, bool allowed, const Value& payload) {
                               fill.push_back({viewer, FetchResult{true, allowed, payload}});
                             });
  sim_.RunFor(Seconds(5));
  std::vector<int64_t> after = snapshot();
  for (size_t i = 0; i < counters.size(); ++i) {
    EXPECT_EQ(after[i] - looped_cost[i], looped_cost[i] - before[i]) << counters[i];
  }

  ASSERT_EQ(fill.size(), crowd.size());
  std::map<UserId, const FetchResult*> by_viewer;
  for (const auto& [viewer, result] : fill) {
    by_viewer[viewer] = &result;
  }
  for (size_t i = 0; i < crowd.size(); ++i) {
    ASSERT_TRUE(one_by_one[i]->done);
    ASSERT_EQ(by_viewer.count(crowd[i]), 1u);
    EXPECT_EQ(by_viewer[crowd[i]]->allowed, one_by_one[i]->allowed);
    // Two objects, so the payloads differ in "id" only.
    EXPECT_EQ(by_viewer[crowd[i]]->payload.is_null(), one_by_one[i]->payload.is_null());
    EXPECT_EQ(by_viewer[crowd[i]]->payload.Get("text"), one_by_one[i]->payload.Get("text"));
  }
}

// Two events for one object and version that differ in a per-stream field
// (Messenger's mailbox "seq") must never share a flight or a cache entry.
TEST_F(FetchPipelineTest, MetadataDifferingInOneFieldNeverSharesAFlightOrEntry) {
  ObjectId id = AllocLeaderRegionId();
  uint64_t version = PutComment(id, "mailbox");
  sim_.RunFor(Seconds(2));

  Value seq1 = Meta(id, version);
  seq1.Set("seq", 1);
  Value seq2 = Meta(id, version);
  seq2.Set("seq", 2);
  auto a = Fetch(viewer_a_, seq1);
  auto b = Fetch(viewer_b_, seq2);
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(a->done);
  ASSERT_TRUE(b->done);
  EXPECT_EQ(Counter("brass.fetch.rpcs"), 2);
  EXPECT_EQ(Counter("brass.fetch.coalesced"), 0);
  EXPECT_EQ(pipeline_->CacheSize(), 2u);

  // Each entry answers its own metadata only.
  auto again = Fetch(viewer_a_, seq2);
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(again->done);
  EXPECT_EQ(Counter("brass.fetch.cache_hits"), 1);
  EXPECT_EQ(Counter("brass.fetch.rpcs"), 2);
}

// The key is the metadata's value, not the order its fields were set in.
TEST_F(FetchPipelineTest, MetadataBuiltInAnotherOrderSharesTheFlightAndEntry) {
  ObjectId id = AllocLeaderRegionId();
  uint64_t version = PutComment(id, "order");
  sim_.RunFor(Seconds(2));

  Value reordered;
  reordered.Set("version", static_cast<int64_t>(version));
  reordered.Set("author", author_);
  reordered.Set("id", id);
  auto a = Fetch(viewer_a_, Meta(id, version));
  auto b = Fetch(viewer_b_, reordered);
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(a->done);
  ASSERT_TRUE(b->done);
  EXPECT_EQ(Counter("brass.fetch.rpcs"), 1);
  EXPECT_EQ(Counter("brass.fetch.coalesced"), 1);
  EXPECT_EQ(pipeline_->CacheSize(), 1u);

  auto hit = Fetch(viewer_b_, reordered);
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(hit->done);
  EXPECT_EQ(Counter("brass.fetch.cache_hits"), 1);
  EXPECT_EQ(hit->payload.Get("text").AsString(), "order");
}

// A privacy-only top-up and a payload fetch of the same metadata are
// distinct flights: both can be in the air at once, and neither joins the
// other.
TEST_F(FetchPipelineTest, PayloadFlightAndPrivacyTopUpOfOneKeyCoexist) {
  batch_viewers_ = {viewer_a_};
  ObjectId id = AllocLeaderRegionId();
  uint64_t version = PutComment(id, "both");
  sim_.RunFor(Seconds(2));

  auto warm = Fetch(viewer_a_, Meta(id, version));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(warm->done);
  ASSERT_EQ(pipeline_->CacheSize(), 1u);

  // C's decision is missing: a privacy-only top-up takes off. A newer
  // version then drops the cached payload, so B's fetch of the same
  // metadata in the same instant must start a payload flight of its own.
  auto c = Fetch(viewer_c_, Meta(id, version));
  pipeline_->ObserveEvent(Meta(id, version + 1));
  auto b = Fetch(viewer_b_, Meta(id, version));
  EXPECT_EQ(Counter("brass.fetch.coalesced"), 0);
  sim_.RunFor(Millis(1));
  EXPECT_EQ(Counter("brass.fetch.rpcs"), 2);
  EXPECT_EQ(Counter("brass.fetch.privacy_rpcs"), 1);

  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(b->done);
  ASSERT_TRUE(c->done);
  EXPECT_TRUE(b->allowed);
  EXPECT_TRUE(c->allowed);
  EXPECT_EQ(b->payload.Get("text").AsString(), "both");
  EXPECT_EQ(c->payload.Get("text").AsString(), "both");
}

}  // namespace
}  // namespace bladerunner
