// The per-host shared fetch pipeline between BRASS application instances
// and the WAS (docs/BRASS_FETCH.md).
//
// Fig. 5 step 8 has every BRASS instance fetch a mutated payload from the
// WAS with a per-viewer privacy check — so a hot object with N viewer
// streams on one host turns one Pylon event into N near-identical WAS
// round trips. The pipeline amortizes that in three layers:
//
//  1. Singleflight coalescing: concurrent fetches for the same
//     (app, object, version) metadata join one in-flight WAS call.
//  2. A versioned read-through LRU payload cache that serves followers of
//     the same event version without a WAS trip, invalidated when a newer
//     version of the object is observed in a Pylon event — TAO replication
//     lag must never let a stale payload be served as current.
//  3. Batched privacy checks: the single WAS fetch RPC carries the host's
//     current viewers of the application, so the residual cache-miss cost
//     is one round trip per host, not one per stream.
//
// Per-viewer privacy semantics are preserved bit-for-bit: every decision
// is still computed by the WAS per viewer; only the round-trip count
// changes.

#ifndef BLADERUNNER_SRC_BRASS_FETCH_PIPELINE_H_
#define BLADERUNNER_SRC_BRASS_FETCH_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/brass/config.h"
#include "src/graphql/value.h"
#include "src/net/rpc.h"
#include "src/net/topology.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/tao/types.h"
#include "src/trace/collector.h"

namespace bladerunner {

// Options of one payload fetch / WAS query issued by a BRASS application.
struct FetchOptions {
  // The stream's authenticated viewer the privacy check runs for.
  UserId viewer = 0;
  // When valid, nests the fetch's spans under the caller's span —
  // applications typically pass the event's or their processing span.
  TraceContext parent;
  // Reliable-delivery paths (e.g. Messenger gap recovery) must observe the
  // WAS directly: skip coalescing and the payload cache for this request.
  bool bypass_cache = false;
};

class FetchPipeline {
 public:
  // callback(allowed, payload): allowed is the viewer's privacy decision;
  // payload is null when not allowed or on RPC failure.
  using Callback = std::function<void(bool, Value)>;
  // callback(viewer, allowed, payload), once per viewer of FetchForViewers;
  // the payload is shared, valid only for the duration of the call.
  using ViewerCallback = std::function<void(UserId, bool, const Value&)>;
  // Current viewers of an application on this host, for privacy-check
  // batching. May return duplicates; the pipeline dedups.
  using ViewerProvider = std::function<std::vector<UserId>(const std::string&)>;

  FetchPipeline(Simulator* sim, RegionId region, RpcChannel* was_channel, SimTime rpc_timeout,
                FetchPipelineConfig config, MetricsRegistry* metrics, TraceCollector* trace,
                ViewerProvider viewers_for_app);

  // Entry point for BrassHost::FetchPayload.
  void Fetch(const std::string& app, const Value& metadata, const FetchOptions& options,
             Callback callback);

  // Entry point for a POP fill (BrassHost::OnPopFetch): exactly the
  // requests of one Fetch per viewer, in order, all parented under
  // `parent`, but the key is built once and one callback serves them all.
  void FetchForViewers(const std::string& app, const Value& metadata,
                       const std::vector<UserId>& viewers, const TraceContext& parent,
                       ViewerCallback callback);

  // Version-observation hook: called for every Pylon event the host
  // receives. A newer version of an object invalidates any cached payload
  // (and marks in-flight fetches of older versions non-cacheable).
  void ObserveEvent(const Value& metadata);

  // Drops the cache and all in-flight coalescing state (host drain/crash).
  // Waiter callbacks are not invoked; the runtime's liveness guards have
  // already neutered them.
  void Clear();

  size_t CacheSize() const { return cache_.size(); }

 private:
  // Identity of a flight or a cache entry. The full metadata is part of it:
  // two events for the same object can carry per-stream fields (e.g.
  // Messenger's mailbox "seq"), and those must never share a payload. Built
  // once per request batch; copies share the metadata, so a key is cheap to
  // copy, hash and compare. Cache keys never set privacy_only.
  struct Key {
    std::string app;
    uint64_t version = 0;
    std::shared_ptr<const Value> metadata;
    // A privacy-only top-up flight, distinct from the payload flight of
    // the same event (both may be in the air at once).
    bool privacy_only = false;
    size_t hash = 0;  // of app and metadata

    bool operator==(const Key& other) const;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      return key.hash ^ static_cast<size_t>(key.privacy_only);
    }
  };

  struct CacheEntry {
    ObjectId object_id = 0;
    uint64_t version = 0;
    std::shared_ptr<const Value> payload;
    // Per-viewer privacy decisions, exactly as the WAS returned them.
    std::unordered_map<UserId, bool> decisions;
    std::list<Key>::iterator lru_it;
  };

  struct Waiter {
    UserId viewer = 0;
    TraceContext parent;
    std::shared_ptr<const ViewerCallback> callback;
  };

  // One in-flight WAS fetch RPC (payload fetch or privacy-only top-up),
  // stored under its key.
  struct Flight {
    ObjectId object_id = 0;
    bool dispatched = false;
    // A newer version of the object was observed while this flight was
    // outstanding: its result must not be cached, and privacy-only waiters
    // must re-fetch instead of reusing the now-stale cached payload.
    bool superseded = false;
    // Payload a privacy-only flight tops up decisions for (shared with the
    // cache entry at flight creation, in case the entry is evicted).
    std::shared_ptr<const Value> cached_payload;
    std::vector<Waiter> waiters;
    std::vector<UserId> rpc_viewers;
  };

  static Key MakeKey(const std::string& app, const Value& metadata);
  static ObjectId ObjectIdOf(const Value& metadata);
  static uint64_t VersionOf(const Value& metadata);

  // One request of `waiter.viewer` for the event of cache key `key`.
  void Request(const Key& key, Waiter waiter);
  void ServeFromCache(const std::shared_ptr<const Value>& payload, bool allowed, Waiter waiter);
  void StartOrJoinFlight(const Key& key, const std::shared_ptr<const Value>& cached_payload,
                         Waiter waiter);
  void DispatchFlight(const Key& key);
  void CompleteFlight(const Key& key, TraceContext span, RpcStatus status, MessagePtr response);
  void DirectFetch(const std::string& app, const Value& metadata, Waiter waiter);

  void InsertCacheEntry(const Key& key, CacheEntry entry);
  void EraseCacheEntry(const Key& key);

  // Metric handles resolved once at construction (docs/PERF.md).
  struct Metrics {
    Counter* requests;
    Counter* cache_hits;
    Counter* coalesced;
    Counter* was_fetches;
    Counter* rpcs;
    Counter* privacy_rpcs;
    Counter* rpc_failures;
    Counter* stale_returns;
    Counter* bypass;
    Counter* invalidations;
    Counter* evictions;
  };

  SimContext ctx_;
  RegionId region_;
  RpcChannel* was_channel_;
  SimTime rpc_timeout_;
  FetchPipelineConfig config_;
  MetricsRegistry* metrics_;
  Metrics m_;
  TraceCollector* trace_;
  ViewerProvider viewers_for_app_;

  std::unordered_map<Key, CacheEntry, KeyHash> cache_;
  std::list<Key> lru_;  // front == most recently used
  // object id -> cache keys holding a payload of that object (invalidation).
  std::unordered_map<ObjectId, std::unordered_set<Key, KeyHash>> by_object_;
  std::unordered_map<Key, Flight, KeyHash> flights_;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_BRASS_FETCH_PIPELINE_H_
