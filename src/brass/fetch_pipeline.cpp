#include "src/brass/fetch_pipeline.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>

#include "src/was/messages.h"

namespace bladerunner {

FetchPipeline::FetchPipeline(Simulator* sim, RegionId region, RpcChannel* was_channel,
                             SimTime rpc_timeout, FetchPipelineConfig config,
                             MetricsRegistry* metrics, TraceCollector* trace,
                             ViewerProvider viewers_for_app)
    : ctx_(sim),
      region_(region),
      was_channel_(was_channel),
      rpc_timeout_(rpc_timeout),
      config_(config),
      metrics_(metrics),
      trace_(trace),
      viewers_for_app_(std::move(viewers_for_app)) {
  assert(ctx_.sim() != nullptr && was_channel_ != nullptr && metrics_ != nullptr);
  m_.requests = &metrics_->GetCounter("brass.fetch.requests");
  m_.cache_hits = &metrics_->GetCounter("brass.fetch.cache_hits");
  m_.coalesced = &metrics_->GetCounter("brass.fetch.coalesced");
  m_.was_fetches = &metrics_->GetCounter("brass.was_fetches");
  m_.rpcs = &metrics_->GetCounter("brass.fetch.rpcs");
  m_.privacy_rpcs = &metrics_->GetCounter("brass.fetch.privacy_rpcs");
  m_.rpc_failures = &metrics_->GetCounter("brass.fetch.rpc_failures");
  m_.stale_returns = &metrics_->GetCounter("brass.fetch.stale_returns");
  m_.bypass = &metrics_->GetCounter("brass.fetch.bypass");
  m_.invalidations = &metrics_->GetCounter("brass.fetch.invalidations");
  m_.evictions = &metrics_->GetCounter("brass.fetch.evictions");
}

bool FetchPipeline::Key::operator==(const Key& other) const {
  return hash == other.hash && privacy_only == other.privacy_only && version == other.version &&
         app == other.app && (metadata == other.metadata || *metadata == *other.metadata);
}

FetchPipeline::Key FetchPipeline::MakeKey(const std::string& app, const Value& metadata) {
  Key key;
  key.app = app;
  key.version = VersionOf(metadata);
  key.metadata = std::make_shared<const Value>(metadata);
  key.hash = std::hash<std::string>{}(app) * 31 + metadata.Hash();
  return key;
}

ObjectId FetchPipeline::ObjectIdOf(const Value& metadata) {
  ObjectId id = metadata.Get("id").AsInt(0);
  if (id == 0) {
    // Active-status events mutate the user object itself.
    id = metadata.Get("user").AsInt(0);
  }
  return id;
}

uint64_t FetchPipeline::VersionOf(const Value& metadata) {
  return static_cast<uint64_t>(metadata.Get("version").AsInt(0));
}

void FetchPipeline::Fetch(const std::string& app, const Value& metadata,
                          const FetchOptions& options, Callback callback) {
  // The application takes its payload by value: this is its one copy.
  Waiter waiter{options.viewer, options.parent,
                std::make_shared<const ViewerCallback>(
                    [callback = std::move(callback)](UserId, bool allowed, const Value& payload) {
                      callback(allowed, payload);
                    })};
  if (!config_.enabled || options.bypass_cache) {
    DirectFetch(app, metadata, std::move(waiter));
    return;
  }
  Request(MakeKey(app, metadata), std::move(waiter));
}

void FetchPipeline::FetchForViewers(const std::string& app, const Value& metadata,
                                    const std::vector<UserId>& viewers,
                                    const TraceContext& parent, ViewerCallback callback) {
  auto shared = std::make_shared<const ViewerCallback>(std::move(callback));
  const Key key = MakeKey(app, metadata);
  for (UserId viewer : viewers) {
    Waiter waiter{viewer, parent, shared};
    if (!config_.enabled) {
      DirectFetch(app, metadata, std::move(waiter));
    } else {
      Request(key, std::move(waiter));
    }
  }
}

void FetchPipeline::Request(const Key& key, Waiter waiter) {
  m_.requests->Increment();
  auto cached = cache_.find(key);
  if (cached != cache_.end()) {
    CacheEntry& entry = cached->second;
    auto decision = entry.decisions.find(waiter.viewer);
    if (decision != entry.decisions.end()) {
      lru_.splice(lru_.begin(), lru_, entry.lru_it);  // most recently used
      ServeFromCache(entry.payload, decision->second, std::move(waiter));
      return;
    }
    // Payload cached but this viewer's decision is not (their stream
    // arrived after the batched fetch): privacy-only top-up RPC.
    Key topup = key;
    topup.privacy_only = true;
    StartOrJoinFlight(topup, entry.payload, std::move(waiter));
    return;
  }
  StartOrJoinFlight(key, nullptr, std::move(waiter));
}

void FetchPipeline::ServeFromCache(const std::shared_ptr<const Value>& payload, bool allowed,
                                   Waiter waiter) {
  m_.cache_hits->Increment();
  if (trace_ != nullptr && waiter.parent.valid()) {
    // Instant span: the fetch was served host-locally. Named distinctly
    // from "brass.fetch" so latency analyses over WAS round trips (e.g.
    // Table 3) keep measuring actual round trips.
    TraceContext span = trace_->RecordSpan(waiter.parent, "brass.fetch.cache", "brass", region_,
                                           ctx_.Now(), ctx_.Now());
    trace_->Annotate(span, "allowed", Value(allowed));
  }
  // Deliver asynchronously: applications expect fetch callbacks to run
  // after the calling event handler returns, cache hit or not. A denied
  // viewer never receives the payload, exactly as an unbatched WAS fetch
  // would have answered.
  ctx_.Schedule(0, [callback = std::move(waiter.callback), viewer = waiter.viewer, allowed,
                    payload = allowed ? payload : nullptr]() {
    (*callback)(viewer, allowed, allowed ? *payload : NullValue());
  });
}

void FetchPipeline::StartOrJoinFlight(const Key& key,
                                      const std::shared_ptr<const Value>& cached_payload,
                                      Waiter waiter) {
  auto it = flights_.find(key);
  if (it != flights_.end()) {
    m_.coalesced->Increment();
    Flight& flight = it->second;
    if (!flight.dispatched && flight.rpc_viewers.size() < config_.max_batch_viewers &&
        std::find(flight.rpc_viewers.begin(), flight.rpc_viewers.end(), waiter.viewer) ==
            flight.rpc_viewers.end()) {
      flight.rpc_viewers.push_back(waiter.viewer);
    }
    flight.waiters.push_back(std::move(waiter));
    return;
  }

  Flight flight;
  flight.object_id = ObjectIdOf(*key.metadata);
  flight.cached_payload = cached_payload;
  if (!key.privacy_only) {
    // Prefetch decisions for every current viewer of the app on this host:
    // their streams will want this payload too, and one batched RPC is the
    // whole point (one round trip per host, not per stream).
    flight.rpc_viewers = viewers_for_app_ ? viewers_for_app_(key.app) : std::vector<UserId>();
    std::sort(flight.rpc_viewers.begin(), flight.rpc_viewers.end());
    flight.rpc_viewers.erase(std::unique(flight.rpc_viewers.begin(), flight.rpc_viewers.end()),
                             flight.rpc_viewers.end());
  }
  // The requester's decision is the one this flight exists for, so it rides
  // inside the cap: host viewers beyond the cap (or beyond cap - 1 when the
  // requester is not among the first cap of them) are left out.
  const size_t cap = std::max<size_t>(config_.max_batch_viewers, 1);
  auto self = std::find(flight.rpc_viewers.begin(), flight.rpc_viewers.end(), waiter.viewer);
  if (self != flight.rpc_viewers.end() &&
      self - flight.rpc_viewers.begin() < static_cast<std::ptrdiff_t>(cap)) {
    flight.rpc_viewers.resize(std::min(flight.rpc_viewers.size(), cap));
  } else {
    flight.rpc_viewers.resize(std::min(flight.rpc_viewers.size(), cap - 1));
    flight.rpc_viewers.push_back(waiter.viewer);
  }
  flight.waiters.push_back(std::move(waiter));
  flights_.emplace(key, std::move(flight));
  ctx_.Schedule(MillisF(config_.coalesce_window_ms), [this, key]() { DispatchFlight(key); });
}

void FetchPipeline::DispatchFlight(const Key& key) {
  auto it = flights_.find(key);
  if (it == flights_.end() || it->second.dispatched) {
    return;
  }
  Flight& flight = it->second;
  flight.dispatched = true;

  auto request = std::make_shared<WasFetchRequest>();
  request->app = key.app;
  request->metadata = *key.metadata;
  request->viewers = flight.rpc_viewers;
  request->need_payload = !key.privacy_only;

  // "brass.fetch" covers the whole WAS round trip (Table 3's "of which WAS
  // point query + privacy check"); the WAS nests its processing span in it.
  // Parented under the first waiter that carries a sampled trace.
  TraceContext span;
  if (trace_ != nullptr) {
    for (const Waiter& waiter : flight.waiters) {
      if (waiter.parent.valid()) {
        span = trace_->StartSpan(waiter.parent, "brass.fetch", "brass", region_, ctx_.Now());
        trace_->Annotate(span, "viewers", Value(static_cast<int64_t>(flight.rpc_viewers.size())));
        trace_->Annotate(span, "coalesced", Value(static_cast<int64_t>(flight.waiters.size())));
        trace_->Annotate(span, "privacy_only", Value(key.privacy_only));
        break;
      }
    }
  }
  request->trace = span;

  m_.was_fetches->Increment();
  (key.privacy_only ? m_.privacy_rpcs : m_.rpcs)->Increment();
  was_channel_->Call(
      "was.fetch", request,
      [this, key, span](RpcStatus status, MessagePtr response) {
        CompleteFlight(key, span, status, std::move(response));
      },
      rpc_timeout_);
}

void FetchPipeline::CompleteFlight(const Key& key, TraceContext span, RpcStatus status,
                                   MessagePtr response) {
  auto it = flights_.find(key);
  if (it == flights_.end()) {
    return;  // pipeline was cleared (host drained/crashed) mid-flight
  }
  Flight flight = std::move(it->second);
  flights_.erase(it);

  if (status != RpcStatus::kOk) {
    if (trace_ != nullptr) {
      trace_->MarkError(span, ToString(status), ctx_.Now());
    }
    m_.rpc_failures->Increment();
    for (Waiter& waiter : flight.waiters) {
      (*waiter.callback)(waiter.viewer, false, NullValue());
    }
    return;
  }
  if (trace_ != nullptr) {
    trace_->EndSpan(span, ctx_.Now());
  }
  auto fetch = std::static_pointer_cast<WasFetchResponse>(response);

  std::unordered_map<UserId, bool> decisions;
  for (size_t i = 0; i < flight.rpc_viewers.size() && i < fetch->allowed.size(); ++i) {
    decisions.emplace(flight.rpc_viewers[i], fetch->allowed[i] != 0);
  }
  // A payload flight shares the response's payload (no copy) with the cache.
  const std::shared_ptr<const Value> payload =
      key.privacy_only ? flight.cached_payload
                       : std::shared_ptr<const Value>(fetch, &fetch->payload);
  Key cache_key = key;
  cache_key.privacy_only = false;

  if (!key.privacy_only) {
    bool stale = fetch->version < key.version;
    if (stale) {
      // The (follower-region) WAS served an older version than the event
      // announced — replication lag. The result is still delivered (it is
      // exactly what an unpipelined fetch would have returned) but must
      // not be cached as the current version.
      m_.stale_returns->Increment();
    }
    // Versionless metadata (e.g. ephemeral typing events) gets coalescing
    // only, never caching: there is no way to invalidate it.
    if (!stale && !flight.superseded && key.version > 0) {
      CacheEntry entry;
      entry.object_id = flight.object_id;
      entry.version = std::max(fetch->version, key.version);
      entry.payload = payload;
      entry.decisions = decisions;
      InsertCacheEntry(cache_key, std::move(entry));
    }
  } else if (!flight.superseded) {
    // Merge the topped-up decisions into the cache entry if it survived.
    auto cached = cache_.find(cache_key);
    if (cached != cache_.end()) {
      for (const auto& [viewer, allowed] : decisions) {
        cached->second.decisions.emplace(viewer, allowed);
      }
    }
  }

  if (key.privacy_only && flight.superseded) {
    // The cached payload these waiters were topping up decisions for was
    // invalidated mid-flight: serving it would deliver a stale version.
    // Re-fetch from scratch (cache now misses, so this issues a fresh RPC).
    for (Waiter& waiter : flight.waiters) {
      Request(cache_key, std::move(waiter));
    }
    return;
  }

  for (Waiter& waiter : flight.waiters) {
    auto decision = decisions.find(waiter.viewer);
    if (decision == decisions.end()) {
      // Joined after dispatch and was not in the RPC's viewer batch:
      // re-enter the pipeline (typically now a cache hit or a privacy-only
      // top-up).
      Request(cache_key, std::move(waiter));
      continue;
    }
    (*waiter.callback)(waiter.viewer, decision->second,
                       decision->second ? *payload : NullValue());
  }
}

void FetchPipeline::DirectFetch(const std::string& app, const Value& metadata, Waiter waiter) {
  m_.requests->Increment();
  m_.bypass->Increment();
  m_.was_fetches->Increment();
  auto request = std::make_shared<WasFetchRequest>();
  request->app = app;
  request->metadata = metadata;
  request->viewers.push_back(waiter.viewer);
  TraceContext span;
  if (trace_ != nullptr && waiter.parent.valid()) {
    span = trace_->StartSpan(waiter.parent, "brass.fetch", "brass", region_, ctx_.Now());
    trace_->Annotate(span, "bypass", Value(true));
  }
  request->trace = span;
  was_channel_->Call(
      "was.fetch", request,
      [this, callback = std::move(waiter.callback), viewer = waiter.viewer, span](
          RpcStatus status, MessagePtr response) {
        if (status != RpcStatus::kOk) {
          if (trace_ != nullptr) {
            trace_->MarkError(span, ToString(status), ctx_.Now());
          }
          (*callback)(viewer, false, NullValue());
          return;
        }
        if (trace_ != nullptr) {
          trace_->EndSpan(span, ctx_.Now());
        }
        auto fetch = std::static_pointer_cast<WasFetchResponse>(response);
        bool allowed = !fetch->allowed.empty() && fetch->allowed[0] != 0;
        (*callback)(viewer, allowed, allowed ? fetch->payload : NullValue());
      },
      rpc_timeout_);
}

void FetchPipeline::ObserveEvent(const Value& metadata) {
  ObjectId id = ObjectIdOf(metadata);
  uint64_t version = VersionOf(metadata);
  if (id == 0 || version == 0) {
    return;
  }
  auto keys = by_object_.find(id);
  if (keys != by_object_.end()) {
    // Collect first: erasing mutates the index we are iterating.
    std::vector<Key> to_erase;
    for (const Key& key : keys->second) {
      auto entry = cache_.find(key);
      if (entry != cache_.end() && entry->second.version < version) {
        to_erase.push_back(key);
      }
    }
    for (const Key& key : to_erase) {
      m_.invalidations->Increment();
      EraseCacheEntry(key);
    }
  }
  for (auto& [key, flight] : flights_) {
    if (flight.object_id == id && key.version < version) {
      flight.superseded = true;
    }
  }
}

void FetchPipeline::Clear() {
  cache_.clear();
  lru_.clear();
  by_object_.clear();
  flights_.clear();
}

void FetchPipeline::InsertCacheEntry(const Key& key, CacheEntry entry) {
  if (config_.cache_capacity == 0) {
    return;
  }
  EraseCacheEntry(key);  // replace, never duplicate LRU links
  while (cache_.size() >= config_.cache_capacity) {
    m_.evictions->Increment();
    EraseCacheEntry(lru_.back());
  }
  lru_.push_front(key);
  entry.lru_it = lru_.begin();
  by_object_[entry.object_id].insert(key);
  cache_.emplace(key, std::move(entry));
}

void FetchPipeline::EraseCacheEntry(const Key& key) {
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    return;
  }
  // `key` may alias the LRU node's own key (eviction passes lru_.back()),
  // so the lru_ node must be freed only after the last use of `key`.
  auto lru_it = it->second.lru_it;
  auto keys = by_object_.find(it->second.object_id);
  if (keys != by_object_.end()) {
    keys->second.erase(key);
    if (keys->second.empty()) {
      by_object_.erase(keys);
    }
  }
  cache_.erase(it);
  lru_.erase(lru_it);
}

}  // namespace bladerunner
