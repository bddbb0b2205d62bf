#include "core/caching_client.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <variant>

namespace dohperf::core {

namespace {

/// The SOA record RFC 2308 derives the negative TTL from, if the response
/// carries one in its authority section.
const dns::ResourceRecord* find_soa(const dns::Message& response) {
  for (const auto& rr : response.authorities) {
    if (rr.type == dns::RType::kSOA &&
        std::holds_alternative<dns::SoaRdata>(rr.rdata)) {
      return &rr;
    }
  }
  return nullptr;
}

}  // namespace

CachingResolverClient::CachingResolverClient(simnet::EventLoop& loop,
                                             ResolverClient& upstream,
                                             CacheConfig config)
    : loop_(loop), upstream_(upstream), config_(config) {}

bool CachingResolverClient::usable(const ResolutionResult& r) {
  if (!r.success) return false;
  const dns::Rcode rcode = r.response.flags.rcode;
  // SERVFAIL/REFUSED mean the resolver is unhealthy, exactly the condition
  // RFC 8767 serves stale data through; only NOERROR and NXDOMAIN are
  // definitive answers worth caching or surfacing over a stale copy.
  return rcode == dns::Rcode::kNoError || rcode == dns::Rcode::kNxDomain;
}

std::uint64_t CachingResolverClient::resolve(const dns::Name& name,
                                             dns::RType type,
                                             ResolveCallback callback) {
  const std::uint64_t id = results_.size();
  results_.emplace_back();
  staleness_.push_back(0);
  const Key key{name, type};
  const simnet::TimeUs now = loop_.now();
  const obs::SpanId lookup = config_.obs.begin("cache_lookup");

  bool stale_available = false;
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    Entry& entry = it->second;
    if (entry.expires_at > now) {
      ++stats_.hits;
      config_.obs.set_attr(lookup, "hit", true);
      metrics_.hits.add(config_.obs);
      if (entry.negative) {
        ++stats_.negative_hits;
        config_.obs.set_attr(lookup, "negative", true);
        metrics_.negative_hits.add(config_.obs);
      }
      config_.obs.end(lookup);
      touch(entry);
      ResolutionResult result;
      result.success = true;
      result.sent_at = now;
      result.completed_at = now;
      result.response = entry.response;
      results_[id] = std::move(result);
      ++completed_;
      maybe_refresh_ahead(key, entry);
      if (callback) {
        // Copy: a reentrant resolve() inside the callback may reallocate
        // results_, so the stored element must not be passed by reference.
        const ResolutionResult snapshot = results_[id];
        callback(snapshot);
      }
      return id;
    }
    if (config_.max_stale > 0 &&
        now < entry.expires_at + config_.max_stale) {
      stale_available = true;  // kept: may be served while the refresh runs
    } else {
      ++stats_.expirations;
      metrics_.expirations.add(config_.obs);
      entries_.erase(it);
    }
  }

  ++stats_.misses;
  config_.obs.set_attr(lookup, "hit", false);
  config_.obs.end(lookup);
  metrics_.misses.add(config_.obs);

  const auto [fit, first_for_key] = inflight_.try_emplace(key);
  Waiter waiter;
  waiter.id = id;
  waiter.callback = std::move(callback);
  waiter.asked_at = now;
  if (stale_available) {
    waiter.stale_timer = loop_.schedule_in(
        config_.stale_serve_delay,
        [this, key, id]() { on_stale_deadline(key, id); });
  }
  fit->second.waiters.push_back(std::move(waiter));
  if (!first_for_key) {
    ++stats_.coalesced;
    metrics_.coalesced.add(config_.obs);
    const obs::SpanId join = config_.obs.begin("coalesce_join");
    config_.obs.set_attr(
        join, "waiters",
        static_cast<std::int64_t>(fit->second.waiters.size()));
    config_.obs.end(join);
    return id;
  }
  start_upstream(key);
  return id;
}

void CachingResolverClient::start_upstream(const Key& key) {
  ++stats_.upstream_queries;
  metrics_.upstream_queries.add(config_.obs);
  upstream_.resolve(key.name, key.type,
                    [this, key](const ResolutionResult& r) {
                      on_upstream_done(key, r);
                    });
}

void CachingResolverClient::maybe_refresh_ahead(const Key& key,
                                                const Entry& entry) {
  if (config_.refresh_ahead == 0) return;
  if (entry.expires_at - loop_.now() > config_.refresh_ahead) return;
  if (inflight_.find(key) != inflight_.end()) return;  // refresh in flight
  ++stats_.proactive_refreshes;
  metrics_.proactive_refreshes.add(config_.obs);
  inflight_.try_emplace(key);  // no waiters: a pure background refresh
  start_upstream(key);
}

void CachingResolverClient::on_upstream_done(const Key& key,
                                             const ResolutionResult& r) {
  // Detach the in-flight record first: callbacks may re-resolve the same
  // key, which must start a fresh upstream query, not find this one.
  auto node = inflight_.extract(key);
  const bool answer_usable = usable(r);
  if (answer_usable) insert(key, r.response);
  if (node.empty()) return;

  // The wire cost is charged to the first waiter that receives the
  // upstream answer; coalesced joiners added nothing to the wire.
  ResolutionResult uncharged = r;
  uncharged.cost = CostReport{};
  bool cost_charged = false;
  bool repaired_stale_serve = false;
  for (Waiter& waiter : node.mapped().waiters) {
    if (waiter.answered) {
      repaired_stale_serve = true;  // already served stale; entry repaired
      continue;
    }
    loop_.cancel(waiter.stale_timer);
    if (answer_usable) {
      deliver(waiter, cost_charged ? uncharged : r);
      cost_charged = true;
      continue;
    }
    if (config_.max_stale > 0 &&
        serve_stale(key, waiter,
                    r.success ? "rcode_failure" : "upstream_failure")) {
      continue;
    }
    deliver(waiter, cost_charged ? uncharged : r);  // surface the failure
    cost_charged = true;
  }
  if (answer_usable && repaired_stale_serve) {
    ++stats_.revalidations;
    metrics_.revalidations.add(config_.obs);
  }
}

void CachingResolverClient::on_stale_deadline(const Key& key,
                                              std::uint64_t id) {
  const auto it = inflight_.find(key);
  if (it == inflight_.end()) return;
  for (Waiter& waiter : it->second.waiters) {
    if (waiter.id != id || waiter.answered) continue;
    serve_stale(key, waiter, "stale_timer");
    return;
  }
}

bool CachingResolverClient::serve_stale(const Key& key, Waiter& waiter,
                                        const char* reason) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  Entry& entry = it->second;
  const simnet::TimeUs now = loop_.now();
  const simnet::TimeUs age = now > entry.expires_at
                                 ? now - entry.expires_at
                                 : 0;
  if (age >= config_.max_stale) return false;  // beyond the stale window
  ++stats_.stale_serves;
  metrics_.stale_serves.add(config_.obs);
  metrics_.staleness_age_ms.observe(config_.obs,
                                    static_cast<double>(age) / 1e3);
  const obs::SpanId span = config_.obs.begin("stale_serve");
  config_.obs.set_attr(span, "staleness_ms",
                       static_cast<std::int64_t>(age / 1000));
  config_.obs.set_attr(span, "reason", std::string(reason));
  config_.obs.end(span);
  touch(entry);
  staleness_[waiter.id] = age;
  ResolutionResult stale;
  stale.success = true;
  stale.response = entry.response;
  deliver(waiter, stale);
  return true;
}

void CachingResolverClient::deliver(Waiter& waiter,
                                    const ResolutionResult& r) {
  waiter.answered = true;
  loop_.cancel(waiter.stale_timer);
  ResolveCallback callback = std::move(waiter.callback);
  // Compose the result locally: the callback may re-enter resolve() and
  // reallocate results_, so neither `waiter` nor a reference into the
  // vector may be used after it runs.
  ResolutionResult out = r;
  out.sent_at = waiter.asked_at;
  out.completed_at = loop_.now();
  results_[waiter.id] = out;
  ++completed_;
  if (callback) callback(out);
}

void CachingResolverClient::insert(const Key& key,
                                   const dns::Message& response) {
  const dns::Rcode rcode = response.flags.rcode;
  const bool negative = rcode == dns::Rcode::kNxDomain ||
                        (rcode == dns::Rcode::kNoError &&
                         response.answers.empty());
  simnet::TimeUs ttl = 0;
  if (negative) {
    // RFC 2308 §3/§5: the negative TTL is min(SOA TTL, SOA MINIMUM) from
    // the authority section; without an SOA the response is not cacheable.
    const dns::ResourceRecord* soa = find_soa(response);
    if (soa == nullptr) return;
    const std::uint32_t ttl_sec =
        std::min(soa->ttl, std::get<dns::SoaRdata>(soa->rdata).minimum);
    ttl = std::clamp(simnet::seconds(ttl_sec), config_.min_ttl,
                     config_.max_negative_ttl);
  } else {
    // TTL of the answer set = minimum record TTL (RFC 2181 §5.2), clamped.
    std::uint32_t ttl_sec = std::numeric_limits<std::uint32_t>::max();
    for (const auto& rr : response.answers) {
      ttl_sec = std::min(ttl_sec, rr.ttl);
    }
    ttl = std::clamp(simnet::seconds(ttl_sec), config_.min_ttl,
                     config_.max_ttl);
  }
  if (ttl == 0) return;

  if (entries_.find(key) == entries_.end()) evict_if_needed();
  Entry entry;
  entry.response = response;
  entry.expires_at = loop_.now() + ttl;
  entry.negative = negative;
  entry.last_used_seq = next_seq_++;
  entries_[key] = std::move(entry);
  if (negative) {
    ++stats_.negative_entries;
    metrics_.negative_entries.add(config_.obs);
  }
}

void CachingResolverClient::evict_if_needed() {
  if (entries_.size() < config_.max_entries) return;
  // Evict the entry closest to (or past) expiry; least-recently-used
  // breaks ties. Expired/stale entries therefore always go first.
  auto victim = entries_.begin();
  for (auto it = std::next(entries_.begin()); it != entries_.end(); ++it) {
    const Entry& e = it->second;
    const Entry& v = victim->second;
    const bool earlier = e.expires_at != v.expires_at
                             ? e.expires_at < v.expires_at
                             : e.last_used_seq < v.last_used_seq;
    if (earlier) victim = it;
  }
  entries_.erase(victim);
  ++stats_.evictions;
  metrics_.evictions.add(config_.obs);
}

const ResolutionResult& CachingResolverClient::result(
    std::uint64_t id) const {
  return results_.at(id);
}

}  // namespace dohperf::core
