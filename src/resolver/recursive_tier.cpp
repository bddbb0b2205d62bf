#include "resolver/recursive_tier.hpp"

#include <array>
#include <string>

namespace dohperf::resolver {

namespace {

constexpr std::array<const char*, 5> kShedReasonNames = {
    "queue_full", "deadline", "admission", "fairness", "retry_budget"};

}  // namespace

RecursiveTier::RecursiveTier(simnet::EventLoop& loop, QueryHandler& upstream,
                             TierConfig config)
    : loop_(loop), upstream_(upstream), config_(std::move(config)) {
  if (config_.admission_enabled) {
    admission_ = std::make_unique<AdmissionController>(config_.admission);
  }
  if (config_.fairness_enabled) {
    fairness_ = std::make_unique<FairnessArbiter>(config_.fairness);
  }
  if (config_.retry_budget_enabled) {
    retry_budget_ = std::make_unique<RetryBudget>(config_.retry_ratio_permille,
                                                  config_.retry_reserve_milli,
                                                  config_.retry_cap_milli);
  }
}

void RecursiveTier::shed(const dns::Message& query,
                         const QueryContext& context, Continuation done,
                         ShedReason reason) {
  static_assert(kShedReasonNames.size() == kShedReasons,
                "Enum values index kShedReasonNames");
  const auto r = static_cast<std::size_t>(reason);
  switch (reason) {
    case ShedReason::kQueueFull: ++stats_.shed_queue_full; break;
    case ShedReason::kDeadline: ++stats_.shed_deadline; break;
    case ShedReason::kAdmission: ++stats_.shed_admission; break;
    case ShedReason::kFairness: ++stats_.shed_fairness; break;
    case ShedReason::kRetryBudget: ++stats_.shed_retry_budget; break;
    case ShedReason::kCount: break;
  }
  metrics_.shed[r].add(config_.obs);
  ++stats_.per_client[context.client].shed;
  if (config_.obs) {
    const obs::SpanId span = config_.obs.begin("shed");
    config_.obs.set_attr(span, "reason", std::string(kShedReasonNames[r]));
    config_.obs.set_attr(span, "client",
                         static_cast<std::int64_t>(context.client));
    config_.obs.set_attr(span, "transport",
                         std::string(transport_name(context.transport)));
    config_.obs.end(span);
  }
  dns::Message error = dns::Message::make_error(
      query, config_.shed_refused ? dns::Rcode::kRefused
                                  : dns::Rcode::kServFail);
  // Always answer asynchronously so front-ends never see re-entrant
  // completions (matches the engine's scheduling contract).
  loop_.schedule_in(0, [done = std::move(done),
                        error = std::move(error)]() mutable {
    done(std::move(error));
  });
}

void RecursiveTier::deliver(Job& job, const dns::Message& response) {
  dns::Message copy = response;
  copy.id = job.query.id;
  ++stats_.served;
  ++stats_.per_client[job.context.client].served;
  metrics_.served.add(config_.obs);
  metrics_.latency_ms.observe(config_.obs,
                              simnet::to_ms(loop_.now() - job.arrived));
  job.done(std::move(copy));
}

RecursiveTier::Answer RecursiveTier::cache_lookup(const Key& key) const {
  const auto it = cache_.find(key);
  if (it == cache_.end() || it->second.expires <= loop_.now()) return nullptr;
  return it->second.response;
}

void RecursiveTier::cache_insert(const Key& key, Answer response) {
  if (config_.cache_entries == 0) return;
  const dns::Rcode rcode = response->flags.rcode;
  if (rcode != dns::Rcode::kNoError && rcode != dns::Rcode::kNxDomain) {
    return;  // never cache SERVFAIL/REFUSED (including our own sheds)
  }
  // TTL: minimum over answer records; negative answers use the SOA MINIMUM
  // rule of RFC 2308. No TTL source => uncacheable.
  std::uint32_t ttl = 0;
  bool have_ttl = false;
  for (const auto& rr : response->answers) {
    ttl = have_ttl ? std::min(ttl, rr.ttl) : rr.ttl;
    have_ttl = true;
  }
  if (!have_ttl) {
    for (const auto& rr : response->authorities) {
      if (rr.type != dns::RType::kSOA) continue;
      const auto& soa = std::get<dns::SoaRdata>(rr.rdata);
      ttl = std::min(rr.ttl, soa.minimum);
      have_ttl = true;
      break;
    }
  }
  if (!have_ttl || ttl == 0) return;
  const simnet::TimeUs expires = loop_.now() + simnet::seconds(ttl);
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    // Refreshing a cached key (live or expired) evicts nothing.
    expiry_.erase({it->second.expires, key});
    it->second = CacheEntry{std::move(response), expires};
  } else {
    if (cache_.size() >= config_.cache_entries) {
      // The earliest expiry goes; on a tie, the smaller key.
      const auto victim = expiry_.begin();
      cache_.erase(victim->second);
      expiry_.erase(victim);
      ++stats_.cache_evictions;
      metrics_.cache_evictions.add(config_.obs);
    }
    cache_.emplace(key, CacheEntry{std::move(response), expires});
  }
  expiry_.emplace(expires, key);
  ++stats_.cache_insertions;
}

bool RecursiveTier::detect_retry(const Key& key,
                                 const QueryContext& context) {
  const simnet::TimeUs now = loop_.now();
  if (--seen_prune_countdown_ == 0) {
    seen_prune_countdown_ = 256;
    for (auto it = seen_.begin(); it != seen_.end();) {
      if (now - it->second > config_.retry_window) {
        it = seen_.erase(it);
      } else {
        ++it;
      }
    }
  }
  const auto seen_key = std::make_pair(context.client, key);
  const auto it = seen_.find(seen_key);
  const bool retry =
      it != seen_.end() && now - it->second <= config_.retry_window;
  seen_[seen_key] = now;
  return retry;
}

void RecursiveTier::handle(const dns::Message& query,
                           const QueryContext& context, Continuation done) {
  ++stats_.requests;
  ++stats_.per_client[context.client].requests;
  metrics_.requests.add(config_.obs);
  metrics_.requests_by_transport[static_cast<std::size_t>(context.transport)]
      .add(config_.obs);

  obs::SpanId span = 0;
  if (config_.obs) {
    span = config_.obs.begin("admission_check");
    config_.obs.set_attr(span, "client",
                         static_cast<std::int64_t>(context.client));
    config_.obs.set_attr(span, "transport",
                         std::string(transport_name(context.transport)));
  }
  const auto decide = [&](const char* decision) {
    if (span != 0) {
      config_.obs.set_attr(span, "decision", std::string(decision));
      config_.obs.end(span);
    }
  };

  if (query.questions.empty()) {
    decide("formerr");
    dns::Message error = dns::Message::make_error(query, dns::Rcode::kFormErr);
    loop_.schedule_in(0, [done = std::move(done),
                          error = std::move(error)]() mutable {
      done(std::move(error));
    });
    return;
  }
  const Key key{query.questions.front().qname,
                query.questions.front().qtype};

  // 1. Per-client fairness. Hits consume worker time too, so the arbiter
  //    sees every request, not just misses.
  if (fairness_) {
    const bool admitted = fairness_->admit(context.client, loop_.now());
    (admitted ? metrics_.fairness_admitted : metrics_.fairness_throttled)
        .add(config_.obs);
    if (!admitted) {
      decide("shed_fairness");
      shed(query, context, std::move(done), ShedReason::kFairness);
      return;
    }
  }

  Job job;
  job.query = query;
  job.context = context;
  job.done = std::move(done);
  job.arrived = loop_.now();

  // 2. Shared cache; hits still queue for a worker (hit_processing).
  job.cached = cache_lookup(key);
  if (job.cached) {
    ++stats_.cache_hits;
    metrics_.cache_hits.add(config_.obs);
    decide("hit");
  } else {
    ++stats_.cache_misses;
    metrics_.cache_misses.add(config_.obs);
    // 3. Retry budget, misses only: a repeat (client, name, type) among
    //    misses inside retry_window is a retransmission/re-issue — the
    //    original is still queued/in flight, or was shed/failed (a repeat
    //    of an *answered* query would have hit the cache, so hot names do
    //    not false-positive as long as retry_window < TTL). A detected
    //    retry must withdraw from the shared budget; shedding it here,
    //    before it can occupy a slot, is what breaks the storm.
    if (retry_budget_) {
      if (detect_retry(key, context)) {
        ++stats_.retries_detected;
        metrics_.retries_detected.add(config_.obs);
        if (!retry_budget_->try_withdraw()) {
          decide("shed_retry_budget");
          shed(job.query, job.context, std::move(job.done),
               ShedReason::kRetryBudget);
          return;
        }
      } else {
        retry_budget_->deposit();
      }
    }
    // 4. Coalesce onto an in-flight resolution of the same (name, type):
    //    joiners wait for the answer without consuming a service slot.
    if (config_.coalesce) {
      const auto it = pending_.find(key);
      if (it != pending_.end()) {
        ++stats_.coalesced;
        metrics_.coalesced.add(config_.obs);
        decide("coalesced");
        it->second.waiters.push_back(std::move(job));
        return;
      }
    }
    decide("admitted");
  }

  // 5. Admission controller: bound outstanding work (queued + in flight).
  if (admission_ && queue_.size() + inflight_ >= admission_->limit()) {
    shed(job.query, job.context, std::move(job.done),
         ShedReason::kAdmission);
    return;
  }

  // 6. Hard queue bound.
  if (config_.bound_queue && queue_.size() >= config_.queue_capacity) {
    shed(job.query, job.context, std::move(job.done),
         ShedReason::kQueueFull);
    return;
  }

  queue_.push_back(std::move(job));
  if (queue_.size() > stats_.queue_peak) stats_.queue_peak = queue_.size();
  metrics_.queue_depth.set(config_.obs,
                           static_cast<std::int64_t>(queue_.size()));
  pump();
}

void RecursiveTier::pump() {
  while (inflight_ < config_.workers && !queue_.empty()) {
    Job job = std::move(queue_.front());
    queue_.pop_front();
    metrics_.queue_depth.set(config_.obs,
                             static_cast<std::int64_t>(queue_.size()));
    const simnet::TimeUs waited = loop_.now() - job.arrived;
    // Deadline-aware shedding: if the client has (probably) given up by the
    // time service would finish, answering is wasted work.
    if (config_.deadline > 0 &&
        waited + config_.expected_service > config_.deadline) {
      shed(job.query, job.context, std::move(job.done),
           ShedReason::kDeadline);
      continue;
    }
    metrics_.queue_wait_ms.observe(config_.obs, simnet::to_ms(waited));
    dispatch(std::move(job));
  }
  if (admission_) {
    metrics_.admission_limit.set(
        config_.obs, static_cast<std::int64_t>(admission_->limit()));
  }
}

void RecursiveTier::dispatch(Job job) {
  ++inflight_;
  if (inflight_ > stats_.inflight_peak) stats_.inflight_peak = inflight_;
  metrics_.inflight.set(config_.obs, static_cast<std::int64_t>(inflight_));

  if (job.cached) {
    // Serve from cache after the hit-processing cost; the slot is held for
    // that long, which is what makes hits part of the capacity model.
    loop_.schedule_in(config_.hit_processing, [this, job = std::move(job)]()
                          mutable {
      if (admission_) admission_->record(loop_.now() - job.arrived);
      deliver(job, *job.cached);
      --inflight_;
      metrics_.inflight.set(config_.obs,
                            static_cast<std::int64_t>(inflight_));
      pump();
    });
    return;
  }

  const Key key{job.query.questions.front().qname,
                job.query.questions.front().qtype};
  auto& pending = pending_[key];
  pending.settled = std::make_shared<bool>(false);
  const std::shared_ptr<bool> settled = pending.settled;
  const dns::Message query = job.query;
  const QueryContext context = job.context;
  pending.waiters.push_back(std::move(job));

  if (config_.service_timeout > 0) {
    loop_.schedule_in(config_.service_timeout, [this, key, settled]() {
      if (*settled) return;
      ++stats_.upstream_timeouts;
      metrics_.upstream_timeouts.add(config_.obs);
      dns::Message timeout_error;
      // Synthesize SERVFAIL from the first waiter's query below.
      complete(key, std::move(timeout_error), /*timed_out=*/true);
    });
  }

  upstream_.handle(query, context,
                   [this, key, settled](dns::Message response) {
                     if (*settled) return;  // timeout already reclaimed slot
                     complete(key, std::move(response), /*timed_out=*/false);
                   });
}

void RecursiveTier::complete(const Key& key, dns::Message response,
                             bool timed_out) {
  const auto it = pending_.find(key);
  if (it == pending_.end()) return;
  Pending pending = std::move(it->second);
  pending_.erase(it);
  *pending.settled = true;

  if (timed_out) {
    response = dns::Message::make_error(pending.waiters.front().query,
                                        dns::Rcode::kServFail);
  }
  // The cache entry and every waiter share the one answer.
  const auto answer = std::make_shared<const dns::Message>(std::move(response));
  if (!timed_out) cache_insert(key, answer);
  if (admission_ && !pending.waiters.empty()) {
    // One sample per back-end round trip, from the dispatching job.
    admission_->record(loop_.now() - pending.waiters.front().arrived);
  }
  for (auto& waiter : pending.waiters) {
    deliver(waiter, *answer);
  }
  --inflight_;
  metrics_.inflight.set(config_.obs, static_cast<std::int64_t>(inflight_));
  pump();
}

}  // namespace dohperf::resolver
