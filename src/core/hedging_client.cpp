#include "core/hedging_client.hpp"

#include <utility>

namespace dohperf::core {

HedgingResolverClient::HedgingResolverClient(simnet::EventLoop& loop,
                                             ResolverClient& primary,
                                             ResolverClient& secondary,
                                             HedgeConfig config)
    : loop_(loop), primary_(primary), secondary_(secondary),
      config_(config) {}

bool HedgingResolverClient::usable(const ResolutionResult& r) {
  if (!r.success) return false;
  const dns::Rcode rcode = r.response.flags.rcode;
  return rcode == dns::Rcode::kNoError || rcode == dns::Rcode::kNxDomain;
}

std::uint64_t HedgingResolverClient::resolve(const dns::Name& name,
                                             dns::RType type,
                                             ResolveCallback callback) {
  const std::uint64_t id = results_.size();
  ResolutionResult placeholder;
  placeholder.sent_at = loop_.now();
  results_.push_back(placeholder);
  ++started_;

  Pending pending;
  pending.callback = std::move(callback);
  pending.name = name;
  pending.type = type;
  pending.hedge_timer = loop_.schedule_in(
      config_.hedge_delay, [this, id]() { start_hedge(id, "delay"); });
  pending_.emplace(id, std::move(pending));

  primary_.resolve(name, type, [this, id](const ResolutionResult& r) {
    on_result(id, /*from_primary=*/true, r);
  });
  return id;
}

void HedgingResolverClient::start_hedge(std::uint64_t id,
                                        const char* reason) {
  const auto it = pending_.find(id);
  if (it == pending_.end() || it->second.done || it->second.hedged) return;
  loop_.cancel(it->second.hedge_timer);
  // The budget is a per-mille cap over all queries started, so a degraded
  // primary cannot multiply upstream load past 1 + permille/1000.
  if ((stats_.hedges_issued + 1) * 1000 >
      started_ * config_.hedge_budget_permille) {
    ++stats_.hedges_suppressed;
    metrics_.suppressed.add(config_.obs);
    return;
  }
  it->second.hedged = true;
  ++stats_.hedges_issued;
  metrics_.issued.add(config_.obs);
  it->second.hedge_span = config_.obs.begin("hedge");
  config_.obs.set_attr(it->second.hedge_span, "reason", std::string(reason));
  secondary_.resolve(it->second.name, it->second.type,
                     [this, id](const ResolutionResult& r) {
                       on_result(id, /*from_primary=*/false, r);
                     });
}

void HedgingResolverClient::on_result(std::uint64_t id, bool from_primary,
                                      const ResolutionResult& r) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  if (from_primary) {
    pending.primary_done = true;
  } else {
    pending.secondary_done = true;
  }

  if (pending.done) {
    // The loser reporting after the winner: tear it down. A late success
    // is pure waste — count it and charge its cost separately, never to
    // the query.
    if (usable(r)) {
      ++stats_.wasted_answers;
      stats_.wasted_wire_bytes += r.cost.wire_bytes;
      metrics_.wasted_answers.add(config_.obs);
      metrics_.wasted_wire_bytes.add(config_.obs, r.cost.wire_bytes);
    }
    maybe_erase(id);
    return;
  }

  if (usable(r)) {
    if (from_primary) {
      ++stats_.primary_wins;
      metrics_.primary_wins.add(config_.obs);
    } else {
      ++stats_.hedge_wins;
      metrics_.wins.add(config_.obs);
    }
    config_.obs.set_attr(pending.hedge_span, "winner",
                         std::string(from_primary ? "primary" : "secondary"));
    finish(id, r, from_primary);
    return;
  }

  if (from_primary && !pending.hedged) {
    // The primary failed before the hedge delay: hedge immediately
    // (budget permitting) instead of sitting out the rest of the delay.
    start_hedge(id, "primary_failure");
    const auto retry = pending_.find(id);
    if (retry != pending_.end() && retry->second.hedged) return;
    ++stats_.both_failed;
    metrics_.both_failed.add(config_.obs);
    finish(id, r, from_primary);
    return;
  }

  const bool other_racing = from_primary
                                ? (pending.hedged && !pending.secondary_done)
                                : !pending.primary_done;
  if (other_racing) return;  // the other side may still rescue the query
  ++stats_.both_failed;
  metrics_.both_failed.add(config_.obs);
  finish(id, r, from_primary);
}

void HedgingResolverClient::finish(std::uint64_t id,
                                   const ResolutionResult& r,
                                   bool /*from_primary*/) {
  const auto it = pending_.find(id);
  if (it == pending_.end() || it->second.done) return;
  Pending& pending = it->second;
  pending.done = true;
  loop_.cancel(pending.hedge_timer);
  config_.obs.end(pending.hedge_span);
  ResolveCallback callback = std::move(pending.callback);
  ResolutionResult out = r;
  out.sent_at = results_[id].sent_at;  // measure from when *we* were asked
  out.completed_at = loop_.now();
  results_[id] = out;
  ++completed_;
  maybe_erase(id);
  if (callback) callback(out);
}

void HedgingResolverClient::maybe_erase(std::uint64_t id) {
  const auto it = pending_.find(id);
  if (it == pending_.end() || !it->second.done) return;
  // Keep the entry while a loser is still in flight so its late answer
  // lands in the wasted account rather than vanishing silently.
  const bool secondary_settled =
      !it->second.hedged || it->second.secondary_done;
  if (it->second.primary_done && secondary_settled) pending_.erase(it);
}

const ResolutionResult& HedgingResolverClient::result(
    std::uint64_t id) const {
  return results_.at(id);
}

}  // namespace dohperf::core
