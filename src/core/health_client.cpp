#include "core/health_client.hpp"

#include <stdexcept>
#include <string>

namespace dohperf::core {

HealthTrackingClient::HealthTrackingClient(
    simnet::EventLoop& loop, std::vector<ResolverClient*> resolvers,
    HealthConfig config)
    : loop_(loop),
      resolvers_(std::move(resolvers)),
      config_(config),
      health_(resolvers_.size()) {
  if (resolvers_.empty()) {
    throw std::logic_error("HealthTrackingClient needs >= 1 resolver");
  }
  metrics_.breaker_state.reserve(resolvers_.size());
  for (std::size_t i = 0; i < resolvers_.size(); ++i) {
    metrics_.breaker_state.emplace_back("breaker.state." + std::to_string(i));
  }
}

int HealthTrackingClient::pick(const Pending& pending) const {
  // First pass: closed (or cooled-down) breakers in preference order.
  for (std::size_t i = 0; i < resolvers_.size(); ++i) {
    if (pending.tried[i]) continue;
    const ResolverHealth& h = health_[i];
    if (h.state != BreakerState::kOpen || loop_.now() >= h.open_until) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::uint64_t HealthTrackingClient::resolve(const dns::Name& name,
                                            dns::RType type,
                                            ResolveCallback callback) {
  const std::uint64_t id = results_.size();
  ResolutionResult placeholder;
  placeholder.sent_at = loop_.now();
  results_.push_back(placeholder);

  Pending pending;
  pending.callback = std::move(callback);
  pending.name = name;
  pending.type = type;
  pending.tried.assign(resolvers_.size(), false);
  pending_.push_back(std::move(pending));

  int resolver = pick(pending_[id]);
  if (resolver < 0) {
    // Every breaker open: desperation probe on the preferred resolver
    // rather than failing without sending anything.
    resolver = 0;
  }
  dispatch(id, static_cast<std::size_t>(resolver));
  return id;
}

void HealthTrackingClient::dispatch(std::uint64_t id, std::size_t resolver) {
  pending_[id].tried[resolver] = true;
  ResolverHealth& h = health_[resolver];
  if (h.state == BreakerState::kOpen && loop_.now() >= h.open_until) {
    h.state = BreakerState::kHalfOpen;  // this query is the probe
    metrics_.probes.add(config_.obs);
    export_state(resolver);
  }
  ++h.queries;
  resolvers_[resolver]->resolve(
      pending_[id].name, pending_[id].type,
      [this, id, resolver](const ResolutionResult& r) {
        on_result(id, resolver, r);
      });
}

void HealthTrackingClient::on_result(std::uint64_t id, std::size_t resolver,
                                     const ResolutionResult& r) {
  Pending& pending = pending_[id];
  if (pending.done) return;

  bool ok = r.success;
  if (ok && config_.rcode_failures) {
    const auto rcode = r.response.flags.rcode;
    if (rcode == dns::Rcode::kServFail || rcode == dns::Rcode::kRefused) {
      ok = false;
    }
  }

  if (ok) {
    record_success(resolver);
  } else {
    record_failure(resolver);
    const int next = pick(pending);
    if (next >= 0) {
      ++failovers_;
      metrics_.failovers.add(config_.obs);
      dispatch(id, static_cast<std::size_t>(next));
      return;
    }
    ++exhausted_;
    metrics_.exhausted.add(config_.obs);
  }

  pending.done = true;
  ResolutionResult& out = results_[id];
  const auto sent_at = out.sent_at;
  out = r;
  out.sent_at = sent_at;  // latency from when *we* were asked
  out.completed_at = loop_.now();
  out.success = ok;
  ++completed_;
  auto callback = std::move(pending.callback);
  // The callback gets the result moved out of results_: a resolve() inside
  // it grows results_ and may move every result. It goes back afterwards.
  ResolutionResult done = std::move(out);
  if (callback) callback(done);
  results_[id] = std::move(done);
}

void HealthTrackingClient::record_success(std::size_t resolver) {
  ResolverHealth& h = health_[resolver];
  h.consecutive_failures = 0;
  if (h.state != BreakerState::kClosed) {
    metrics_.closes.add(config_.obs);
    h.state = BreakerState::kClosed;  // probe success closes the breaker
    export_state(resolver);
  }
}

void HealthTrackingClient::record_failure(std::size_t resolver) {
  ResolverHealth& h = health_[resolver];
  ++h.failures;
  ++h.consecutive_failures;
  if (h.state == BreakerState::kHalfOpen ||
      h.consecutive_failures >= config_.failure_threshold) {
    // A failed probe re-opens immediately; repeated failures trip it.
    h.state = BreakerState::kOpen;
    h.open_until = loop_.now() + config_.open_duration;
    h.consecutive_failures = 0;
    ++h.breaker_trips;
    metrics_.trips.add(config_.obs);
    export_state(resolver);
  }
}

void HealthTrackingClient::export_state(std::size_t resolver) {
  const ResolverHealth& h = health_[resolver];
  std::int64_t value = 0;
  if (h.state == BreakerState::kOpen) value = 1;
  if (h.state == BreakerState::kHalfOpen) value = 2;
  metrics_.breaker_state[resolver].set(config_.obs, value);
}

const ResolutionResult& HealthTrackingClient::result(std::uint64_t id) const {
  return results_.at(id);
}

}  // namespace dohperf::core
