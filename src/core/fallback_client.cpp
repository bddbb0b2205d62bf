#include "core/fallback_client.hpp"

#include <algorithm>

namespace dohperf::core {

FallbackResolverClient::FallbackResolverClient(simnet::EventLoop& loop,
                                               ResolverClient& primary,
                                               ResolverClient& fallback,
                                               FallbackConfig config)
    : loop_(loop), primary_(primary), fallback_(fallback), config_(config) {}

std::uint64_t FallbackResolverClient::resolve(const dns::Name& name,
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
  pending.deadline = loop_.schedule_in(config_.primary_deadline, [this, id]() {
    start_fallback(id, "deadline");
  });
  pending_.emplace(id, std::move(pending));

  primary_.resolve(name, type, [this, id](const ResolutionResult& r) {
    const auto it = pending_.find(id);
    if (it == pending_.end()) return;
    it->second.primary_done = true;
    if (it->second.done) {
      // The fallback already won: tear the late primary resolution down.
      // A late success is wasted work — count it rather than drop it.
      // (A late shed answer is not useful work, so it isn't "wasted".)
      if (usable(r)) {
        ++stats_.primary_wasted;
        metrics_.primary_wasted.add(config_.obs);
      }
      maybe_erase(id);
      return;
    }
    if (usable(r)) {
      if (!it->second.fallback_started) {
        ++stats_.primary_wins;
        metrics_.primary_wins.add(config_.obs);
      }
      finish(id, r, /*from_primary=*/true);
    } else if (!it->second.fallback_started) {
      if (r.success) {
        // Transport delivered an answer but the server was shedding
        // (SERVFAIL/REFUSED): never surface it — fall back instead.
        ++stats_.primary_shed;
        metrics_.primary_shed.add(config_.obs);
        start_fallback(id, "primary_shed");
      } else {
        // Hard failure before the deadline: fall back immediately.
        start_fallback(id, "primary_failure");
      }
    } else {
      // Primary failed after the fallback started: wait for the fallback.
      ++stats_.primary_late_failures;
    }
  });
  return id;
}

bool FallbackResolverClient::usable(const ResolutionResult& r) const {
  if (!r.success) return false;
  if (!config_.rcode_failures) return true;
  const dns::Rcode rcode = r.response.flags.rcode;
  return rcode != dns::Rcode::kServFail && rcode != dns::Rcode::kRefused;
}

void FallbackResolverClient::start_fallback(std::uint64_t id,
                                            const char* reason) {
  const auto it = pending_.find(id);
  if (it == pending_.end() || it->second.done ||
      it->second.fallback_started) {
    return;
  }
  it->second.fallback_started = true;
  loop_.cancel(it->second.deadline);
  ++stats_.fallback_started;
  it->second.fallback_span = config_.obs.begin("fallback");
  config_.obs.set_attr(it->second.fallback_span, "reason",
                       std::string(reason));
  const simnet::TimeUs waited = loop_.now() - results_[id].sent_at;
  stats_.decision_latency_total += waited;
  stats_.decision_latency_max = std::max(stats_.decision_latency_max, waited);
  fallback_.resolve(it->second.name, it->second.type,
                    [this, id](const ResolutionResult& r) {
                      const auto p = pending_.find(id);
                      if (p == pending_.end() || p->second.done) return;
                      if (usable(r)) {
                        ++stats_.fallback_used;
                        metrics_.used.add(config_.obs);
                      } else {
                        ++stats_.both_failed;
                        metrics_.both_failed.add(config_.obs);
                      }
                      finish(id, r, /*from_primary=*/false);
                    });
}

void FallbackResolverClient::finish(std::uint64_t id,
                                    const ResolutionResult& r,
                                    bool /*from_primary*/) {
  const auto it = pending_.find(id);
  if (it == pending_.end() || it->second.done) return;
  it->second.done = true;
  loop_.cancel(it->second.deadline);
  config_.obs.end(it->second.fallback_span);

  auto callback = std::move(it->second.callback);
  ResolutionResult out = r;
  out.sent_at = results_[id].sent_at;  // measure from when *we* were asked
  out.completed_at = loop_.now();
  results_[id] = out;
  ++completed_;
  maybe_erase(id);
  if (callback) callback(out);
}

void FallbackResolverClient::maybe_erase(std::uint64_t id) {
  const auto it = pending_.find(id);
  if (it == pending_.end() || !it->second.done) return;
  // Retain finished entries until the primary reports so its late answer
  // lands in primary_wasted (see the double-completion regression test).
  if (it->second.primary_done) pending_.erase(it);
}

const ResolutionResult& FallbackResolverClient::result(
    std::uint64_t id) const {
  return results_.at(id);
}

}  // namespace dohperf::core
