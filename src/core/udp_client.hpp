// Legacy UDP DNS stub resolver client: one datagram per attempt, responses
// matched by DNS message ID. Each query runs on core::Recovery, which owns
// its id, result, spans, client.udp.* counters, DNS ID, deadline (`timeout`)
// and re-sends (`max_retries`). A re-send goes alone and reuses the query's
// DNS ID, so a late answer to an earlier datagram still completes the query.
#pragma once

#include "core/client.hpp"
#include "core/recovery.hpp"
#include "obs/span.hpp"
#include "simnet/host.hpp"

namespace dohperf::core {

struct UdpClientConfig {
  /// How long one datagram waits for its answer before the query is re-sent
  /// (while retries are left) or fails; 0 means no deadline, as for
  /// RetryPolicy::query_timeout.
  simnet::TimeUs timeout = simnet::seconds(5);
  int max_retries = 0;  ///< retransmissions after the first attempt
  obs::SpanContext obs{};  ///< tracing/metrics sink (default: off)
};

class UdpResolverClient final : public ResolverClient, private Session {
 public:
  UdpResolverClient(simnet::Host& host, simnet::Address server,
                    UdpClientConfig config = {});
  ~UdpResolverClient() override;

  std::uint64_t resolve(const dns::Name& name, dns::RType type,
                        ResolveCallback callback) override {
    return recovery_.accept(name, type, std::move(callback));
  }
  const ResolutionResult& result(std::uint64_t id) const override {
    return recovery_.result(id);
  }
  std::size_t completed() const override { return recovery_.completed(); }

  /// Every deadline and every re-send, counted as for DoT, DoH and DoQ.
  const RetryStats& retry_stats() const noexcept {
    return recovery_.retry_stats();
  }
  /// Queries failed by the deadline of their last datagram.
  std::uint64_t timeouts() const noexcept {
    const RetryStats& s = recovery_.retry_stats();
    return s.query_timeouts - s.retried_queries;
  }
  /// Retransmissions sent after first attempts (the client-side half of
  /// the retry-amplification factor the overload bench reports).
  std::uint64_t retransmissions() const noexcept {
    return recovery_.retry_stats().retried_queries;
  }

  /// Rebind the tracing/metrics sink (per-query sampling hands each query
  /// a different context; metric handles follow the registry it carries).
  void set_obs(const obs::SpanContext& obs) noexcept { obs_ = obs; }

 private:
  // Session: queries are keyed by DNS message ID, and every deadline with
  // budget left re-sends its datagram alone, so nothing is ever condemned.
  void send(Attempt&& a) override;
  void abort(std::uint64_t /*key*/) override {}
  void migrate(const char* /*reason*/) override {}  // migration is off
  bool resend_alone(std::uint64_t /*key*/) const override { return true; }
  bool keyed_by_dns_id() const override { return true; }

  void on_datagram(const dns::Bytes& payload);

  simnet::Host& host_;
  simnet::Address server_;
  obs::SpanContext obs_;
  RetryPolicy retry_;          ///< the config's timeout and max_retries
  MigrationConfig migration_;  ///< off
  Recovery recovery_;
  simnet::UdpSocket* socket_;
};

}  // namespace dohperf::core
