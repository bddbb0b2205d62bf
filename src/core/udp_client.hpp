// Legacy UDP DNS stub resolver client with ID matching, timeout and
// retransmission.
#pragma once

#include <map>
#include <vector>

#include "core/client.hpp"
#include "core/obs_hooks.hpp"
#include "obs/span.hpp"
#include "simnet/host.hpp"

namespace dohperf::core {

struct UdpClientConfig {
  simnet::TimeUs timeout = simnet::seconds(5);
  int max_retries = 0;  ///< retransmissions after the first attempt
  bool edns = true;     ///< attach an EDNS0 OPT record to queries
  obs::SpanContext obs{};  ///< tracing/metrics sink (default: off)
};

class UdpResolverClient final : public ResolverClient {
 public:
  UdpResolverClient(simnet::Host& host, simnet::Address server,
                    UdpClientConfig config = {});
  ~UdpResolverClient() override;

  std::uint64_t resolve(const dns::Name& name, dns::RType type,
                        ResolveCallback callback) override;
  const ResolutionResult& result(std::uint64_t id) const override;
  std::size_t completed() const override { return completed_; }

  std::uint64_t timeouts() const noexcept { return timeouts_; }
  /// Retransmissions sent after first attempts (the client-side half of
  /// the retry-amplification factor the overload bench reports).
  std::uint64_t retransmissions() const noexcept { return retransmissions_; }

  /// Rebind the tracing/metrics sink (per-query sampling hands each query
  /// a different context; metric handles follow the registry it carries).
  void set_obs(const obs::SpanContext& obs) noexcept { config_.obs = obs; }

 private:
  struct Pending {
    std::uint64_t query_id;
    dns::Bytes wire;  ///< for retransmission
    ResolveCallback callback;
    simnet::EventId timer;
    int retries_left;
    obs::SpanId span = 0;          ///< the resolution span
    obs::SpanId request_span = 0;  ///< current attempt
    int attempt = 0;
  };

  void on_datagram(const dns::Bytes& payload);
  void send_query(std::uint16_t dns_id);
  void on_timeout(std::uint16_t dns_id);
  void finish(std::uint16_t dns_id, bool success, dns::Message response,
              std::size_t response_bytes);
  /// Record the outcome of `pending` (already out of the map) and call back.
  void complete(Pending& pending, bool success, dns::Message response,
                std::size_t response_bytes);

  simnet::Host& host_;
  simnet::Address server_;
  UdpClientConfig config_;
  ClientMetrics metrics_;
  CostMetrics cost_metrics_;
  simnet::UdpSocket* socket_;
  std::uint16_t next_dns_id_ = 1;
  std::uint64_t next_query_id_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::map<std::uint16_t, Pending> pending_;  ///< keyed by DNS message ID
  std::vector<ResolutionResult> results_;     ///< indexed by query id
};

}  // namespace dohperf::core
