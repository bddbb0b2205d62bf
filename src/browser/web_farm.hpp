// The simulated web: one HTTPS origin server per domain, created lazily,
// each on its own node with its own (slightly jittered) path from the
// browser. Origins serve synthetic objects: a request for "/o/<n>" returns
// an n-byte body.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "dns/name.hpp"
#include "http1/server.hpp"
#include "simnet/host.hpp"
#include "stats/rng.hpp"
#include "tlssim/connection.hpp"

namespace dohperf::browser {

struct WebFarmConfig {
  simnet::TimeUs base_latency = simnet::ms(20);   ///< browser -> origin
  simnet::TimeUs latency_jitter = simnet::ms(30); ///< uniform extra, per origin
  double bandwidth_bps = 50e6;                    ///< access-link rate
  simnet::TimeUs server_think_time = simnet::ms(2);
  std::uint64_t seed = 99;
};

class WebFarm {
 public:
  WebFarm(simnet::Network& net, simnet::Host& browser_host,
          WebFarmConfig config = {});

  WebFarm(const WebFarm&) = delete;
  WebFarm& operator=(const WebFarm&) = delete;

  /// Address of the origin serving `domain` (HTTPS, port 443), creating
  /// the host, server and link on first use.
  simnet::Address origin_for(const dns::Name& domain);

  std::size_t origin_count() const noexcept { return origins_.size(); }
  std::uint64_t objects_served() const noexcept { return objects_served_; }
  /// Server sessions held, open or closed since the last accept.
  std::size_t session_count() const noexcept { return sessions_.size(); }

  /// Request target that makes an origin return `bytes` of body.
  static std::string object_target(std::size_t bytes);

 private:
  struct Session {
    std::unique_ptr<tlssim::TlsConnection> tls_holder;
    std::unique_ptr<http1::Http1ServerConnection> http;
    bool dead = false;
  };

  void accept(std::shared_ptr<simnet::TcpConnection> conn);
  /// An object body: `bytes` of 0x42, a window of bodies_.
  simnet::BufferSlice object_body(std::size_t bytes);

  simnet::Network& net_;
  simnet::Host& browser_host_;
  WebFarmConfig config_;
  stats::SplitMix64 rng_;
  tlssim::ServerConfig tls_config_;
  std::map<dns::Name, std::unique_ptr<simnet::Host>> origins_;
  /// Every origin's sessions. A closed one is released at the next accept
  /// of any origin, which runs outside every session's own callbacks.
  std::vector<std::unique_ptr<Session>> sessions_;
  /// Every body served is a window of this one buffer. An object larger
  /// than it replaces it with one at least twice the size; bodies already
  /// handed out keep the old buffer alive. One per farm, so shards running
  /// on different threads share no count.
  simnet::BufferSlice bodies_;
  std::uint64_t objects_served_ = 0;
};

}  // namespace dohperf::browser
