// The one lifecycle of DoT's and DoH's TCP(+TLS) connections, which amortize
// setup over long-lived connections (the paper's §4 cost argument): their
// connect/tcp_handshake/tls_handshake spans, conn_open and conn_reuse
// counts and handshake accounting, adopting a live racer when the
// connection dies, and migration. A migration races a fresh connection
// against a stalled one that has queries in flight (else drops it); the
// racer is promoted one event after it establishes, and what was in
// flight on the stalled connection is re-issued on it at once with reason
// `migration` (the won-race rule), or it is torn down when the old path
// answers first. A client supplies only its Layer: what rides the stream.
#pragma once

#include <memory>
#include <optional>

#include "core/recovery.hpp"
#include "obs/span.hpp"
#include "simnet/host.hpp"
#include "simnet/stream.hpp"
#include "tlssim/connection.hpp"

namespace dohperf::core {

/// One connection: TCP, and a TLS session over it unless the client speaks
/// plain TCP. A client's Layer derives its own connection type from it.
struct Link {
  virtual ~Link() = default;

  /// Open or still handshaking, and not given up: worth sending on.
  virtual bool usable() const;
  /// Every handshake (TCP, then TLS if any) has completed.
  bool established() const {
    return tls != nullptr ? tls->established() : tcp->established();
  }

  std::shared_ptr<simnet::TcpConnection> tcp;  ///< kept for counters
  tlssim::TlsConnection* tls = nullptr;  ///< owned by the layer; null: plain
  bool broken = false;  ///< closed, condemned or abandoned: never reused
  obs::SpanId connect_span = 0;
  obs::SpanId tcp_hs_span = 0;
  obs::SpanId tls_hs_span = 0;
};

/// What a DoT or DoH client puts on a connection.
class Layer {
 public:
  /// A connection opens: take `stream` (its TLS session, or its TCP byte
  /// stream) and return the client's Link around it. Its handlers report
  /// the stream's end with Connector::closed.
  virtual std::shared_ptr<Link> attach(
      std::unique_ptr<simnet::ByteStream> stream) = 0;
  /// The queries in flight on `link` are lost: run their loss batch
  /// (Recovery::lose), `migrated` if `link` lost a migration race.
  virtual void lost(Link& link, bool migrated) = 0;

 protected:
  ~Layer() = default;
};

class Connector {
 public:
  /// `tls`: the TLS session each connection opens, or nullopt for plain
  /// TCP. `obs` lives in the client and is read at each use.
  Connector(simnet::Host& host, simnet::Address server, Recovery& recovery,
            Layer& layer, const obs::SpanContext& obs,
            std::optional<tlssim::ClientConfig> tls);

  Connector(const Connector&) = delete;
  Connector& operator=(const Connector&) = delete;

  /// The persistent connection to send on: the current one if usable
  /// (counted as a reuse), else the racer if one is live, else a fresh
  /// one whose connect span opens under `parent`.
  const std::shared_ptr<Link>& connection(obs::SpanId parent) {
    if (current_ && current_->usable()) {
      recovery_.metrics().conn_reuse.add(obs_);
      return current_;
    }
    return replace(parent);
  }
  /// The persistent connection (possibly closed, until the next query
  /// replaces it), or null.
  Link* current() const noexcept { return current_.get(); }
  /// A fresh connection outside the persistent one (DoH's fresh mode).
  std::shared_ptr<Link> open(obs::SpanId parent);

  /// An OS-visible network change, or a stall, asks for a migration.
  void migrate(const char* reason);
  /// A query answered: if a race is on, the old path won it.
  void answered() {
    if (racer_) teardown();
  }
  /// `link`'s stream ended (closed, reset, failed, or shut by the client):
  /// end its spans and, unless it is the racer, run its loss batch.
  void closed(Link& link);
  /// Condemn `link`: RST it (no local callbacks fire), then closed().
  void abort(Link& link);
  /// `link` completed its handshakes: end its spans, account a TLS
  /// handshake, and schedule a racer's promotion. Plain TCP has no
  /// handshake hook of its own: its layer calls this when the stream opens.
  void established(Link& link);

 private:
  const std::shared_ptr<Link>& replace(obs::SpanId parent);
  /// Make the established racer the connection; re-issue what was in
  /// flight on the stalled one.
  void promote();
  /// The race is lost, or the racer died: abandon it.
  void teardown();
  /// Give `link` up: never reuse it, end its spans. False if it was given
  /// up already.
  bool give_up(Link& link);
  /// Release `link` one event from now: it may be running a callback of
  /// its own.
  void retire(std::shared_ptr<Link>&& link);

  simnet::Host& host_;
  simnet::Address server_;
  Recovery& recovery_;
  Layer& layer_;
  const obs::SpanContext& obs_;
  std::optional<tlssim::ClientConfig> tls_;

  std::shared_ptr<Link> current_;
  /// The fresh connection racing the stalled one during a migration.
  std::shared_ptr<Link> racer_;
};

}  // namespace dohperf::core
