#include "core/connector.hpp"

#include <utility>

namespace dohperf::core {

bool Link::usable() const {
  if (broken) return false;
  if (tls != nullptr) return !tls->failed() && !tls->closed();
  return tcp->state() == simnet::TcpState::kSynSent || tcp->established();
}

Connector::Connector(simnet::Host& host, simnet::Address server,
                     Recovery& recovery, Layer& layer,
                     const obs::SpanContext& obs,
                     std::optional<tlssim::ClientConfig> tls)
    : host_(host),
      server_(server),
      recovery_(recovery),
      layer_(layer),
      obs_(obs),
      tls_(std::move(tls)) {}

std::shared_ptr<Link> Connector::open(obs::SpanId parent) {
  recovery_.metrics().conn_open.add(obs_);
  std::shared_ptr<simnet::TcpConnection> tcp = host_.tcp_connect(server_);
  std::unique_ptr<simnet::ByteStream> stream =
      std::make_unique<simnet::TcpByteStream>(tcp);
  tlssim::TlsConnection* tls = nullptr;
  if (tls_) {
    auto session =
        std::make_unique<tlssim::TlsConnection>(std::move(stream), *tls_);
    tls = session.get();
    stream = std::move(session);
  }
  std::shared_ptr<Link> link = layer_.attach(std::move(stream));
  link->tcp = std::move(tcp);
  link->tls = tls;
  if (obs_.tracer != nullptr) {
    link->connect_span = obs_.tracer->begin(parent, "connect");
    link->tcp_hs_span =
        obs_.tracer->begin(link->connect_span, "tcp_handshake");
  }
  if (tls != nullptr) {
    // The link owns the TLS session, so the hooks cannot outlive it.
    Link* raw = link.get();
    if (obs_.tracer != nullptr) {
      tls->set_transport_open_hook([this, raw]() {
        obs_.end(raw->tcp_hs_span);
        raw->tcp_hs_span = 0;
        raw->tls_hs_span = obs_.tracer->begin(raw->connect_span,
                                              "tls_handshake");
      });
    }
    tls->set_established_hook([this, raw]() { established(*raw); });
  }
  return link;
}

const std::shared_ptr<Link>& Connector::replace(obs::SpanId parent) {
  retire(std::move(current_));
  if (racer_ && racer_->usable()) {
    // The connection died while a migration race was on: adopt the racer,
    // whose handshake (possibly resumed) is paid for or under way, instead
    // of opening yet another connection.
    current_ = std::move(racer_);
  } else {
    teardown();
    current_ = open(parent);
  }
  return current_;
}

void Connector::established(Link& link) {
  if (link.tls_hs_span != 0) {
    obs_.set_attr(link.tls_hs_span, "tls_version",
                  tlssim::to_string(link.tls->version()));
    obs_.set_attr(link.tls_hs_span, "resumed", link.tls->resumed());
    if (!link.tls->alpn().empty()) {
      obs_.set_attr(link.tls_hs_span, "alpn", link.tls->alpn());
    }
  }
  // Plain TCP: the stream opening is the TCP handshake completing.
  obs_.end(link.tcp_hs_span);
  obs_.end(link.tls_hs_span);
  obs_.end(link.connect_span);
  link.tcp_hs_span = link.tls_hs_span = link.connect_span = 0;
  if (link.tls != nullptr) recovery_.account_tls(*link.tls);
  if (&link == racer_.get()) {
    // One event later: promotion drops the stalled connection and must not
    // run inside this connection's own callbacks.
    recovery_.post([this]() { promote(); });
  }
}

void Connector::migrate(const char* reason) {
  if (racer_) {
    if (racer_->usable()) return;  // a race is already deciding the path
    teardown();                    // the racer died: the old path keeps it
  }
  // Nothing to migrate: the next query connects.
  if (!current_ || current_->broken) return;
  recovery_.open_migrate_span(reason);
  if (!current_->usable() || recovery_.in_flight().empty()) {
    // Nothing worth racing against: drop the (suspect or already dead)
    // connection so the next attempt reconnects on the new path, resuming
    // via the session cache when one is configured.
    recovery_.migrated("fresh");
    abort(*current_);
    return;
  }
  // Happy eyeballs: race a fresh connection against the stalled one.
  // Whichever proves the path first wins; the loser's bytes are charged to
  // migration_wasted_bytes.
  recovery_.start_race(*current_->tcp);
  racer_ = open(recovery_.migrate_span());
}

void Connector::promote() {
  // Adopted, torn down, or dead before this event fired: nothing to do.
  if (!racer_ || !racer_->usable() || !racer_->established()) return;
  std::shared_ptr<Link> stalled = std::exchange(current_, std::move(racer_));
  recovery_.race_won(stalled ? stalled->tcp.get() : nullptr);
  if (!stalled) return;
  // The winner has just proved the new path: what was in flight on the
  // stalled connection moves to it at once.
  stalled->tcp->abort();
  give_up(*stalled);
  layer_.lost(*stalled, /*migrated=*/true);
  retire(std::move(stalled));
}

void Connector::teardown() {
  if (!racer_) return;
  racer_->tcp->abort();
  give_up(*racer_);
  recovery_.race_lost(racer_->tcp.get());
  retire(std::move(racer_));
}

void Connector::closed(Link& link) {
  // A dead racer is noticed when it would be promoted, adopted or raced
  // again; its layer carries no queries. A dead connection stays current,
  // its counters readable, until the next query replaces it.
  if (!give_up(link) || &link == racer_.get()) return;
  layer_.lost(link, /*migrated=*/false);
}

void Connector::abort(Link& link) {
  link.tcp->abort();
  closed(link);
}

bool Connector::give_up(Link& link) {
  if (link.broken) return false;
  link.broken = true;
  // Spans of a connection that died mid-handshake must not stay open.
  obs_.end(link.tcp_hs_span);
  obs_.end(link.tls_hs_span);
  obs_.end(link.connect_span);
  link.tcp_hs_span = link.tls_hs_span = link.connect_span = 0;
  return true;
}

void Connector::retire(std::shared_ptr<Link>&& link) {
  if (link) recovery_.post([link = std::move(link)]() {});
}

}  // namespace dohperf::core
