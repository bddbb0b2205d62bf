// Client-side session cache enabling TLS resumption across connections
// (one of the amortization mechanisms for persistent-vs-fresh DoH costs).
#pragma once

#include <map>
#include <string>

#include "tlssim/types.hpp"
#include "dns/wire.hpp"

namespace dohperf::tlssim {

struct Session {
  dns::Bytes ticket;
  TlsVersion version = TlsVersion::kTls13;
};

/// Stores one session per server name, like a browser's TLS session cache.
class SessionCache {
 public:
  void store(const std::string& server_name, Session session);
  /// The session stored for `server_name`, or null; valid until the next
  /// store() or clear().
  const Session* lookup(const std::string& server_name) const;
  void clear() { sessions_.clear(); }
  std::size_t size() const noexcept { return sessions_.size(); }

 private:
  std::map<std::string, Session> sessions_;
};

}  // namespace dohperf::tlssim
