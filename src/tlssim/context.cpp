#include "tlssim/context.hpp"

namespace dohperf::tlssim {

void SessionCache::store(const std::string& server_name, Session session) {
  sessions_[server_name] = std::move(session);
}

const Session* SessionCache::lookup(const std::string& server_name) const {
  const auto it = sessions_.find(server_name);
  return it == sessions_.end() ? nullptr : &it->second;
}

}  // namespace dohperf::tlssim
