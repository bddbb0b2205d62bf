// Input for the contract_check_flags_bogus_leaf test: a client.<t>.* family
// composed the way core::ClientMetrics composes it, with one leaf.
#pragma once

#include <string>

namespace fixture {

inline std::string client_metric(const std::string& transport,
                                 const char* leaf) {
  return "client." + transport + "." + leaf;
}

inline std::string queries(const std::string& transport) {
  return client_metric(transport, "queries");
}

template <typename Tracer>
void trace_resolution(Tracer& tracer) {
  tracer.begin("resolution");
}

}  // namespace fixture
