#include "diagnostics.hpp"

namespace detlint {

std::string_view code_name(Code code) {
  switch (code) {
    case Code::DET001: return "DET001";
    case Code::DET002: return "DET002";
    case Code::DET003: return "DET003";
    case Code::DET004: return "DET004";
    case Code::DET005: return "DET005";
    case Code::HYG001: return "HYG001";
    case Code::HYG002: return "HYG002";
    case Code::HYG003: return "HYG003";
    case Code::CONC001: return "CONC001";
    case Code::CONC002: return "CONC002";
    case Code::CONC003: return "CONC003";
    case Code::CONC004: return "CONC004";
    case Code::CONC005: return "CONC005";
    case Code::CONC006: return "CONC006";
  }
  return "DET???";
}

std::string_view code_summary(Code code) {
  switch (code) {
    case Code::DET001:
      return "wall-clock or real time source in simulated code";
    case Code::DET002:
      return "unseeded or global randomness outside src/stats/rng";
    case Code::DET003:
      return "unordered container (iteration order is unspecified)";
    case Code::DET004:
      return "real concurrency or blocking primitive in the simulator";
    case Code::DET005:
      return "pointer identity flowing into hashes, logs, or stats";
    case Code::HYG001:
      return "header is missing #pragma once";
    case Code::HYG002:
      return "raw owning new/delete";
    case Code::HYG003:
      return "float arithmetic (byte/packet accounting is integer)";
    case Code::CONC001:
      return "mutable static state reached from parallel shard code";
    case Code::CONC002:
      return "shard lambda writes through a captured reference";
    case Code::CONC003:
      return "per-shard result slot lacks alignas(64) (false sharing)";
    case Code::CONC004:
      return "shared RNG/Registry/Tracer/slice used inside a shard functor";
    case Code::CONC005:
      return "synchronization primitive in parallel-reachable sim code";
    case Code::CONC006:
      return "global-heap allocation inside a hot-loop annotated body";
  }
  return "unknown diagnostic";
}

bool parse_code(std::string_view name, Code& out) {
  for (Code c : kAllCodes) {
    if (code_name(c) == name) {
      out = c;
      return true;
    }
  }
  return false;
}

std::string format_diagnostic(const Diagnostic& d) {
  std::string s = d.file;
  s += ":";
  s += std::to_string(d.line);
  s += ": ";
  s += code_name(d.code);
  s += " ";
  s += d.message;
  return s;
}

}  // namespace detlint
