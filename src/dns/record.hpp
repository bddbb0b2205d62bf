// Resource records (RFC 1035 §3.2) with typed RDATA for the record types
// the experiments exercise, plus EDNS0 OPT (RFC 6891) and CAA (RFC 6844 —
// probed by the landscape survey, Table 2).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "dns/name.hpp"
#include "dns/wire.hpp"

namespace dohperf::dns {

/// Record types (subset used by the reproduction).
enum class RType : std::uint16_t {
  kA = 1,
  kNS = 2,
  kCNAME = 5,
  kSOA = 6,
  kPTR = 12,
  kMX = 15,
  kTXT = 16,
  kAAAA = 28,
  kOPT = 41,
  kCAA = 257,
};

enum class RClass : std::uint16_t {
  kIN = 1,
  kCH = 3,
};

/// Response codes (RFC 1035 §4.1.1 + RFC 6891 extended).
enum class Rcode : std::uint8_t {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNxDomain = 3,
  kNotImp = 4,
  kRefused = 5,
};

enum class Opcode : std::uint8_t {
  kQuery = 0,
  kStatus = 2,
};

std::string to_string(RType t);
std::string to_string(Rcode rc);

// --- Typed RDATA -----------------------------------------------------------

/// IPv4 address.
struct ARdata {
  std::array<std::uint8_t, 4> addr{};

  static ARdata parse(std::string_view dotted);  ///< "192.0.2.1"
  std::string to_string() const;
  bool operator==(const ARdata&) const = default;
};

/// IPv6 address (binary only; presentation uses full uncompressed form).
struct AaaaRdata {
  std::array<std::uint8_t, 16> addr{};

  std::string to_string() const;
  bool operator==(const AaaaRdata&) const = default;
};

struct CnameRdata {
  Name target;
  bool operator==(const CnameRdata&) const = default;
};

struct NsRdata {
  Name nsdname;
  bool operator==(const NsRdata&) const = default;
};

struct PtrRdata {
  Name ptrdname;
  bool operator==(const PtrRdata&) const = default;
};

struct MxRdata {
  std::uint16_t preference = 0;
  Name exchange;
  bool operator==(const MxRdata&) const = default;
};

struct TxtRdata {
  std::vector<std::string> strings;  ///< each segment <= 255 octets
  bool operator==(const TxtRdata&) const = default;
};

struct SoaRdata {
  Name mname;
  Name rname;
  std::uint32_t serial = 0;
  std::uint32_t refresh = 0;
  std::uint32_t retry = 0;
  std::uint32_t expire = 0;
  std::uint32_t minimum = 0;
  bool operator==(const SoaRdata&) const = default;
};

/// CAA record (RFC 6844): the survey checks whether providers publish CAA.
struct CaaRdata {
  std::uint8_t flags = 0;  ///< bit 7 = issuer-critical
  std::string tag;         ///< "issue", "issuewild", "iodef"
  std::string value;
  bool operator==(const CaaRdata&) const = default;
};

/// A single EDNS0 option (e.g. padding, RFC 7830).
struct EdnsOption {
  std::uint16_t code = 0;
  Bytes data;
  bool operator==(const EdnsOption&) const = default;
};

/// EDNS0 pseudo-record (RFC 6891). Class carries the UDP payload size and
/// TTL carries extended rcode/version/flags; both are synthesised at
/// encode time from these fields.
struct OptRdata {
  std::uint16_t udp_payload_size = 4096;
  std::uint8_t extended_rcode = 0;
  std::uint8_t version = 0;
  bool dnssec_ok = false;
  std::vector<EdnsOption> options;
  bool operator==(const OptRdata&) const = default;
};

/// Fallback for record types we do not model in detail.
struct RawRdata {
  Bytes data;
  bool operator==(const RawRdata&) const = default;
};

using Rdata = std::variant<ARdata, AaaaRdata, CnameRdata, NsRdata, PtrRdata,
                           MxRdata, TxtRdata, SoaRdata, CaaRdata, OptRdata,
                           RawRdata>;

/// A complete resource record.
struct ResourceRecord {
  Name name;
  RType type = RType::kA;
  RClass rclass = RClass::kIN;
  std::uint32_t ttl = 0;
  Rdata rdata = RawRdata{};

  /// Convenience constructors for the common cases.
  static ResourceRecord a(const Name& name, std::string_view addr,
                          std::uint32_t ttl = 300);
  static ResourceRecord cname(const Name& name, const Name& target,
                              std::uint32_t ttl = 300);
  static ResourceRecord txt(const Name& name, std::string_view text,
                            std::uint32_t ttl = 300);
  static ResourceRecord caa(const Name& name, std::uint8_t flags,
                            std::string_view tag, std::string_view value,
                            std::uint32_t ttl = 300);
  static ResourceRecord opt(std::uint16_t udp_payload_size = 4096,
                            bool dnssec_ok = false);

  /// Wire-encode with name compression via the shared compressor.
  void encode(ByteWriter& w, NameCompressor& compressor) const;
  /// Octets encode() writes at most: every name in full.
  std::size_t max_wire_size() const noexcept;

  /// Decode one record at the reader's position.
  static ResourceRecord decode(ByteReader& r);

  /// Presentation form roughly like a zone-file line.
  std::string to_string() const;

  bool operator==(const ResourceRecord&) const = default;
};

}  // namespace dohperf::dns
