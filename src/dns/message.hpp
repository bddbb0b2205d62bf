// DNS messages (RFC 1035 §4.1): header, question and the four record
// sections, with full encode/decode including name compression and EDNS0.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dns/record.hpp"

namespace dohperf::dns {

/// Header flags (RFC 1035 §4.1.1).
struct Flags {
  bool qr = false;  ///< response
  Opcode opcode = Opcode::kQuery;
  bool aa = false;  ///< authoritative answer
  bool tc = false;  ///< truncated
  bool rd = true;   ///< recursion desired
  bool ra = false;  ///< recursion available
  bool ad = false;  ///< authentic data (DNSSEC)
  bool cd = false;  ///< checking disabled
  Rcode rcode = Rcode::kNoError;

  std::uint16_t encode() const noexcept;
  static Flags decode(std::uint16_t raw) noexcept;
  bool operator==(const Flags&) const = default;
};

struct Question {
  Name qname;
  RType qtype = RType::kA;
  RClass qclass = RClass::kIN;
  bool operator==(const Question&) const = default;
};

/// A complete DNS message.
class Message {
 public:
  std::uint16_t id = 0;
  Flags flags;
  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authorities;
  std::vector<ResourceRecord> additionals;

  /// Build a standard recursive query for (`name`, `type`) with EDNS0.
  static Message make_query(std::uint16_t id, const Name& name,
                            RType type = RType::kA);

  /// Build a NOERROR response to `query` answering with `answers`.
  static Message make_response(const Message& query,
                               std::vector<ResourceRecord> answers);

  /// Build an error response with the given rcode.
  static Message make_error(const Message& query, Rcode rcode);

  /// Wire-encode the message.  When `compress` is true (default), names in
  /// all sections share a compression context as real servers do.
  Bytes encode(bool compress = true) const;

  /// Wire-encode the message behind its two-byte length, in one buffer:
  /// the framing of DNS over TCP, TLS and QUIC (see dns::next_frame).
  Bytes encode_framed() const;

  /// Decode a message; throws WireError on malformed input.
  static Message decode(std::span<const std::uint8_t> wire);

  /// The message's EDNS0 OPT pseudo-record, if present in additionals.
  const ResourceRecord* edns() const noexcept;

  /// Append an EDNS0 padding option (RFC 7830) so the encoded message is a
  /// multiple of `block` octets. Requires an OPT record to be present.
  void pad_to_multiple(std::size_t block);

  std::string to_string() const;

  bool operator==(const Message&) const = default;

 private:
  /// encode(), behind `prefix` bytes that hold the message's length.
  Bytes encode(bool compress, std::size_t prefix) const;
};

}  // namespace dohperf::dns
