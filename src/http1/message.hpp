// HTTP/1.1 requests and responses: header containers, serialization and an
// incremental parser (messages arrive in arbitrary TCP chunks).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "dns/wire.hpp"
#include "simnet/buffer.hpp"

namespace dohperf::http1 {

using dns::Bytes;
using simnet::BufferSlice;

/// Ordered header list with case-insensitive lookup (header order matters
/// for byte-accurate serialization). The whole list lives in one buffer:
/// for each header in order, the lengths of its name and value, then their
/// bytes. Iterating yields (name, value) views into it.
class HeaderMap {
 public:
  struct Entry {
    std::string_view name;
    std::string_view value;
  };

  /// Walks the headers in order, for range-for.
  class Iterator {
   public:
    Entry operator*() const noexcept;
    Iterator& operator++() noexcept;
    bool operator==(const Iterator&) const noexcept = default;

   private:
    friend class HeaderMap;
    explicit Iterator(const char* at) noexcept : at_(at) {}
    const char* at_ = nullptr;
  };

  void add(std::string_view name, std::string_view value);
  /// Replace the value of the first occurrence (keeping its name), or add.
  void set(std::string_view name, std::string_view value);
  std::optional<std::string> get(std::string_view name) const;
  bool has(std::string_view name) const { return find(name) != end(); }
  std::size_t size() const noexcept { return count_; }
  /// Make room for headers whose names and values take `text_bytes` bytes
  /// in all, `count` headers in all.
  void reserve(std::size_t count, std::size_t text_bytes);

  Iterator begin() const noexcept { return Iterator(buffer_.data()); }
  Iterator end() const noexcept {
    return Iterator(buffer_.data() + buffer_.size());
  }

 private:
  Iterator find(std::string_view name) const;

  std::string buffer_;
  std::size_t count_ = 0;
};

struct Request {
  std::string method = "GET";
  std::string target = "/";
  HeaderMap headers;
  Bytes body;
};

struct Response {
  int status = 200;
  std::string reason = "OK";
  HeaderMap headers;
  /// A view of the body's bytes, never a copy: an origin serves windows of
  /// one shared buffer, and the server sends the slice as it is.
  BufferSlice body;
};

/// Byte sizes of the serialized parts — the paper's Fig 5 separates header
/// bytes from body bytes.
struct WireSizes {
  std::size_t header_bytes = 0;
  std::size_t body_bytes = 0;
};

/// Serialize with Content-Length set from the body.
Bytes serialize(const Request& request, WireSizes* sizes = nullptr);
Bytes serialize(const Response& response, WireSizes* sizes = nullptr);
/// The same bytes as serialize(request), written once into `slab`.
BufferSlice serialize(simnet::ByteSlab& slab, const Request& request,
                      WireSizes* sizes = nullptr);

/// The head `serialize` starts with (start line, headers with
/// Content-Length set from the body, blank line): sending it and then the
/// body puts the same bytes on the wire without copying the body.
Bytes serialize_head(const Response& response, WireSizes* sizes = nullptr);
/// The same bytes as serialize_head(response), written once into `slab`.
BufferSlice serialize_head(simnet::ByteSlab& slab, const Response& response,
                           WireSizes* sizes = nullptr);

/// Serialize a response with "Transfer-Encoding: chunked", splitting the
/// body into `chunk_size`-byte chunks (used by origin servers that stream
/// documents of unknown length).
Bytes serialize_chunked(const Response& response, std::size_t chunk_size,
                        WireSizes* sizes = nullptr);

/// Incremental parser: feed() bytes, poll for complete messages.
/// Parses either requests or responses depending on `Mode`. A head is
/// parsed where it lies in the fed slice, and a Content-Length body that
/// lies inside one fed slice leaves as a window of it; only a head split
/// across feeds, chunked framing and a body spanning feeds are copied.
class Parser {
 public:
  enum class Mode { kRequest, kResponse };

  explicit Parser(Mode mode) : mode_(mode) {}

  /// Take the next bytes of the stream. The parser holds the slice until
  /// they are parsed, and a response body that lies inside it stays a
  /// window of it: keeping that body keeps the slice's storage alive.
  void feed(const BufferSlice& data);

  /// Extract the next complete request, if any. Mode must be kRequest.
  std::optional<Request> next_request();
  /// Extract the next complete response, if any. Mode must be kResponse.
  std::optional<Response> next_response();

  /// Wire size of the head/body of the last message extracted.
  const WireSizes& last_sizes() const noexcept { return last_sizes_; }

  /// True if the parser met malformed input; the connection should close.
  bool error() const noexcept { return error_; }

 private:
  /// Length of the head at the front of the unparsed bytes, blank line
  /// included, or npos while it is incomplete.
  std::size_t head_length() const;
  bool parse_head();
  bool parse_head_text(std::string_view head);
  /// The Content-Length body, as a window of rest_ when it lies there
  /// whole, else gathered into body_.
  bool take_body();
  bool try_extract_chunked();
  bool try_extract();
  /// Append `bytes` to the body gathering in body_.
  void gather(std::span<const std::uint8_t> bytes);
  void set_body(BufferSlice body);
  /// Move what is left of rest_ to the end of buffer_.
  void hold_rest();
  /// Drop the first `n` bytes of buffer_ / rest_.
  void consume_buffer(std::size_t n);
  void consume_rest(std::size_t n) noexcept;
  bool fail() noexcept;

  Mode mode_;
  bool error_ = false;
  // In-progress message state.
  bool head_done_ = false;
  bool chunked_ = false;
  bool have_message_ = false;
  /// The unparsed bytes are buffer_ followed by rest_. buffer_ holds a head
  /// split across feeds, chunked framing and what follows a chunked
  /// message; it lets go of its capacity whenever it empties.
  std::string buffer_;
  /// What is left of the fed slice.
  BufferSlice rest_;
  /// A body that spans feeds, or a de-chunked body, gathered in one block.
  simnet::ByteQueue body_;
  std::size_t head_bytes_ = 0;
  std::size_t content_length_ = 0;
  std::size_t chunk_wire_bytes_ = 0;  ///< raw chunked framing consumed
  Request pending_request_;
  Response pending_response_;
  WireSizes last_sizes_;
};

}  // namespace dohperf::http1
