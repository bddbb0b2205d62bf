#include "http1/message.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <utility>

namespace dohperf::http1 {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

void HeaderMap::add(std::string name, std::string value) {
  entries_.emplace_back(std::move(name), std::move(value));
}

void HeaderMap::set(std::string name, std::string value) {
  for (auto& [n, v] : entries_) {
    if (iequals(n, name)) {
      v = std::move(value);
      return;
    }
  }
  add(std::move(name), std::move(value));
}

const std::string* HeaderMap::find(std::string_view name) const {
  for (const auto& [n, v] : entries_) {
    if (iequals(n, name)) return &v;
  }
  return nullptr;
}

std::optional<std::string> HeaderMap::get(std::string_view name) const {
  const std::string* value = find(name);
  if (value == nullptr) return std::nullopt;
  return *value;
}

namespace {

void append(Bytes& out, std::string_view s) {
  out.insert(out.end(), s.begin(), s.end());
}

/// A start line in pieces: "GET /o/1 HTTP/1.1", "HTTP/1.1 200 OK". A
/// response's status is formatted into `digits`.
using StartLine = std::array<std::string_view, 4>;
StartLine start_line(const Request& r, std::span<char, 16>) {
  return {r.method, " ", r.target, " HTTP/1.1"};
}
StartLine start_line(const Response& r, std::span<char, 16> digits) {
  const char* end =
      std::to_chars(digits.data(), digits.data() + digits.size(), r.status)
          .ptr;
  return {"HTTP/1.1 ",
          {digits.data(), static_cast<std::size_t>(end - digits.data())},
          " ", r.reason};
}

/// Write `msg`'s start line, then `headers` and the blank line. `extra` is
/// room reserved after the head, for a body to follow. A non-empty
/// `content_length` is written where HeaderMap::set would put it: as the
/// value of the first Content-Length header, else as a new last header.
template <typename Message>
Bytes write_head(const Message& msg, const HeaderMap& headers,
                 std::size_t extra = 0,
                 std::string_view content_length = {}) {
  constexpr std::string_view kContentLength = "Content-Length";
  char digits[16];
  const StartLine start = start_line(msg, digits);
  const auto& entries = headers.entries();
  std::size_t replaced = entries.size();
  if (!content_length.empty()) {
    const auto it = std::find_if(entries.begin(), entries.end(),
                                 [&](const auto& entry) {
                                   return iequals(entry.first, kContentLength);
                                 });
    replaced = static_cast<std::size_t>(it - entries.begin());
  }
  const bool added = !content_length.empty() && replaced == entries.size();
  const auto value = [&](std::size_t i) -> std::string_view {
    return i == replaced ? content_length : std::string_view(entries[i].second);
  };

  std::size_t size = 4 + extra;
  for (const std::string_view part : start) size += part.size();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    size += entries[i].first.size() + value(i).size() + 4;
  }
  if (added) size += kContentLength.size() + content_length.size() + 4;
  Bytes out;
  out.reserve(size);
  const auto header = [&](std::string_view name, std::string_view v) {
    append(out, name);
    append(out, ": ");
    append(out, v);
    append(out, "\r\n");
  };
  for (const std::string_view part : start) append(out, part);
  append(out, "\r\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    header(entries[i].first, value(i));
  }
  if (added) header(kContentLength, content_length);
  append(out, "\r\n");
  return out;
}

/// The head `serialize` writes: Content-Length set from the body whenever
/// there is a body or a Content-Type.
template <typename Message>
Bytes serialize_head_impl(const Message& msg, WireSizes* sizes,
                          std::size_t extra) {
  char length[24] = {};
  std::string_view content_length;
  if (!msg.body.empty() || msg.headers.has("content-type")) {
    const char* end =
        std::to_chars(length, length + sizeof length, msg.body.size()).ptr;
    content_length = {length, static_cast<std::size_t>(end - length)};
  }
  Bytes head = write_head(msg, msg.headers, extra, content_length);
  if (sizes != nullptr) {
    sizes->header_bytes = head.size();
    sizes->body_bytes = msg.body.size();
  }
  return head;
}

template <typename Message>
Bytes serialize_impl(const Message& msg, WireSizes* sizes) {
  Bytes out = serialize_head_impl(msg, sizes, msg.body.size());
  out.insert(out.end(), msg.body.begin(), msg.body.end());
  return out;
}

}  // namespace

Bytes serialize(const Request& request, WireSizes* sizes) {
  return serialize_impl(request, sizes);
}

Bytes serialize(const Response& response, WireSizes* sizes) {
  return serialize_impl(response, sizes);
}

Bytes serialize_head(const Response& response, WireSizes* sizes) {
  return serialize_head_impl(response, sizes, 0);
}

Bytes serialize_chunked(const Response& response, std::size_t chunk_size,
                        WireSizes* sizes) {
  Response msg = response;
  msg.headers.set("Transfer-Encoding", "chunked");
  Bytes out = write_head(msg, msg.headers);
  const std::size_t head_size = out.size();
  std::size_t offset = 0;
  char size_line[32];
  while (offset < msg.body.size()) {
    const std::size_t n = std::min(chunk_size, msg.body.size() - offset);
    std::snprintf(size_line, sizeof size_line, "%zx\r\n", n);
    out.insert(out.end(), size_line, size_line + std::strlen(size_line));
    out.insert(out.end(), msg.body.begin() + offset,
               msg.body.begin() + offset + n);
    out.push_back('\r');
    out.push_back('\n');
    offset += n;
  }
  const char* terminator = "0\r\n\r\n";
  out.insert(out.end(), terminator, terminator + 5);
  if (sizes != nullptr) {
    sizes->header_bytes = head_size;
    sizes->body_bytes = out.size() - head_size;
  }
  return out;
}

namespace {

/// Bodies travel as BufferSlices, whose window is 32 bits wide; a longer
/// Content-Length is malformed input, not a size to add or allocate.
constexpr std::size_t kMaxContentLength = UINT32_MAX;
/// The most a Content-Length header alone reserves: a peer that declares a
/// huge body gets its buffer grown only as the bytes actually arrive.
constexpr std::size_t kMaxBodyReserve = std::size_t{1} << 20;

/// Split off the next line of `text` by std::getline's rules: lines end at
/// '\n', a final line needs none, and no line follows a trailing '\n'. One
/// trailing '\r' is dropped, as HTTP's CRLF requires.
bool next_line(std::string_view& text, std::string_view& line) {
  if (text.empty()) return false;
  const std::size_t nl = text.find('\n');
  line = text.substr(0, nl);
  text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return true;
}

}  // namespace

void Parser::feed(std::span<const std::uint8_t> data) {
  if (head_done_ && !chunked_) {
    // Mid-body (buffer_ is empty here): copy straight into the message.
    const std::size_t take =
        std::min(content_length_ - body_.size(), data.size());
    body_.insert(body_.end(), data.begin(), data.begin() + take);
    data = data.subspan(take);
  }
  buffer_.append(reinterpret_cast<const char*>(data.data()), data.size());
}

bool Parser::parse_head() {
  const std::size_t end = buffer_.find("\r\n\r\n");
  if (end == std::string::npos) return false;
  head_bytes_ = end + 4;

  std::string_view head(buffer_.data(), end);
  std::string_view line;
  if (!next_line(head, line)) {
    error_ = true;
    return false;
  }

  // Start line.
  if (mode_ == Mode::kRequest) {
    pending_request_ = Request{};
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 = line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
      error_ = true;
      return false;
    }
    pending_request_.method = line.substr(0, sp1);
    pending_request_.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  } else {
    pending_response_ = Response{};
    // "HTTP/1.1 200 OK"
    const std::size_t sp1 = line.find(' ');
    if (sp1 == std::string_view::npos) {
      error_ = true;
      return false;
    }
    const std::size_t sp2 = line.find(' ', sp1 + 1);
    const std::string_view code = line.substr(
        sp1 + 1,
        sp2 == std::string_view::npos ? std::string_view::npos : sp2 - sp1 - 1);
    int status = 0;
    const auto [p, ec] =
        std::from_chars(code.data(), code.data() + code.size(), status);
    if (ec != std::errc{} || p != code.data() + code.size()) {
      error_ = true;
      return false;
    }
    pending_response_.status = status;
    pending_response_.reason =
        sp2 == std::string_view::npos ? "" : line.substr(sp2 + 1);
  }

  // Headers.
  HeaderMap& headers = mode_ == Mode::kRequest ? pending_request_.headers
                                               : pending_response_.headers;
  const auto lines = std::count(head.begin(), head.end(), '\n');
  headers.reserve(static_cast<std::size_t>(lines) + 1);
  content_length_ = 0;
  while (next_line(head, line)) {
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      error_ = true;
      return false;
    }
    const std::string_view name = line.substr(0, colon);
    const std::string_view value = trim(line.substr(colon + 1));
    if (iequals(name, "transfer-encoding") && iequals(value, "chunked")) {
      chunked_ = true;
    }
    if (iequals(name, "content-length")) {
      std::size_t len = 0;
      const auto [p, ec] =
          std::from_chars(value.data(), value.data() + value.size(), len);
      if (ec != std::errc{} || p != value.data() + value.size() ||
          len > kMaxContentLength) {
        error_ = true;
        return false;
      }
      content_length_ = len;
    }
    headers.add(std::string(name), std::string(value));
  }
  head_done_ = true;
  return true;
}

void Parser::append_body(const char* data, std::size_t size) {
  // The buffer holds chars and the body bytes: inserting the chars would
  // convert them one at a time, inserting the same bytes as bytes is one
  // memmove.
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(data);
  body_.insert(body_.end(), bytes, bytes + size);
}

bool Parser::try_extract_chunked() {
  // RFC 7230 §4.1 framing: hex size CRLF, chunk CRLF, ..., 0 CRLF CRLF.
  std::size_t pos = chunk_wire_bytes_;
  for (;;) {
    const std::size_t line_end = buffer_.find("\r\n", pos);
    if (line_end == std::string::npos) return false;
    std::size_t chunk_len = 0;
    const auto [p, ec] = std::from_chars(
        buffer_.data() + pos, buffer_.data() + line_end, chunk_len, 16);
    if (ec != std::errc{} || p == buffer_.data() + pos) {
      error_ = true;
      return false;
    }
    if (chunk_len == 0) {
      // Terminator: expect the final CRLF (no trailers supported).
      if (buffer_.size() < line_end + 4) return false;
      if (buffer_.compare(line_end, 4, "\r\n\r\n") != 0) {
        error_ = true;
        return false;
      }
      const std::size_t total = line_end + 4;
      last_sizes_.header_bytes = head_bytes_;
      last_sizes_.body_bytes = total;
      buffer_.erase(0, total);
      chunked_ = false;
      chunk_wire_bytes_ = 0;
      return true;
    }
    const std::size_t data_start = line_end + 2;
    if (buffer_.size() - data_start < chunk_len ||
        buffer_.size() - data_start - chunk_len < 2) {
      return false;
    }
    append_body(buffer_.data() + data_start, chunk_len);
    pos = data_start + chunk_len + 2;  // skip chunk + CRLF
    chunk_wire_bytes_ = pos;
  }
}

bool Parser::try_extract() {
  if (error_ || have_message_) return have_message_;
  if (!head_done_) {
    if (!parse_head()) return false;
    buffer_.erase(0, head_bytes_);
    if (!chunked_) {
      // The body so far moves from buffer_ to body_; feed() appends the
      // rest there directly.
      const std::size_t take = std::min(content_length_, buffer_.size());
      body_.reserve(std::min(content_length_,
                             std::max(take, kMaxBodyReserve)));
      append_body(buffer_.data(), take);
      buffer_.erase(0, take);
    }
  }
  if (chunked_) {
    if (!try_extract_chunked()) return false;
  } else {
    if (body_.size() < content_length_) return false;
    last_sizes_.header_bytes = head_bytes_;
    last_sizes_.body_bytes = content_length_;
  }
  if (mode_ == Mode::kRequest) {
    pending_request_.body = std::exchange(body_, {});
  } else if (!body_.empty()) {
    pending_response_.body = BufferSlice(std::exchange(body_, {}));
  }
  head_done_ = false;
  have_message_ = true;
  return true;
}

std::optional<Request> Parser::next_request() {
  if (!try_extract()) return std::nullopt;
  have_message_ = false;
  return std::move(pending_request_);
}

std::optional<Response> Parser::next_response() {
  if (!try_extract()) return std::nullopt;
  have_message_ = false;
  return std::move(pending_response_);
}

}  // namespace dohperf::http1
