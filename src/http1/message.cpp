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

/// Each header's name and value lengths, ahead of their bytes.
constexpr std::size_t kLengthBytes = 2 * sizeof(std::uint32_t);
/// The first buffer of a list built by add(): room for a browser's request
/// headers or an origin's response headers.
constexpr std::size_t kFirstBufferBytes = 128;

std::uint32_t load_u32(const char* at) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, at, sizeof v);
  return v;
}

void store_u32(char* at, std::size_t v) noexcept {
  const auto narrow = static_cast<std::uint32_t>(v);
  std::memcpy(at, &narrow, sizeof narrow);
}

/// Append one header to `out`, which has room for it.
void append_entry(std::string& out, std::string_view name,
                  std::string_view value) {
  const std::size_t at = out.size();
  out.resize(at + kLengthBytes);
  store_u32(out.data() + at, name.size());
  store_u32(out.data() + at + 4, value.size());
  out.append(name);
  out.append(value);
}

}  // namespace

HeaderMap::Entry HeaderMap::Iterator::operator*() const noexcept {
  const std::uint32_t name_size = load_u32(at_);
  const char* name = at_ + kLengthBytes;
  return {{name, name_size}, {name + name_size, load_u32(at_ + 4)}};
}

HeaderMap::Iterator& HeaderMap::Iterator::operator++() noexcept {
  at_ += kLengthBytes + load_u32(at_) + load_u32(at_ + 4);
  return *this;
}

void HeaderMap::add(std::string_view name, std::string_view value) {
  const std::size_t needed =
      buffer_.size() + kLengthBytes + name.size() + value.size();
  if (needed <= buffer_.capacity()) {
    append_entry(buffer_, name, value);
  } else {
    // Fill the grown buffer before letting go of this one: `name` or
    // `value` may view it.
    std::string grown;
    grown.reserve(
        std::max({needed, 2 * buffer_.capacity(), kFirstBufferBytes}));
    grown.append(buffer_);
    append_entry(grown, name, value);
    buffer_.swap(grown);
  }
  ++count_;
}

void HeaderMap::set(std::string_view name, std::string_view value) {
  const Iterator it = find(name);
  if (it == end()) {
    add(name, value);
    return;
  }
  const std::size_t entry = static_cast<std::size_t>(it.at_ - buffer_.data());
  const std::string_view old = (*it).value;
  const auto at = static_cast<std::size_t>(old.data() - buffer_.data());
  buffer_.replace(at, old.size(), value);
  store_u32(buffer_.data() + entry + 4, value.size());
}

void HeaderMap::reserve(std::size_t count, std::size_t text_bytes) {
  buffer_.reserve(buffer_.size() + count * kLengthBytes + text_bytes);
}

HeaderMap::Iterator HeaderMap::find(std::string_view name) const {
  for (Iterator it = begin(); it != end(); ++it) {
    if (iequals((*it).name, name)) return it;
  }
  return end();
}

std::optional<std::string> HeaderMap::get(std::string_view name) const {
  const Iterator it = find(name);
  if (it == end()) return std::nullopt;
  return std::string((*it).value);
}

namespace {

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

/// Hand `msg`'s head to `emit(std::string_view)` piece by piece: the start
/// line, the headers and the blank line. A non-empty `content_length` is
/// written where HeaderMap::set would put it: as the value of the first
/// Content-Length header, else as a new last header.
template <typename Message, typename Emit>
void emit_head(const Message& msg, std::string_view content_length,
               Emit&& emit) {
  constexpr std::string_view kContentLength = "Content-Length";
  char digits[16] = {};
  for (const std::string_view part : start_line(msg, digits)) emit(part);
  emit("\r\n");
  bool placed = content_length.empty();
  for (const auto [name, value] : msg.headers) {
    const bool replaced = !placed && iequals(name, kContentLength);
    placed = placed || replaced;
    emit(name);
    emit(": ");
    emit(replaced ? content_length : value);
    emit("\r\n");
  }
  if (!placed) {
    emit(kContentLength);
    emit(": ");
    emit(content_length);
    emit("\r\n");
  }
  emit("\r\n");
}

template <typename Message>
std::size_t head_size(const Message& msg, std::string_view content_length) {
  std::size_t size = 0;
  emit_head(msg, content_length, [&](std::string_view s) { size += s.size(); });
  return size;
}

/// Write `msg`'s head at `out`, which has room for head_size bytes; returns
/// the end of what was written.
template <typename Message>
std::uint8_t* write_head(std::uint8_t* out, const Message& msg,
                         std::string_view content_length) {
  emit_head(msg, content_length, [&](std::string_view s) {
    if (!s.empty()) std::memcpy(out, s.data(), s.size());
    out += s.size();
  });
  return out;
}

/// The Content-Length `serialize` sets, formatted into `digits`: the body's
/// size whenever there is a body or a Content-Type, else none.
template <typename Message>
std::string_view content_length(const Message& msg,
                                std::span<char, 24> digits) {
  if (msg.body.empty() && !msg.headers.has("content-type")) return {};
  const char* end =
      std::to_chars(digits.data(), digits.data() + digits.size(),
                    msg.body.size())
          .ptr;
  return {digits.data(), static_cast<std::size_t>(end - digits.data())};
}

/// Lay `msg` out as serialize does — its head, then its body when
/// `with_body` — and return `write(size, fill)`, where `fill(out)` writes
/// those `size` bytes at `out`.
template <typename Message, typename Write>
auto serialize_with(const Message& msg, bool with_body, WireSizes* sizes,
                    Write&& write) {
  char digits[24] = {};
  const std::string_view length = content_length(msg, digits);
  const std::size_t head = head_size(msg, length);
  if (sizes != nullptr) {
    sizes->header_bytes = head;
    sizes->body_bytes = msg.body.size();
  }
  const std::size_t body = with_body ? msg.body.size() : 0;
  return write(head + body, [&](std::uint8_t* out) {
    out = write_head(out, msg, length);
    if (body > 0) std::memcpy(out, msg.body.data(), body);
  });
}

/// A `write` for serialize_with that returns a fresh buffer.
constexpr auto new_buffer = [](std::size_t size, auto&& fill) {
  Bytes out(size);
  fill(out.data());
  return out;
};

/// A `write` for serialize_with that appends to `slab`.
auto into(simnet::ByteSlab& slab) {
  return [&slab](std::size_t size, auto&& fill) {
    return slab.write(size, fill);
  };
}

}  // namespace

Bytes serialize(const Request& request, WireSizes* sizes) {
  return serialize_with(request, true, sizes, new_buffer);
}

Bytes serialize(const Response& response, WireSizes* sizes) {
  return serialize_with(response, true, sizes, new_buffer);
}

BufferSlice serialize(simnet::ByteSlab& slab, const Request& request,
                      WireSizes* sizes) {
  return serialize_with(request, true, sizes, into(slab));
}

Bytes serialize_head(const Response& response, WireSizes* sizes) {
  return serialize_with(response, false, sizes, new_buffer);
}

BufferSlice serialize_head(simnet::ByteSlab& slab, const Response& response,
                           WireSizes* sizes) {
  return serialize_with(response, false, sizes, into(slab));
}

Bytes serialize_chunked(const Response& response, std::size_t chunk_size,
                        WireSizes* sizes) {
  Response msg = response;
  msg.headers.set("Transfer-Encoding", "chunked");
  Bytes out(head_size(msg, {}));
  write_head(out.data(), msg, {});
  const std::size_t head_bytes = out.size();
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
    sizes->header_bytes = head_bytes;
    sizes->body_bytes = out.size() - head_bytes;
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

/// The blank line that ends a head.
constexpr std::string_view kBlankLine = "\r\n\r\n";

std::string_view chars(const BufferSlice& bytes) noexcept {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

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

void Parser::feed(const BufferSlice& data) {
  if (error_) return;
  // A slice fed before the last one was parsed through: what is left of
  // that one joins the bytes held back.
  hold_rest();
  rest_ = data;
}

void Parser::hold_rest() {
  buffer_.append(chars(rest_));
  rest_ = {};
}

std::size_t Parser::head_length() const {
  const std::string_view held = buffer_;
  const std::string_view fed = chars(rest_);
  if (const std::size_t at = held.find(kBlankLine); at != held.npos) {
    return at + kBlankLine.size();
  }
  // The blank line may start in the last three bytes held.
  for (std::size_t k = std::min<std::size_t>(3, held.size()); k > 0; --k) {
    if (held.ends_with(kBlankLine.substr(0, k)) &&
        fed.starts_with(kBlankLine.substr(k))) {
      return held.size() + kBlankLine.size() - k;
    }
  }
  const std::size_t at = fed.find(kBlankLine);
  return at == fed.npos ? fed.npos : held.size() + at + kBlankLine.size();
}

bool Parser::parse_head() {
  const std::size_t length = head_length();
  if (length == std::string_view::npos) {
    hold_rest();  // a partial head, until the rest of it arrives
    return false;
  }
  head_bytes_ = length;
  const bool held = !buffer_.empty();
  if (held && length > buffer_.size()) {
    const std::size_t from_rest = length - buffer_.size();
    buffer_.append(chars(rest_).substr(0, from_rest));
    consume_rest(from_rest);
  }
  const std::string_view text = held ? std::string_view(buffer_)
                                     : chars(rest_);
  if (!parse_head_text(text.substr(0, length - kBlankLine.size()))) {
    return false;
  }
  if (held) {
    consume_buffer(length);
  } else {
    consume_rest(length);
  }
  head_done_ = true;
  return true;
}

bool Parser::parse_head_text(std::string_view head) {
  std::string_view line;
  if (!next_line(head, line)) return fail();

  // Start line.
  if (mode_ == Mode::kRequest) {
    pending_request_ = Request{};
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 = line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
      return fail();
    }
    pending_request_.method = line.substr(0, sp1);
    pending_request_.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  } else {
    pending_response_ = Response{};
    // "HTTP/1.1 200 OK"
    const std::size_t sp1 = line.find(' ');
    if (sp1 == std::string_view::npos) return fail();
    const std::size_t sp2 = line.find(' ', sp1 + 1);
    const std::string_view code = line.substr(
        sp1 + 1,
        sp2 == std::string_view::npos ? std::string_view::npos : sp2 - sp1 - 1);
    int status = 0;
    const auto [p, ec] =
        std::from_chars(code.data(), code.data() + code.size(), status);
    if (ec != std::errc{} || p != code.data() + code.size()) return fail();
    pending_response_.status = status;
    pending_response_.reason =
        sp2 == std::string_view::npos ? "" : line.substr(sp2 + 1);
  }

  // Headers.
  HeaderMap& headers = mode_ == Mode::kRequest ? pending_request_.headers
                                               : pending_response_.headers;
  // The header lines' text bounds the names and values they hold.
  const auto lines = std::count(head.begin(), head.end(), '\n');
  headers.reserve(static_cast<std::size_t>(lines) + 1, head.size());
  content_length_ = 0;
  while (next_line(head, line)) {
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return fail();
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
        return fail();
      }
      content_length_ = len;
    }
    headers.add(name, value);
  }
  return true;
}

void Parser::gather(std::span<const std::uint8_t> bytes) {
  // The first piece sizes the block from the declared length.
  if (body_.size() == 0) {
    body_.reserve(std::min(content_length_, kMaxBodyReserve));
  }
  body_.append(bytes);
}

bool Parser::take_body() {
  if (content_length_ == 0) {
    set_body({});
    return true;
  }
  // Body bytes held back (after a chunked message) come first.
  const std::size_t held =
      std::min(content_length_ - body_.size(), buffer_.size());
  if (held > 0) {
    gather(std::span(reinterpret_cast<const std::uint8_t*>(buffer_.data()),
                     held));
    consume_buffer(held);
  }
  if (body_.size() == 0 && rest_.size() >= content_length_) {
    // The whole body lies in the fed slice: it leaves as a window of it.
    set_body(rest_.subslice(0, content_length_));
    consume_rest(content_length_);
    return true;
  }
  const std::size_t fed =
      std::min(content_length_ - body_.size(), rest_.size());
  if (fed > 0) {
    gather(rest_.span().first(fed));
    consume_rest(fed);
  }
  if (body_.size() < content_length_) return false;
  set_body(body_.take(content_length_));
  body_.release();
  return true;
}

bool Parser::try_extract_chunked() {
  // RFC 7230 §4.1 framing: hex size CRLF, chunk CRLF, ..., 0 CRLF CRLF.
  hold_rest();
  std::size_t pos = chunk_wire_bytes_;
  for (;;) {
    const std::size_t line_end = buffer_.find("\r\n", pos);
    if (line_end == std::string::npos) return false;
    std::size_t chunk_len = 0;
    const auto [p, ec] = std::from_chars(
        buffer_.data() + pos, buffer_.data() + line_end, chunk_len, 16);
    if (ec != std::errc{} || p == buffer_.data() + pos) return fail();
    if (chunk_len == 0) {
      // Terminator: expect the final CRLF (no trailers supported).
      if (buffer_.size() < line_end + 4) return false;
      if (buffer_.compare(line_end, 4, "\r\n\r\n") != 0) return fail();
      const std::size_t total = line_end + 4;
      last_sizes_.header_bytes = head_bytes_;
      last_sizes_.body_bytes = total;
      consume_buffer(total);
      chunked_ = false;
      chunk_wire_bytes_ = 0;
      set_body(body_.take(body_.size()));
      body_.release();
      return true;
    }
    const std::size_t data_start = line_end + 2;
    if (buffer_.size() - data_start < chunk_len ||
        buffer_.size() - data_start - chunk_len < 2) {
      return false;
    }
    body_.append(std::span(
        reinterpret_cast<const std::uint8_t*>(buffer_.data() + data_start),
        chunk_len));
    pos = data_start + chunk_len + 2;  // skip chunk + CRLF
    chunk_wire_bytes_ = pos;
  }
}

void Parser::set_body(BufferSlice body) {
  if (mode_ == Mode::kRequest) {
    pending_request_.body = body.to_bytes();
  } else {
    pending_response_.body = std::move(body);
  }
}

void Parser::consume_buffer(std::size_t n) {
  buffer_.erase(0, n);
  if (buffer_.empty()) std::string().swap(buffer_);
}

void Parser::consume_rest(std::size_t n) noexcept {
  // An empty window would still hold the slice's storage.
  rest_ = n < rest_.size() ? rest_.subslice(n) : BufferSlice();
}

bool Parser::fail() noexcept {
  // Nothing more is parsed: hold on to nothing.
  error_ = true;
  rest_ = {};
  std::string().swap(buffer_);
  body_.release();
  return false;
}

bool Parser::try_extract() {
  if (error_ || have_message_) return have_message_;
  if (!head_done_ && !parse_head()) return false;
  if (chunked_) {
    if (!try_extract_chunked()) return false;
  } else {
    if (!take_body()) return false;
    last_sizes_.header_bytes = head_bytes_;
    last_sizes_.body_bytes = content_length_;
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
