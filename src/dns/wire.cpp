#include "dns/wire.hpp"

namespace dohperf::dns {

void ByteReader::require(std::size_t n) const {
  if (remaining() < n) {
    throw WireError("truncated message: need " + std::to_string(n) +
                    " bytes at offset " + std::to_string(offset_) +
                    ", have " + std::to_string(remaining()));
  }
}

std::uint8_t ByteReader::u8() {
  require(1);
  return data_[offset_++];
}

std::uint16_t ByteReader::u16() {
  require(2);
  const std::uint16_t v = static_cast<std::uint16_t>(data_[offset_] << 8) |
                          data_[offset_ + 1];
  offset_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  require(4);
  const std::uint32_t v = (static_cast<std::uint32_t>(data_[offset_]) << 24) |
                          (static_cast<std::uint32_t>(data_[offset_ + 1]) << 16) |
                          (static_cast<std::uint32_t>(data_[offset_ + 2]) << 8) |
                          static_cast<std::uint32_t>(data_[offset_ + 3]);
  offset_ += 4;
  return v;
}

std::span<const std::uint8_t> ByteReader::view(std::size_t n) {
  require(n);
  const auto out = data_.subspan(offset_, n);
  offset_ += n;
  return out;
}

Bytes ByteReader::bytes(std::size_t n) {
  const auto in = view(n);
  return Bytes(in.begin(), in.end());
}

std::string ByteReader::string(std::size_t n) { return to_string(view(n)); }

std::uint8_t ByteReader::peek_at(std::size_t pos) const {
  if (pos >= data_.size()) throw WireError("peek past end");
  return data_[pos];
}

void ByteReader::seek(std::size_t pos) {
  if (pos > data_.size()) throw WireError("seek past end");
  offset_ = pos;
}

void ByteReader::skip(std::size_t n) {
  require(n);
  offset_ += n;
}

void ByteWriter::u8(std::uint8_t v) { out_.push_back(v); }

void ByteWriter::u16(std::uint16_t v) {
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
  out_.push_back(static_cast<std::uint8_t>(v & 0xff));
}

void ByteWriter::u32(std::uint32_t v) {
  out_.push_back(static_cast<std::uint8_t>(v >> 24));
  out_.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out_.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out_.push_back(static_cast<std::uint8_t>(v & 0xff));
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  out_.insert(out_.end(), data.begin(), data.end());
}

void ByteWriter::string(std::string_view s) {
  out_.insert(out_.end(), s.begin(), s.end());
}

void ByteWriter::zeros(std::size_t n) { out_.resize(out_.size() + n); }

void ByteWriter::patch_u16(std::size_t pos, std::uint16_t v) {
  if (pos + 2 > out_.size()) throw WireError("patch_u16 out of range");
  out_[pos] = static_cast<std::uint8_t>(v >> 8);
  out_[pos + 1] = static_cast<std::uint8_t>(v & 0xff);
}

Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string to_string(std::span<const std::uint8_t> b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

}  // namespace dohperf::dns
