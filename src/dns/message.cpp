#include "dns/message.hpp"

#include <sstream>

namespace dohperf::dns {

std::uint16_t Flags::encode() const noexcept {
  std::uint16_t v = 0;
  if (qr) v |= 0x8000;
  v |= static_cast<std::uint16_t>(static_cast<std::uint8_t>(opcode) & 0xf) << 11;
  if (aa) v |= 0x0400;
  if (tc) v |= 0x0200;
  if (rd) v |= 0x0100;
  if (ra) v |= 0x0080;
  if (ad) v |= 0x0020;
  if (cd) v |= 0x0010;
  v |= static_cast<std::uint16_t>(static_cast<std::uint8_t>(rcode) & 0xf);
  return v;
}

Flags Flags::decode(std::uint16_t raw) noexcept {
  Flags f;
  f.qr = (raw & 0x8000) != 0;
  f.opcode = static_cast<Opcode>((raw >> 11) & 0xf);
  f.aa = (raw & 0x0400) != 0;
  f.tc = (raw & 0x0200) != 0;
  f.rd = (raw & 0x0100) != 0;
  f.ra = (raw & 0x0080) != 0;
  f.ad = (raw & 0x0020) != 0;
  f.cd = (raw & 0x0010) != 0;
  f.rcode = static_cast<Rcode>(raw & 0xf);
  return f;
}

Message Message::make_query(std::uint16_t id, const Name& name, RType type) {
  Message m;
  m.id = id;
  m.flags.qr = false;
  m.flags.rd = true;
  m.questions.push_back(Question{name, type, RClass::kIN});
  m.additionals.push_back(ResourceRecord::opt());
  return m;
}

Message Message::make_response(const Message& query,
                               std::vector<ResourceRecord> answers) {
  Message m;
  m.id = query.id;
  m.flags.qr = true;
  m.flags.rd = query.flags.rd;
  m.flags.ra = true;
  m.flags.rcode = Rcode::kNoError;
  m.questions = query.questions;
  m.answers = std::move(answers);
  if (query.edns() != nullptr) m.additionals.push_back(ResourceRecord::opt());
  return m;
}

Message Message::make_error(const Message& query, Rcode rcode) {
  Message m = make_response(query, {});
  m.flags.rcode = rcode;
  return m;
}

Bytes Message::encode(bool compress) const { return encode(compress, 0); }

Bytes Message::encode_framed() const { return encode(true, kFramePrefix); }

Bytes Message::encode(bool compress, std::size_t prefix) const {
  // Sized once: the header, then each question and record with every name
  // in full, which compression only shortens.
  std::size_t size = prefix + 12;
  for (const auto& q : questions) size += q.qname.wire_length() + 4;
  for (const auto* section : {&answers, &authorities, &additionals}) {
    for (const auto& rr : *section) size += rr.max_wire_size();
  }
  ByteWriter w(size);
  w.zeros(prefix);
  NameCompressor compressor(compress, prefix);
  w.u16(id);
  w.u16(flags.encode());
  w.u16(static_cast<std::uint16_t>(questions.size()));
  w.u16(static_cast<std::uint16_t>(answers.size()));
  w.u16(static_cast<std::uint16_t>(authorities.size()));
  w.u16(static_cast<std::uint16_t>(additionals.size()));
  for (const auto& q : questions) {
    compressor.write(w, q.qname);
    w.u16(static_cast<std::uint16_t>(q.qtype));
    w.u16(static_cast<std::uint16_t>(q.qclass));
  }
  auto write_section = [&](const std::vector<ResourceRecord>& rrs) {
    for (const auto& rr : rrs) rr.encode(w, compressor);
  };
  write_section(answers);
  write_section(authorities);
  write_section(additionals);
  if (prefix > 0) {
    w.patch_u16(0, static_cast<std::uint16_t>(w.size() - prefix));
  }
  return w.take();
}

Message Message::decode(std::span<const std::uint8_t> wire) {
  ByteReader r(wire);
  Message m;
  m.id = r.u16();
  m.flags = Flags::decode(r.u16());
  const std::uint16_t qd = r.u16();
  const std::uint16_t an = r.u16();
  const std::uint16_t ns = r.u16();
  const std::uint16_t ar = r.u16();
  for (std::uint16_t i = 0; i < qd; ++i) {
    Question q;
    q.qname = read_name(r);
    q.qtype = static_cast<RType>(r.u16());
    q.qclass = static_cast<RClass>(r.u16());
    m.questions.push_back(std::move(q));
  }
  auto read_section = [&](std::uint16_t n, std::vector<ResourceRecord>& out) {
    for (std::uint16_t i = 0; i < n; ++i) {
      out.push_back(ResourceRecord::decode(r));
    }
  };
  read_section(an, m.answers);
  read_section(ns, m.authorities);
  read_section(ar, m.additionals);
  return m;
}

const ResourceRecord* Message::edns() const noexcept {
  for (const auto& rr : additionals) {
    if (rr.type == RType::kOPT) return &rr;
  }
  return nullptr;
}

void Message::pad_to_multiple(std::size_t block) {
  if (block == 0) throw WireError("padding block must be non-zero");
  ResourceRecord* opt_rr = nullptr;
  for (auto& rr : additionals) {
    if (rr.type == RType::kOPT) opt_rr = &rr;
  }
  if (opt_rr == nullptr) {
    throw WireError("EDNS0 padding requires an OPT record");
  }
  auto& opt = std::get<OptRdata>(opt_rr->rdata);
  // Remove any existing padding option first so the call is idempotent.
  std::erase_if(opt.options,
                [](const EdnsOption& o) { return o.code == 12; });
  const std::size_t unpadded = encode().size();
  // A padding option costs 4 octets of option header; the payload fills the
  // remainder of the block.
  const std::size_t with_empty = unpadded + 4;
  const std::size_t target =
      ((with_empty + block - 1) / block) * block;
  EdnsOption padding;
  padding.code = 12;  // RFC 7830 OPTION-CODE
  padding.data.assign(target - with_empty, 0);
  opt.options.push_back(std::move(padding));
}

std::string Message::to_string() const {
  std::ostringstream os;
  os << ";; id=" << id << " " << (flags.qr ? "response" : "query")
     << " rcode=" << dns::to_string(flags.rcode) << '\n';
  for (const auto& q : questions) {
    os << ";" << q.qname.to_string() << " IN " << dns::to_string(q.qtype)
       << '\n';
  }
  for (const auto& rr : answers) os << rr.to_string() << '\n';
  for (const auto& rr : authorities) os << rr.to_string() << '\n';
  for (const auto& rr : additionals) os << rr.to_string() << '\n';
  return os.str();
}

}  // namespace dohperf::dns
