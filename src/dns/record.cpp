#include "dns/record.hpp"

#include <sstream>

namespace dohperf::dns {

std::string to_string(RType t) {
  switch (t) {
    case RType::kA: return "A";
    case RType::kNS: return "NS";
    case RType::kCNAME: return "CNAME";
    case RType::kSOA: return "SOA";
    case RType::kPTR: return "PTR";
    case RType::kMX: return "MX";
    case RType::kTXT: return "TXT";
    case RType::kAAAA: return "AAAA";
    case RType::kOPT: return "OPT";
    case RType::kCAA: return "CAA";
  }
  return "TYPE" + std::to_string(static_cast<std::uint16_t>(t));
}

std::string to_string(Rcode rc) {
  switch (rc) {
    case Rcode::kNoError: return "NOERROR";
    case Rcode::kFormErr: return "FORMERR";
    case Rcode::kServFail: return "SERVFAIL";
    case Rcode::kNxDomain: return "NXDOMAIN";
    case Rcode::kNotImp: return "NOTIMP";
    case Rcode::kRefused: return "REFUSED";
  }
  return "RCODE" + std::to_string(static_cast<std::uint8_t>(rc));
}

ARdata ARdata::parse(std::string_view dotted) {
  ARdata out;
  std::size_t start = 0;
  for (int i = 0; i < 4; ++i) {
    const std::size_t dot = dotted.find('.', start);
    const std::string_view part =
        i == 3 ? dotted.substr(start)
               : dotted.substr(start, dot - start);
    if (part.empty() || part.size() > 3 ||
        (i < 3 && dot == std::string_view::npos)) {
      throw WireError("invalid IPv4 address: " + std::string(dotted));
    }
    int value = 0;
    for (char c : part) {
      if (c < '0' || c > '9') {
        throw WireError("invalid IPv4 address: " + std::string(dotted));
      }
      value = value * 10 + (c - '0');
    }
    if (value > 255) {
      throw WireError("invalid IPv4 octet: " + std::string(dotted));
    }
    out.addr[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(value);
    start = dot + 1;
  }
  return out;
}

std::string ARdata::to_string() const {
  std::ostringstream os;
  os << int{addr[0]} << '.' << int{addr[1]} << '.' << int{addr[2]} << '.'
     << int{addr[3]};
  return os.str();
}

std::string AaaaRdata::to_string() const {
  static const char* hex = "0123456789abcdef";
  std::string out;
  for (std::size_t i = 0; i < 16; i += 2) {
    if (i) out += ':';
    out += hex[addr[i] >> 4];
    out += hex[addr[i] & 0xf];
    out += hex[addr[i + 1] >> 4];
    out += hex[addr[i + 1] & 0xf];
  }
  return out;
}

ResourceRecord ResourceRecord::a(const Name& name, std::string_view addr,
                                 std::uint32_t ttl) {
  return {name, RType::kA, RClass::kIN, ttl, ARdata::parse(addr)};
}

ResourceRecord ResourceRecord::cname(const Name& name, const Name& target,
                                     std::uint32_t ttl) {
  return {name, RType::kCNAME, RClass::kIN, ttl, CnameRdata{target}};
}

ResourceRecord ResourceRecord::txt(const Name& name, std::string_view text,
                                   std::uint32_t ttl) {
  TxtRdata rd;
  // Split into <=255 octet segments as the wire format requires.
  for (std::size_t pos = 0; pos < text.size(); pos += 255) {
    rd.strings.emplace_back(text.substr(pos, 255));
  }
  if (rd.strings.empty()) rd.strings.emplace_back();
  return {name, RType::kTXT, RClass::kIN, ttl, std::move(rd)};
}

ResourceRecord ResourceRecord::caa(const Name& name, std::uint8_t flags,
                                   std::string_view tag,
                                   std::string_view value, std::uint32_t ttl) {
  return {name, RType::kCAA, RClass::kIN, ttl,
          CaaRdata{flags, std::string(tag), std::string(value)}};
}

ResourceRecord ResourceRecord::opt(std::uint16_t udp_payload_size,
                                   bool dnssec_ok) {
  OptRdata rd;
  rd.udp_payload_size = udp_payload_size;
  rd.dnssec_ok = dnssec_ok;
  return {Name::root(), RType::kOPT, RClass::kIN, 0, std::move(rd)};
}

namespace {

/// Encode typed rdata into `w` (no length prefix; caller backpatches).
void encode_rdata(ByteWriter& w, NameCompressor& compressor,
                  const Rdata& rdata) {
  std::visit(
      [&](const auto& rd) {
        using T = std::decay_t<decltype(rd)>;
        if constexpr (std::is_same_v<T, ARdata>) {
          w.bytes(rd.addr);
        } else if constexpr (std::is_same_v<T, AaaaRdata>) {
          w.bytes(rd.addr);
        } else if constexpr (std::is_same_v<T, CnameRdata>) {
          compressor.write(w, rd.target);
        } else if constexpr (std::is_same_v<T, NsRdata>) {
          compressor.write(w, rd.nsdname);
        } else if constexpr (std::is_same_v<T, PtrRdata>) {
          compressor.write(w, rd.ptrdname);
        } else if constexpr (std::is_same_v<T, MxRdata>) {
          w.u16(rd.preference);
          compressor.write(w, rd.exchange);
        } else if constexpr (std::is_same_v<T, TxtRdata>) {
          for (const auto& s : rd.strings) {
            if (s.size() > 255) throw WireError("TXT segment > 255");
            w.u8(static_cast<std::uint8_t>(s.size()));
            w.string(s);
          }
        } else if constexpr (std::is_same_v<T, SoaRdata>) {
          compressor.write(w, rd.mname);
          compressor.write(w, rd.rname);
          w.u32(rd.serial);
          w.u32(rd.refresh);
          w.u32(rd.retry);
          w.u32(rd.expire);
          w.u32(rd.minimum);
        } else if constexpr (std::is_same_v<T, CaaRdata>) {
          if (rd.tag.empty() || rd.tag.size() > 255) {
            throw WireError("CAA tag length invalid");
          }
          w.u8(rd.flags);
          w.u8(static_cast<std::uint8_t>(rd.tag.size()));
          w.string(rd.tag);
          w.string(rd.value);
        } else if constexpr (std::is_same_v<T, OptRdata>) {
          for (const auto& opt : rd.options) {
            w.u16(opt.code);
            w.u16(static_cast<std::uint16_t>(opt.data.size()));
            w.bytes(opt.data);
          }
        } else if constexpr (std::is_same_v<T, RawRdata>) {
          w.bytes(rd.data);
        }
      },
      rdata);
}

/// Octets encode_rdata writes at most: every name in full.
std::size_t max_rdata_size(const Rdata& rdata) noexcept {
  return std::visit(
      [](const auto& rd) -> std::size_t {
        using T = std::decay_t<decltype(rd)>;
        if constexpr (std::is_same_v<T, ARdata> ||
                      std::is_same_v<T, AaaaRdata>) {
          return rd.addr.size();
        } else if constexpr (std::is_same_v<T, CnameRdata>) {
          return rd.target.wire_length();
        } else if constexpr (std::is_same_v<T, NsRdata>) {
          return rd.nsdname.wire_length();
        } else if constexpr (std::is_same_v<T, PtrRdata>) {
          return rd.ptrdname.wire_length();
        } else if constexpr (std::is_same_v<T, MxRdata>) {
          return 2 + rd.exchange.wire_length();
        } else if constexpr (std::is_same_v<T, TxtRdata>) {
          std::size_t n = 0;
          for (const auto& s : rd.strings) n += 1 + s.size();
          return n;
        } else if constexpr (std::is_same_v<T, SoaRdata>) {
          return rd.mname.wire_length() + rd.rname.wire_length() + 20;
        } else if constexpr (std::is_same_v<T, CaaRdata>) {
          return 2 + rd.tag.size() + rd.value.size();
        } else if constexpr (std::is_same_v<T, OptRdata>) {
          std::size_t n = 0;
          for (const auto& opt : rd.options) n += 4 + opt.data.size();
          return n;
        } else {
          return rd.data.size();
        }
      },
      rdata);
}

/// Read `N` address octets in place.
template <std::size_t N>
std::array<std::uint8_t, N> read_address(ByteReader& r,
                                         std::uint16_t rdlength) {
  if (rdlength != N) {
    throw WireError(N == 4 ? "A RDLENGTH != 4" : "AAAA RDLENGTH != 16");
  }
  std::array<std::uint8_t, N> addr;
  const auto in = r.view(N);
  std::copy(in.begin(), in.end(), addr.begin());
  return addr;
}

Rdata decode_rdata(ByteReader& r, RType type, std::uint16_t rdlength) {
  const std::size_t end = r.offset() + rdlength;
  Rdata out;
  switch (type) {
    case RType::kA:
      out = ARdata{read_address<4>(r, rdlength)};
      break;
    case RType::kAAAA:
      out = AaaaRdata{read_address<16>(r, rdlength)};
      break;
    case RType::kCNAME:
      out = CnameRdata{read_name(r)};
      break;
    case RType::kNS:
      out = NsRdata{read_name(r)};
      break;
    case RType::kPTR:
      out = PtrRdata{read_name(r)};
      break;
    case RType::kMX: {
      MxRdata rd;
      rd.preference = r.u16();
      rd.exchange = read_name(r);
      out = rd;
      break;
    }
    case RType::kTXT: {
      TxtRdata rd;
      while (r.offset() < end) {
        const std::uint8_t len = r.u8();
        rd.strings.push_back(r.string(len));
      }
      out = rd;
      break;
    }
    case RType::kSOA: {
      SoaRdata rd;
      rd.mname = read_name(r);
      rd.rname = read_name(r);
      rd.serial = r.u32();
      rd.refresh = r.u32();
      rd.retry = r.u32();
      rd.expire = r.u32();
      rd.minimum = r.u32();
      out = rd;
      break;
    }
    case RType::kCAA: {
      CaaRdata rd;
      rd.flags = r.u8();
      const std::uint8_t tag_len = r.u8();
      rd.tag = r.string(tag_len);
      rd.value = r.string(end - r.offset());
      out = rd;
      break;
    }
    case RType::kOPT: {
      OptRdata rd;  // header fields filled in by the caller
      while (r.offset() < end) {
        EdnsOption opt;
        opt.code = r.u16();
        const std::uint16_t len = r.u16();
        opt.data = r.bytes(len);
        rd.options.push_back(std::move(opt));
      }
      out = rd;
      break;
    }
    default:
      out = RawRdata{r.bytes(rdlength)};
      break;
  }
  if (r.offset() != end) {
    throw WireError("RDATA length mismatch for " + to_string(type));
  }
  return out;
}

}  // namespace

void ResourceRecord::encode(ByteWriter& w, NameCompressor& compressor) const {
  if (type == RType::kOPT) {
    // OPT overloads name/class/ttl (RFC 6891 §6.1.2).
    const auto& rd = std::get<OptRdata>(rdata);
    w.u8(0);  // root name, never compressed
    w.u16(static_cast<std::uint16_t>(RType::kOPT));
    w.u16(rd.udp_payload_size);
    w.u8(rd.extended_rcode);
    w.u8(rd.version);
    w.u16(rd.dnssec_ok ? 0x8000 : 0);
  } else {
    compressor.write(w, name);
    w.u16(static_cast<std::uint16_t>(type));
    w.u16(static_cast<std::uint16_t>(rclass));
    w.u32(ttl);
  }
  const std::size_t len_pos = w.size();
  w.u16(0);  // RDLENGTH backpatched below
  const std::size_t rdata_start = w.size();
  encode_rdata(w, compressor, rdata);
  const std::size_t rdlen = w.size() - rdata_start;
  if (rdlen > 0xffff) throw WireError("RDATA exceeds 65535 octets");
  w.patch_u16(len_pos, static_cast<std::uint16_t>(rdlen));
}

std::size_t ResourceRecord::max_wire_size() const noexcept {
  // Name, TYPE, CLASS, TTL and RDLENGTH, then the rdata.
  return name.wire_length() + 10 + max_rdata_size(rdata);
}

ResourceRecord ResourceRecord::decode(ByteReader& r) {
  ResourceRecord rr;
  rr.name = read_name(r);
  rr.type = static_cast<RType>(r.u16());
  if (rr.type == RType::kOPT) {
    OptRdata rd;
    rd.udp_payload_size = r.u16();
    rd.extended_rcode = r.u8();
    rd.version = r.u8();
    rd.dnssec_ok = (r.u16() & 0x8000) != 0;
    const std::uint16_t rdlength = r.u16();
    auto decoded = decode_rdata(r, RType::kOPT, rdlength);
    rd.options = std::move(std::get<OptRdata>(decoded).options);
    rr.rclass = RClass::kIN;
    rr.ttl = 0;
    rr.rdata = std::move(rd);
    return rr;
  }
  rr.rclass = static_cast<RClass>(r.u16());
  rr.ttl = r.u32();
  const std::uint16_t rdlength = r.u16();
  rr.rdata = decode_rdata(r, rr.type, rdlength);
  return rr;
}

std::string ResourceRecord::to_string() const {
  std::ostringstream os;
  os << name.to_string() << ' ' << ttl << " IN " << dns::to_string(type) << ' ';
  std::visit(
      [&](const auto& rd) {
        using T = std::decay_t<decltype(rd)>;
        if constexpr (std::is_same_v<T, ARdata> ||
                      std::is_same_v<T, AaaaRdata>) {
          os << rd.to_string();
        } else if constexpr (std::is_same_v<T, CnameRdata>) {
          os << rd.target.to_string();
        } else if constexpr (std::is_same_v<T, NsRdata>) {
          os << rd.nsdname.to_string();
        } else if constexpr (std::is_same_v<T, PtrRdata>) {
          os << rd.ptrdname.to_string();
        } else if constexpr (std::is_same_v<T, MxRdata>) {
          os << rd.preference << ' ' << rd.exchange.to_string();
        } else if constexpr (std::is_same_v<T, TxtRdata>) {
          for (const auto& s : rd.strings) os << '"' << s << "\" ";
        } else if constexpr (std::is_same_v<T, SoaRdata>) {
          os << rd.mname.to_string() << ' ' << rd.rname.to_string() << ' '
             << rd.serial;
        } else if constexpr (std::is_same_v<T, CaaRdata>) {
          os << int{rd.flags} << ' ' << rd.tag << " \"" << rd.value << '"';
        } else if constexpr (std::is_same_v<T, OptRdata>) {
          os << "payload=" << rd.udp_payload_size;
        } else if constexpr (std::is_same_v<T, RawRdata>) {
          os << "\\# " << rd.data.size();
        }
      },
      rdata);
  return os.str();
}

}  // namespace dohperf::dns
