// The per-layer ledger of a traced run. Counts come from the run itself
// (event loop, arena stats, the program's obs::Tracer, the tier's stats,
// the captured packets); per-call costs come from replaying the captured
// traffic through each layer's public codec:
//
//   simnet   Network::send on the shard's topology; a bare EventLoop fed the
//            captured inter-packet delays
//   dns      Message::encode/decode of the messages seen at the resolver
//            seam; Name parse / operator< / std::map insert
//   tlssim   records and handshakes re-assembled from the TCP streams;
//            encode_certificate on the captured chains; an in-memory
//            TlsConnection pair carrying the captured record sizes
//   http1    Parser::feed / next_response on the origin response streams
//   http2    FrameReader, HpackDecoder and HpackEncoder on the DoH streams
//   quicsim  quicsim::Packet::decode on the DoQ datagrams
//
// Allocation counts come from a private arena installed around each call.
// A replay whose codec throws, or whose output fails its check, is recorded
// as a ledger failure, and so is an expected traffic contrast that does not
// hold; either turns the traced run's `correct` false.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "http1/message.hpp"
#include "http2/frame.hpp"
#include "http2/hpack.hpp"
#include "quicsim/packet.hpp"
#include "simnet/event_loop.hpp"
#include "simnet/network.hpp"
#include "simnet/stream.hpp"
#include "stats/rng.hpp"
#include "tlssim/connection.hpp"
#include "tlssim/handshake.hpp"

namespace perfbench {
namespace {

constexpr int kReplayPasses = 3;
constexpr std::uint16_t kSecurePort = 853;

/// Median over kReplayPasses of `pass()`, which returns elapsed ns.
double median_pass_ns(const std::function<std::int64_t()>& pass) {
  std::vector<double> ns;
  for (int i = 0; i < kReplayPasses; ++i) {
    ns.push_back(static_cast<double>(pass()));
  }
  return median(ns);
}

double per(double total, double count) { return count > 0 ? total / count : 0; }

/// Throws when a replay's output fails its check; build_ledger records it.
void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(what);
}

/// Allocation counter: a private arena installed for the replay.
class ArenaProbe {
 public:
  ArenaProbe()
      : arena_(simnet::ShardMemory::create()),
        scope_(std::make_unique<simnet::MemoryScope>(*arena_)) {}
  ~ArenaProbe() {
    scope_.reset();  // leave the scope before release may free the arena
    arena_->release();
  }
  ArenaProbe(const ArenaProbe&) = delete;
  ArenaProbe& operator=(const ArenaProbe&) = delete;

  std::uint64_t allocs() const { return arena_->stats().arena_allocs; }
  std::uint64_t bytes() const { return arena_->stats().arena_bytes; }

 private:
  simnet::ShardMemory* arena_;
  std::unique_ptr<simnet::MemoryScope> scope_;
};

// --------------------------------------------------- TCP + TLS streams ---

struct FlowKey {
  simnet::NodeId src = 0;
  simnet::NodeId dst = 0;
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  bool operator<(const FlowKey& o) const {
    return std::tie(src, dst, sport, dport) <
           std::tie(o.src, o.dst, o.sport, o.dport);
  }
  FlowKey reverse() const { return FlowKey{dst, src, dport, sport}; }
};

/// One direction of a TCP connection, reassembled in sequence order.
struct Direction {
  simnet::TimeUs syn_at = 0;
  bool have_isn = false;
  std::uint32_t isn = 0;  ///< sequence number of the first data byte
  std::map<std::uint64_t, simnet::BufferSlice> segments;  ///< by offset
  dns::Bytes bytes;
};

struct Record {
  std::uint8_t type = 0;
  std::size_t offset = 0;  ///< body offset in the direction's stream
  std::size_t length = 0;  ///< body length, tag included
};

struct TlsFlow {
  simnet::TimeUs opened_at = 0;  ///< the client's SYN
  tlssim::TlsVersion version = tlssim::TlsVersion::kTls13;
  bool resumed = false;
  bool saw_server_hello = false;
  std::vector<tlssim::CertificateMsg> certificates;
  /// Application plaintext of each record, per direction.
  std::vector<dns::Bytes> client_plain;
  std::vector<dns::Bytes> server_plain;
};

std::vector<Record> split_records(const dns::Bytes& s) {
  std::vector<Record> out;
  std::size_t pos = 0;
  while (pos + tlssim::kRecordHeaderBytes <= s.size()) {
    const std::size_t len = (static_cast<std::size_t>(s[pos + 3]) << 8) | s[pos + 4];
    if (pos + tlssim::kRecordHeaderBytes + len > s.size()) break;
    out.push_back(Record{s[pos], pos + tlssim::kRecordHeaderBytes, len});
    pos += tlssim::kRecordHeaderBytes + len;
  }
  return out;
}

/// Decode every handshake message in `body`.
void decode_handshakes(std::span<const std::uint8_t> body, TlsFlow& flow) {
  dns::ByteReader r(body);
  while (!r.exhausted()) {
    const auto msg = tlssim::decode_handshake(r);
    if (msg.server_hello) {
      flow.saw_server_hello = true;
      flow.version = msg.server_hello->version;
      flow.resumed = msg.server_hello->resumed;
    }
    if (msg.certificate) flow.certificates.push_back(*msg.certificate);
  }
}

struct Traffic {
  std::uint64_t packets = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t tcp_retransmits = 0;
  /// Full handshakes on connections opened after the shard's warm-up.
  std::uint64_t full_after_warmup = 0;
  std::vector<TlsFlow> flows;
  std::vector<dns::Bytes> quic_datagrams;
  std::uint64_t records = 0;
  std::uint64_t record_bytes = 0;
  std::vector<std::size_t> app_record_sizes;
};

std::size_t tag_bytes(tlssim::TlsVersion v) {
  return v == tlssim::TlsVersion::kTls13 ? tlssim::kAeadTagBytes + 1
                                         : tlssim::kTls12RecordOverhead;
}

void analyse_shard(const ShardTrace& trace, Traffic& traffic) {
  std::map<FlowKey, Direction> dirs;
  std::map<FlowKey, std::set<std::pair<std::uint64_t, std::size_t>>> seen;
  for (const auto& cp : trace.packets) {
    ++traffic.packets;
    traffic.wire_bytes += cp.packet.wire_size();
    if (const auto* udp = std::get_if<simnet::UdpDatagram>(&cp.packet.body)) {
      if (!cp.dropped &&
          (udp->src_port == kSecurePort || udp->dst_port == kSecurePort)) {
        traffic.quic_datagrams.push_back(udp->payload);
      }
      continue;
    }
    const auto& seg = std::get<simnet::TcpSegment>(cp.packet.body);
    const FlowKey key{cp.packet.src_node, cp.packet.dst_node, seg.src_port,
                      seg.dst_port};
    Direction& d = dirs[key];
    if (seg.syn) {
      d.syn_at = cp.when;
      d.have_isn = true;
      d.isn = seg.seq + 1;
      continue;
    }
    if (seg.payload.empty() || !d.have_isn) continue;
    const std::uint64_t offset = static_cast<std::uint32_t>(seg.seq - d.isn);
    if (!seen[key].insert({offset, seg.payload.size()}).second) {
      ++traffic.tcp_retransmits;
    }
    // A dropped segment never arrived; its retransmission carries the bytes.
    if (!cp.dropped) d.segments.emplace(offset, seg.payload);
  }
  for (auto& [key, d] : dirs) {
    for (const auto& [offset, slice] : d.segments) {
      const std::size_t have = d.bytes.size();
      if (offset > have) break;  // gap: stop at the first hole
      if (offset + slice.size() <= have) continue;
      d.bytes.insert(d.bytes.end(), slice.begin() + (have - offset),
                     slice.end());
    }
    d.segments.clear();
  }
  // Pair directions into connections; the server side listens on 443/853.
  for (auto& [key, d] : dirs) {
    if (key.dport != 443 && key.dport != kSecurePort) continue;
    const auto rev = dirs.find(key.reverse());
    if (rev == dirs.end()) continue;
    const Direction& client = d;
    const Direction& server = rev->second;

    TlsFlow flow;
    flow.opened_at = client.syn_at;
    const std::vector<Record> client_records = split_records(client.bytes);
    const std::vector<Record> server_records = split_records(server.bytes);
    bool server_ccs = false;
    for (const Record& rec : server_records) {
      const std::span<const std::uint8_t> body(server.bytes.data() + rec.offset,
                                               rec.length);
      if (rec.type == static_cast<std::uint8_t>(tlssim::ContentType::kChangeCipherSpec)) {
        server_ccs = true;
      } else if (rec.type == static_cast<std::uint8_t>(tlssim::ContentType::kHandshake)) {
        if (!flow.saw_server_hello) {
          decode_handshakes(body, flow);
        } else {
          const bool encrypted =
              flow.version == tlssim::TlsVersion::kTls13 || server_ccs;
          const std::size_t tag = encrypted ? tag_bytes(flow.version) : 0;
          if (body.size() >= tag) {
            decode_handshakes(body.first(body.size() - tag), flow);
          }
        }
      }
    }
    const std::size_t tag = tag_bytes(flow.version);
    const auto plain = [&](const std::vector<Record>& records,
                           const dns::Bytes& bytes,
                           std::vector<dns::Bytes>& out) {
      for (const auto& rec : records) {
        ++traffic.records;
        traffic.record_bytes += tlssim::kRecordHeaderBytes + rec.length;
        if (rec.type != static_cast<std::uint8_t>(tlssim::ContentType::kApplicationData) ||
            rec.length < tag) {
          continue;
        }
        const auto* p = bytes.data() + rec.offset;
        out.emplace_back(p, p + (rec.length - tag));
        traffic.app_record_sizes.push_back(rec.length - tag);
      }
    };
    plain(client_records, client.bytes, flow.client_plain);
    plain(server_records, server.bytes, flow.server_plain);
    if (!flow.saw_server_hello) continue;
    if (trace.warmup_end && !flow.resumed &&
        flow.opened_at >= *trace.warmup_end) {
      ++traffic.full_after_warmup;
    }
    traffic.flows.push_back(std::move(flow));
  }
}

bool starts_with(const std::vector<dns::Bytes>& chunks, std::string_view prefix) {
  std::string head;
  for (const auto& c : chunks) {
    head.append(c.begin(), c.end());
    if (head.size() >= prefix.size()) break;
  }
  return head.compare(0, prefix.size(), prefix) == 0;
}

// ---------------------------------------------------------------- http1 ---

struct Http1Replay {
  std::uint64_t messages = 0;
  std::uint64_t body_bytes = 0;
  std::uint64_t stream_bytes = 0;
  double ns = 0;
  std::uint64_t alloc_bytes = 0;
};

Http1Replay replay_http1(const std::vector<const TlsFlow*>& flows) {
  Http1Replay out;
  if (flows.empty()) return out;
  for (const auto* flow : flows) {
    for (const auto& c : flow->server_plain) out.stream_bytes += c.size();
  }
  out.ns = median_pass_ns([&]() {
    ArenaProbe probe;
    std::uint64_t messages = 0;
    std::uint64_t body = 0;
    const std::int64_t t0 = now_ns();
    for (const auto* flow : flows) {
      http1::Parser parser(http1::Parser::Mode::kResponse);
      for (const auto& chunk : flow->server_plain) {
        parser.feed(chunk);
        while (auto response = parser.next_response()) {
          ++messages;
          body += parser.last_sizes().body_bytes;
        }
      }
    }
    const std::int64_t elapsed = now_ns() - t0;
    out.messages = messages;
    out.body_bytes = body;
    out.alloc_bytes = probe.bytes();
    return elapsed;
  });
  return out;
}

// ---------------------------------------------------------------- http2 ---

struct Http2Replay {
  std::uint64_t frames = 0;
  double frame_ns = 0;
  std::uint64_t header_blocks = 0;
  double hpack_decode_ns = 0;
  double hpack_encode_ns = 0;
};

std::span<const std::uint8_t> header_block(const http2::Frame& frame) {
  std::span<const std::uint8_t> p = frame.payload.span();
  std::size_t pad = 0;
  if ((frame.flags & 0x8) != 0 && !p.empty()) {  // PADDED
    pad = p[0];
    p = p.subspan(1);
  }
  if ((frame.flags & 0x20) != 0 && p.size() >= 5) p = p.subspan(5);  // PRIORITY
  return p.first(p.size() >= pad ? p.size() - pad : 0);
}

Http2Replay replay_http2(const std::vector<const TlsFlow*>& flows) {
  Http2Replay out;
  // Frame decoding, timed per pass over every h2 stream.
  std::vector<std::vector<http2::Frame>> frames_per_dir;
  out.frame_ns = median_pass_ns([&]() {
    frames_per_dir.clear();
    std::int64_t elapsed = 0;
    for (const auto* flow : flows) {
      for (int dir = 0; dir < 2; ++dir) {
        const auto& chunks = dir == 0 ? flow->client_plain : flow->server_plain;
        http2::FrameReader reader;
        std::vector<http2::Frame> frames;
        const std::int64_t t0 = now_ns();
        for (const auto& c : chunks) reader.feed(c);
        require(dir == 1 || reader.consume_preface(), "h2 preface missing");
        while (auto frame = reader.next()) frames.push_back(std::move(*frame));
        elapsed += now_ns() - t0;
        require(reader.buffered() == 0, "h2 stream ends inside a frame");
        frames_per_dir.push_back(std::move(frames));
      }
    }
    return elapsed;
  });
  std::vector<std::vector<std::span<const std::uint8_t>>> blocks;
  for (const auto& frames : frames_per_dir) {
    out.frames += frames.size();
    blocks.emplace_back();
    for (const auto& f : frames) {
      if (f.type == http2::FrameType::kHeaders) {
        blocks.back().push_back(header_block(f));
      }
    }
    out.header_blocks += blocks.back().size();
  }
  // HPACK: one stateful decoder per direction, in stream order; the decoded
  // lists are then re-encoded by one stateful encoder per direction.
  std::vector<std::vector<std::vector<http2::HeaderField>>> decoded;
  out.hpack_decode_ns = median_pass_ns([&]() {
    decoded.clear();
    std::int64_t elapsed = 0;
    for (const auto& dir : blocks) {
      http2::HpackDecoder decoder;
      decoded.emplace_back();
      const std::int64_t t0 = now_ns();
      for (const auto& b : dir) decoded.back().push_back(decoder.decode(b));
      elapsed += now_ns() - t0;
    }
    return elapsed;
  });
  out.hpack_encode_ns = median_pass_ns([&]() {
    std::int64_t elapsed = 0;
    for (const auto& dir : decoded) {
      http2::HpackEncoder encoder;
      const std::int64_t t0 = now_ns();
      for (const auto& fields : dir) {
        const auto block = encoder.encode(fields);
        require(!block.empty(), "HPACK encoded an empty block");
      }
      elapsed += now_ns() - t0;
    }
    return elapsed;
  });
  return out;
}

// --------------------------------------------------------------- tlssim ---

/// An in-memory duplex pipe. Writes are queued and delivered by pump(), so
/// neither TLS endpoint is re-entered while it is still sending.
class Pipe {
 public:
  class End final : public simnet::ByteStream {
   public:
    End(Pipe& pipe, int side) : pipe_(pipe), side_(side) {}
    void set_handlers(Handlers handlers) override {
      handlers_ = std::move(handlers);
    }
    void send(simnet::BufferSlice data) override {
      pipe_.queue_.push_back({1 - side_, std::move(data)});
    }
    void send_chain(std::span<const simnet::BufferSlice> chain) override {
      for (const auto& slice : chain) send(slice);
    }
    void close() override {}
    bool is_open() const override { return true; }

   private:
    friend class Pipe;
    Pipe& pipe_;
    int side_;
    Handlers handlers_;
  };

  /// The two ends; ownership passes to the TLS connections.
  std::unique_ptr<End> end(int side) {
    auto e = std::make_unique<End>(*this, side);
    ends_[side] = e.get();
    return e;
  }
  void open() {
    for (End* e : ends_) {
      if (e->handlers_.on_open) e->handlers_.on_open();
    }
    pump();
  }
  void pump() {
    while (!queue_.empty()) {
      auto [side, data] = std::move(queue_.front());
      queue_.pop_front();
      if (ends_[side]->handlers_.on_data) ends_[side]->handlers_.on_data(data);
    }
  }

 private:
  std::deque<std::pair<int, simnet::BufferSlice>> queue_;
  End* ends_[2] = {nullptr, nullptr};
};

/// ns per KiB of application data through a client/server TlsConnection
/// pair (record framing on one side, parsing on the other).
double replay_records(const std::vector<std::size_t>& sizes) {
  if (sizes.empty()) return 0;
  std::uint64_t total = 0;
  for (const auto s : sizes) total += s;
  const auto buffer = std::make_shared<const dns::Bytes>(
      *std::max_element(sizes.begin(), sizes.end()), 0x42);
  const double ns = median_pass_ns([&]() {
    Pipe pipe;
    const tlssim::ServerConfig server_config;
    tlssim::ClientConfig client_config;
    client_config.sni = "example.net";
    tlssim::TlsConnection server(pipe.end(1), &server_config);
    tlssim::TlsConnection client(pipe.end(0), client_config);
    std::uint64_t received = 0;
    simnet::ByteStream::Handlers server_handlers;
    server_handlers.on_data = [&](std::span<const std::uint8_t> d) {
      received += d.size();
    };
    server.set_handlers(server_handlers);
    pipe.open();
    require(client.established(), "TLS pipe never established");
    const std::int64_t t0 = now_ns();
    for (const auto size : sizes) {
      client.send(simnet::BufferSlice(buffer, 0, size));
      pipe.pump();
    }
    const std::int64_t elapsed = now_ns() - t0;
    require(received == total, "TLS pipe lost application bytes");
    return elapsed;
  });
  return ns / (static_cast<double>(total) / 1024.0);
}

double replay_certificates(const std::vector<tlssim::CertificateMsg>& certs) {
  if (certs.empty()) return 0;
  const double ns = median_pass_ns([&]() {
    const std::int64_t t0 = now_ns();
    for (const auto& cert : certs) {
      dns::ByteWriter w;
      tlssim::encode_certificate(w, cert);
      require(w.size() != 0, "encode_certificate wrote nothing");
    }
    return now_ns() - t0;
  });
  return ns / static_cast<double>(certs.size()) / 1e3;
}

// --------------------------------------------------------------- simnet ---

/// ns per Network::send over the shard's node pairs, replaying its packets.
double replay_sends(const std::vector<const ShardTrace*>& traces) {
  std::uint64_t packets = 0;
  for (const auto* t : traces) packets += t->packets.size();
  if (packets == 0) return 0;
  const double ns = median_pass_ns([&]() {
    std::int64_t elapsed = 0;
    for (const auto* trace : traces) {
      simnet::EventLoop loop;
      simnet::Network net(loop, 1);
      for (std::size_t n = 0; n < trace->nodes; ++n) {
        net.add_node("n" + std::to_string(n));
        net.set_handler(static_cast<simnet::NodeId>(n),
                        [](const simnet::Packet&) {});
      }
      std::set<std::pair<simnet::NodeId, simnet::NodeId>> linked;
      for (const auto& cp : trace->packets) {
        const auto a = std::min(cp.packet.src_node, cp.packet.dst_node);
        const auto b = std::max(cp.packet.src_node, cp.packet.dst_node);
        if (linked.insert({a, b}).second) net.connect(a, b, simnet::LinkConfig{});
      }
      constexpr std::size_t kBatch = 256;
      std::vector<simnet::Packet> batch;
      for (std::size_t i = 0; i < trace->packets.size(); i += kBatch) {
        const std::size_t end = std::min(trace->packets.size(), i + kBatch);
        batch.clear();
        for (std::size_t k = i; k < end; ++k) {
          batch.push_back(trace->packets[k].packet);
        }
        const std::int64_t t0 = now_ns();
        for (auto& p : batch) net.send(std::move(p));
        elapsed += now_ns() - t0;
        loop.run();
      }
    }
    return elapsed;
  });
  return ns / static_cast<double>(packets);
}

/// ns per event (schedule + fire) through a bare EventLoop whose delays are
/// the captured inter-packet gaps.
double replay_events(const std::vector<const ShardTrace*>& traces) {
  std::vector<simnet::TimeUs> delays;
  for (const auto* t : traces) {
    for (std::size_t i = 1; i < t->packets.size(); ++i) {
      delays.push_back(std::max<simnet::TimeUs>(
          0, t->packets[i].when - t->packets[i - 1].when));
    }
  }
  if (delays.empty()) return 0;
  const double ns = median_pass_ns([&]() {
    simnet::EventLoop loop;
    std::uint64_t fired = 0;
    constexpr std::size_t kBatch = 1024;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < delays.size(); i += kBatch) {
      const std::size_t end = std::min(delays.size(), i + kBatch);
      for (std::size_t k = i; k < end; ++k) {
        loop.schedule_in(delays[k], [&fired]() { ++fired; });
      }
      loop.run();
    }
    const std::int64_t elapsed = now_ns() - t0;
    require(fired == delays.size(), "EventLoop lost events");
    return elapsed;
  });
  return ns / static_cast<double>(delays.size());
}

// ------------------------------------------------------------------ dns ---

struct DnsReplay {
  double encode_ns = 0;
  double decode_ns = 0;
  double allocs_per_decode = 0;
};

DnsReplay replay_dns(const std::vector<const dns::Message*>& messages) {
  DnsReplay out;
  if (messages.empty()) return out;
  std::vector<dns::Bytes> wire;
  const double n = static_cast<double>(messages.size());
  out.encode_ns = median_pass_ns([&]() {
    wire.clear();
    wire.reserve(messages.size());
    const std::int64_t t0 = now_ns();
    for (const auto* m : messages) wire.push_back(m->encode());
    return now_ns() - t0;
  }) / n;
  std::size_t expected_answers = 0;
  for (const auto* m : messages) expected_answers += m->answers.size();
  std::uint64_t allocs = 0;
  out.decode_ns = median_pass_ns([&]() {
    ArenaProbe probe;
    const std::uint64_t a0 = probe.allocs();
    std::size_t answers = 0;
    const std::int64_t t0 = now_ns();
    for (const auto& w : wire) answers += dns::Message::decode(w).answers.size();
    const std::int64_t elapsed = now_ns() - t0;
    allocs = probe.allocs() - a0;
    require(answers == expected_answers, "DNS decode lost answers");
    return elapsed;
  }) / n;
  out.allocs_per_decode = static_cast<double>(allocs) / n;
  return out;
}

struct NameReplay {
  double parse_ns = 0;
  double less_ns = 0;
  double map_insert_ns = 0;
};

/// Name::parse, operator< and std::map<Name, count> insertion over `names`
/// (in their order of use, repeats included). The map starts afresh every
/// `names_per_map` names, as a corpus shard's query_counts map does.
NameReplay replay_names(const std::vector<dns::Name>& names,
                        std::size_t names_per_map, std::uint64_t seed) {
  NameReplay out;
  if (names.empty()) return out;
  const double n = static_cast<double>(names.size());
  std::vector<std::string> text;
  text.reserve(names.size());
  for (const auto& name : names) text.push_back(name.to_string());
  std::size_t expected_labels = 0;
  for (const auto& name : names) expected_labels += name.label_count();
  out.parse_ns = median_pass_ns([&]() {
    std::size_t labels = 0;
    const std::int64_t t0 = now_ns();
    for (const auto& t : text) labels += dns::Name::parse(t).label_count();
    const std::int64_t elapsed = now_ns() - t0;
    require(labels == expected_labels, "Name::parse lost labels");
    return elapsed;
  }) / n;
  stats::SplitMix64 rng(seed ^ 0x1e55);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    pairs.emplace_back(rng.next_below(names.size()), rng.next_below(names.size()));
  }
  std::optional<std::size_t> first_less;
  out.less_ns = median_pass_ns([&]() {
    std::size_t less = 0;
    const std::int64_t t0 = now_ns();
    for (const auto& [a, b] : pairs) less += names[a] < names[b] ? 1 : 0;
    const std::int64_t elapsed = now_ns() - t0;
    if (!first_less) first_less = less;
    require(less == *first_less, "Name operator< is not deterministic");
    return elapsed;
  }) / n;
  out.map_insert_ns = median_pass_ns([&]() {
    std::int64_t elapsed = 0;
    for (std::size_t lo = 0; lo < names.size(); lo += names_per_map) {
      const std::size_t hi = std::min(names.size(), lo + names_per_map);
      std::map<dns::Name, std::uint64_t> counts;
      const std::int64_t t0 = now_ns();
      for (std::size_t i = lo; i < hi; ++i) ++counts[names[i]];
      elapsed += now_ns() - t0;
      std::size_t counted = 0;
      for (const auto& [name, count] : counts) counted += count;
      require(counted == hi - lo, "std::map<Name> lost insertions");
    }
    return elapsed;
  }) / n;
  return out;
}

/// ns per page of the Name work corpus_shard does for a page: parse each
/// drawn domain into the page's dedupe set, build unique_domains() from the
/// primary and every object, and count each unique domain in the shard's
/// query_counts map (a fresh map every `pages_per_map` pages).
double replay_page_names(const std::vector<workload::Page>& pages,
                         std::size_t pages_per_map) {
  std::vector<std::vector<std::string>> texts;
  for (const auto& page : pages) {
    texts.emplace_back();
    for (const auto& d : page.unique_domains()) {
      texts.back().push_back(d.to_string());
    }
  }
  const double ns = median_pass_ns([&]() {
    std::uint64_t counted = 0;
    const std::int64_t t0 = now_ns();
    for (std::size_t lo = 0; lo < pages.size(); lo += pages_per_map) {
      std::map<dns::Name, std::uint64_t> counts;
      const std::size_t hi = std::min(pages.size(), lo + pages_per_map);
      for (std::size_t p = lo; p < hi; ++p) {
        std::set<dns::Name> seen;
        for (const auto& text : texts[p]) seen.insert(dns::Name::parse(text));
        std::set<dns::Name> unique{pages[p].primary};
        for (const auto& object : pages[p].objects) unique.insert(object.domain);
        for (const auto& d : unique) counted += ++counts[d];
      }
    }
    const std::int64_t elapsed = now_ns() - t0;
    require(counted > 0, "page Name replay counted nothing");
    return elapsed;
  });
  return ns / static_cast<double>(pages.size());
}

}  // namespace

Ledger build_ledger(const std::string& workload, const RunConfig& config,
                    const WorkloadRun& traced, const WorkloadRun& untraced) {
  Ledger ledger{traced.layer, {}};
  auto& L = ledger.values;
  // Each layer's replay runs guarded: a codec that throws, or a replay whose
  // output fails its check, becomes a ledger failure, not a zero figure.
  const auto guarded = [&](const char* layer,
                           const std::function<void()>& replay) {
    try {
      replay();
    } catch (const std::exception& e) {
      ledger.failures.push_back(std::string(layer) + ": " + e.what());
    }
  };
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) ledger.failures.push_back(workload + ": " + what);
  };
  const double ops = static_cast<double>(std::max<std::uint64_t>(traced.attempted, 1));
  const double op_ns = percentile(untraced.op_us, 50) * 1e3;
  const auto share = [&](double ns_per_op) { return per(ns_per_op, op_ns); };

  // ---- simnet: counts from the run, costs from replays.
  std::vector<const ShardTrace*> traces;
  for (const auto& t : traced.traces) traces.push_back(&t);
  Traffic traffic;
  guarded("capture", [&]() {
    for (const auto* t : traces) analyse_shard(*t, traffic);
  });
  double send_ns = 0;
  double event_ns = 0;
  guarded("simnet", [&]() {
    send_ns = replay_sends(traces);
    event_ns = replay_events(traces);
  });
  const double events_per_op = static_cast<double>(traced.events) / ops;
  L["simnet.events_per_op"] = events_per_op;
  L["simnet.event_ns"] = event_ns;
  L["simnet.packets_per_op"] = static_cast<double>(traffic.packets) / ops;
  L["simnet.wire_bytes_per_op"] = static_cast<double>(traffic.wire_bytes) / ops;
  L["simnet.send_ns_per_packet"] = send_ns;
  L["simnet.tcp_retransmits_per_op"] =
      static_cast<double>(traffic.tcp_retransmits) / ops;
  const double uops =
      static_cast<double>(std::max<std::uint64_t>(untraced.attempted, 1));
  L["simnet.arena_allocs_per_op"] =
      static_cast<double>(untraced.mem.arena_allocs) / uops;
  L["simnet.freelist_hit_ratio"] =
      per(static_cast<double>(untraced.mem.freelist_hits),
          static_cast<double>(untraced.mem.arena_allocs));
  L["simnet.shard_idle_share"] = std::max(
      0.0, 1.0 - per(untraced.busy_s,
                     static_cast<double>(untraced.jobs) * untraced.shard_wall_s));
  const double send_per_op = send_ns * L["simnet.packets_per_op"];
  L["simnet.send_wall_share"] = share(send_per_op);
  L["simnet.wall_share"] = share(send_per_op + event_ns * events_per_op);

  // ---- dns codec on the seam messages; names on the workload's names.
  std::vector<const dns::Message*> messages;
  std::vector<dns::Name> names;
  for (const auto& t : traced.traces) {
    for (const auto& m : t.seam_messages) {
      messages.push_back(&m);
      if (!m.flags.qr && !m.questions.empty()) {
        names.push_back(m.questions.front().qname);
      }
    }
  }
  DnsReplay dns_replay;
  guarded("dns", [&]() { dns_replay = replay_dns(messages); });
  const double msgs_per_op = static_cast<double>(messages.size()) / ops;
  L["dns.msgs_per_op"] = msgs_per_op;
  L["dns.decode_ns"] = dns_replay.decode_ns;
  L["dns.encode_ns"] = dns_replay.encode_ns;
  L["dns.allocs_per_decode"] = dns_replay.allocs_per_decode;
  L["dns.wall_share"] =
      share((dns_replay.decode_ns + dns_replay.encode_ns) * msgs_per_op);

  std::size_t names_per_map = std::max<std::size_t>(1, names.size());
  double name_ns_per_op = 0;
  NameReplay name_replay;
  guarded("dns.name", [&]() {
    if (!traced.sampled_pages.empty()) {
      names.clear();
      for (const auto& page : traced.sampled_pages) {
        const auto domains = page.unique_domains();
        names.insert(names.end(), domains.begin(), domains.end());
      }
      names_per_map = std::max<std::size_t>(
          1, names.size() * traced.pages_per_map / traced.sampled_pages.size());
      name_ns_per_op =
          replay_page_names(traced.sampled_pages, traced.pages_per_map);
    }
    name_replay = replay_names(names, names_per_map, config.seed);
  });
  L["dns.name_parse_ns"] = name_replay.parse_ns;
  L["dns.name_less_ns"] = name_replay.less_ns;
  L["dns.name_map_insert_ns"] = name_replay.map_insert_ns;
  L["dns.name_wall_share"] = share(name_ns_per_op);

  // ---- tlssim / http1 / http2 on the re-assembled TLS connections.
  std::uint64_t full = 0;
  std::uint64_t resumed = 0;
  std::vector<tlssim::CertificateMsg> certificates;
  std::vector<const TlsFlow*> h1_flows;
  std::vector<const TlsFlow*> h2_flows;
  for (const auto& flow : traffic.flows) {
    (flow.resumed ? resumed : full) += 1;
    certificates.insert(certificates.end(), flow.certificates.begin(),
                        flow.certificates.end());
    if (starts_with(flow.client_plain, http2::kConnectionPreface)) {
      h2_flows.push_back(&flow);
    } else if (starts_with(flow.server_plain, "HTTP/1.")) {
      h1_flows.push_back(&flow);
    }
  }
  double handshake_us = 0;
  double record_ns_per_kib = 0;
  guarded("tlssim", [&]() {
    handshake_us = replay_certificates(certificates);
    record_ns_per_kib = replay_records(traffic.app_record_sizes);
  });
  L["tlssim.full_handshakes_per_op"] = static_cast<double>(full) / ops;
  L["tlssim.resumed_share"] =
      per(static_cast<double>(resumed), static_cast<double>(full + resumed));
  L["tlssim.handshake_encode_us"] = handshake_us;
  L["tlssim.records_per_op"] = static_cast<double>(traffic.records) / ops;
  L["tlssim.record_ns_per_kib"] = record_ns_per_kib;
  const double handshake_ns_per_op =
      handshake_us * 1e3 * static_cast<double>(certificates.size()) / ops;
  L["tlssim.handshake_wall_share"] = share(handshake_ns_per_op);
  L["tlssim.wall_share"] = share(
      handshake_ns_per_op +
      record_ns_per_kib * static_cast<double>(traffic.record_bytes) / 1024.0 / ops);

  Http1Replay h1;
  guarded("http1", [&]() { h1 = replay_http1(h1_flows); });
  L["http1.messages_per_op"] = static_cast<double>(h1.messages) / ops;
  L["http1.body_bytes_per_op"] = static_cast<double>(h1.body_bytes) / ops;
  L["http1.parse_ns_per_kib"] =
      per(h1.ns, static_cast<double>(h1.stream_bytes) / 1024.0);
  L["http1.alloc_bytes_per_body_byte"] =
      per(static_cast<double>(h1.alloc_bytes), static_cast<double>(h1.body_bytes));
  L["http1.wall_share"] = share(h1.ns / ops);

  Http2Replay h2;
  guarded("http2", [&]() { h2 = replay_http2(h2_flows); });
  const double frames = static_cast<double>(h2.frames);
  const double blocks = static_cast<double>(h2.header_blocks);
  L["http2.frames_per_op"] = frames / ops;
  L["http2.frame_decode_ns"] = per(h2.frame_ns, frames);
  L["http2.hpack_decode_ns"] = per(h2.hpack_decode_ns, blocks);
  L["http2.hpack_encode_ns"] = per(h2.hpack_encode_ns, blocks);
  L["http2.wall_share"] =
      share((h2.frame_ns + h2.hpack_decode_ns + h2.hpack_encode_ns) / ops);

  // ---- quicsim on the DoQ datagrams.
  const double quic = static_cast<double>(traffic.quic_datagrams.size());
  double quic_ns = 0;
  guarded("quicsim", [&]() {
    if (traffic.quic_datagrams.empty()) return;
    quic_ns = median_pass_ns([&]() {
      std::size_t frames_seen = 0;
      const std::int64_t t0 = now_ns();
      for (const auto& d : traffic.quic_datagrams) {
        frames_seen += quicsim::Packet::decode(d).frames.size();
      }
      const std::int64_t elapsed = now_ns() - t0;
      require(frames_seen >= traffic.quic_datagrams.size(),
              "a QUIC packet decoded without frames");
      return elapsed;
    });
  });
  L["quicsim.packets_per_op"] = quic / ops;
  L["quicsim.packet_decode_ns"] = per(quic_ns, quic);
  L["quicsim.wall_share"] = share(quic_ns / ops);

  // ---- resolver seam.
  std::vector<double> handle_us;
  std::uint64_t obs_spans = 0;
  for (const auto& t : traced.traces) {
    handle_us.insert(handle_us.end(), t.handle_us.begin(), t.handle_us.end());
    obs_spans += t.obs_spans;
  }
  L["resolver.handle_us"] = median(handle_us);

  // ---- obs.
  L["obs.spans_per_op"] = static_cast<double>(obs_spans) / ops;
  L["obs.trace_overhead_ratio"] =
      per(traced.timed_wall_s / ops, untraced.timed_wall_s / uops);

  // ---- the traffic each workload is chosen to have (perfbench/README.md).
  if (workload == "pageload") {
    expect(h1.messages > 0, "no http1 responses were replayed");
    expect(!certificates.empty(), "no TLS certificates were captured");
    expect(traffic.packets > 0, "no packets were captured");
  } else {
    expect(h1.messages == 0, "http1.messages_per_op is not 0");
  }
  if (workload == "resolve") {
    expect(full > 0, "no TLS handshakes were captured in warm-up");
    expect(traffic.full_after_warmup == 0,
           std::to_string(traffic.full_after_warmup) +
               " full TLS handshakes after warm-up");
    expect(h2.frames > 0, "no h2 frames were replayed");
    expect(quic > 0, "no QUIC packets were captured");
  }
  if (workload == "corpus") {
    expect(traffic.packets == 0, "simnet.packets_per_op is not 0");
  }

  std::printf("ledger (%s): %llu packets, %zu TLS connections (%zu http/1.1, "
              "%zu h2), %zu certificates, %zu seam messages, %zu names\n",
              workload.c_str(), static_cast<unsigned long long>(traffic.packets),
              traffic.flows.size(), h1_flows.size(), h2_flows.size(),
              certificates.size(), messages.size(), names.size());
  std::printf("ledger (%s): wall shares of op_us_p50 %.1f us: simnet.send "
              "%.4f, simnet %.4f, dns %.4f, dns.name %.4f, tlssim.handshake "
              "%.4f, tlssim %.4f, http1 %.4f, http2 %.4f, quicsim %.4f\n",
              workload.c_str(), op_ns / 1e3, L["simnet.send_wall_share"],
              L["simnet.wall_share"], L["dns.wall_share"],
              L["dns.name_wall_share"], L["tlssim.handshake_wall_share"],
              L["tlssim.wall_share"], L["http1.wall_share"],
              L["http2.wall_share"], L["quicsim.wall_share"]);
  return ledger;
}

}  // namespace perfbench
