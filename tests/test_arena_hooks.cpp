// Tests for the replaced operator new/delete (src/simnet/arena_hooks.cpp).
//
// This binary — unlike every other test — links dohperf::arena_hooks, so
// its `new`/`delete` route exactly the way the bench executables' do: to
// the thread's current ShardMemory while a MemoryScope is active, to the
// global heap (with a routing header) otherwise. The suite pins down the
// properties the benches rely on:
//   - scope routing and header-based frees,
//   - zero global-heap allocations in shard steady state (the tentpole's
//     whole point),
//   - shard results escaping their arena's scope and lifetime,
//   - run_sharded producing identical results at any --jobs value,
//   - dns::Name copies, compares and decodes without allocating,
//   - a ceiling on the allocations per page of the fig1 corpus scan, and
//     a default page model allocating no popularity table of its own,
//   - a queue that allocates nothing until its first push,
//   - pins on the allocations of one full TLS 1.2 and one full TLS 1.3
//     handshake,
//   - a ceiling on the allocations of one HTTP/1.1 object fetch, a
//     response body parsed from one slice making none and one spanning
//     slices making one, closed connections parked without allocating,
//     and a ceiling on the allocations of one WebFarm page load,
//   - ceilings on the allocations of a resolver-tier cache hit and of a
//     miss that evicts,
//   - ceilings on the allocations of one warm query over UDP, DoT, DoH/h2
//     and DoQ.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/shard_runner.hpp"
#include "browser/page_load.hpp"
#include "browser/web_farm.hpp"
#include "core/doh_client.hpp"
#include "core/doq_client.hpp"
#include "core/dot_client.hpp"
#include "core/udp_client.hpp"
#include "dns/name.hpp"
#include "http1/client.hpp"
#include "http1/server.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/doq_server.hpp"
#include "resolver/dot_server.hpp"
#include "resolver/engine.hpp"
#include "resolver/recursive_tier.hpp"
#include "resolver/udp_server.hpp"
#include "simnet/arena.hpp"
#include "simnet/event_loop.hpp"
#include "simnet/fifo.hpp"
#include "simnet/host.hpp"
#include "simnet/network.hpp"
#include "simnet/stream.hpp"
#include "tlssim/connection.hpp"
#include "workload/alexa.hpp"

namespace dohperf {
namespace {

using simnet::MemoryScope;
using simnet::ShardMemory;
using simnet::ShardMemoryStats;

TEST(ArenaHooks, ScopeRoutesNewToCurrentArena) {
  // make_unique's internal `new` goes through the replaced operator, same
  // as every allocation in the benches.
  auto outside = std::make_unique<std::uint64_t>(7);
  EXPECT_EQ(ShardMemory::owner_of(outside.get()), nullptr);

  ShardMemory* arena = ShardMemory::create();
  std::unique_ptr<std::uint64_t> inside;
  {
    MemoryScope scope(*arena);
    EXPECT_EQ(simnet::current_arena(), arena);
    inside = std::make_unique<std::uint64_t>(9);
    EXPECT_EQ(ShardMemory::owner_of(inside.get()), arena);
  }
  EXPECT_EQ(simnet::current_arena(), nullptr);
  // Frees route on the block header, not the (now empty) thread scope.
  EXPECT_EQ(*inside, 9u);
  inside.reset();
  outside.reset();
  EXPECT_EQ(arena->stats().live_blocks, 0u);
  arena->release();
}

TEST(ArenaHooks, NestedScopesRestoreThePreviousArena) {
  ShardMemory* a = ShardMemory::create();
  ShardMemory* b = ShardMemory::create();
  {
    MemoryScope outer(*a);
    {
      MemoryScope inner(*b);
      auto p = std::make_unique<int>(1);
      EXPECT_EQ(ShardMemory::owner_of(p.get()), b);
    }
    EXPECT_EQ(simnet::current_arena(), a);
    auto q = std::make_unique<int>(2);
    EXPECT_EQ(ShardMemory::owner_of(q.get()), a);
  }
  a->release();
  b->release();
}

// The deterministic allocation churn of a mock shard: container growth,
// short-lived strings, node-based scratch — the shapes the real benches
// allocate in their event loops.
std::uint64_t churn_once(std::uint64_t seed) {
  std::vector<std::string> names;
  names.reserve(64);
  std::uint64_t acc = seed;
  for (int i = 0; i < 64; ++i) {
    acc = acc * 6364136223846793005ull + 1442695040888963407ull;
    const std::string index = std::to_string(acc % 100000);
    names.push_back("q" + index + ".example.com");
  }
  std::vector<std::uint64_t> lens;
  lens.reserve(names.size());
  for (const std::string& n : names) lens.push_back(n.size());
  for (std::uint64_t l : lens) acc += l;
  return acc;
}

TEST(ArenaHooks, SteadyStateMakesZeroGlobalAllocations) {
  ShardMemory* arena = ShardMemory::create();
  std::uint64_t warm = 0, steady = 0;
  {
    MemoryScope scope(*arena);
    warm = churn_once(1);  // faults in the arena's chunks
    const ShardMemoryStats after_warm = arena->stats();
    const std::uint64_t g0 = simnet::scope_global_allocs();

    steady = churn_once(1);  // identical pattern: freelists serve everything

    const ShardMemoryStats after_steady = arena->stats();
    EXPECT_EQ(simnet::scope_global_allocs() - g0, 0u)
        << "steady-state shard code must not touch the global heap";
    EXPECT_EQ(after_steady.arena_chunks, after_warm.arena_chunks);
    EXPECT_EQ(after_steady.huge_allocs, after_warm.huge_allocs);
    EXPECT_GT(after_steady.arena_allocs, after_warm.arena_allocs);
    EXPECT_GT(after_steady.freelist_hits, after_warm.freelist_hits);
  }
  EXPECT_EQ(warm, steady);
  arena->release();
}

TEST(ArenaHooks, EscapedResultsOutliveScopeAndArenaRelease) {
  ShardMemory* arena = ShardMemory::create();
  std::vector<std::uint64_t> result;
  {
    MemoryScope scope(*arena);
    for (std::uint64_t i = 0; i < 1000; ++i) result.push_back(i * i);
  }
  EXPECT_EQ(ShardMemory::owner_of(result.data()), arena);
  arena->release();  // orphaned: the result's buffer keeps it alive
  EXPECT_EQ(result[999], 999u * 999u);
  std::uint64_t sum = 0;
  for (std::uint64_t v : result) sum += v;
  EXPECT_EQ(sum, 332833500u);
  // result's destructor frees the last escaped block and with it the
  // orphaned arena (sanitizer builds verify no leak / use-after-free).
}

// A miniature sharded simulation: each shard runs its own EventLoop with a
// seeded timer cascade and digests the (time, executed) sequence. Results
// are a pure function of the shard index, so run_sharded must produce the
// same merged vector at any jobs value.
struct alignas(64) MiniResult {
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> fire_times;
};

MiniResult run_mini_shard(std::size_t index) {
  MiniResult out;
  out.fire_times.reserve(200);
  simnet::EventLoop loop;
  std::uint64_t rng = 0x9E3779B97F4A7C15ull * (index + 1);
  for (int i = 0; i < 200; ++i) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    loop.schedule_in(static_cast<simnet::TimeUs>(rng % 5000),
                     [&out, &loop] { out.fire_times.push_back(loop.now()); });
  }
  loop.run();
  out.digest = loop.executed();
  for (std::uint64_t t : out.fire_times) {
    out.digest = out.digest * 1099511628211ull + t;
  }
  return out;
}

TEST(ArenaHooks, RunShardedIsByteIdenticalAcrossJobs) {
  constexpr std::size_t kShards = 8;
  ShardMemoryStats serial_mem, parallel_mem;
  const auto serial = bench::run_sharded<MiniResult>(
      kShards, 1, run_mini_shard, &serial_mem);
  const auto parallel = bench::run_sharded<MiniResult>(
      kShards, 4, run_mini_shard, &parallel_mem);

  ASSERT_EQ(serial.size(), kShards);
  ASSERT_EQ(parallel.size(), kShards);
  for (std::size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(serial[i].digest, parallel[i].digest) << "shard " << i;
    EXPECT_EQ(serial[i].fire_times, parallel[i].fire_times) << "shard " << i;
  }

  // Both runs did real arena work, and every global-heap hit inside a
  // shard scope was a warm-up chunk fetch — steady state never left the
  // arena (huge passthroughs would break the equality).
  for (const ShardMemoryStats* mem : {&serial_mem, &parallel_mem}) {
    EXPECT_GT(mem->arena_allocs, 0u);
    EXPECT_EQ(mem->global_allocs, mem->arena_chunks);
    EXPECT_EQ(mem->huge_allocs, 0u);
  }
}

// --- dns::Name allocations ----------------------------------------------------
//
// A name is one flat buffer, inside the object up to Name::kInlineCapacity
// bytes, so the name-keyed containers of the tier cache and the engine
// allocate nothing for their keys beyond the map nodes.

std::uint64_t allocations(const ShardMemory& arena) {
  const ShardMemoryStats s = arena.stats();
  return s.arena_allocs + s.huge_allocs;
}

TEST(NameAllocations, InlineNamesAllocateNothingButMapNodes) {
  ShardMemory* arena = ShardMemory::create();
  {
    MemoryScope scope(*arena);
    std::uint64_t before = allocations(*arena);
    const dns::Name a = dns::Name::parse("cdn12.site123456.web.example");
    const dns::Name b = dns::Name::parse("TP4711.thirdparty.example");
    const dns::Name zone = a.parent().parent();
    dns::Name copy = a;
    dns::Name moved = std::move(copy);
    copy = b;
    moved = std::move(copy);
    const bool less = a < b;
    const bool equal = moved == b;
    const bool within = a.is_subdomain_of(zone);
    EXPECT_EQ(allocations(*arena) - before, 0u);
    EXPECT_TRUE(less);
    EXPECT_TRUE(equal);
    EXPECT_TRUE(within);

    std::vector<dns::Name> names;
    names.reserve(64);
    for (std::size_t i = 0; i < 64; ++i) {
      names.push_back(a.parent().child(std::to_string(i * 7919)));
    }
    std::map<dns::Name, std::size_t> map;
    before = allocations(*arena);
    for (std::size_t i = 0; i < names.size(); ++i) map.emplace(names[i], i);
    for (const auto& n : names) EXPECT_EQ(map.count(n), 1u);
    EXPECT_EQ(allocations(*arena) - before, names.size()) << "one per node";

    dns::ByteWriter w;
    dns::NameCompressor compressor;
    compressor.write(w, a);
    compressor.write(w, zone);  // a pointer into the first name
    compressor.write(w, b);
    const dns::Bytes wire = w.take();
    before = allocations(*arena);
    dns::ByteReader r(wire);
    const dns::Name a2 = dns::read_name(r);
    const dns::Name zone2 = dns::read_name(r);
    const dns::Name b2 = dns::read_name(r);
    EXPECT_EQ(allocations(*arena) - before, 0u);
    EXPECT_EQ(a2, a);
    EXPECT_EQ(zone2, zone);
    EXPECT_EQ(b2, b);
  }
  arena->release();
}

TEST(NameAllocations, LongNameTakesOneHeapBlockAndRoundTrips) {
  // Four 60-octet labels and "example": 4 * 61 + 8 + 1 = 253 octets.
  std::string text;
  for (const char c : {'a', 'b', 'c', 'd'}) {
    text.append(60, c);
    text += '.';
  }
  text += "example";
  ShardMemory* arena = ShardMemory::create();
  {
    MemoryScope scope(*arena);
    std::uint64_t before = allocations(*arena);
    const dns::Name name = dns::Name::parse(text);
    EXPECT_EQ(allocations(*arena) - before, 1u);
    EXPECT_EQ(name.wire_length(), 253u);

    before = allocations(*arena);
    dns::Name copy = name;
    EXPECT_EQ(allocations(*arena) - before, 1u);
    before = allocations(*arena);
    const dns::Name moved = std::move(copy);
    EXPECT_EQ(allocations(*arena) - before, 0u);
    EXPECT_EQ(moved, name);
    EXPECT_FALSE(moved < name);
    EXPECT_FALSE(name < moved);
    EXPECT_TRUE(name < name.parent().child("zzz"));

    dns::ByteWriter w;
    dns::NameCompressor compressor;
    compressor.write(w, name);
    compressor.write(w, moved);
    EXPECT_EQ(w.size(), 253u + 2u) << "the second name is one pointer";
    dns::ByteReader r(w.data());
    const dns::Name first = dns::read_name(r);
    const dns::Name second = dns::read_name(r);
    EXPECT_EQ(first.to_string(), text);
    EXPECT_EQ(second, name);
  }
  arena->release();
}

TEST(NameAllocations, CompressedEncodeAllocatesOnlyItsOutput) {
  ShardMemory* arena = ShardMemory::create();
  {
    MemoryScope scope(*arena);
    // A response whose names compress: the question, a CNAME and two
    // addresses of its target, and the OPT record.
    const dns::Name owner = dns::Name::parse("www.site123456.example");
    const dns::Name target = dns::Name::parse("edge7.cdn.site123456.example");
    const dns::Message query = dns::Message::make_query(7, owner);
    const dns::Message response = dns::Message::make_response(
        query, {dns::ResourceRecord::cname(owner, target),
                dns::ResourceRecord::a(target, "192.0.2.1"),
                dns::ResourceRecord::a(target, "192.0.2.2")});
    const std::uint64_t before = allocations(*arena);
    const dns::Bytes wire = response.encode();
    // A std::map node and key per suffix, and a regrown buffer, made 11.
    EXPECT_EQ(allocations(*arena) - before, 1u) << "the output buffer";
    EXPECT_LT(wire.size(), response.encode(/*compress=*/false).size());
    EXPECT_EQ(dns::Message::decode(wire), response);
  }
  arena->release();
}

// --- Corpus scan allocations ------------------------------------------------
//
// fig1's corpus_shard over 1,000 ranks, counted from after the model is
// built: the per-page cost of drawing each page's domains and counting them
// into the shard's sorted run.

TEST(CorpusAllocations, ShardScanPerPage) {
  constexpr std::size_t kPages = 1000;
  ShardMemory* arena = ShardMemory::create();
  double per_page = 0;
  {
    MemoryScope scope(*arena);
    workload::AlexaPageModel model;
    const std::uint64_t before = allocations(*arena);
    const auto shard = model.corpus_shard(1, kPages);
    per_page = static_cast<double>(allocations(*arena) - before) /
               static_cast<double>(kPages);
    EXPECT_EQ(shard.queries_per_page.size(), kPages);
  }
  arena->release();
  // Measured 2.004 with GCC 12 and libstdc++; the ceiling is that plus 10 %.
  // Building every page's objects and counting its names through a
  // std::set and the shard's std::map made 141.2.
  EXPECT_LE(per_page, 2.2);
  EXPECT_GT(per_page, 0.0);
}

// Every default model draws from one popularity table built before main(),
// so a shard's models allocate nothing in the shard's arena, not even the
// first one: a table first built there would keep the whole arena alive
// until exit.
TEST(CorpusAllocations, ModelSharesThePopularityTable) {
  ShardMemory* arena = ShardMemory::create();
  std::uint64_t grown = 0;
  {
    MemoryScope scope(*arena);
    const auto in_bump_chunk = std::make_unique<std::uint64_t>(1);
    const std::uint64_t before = arena->stats().arena_bytes;
    const workload::AlexaPageModel first;
    const workload::AlexaPageModel second;
    grown = arena->stats().arena_bytes - before;
  }
  arena->release();
  // A table is 60,000 doubles: a 512 KiB slab.
  EXPECT_LT(grown, std::uint64_t{64} << 10);
}

// --- Queue allocations -------------------------------------------------------
//
// Every connection owns several queues, most of which stay empty or short:
// a ring that allocates at its first push and grows by doubling.

TEST(FifoAllocations, NothingUntilTheFirstPushThenOneBuffer) {
  ShardMemory* arena = ShardMemory::create();
  {
    MemoryScope scope(*arena);
    const std::uint64_t before = allocations(*arena);
    simnet::Fifo<simnet::BufferSlice> idle;
    simnet::Fifo<int> used;
    // std::deque allocated a map and a node at construction: 4 here.
    EXPECT_EQ(allocations(*arena) - before, 0u);
    for (int i = 0; i < 4; ++i) used.push_back(i);
    EXPECT_EQ(allocations(*arena) - before, 1u);
    for (int i = 0; i < 1000; ++i) {
      used.pop_front();
      used.push_back(i);
    }
    EXPECT_EQ(allocations(*arena) - before, 1u) << "a full ring wraps";
    used.push_back(4);
    EXPECT_EQ(allocations(*arena) - before, 2u) << "and doubles once full";
    EXPECT_TRUE(idle.empty());
  }
  arena->release();
}

// --- TLS handshake allocations -----------------------------------------------
//
// One full handshake between a client and a server TlsConnection over
// simulated TCP, both ends counted from the connect until the loop is idle
// again: the TCP handshake, every flight both ways and the session ticket.

std::uint64_t handshake_allocations(tlssim::TlsVersion version) {
  ShardMemory* arena = ShardMemory::create();
  std::uint64_t count = 0;
  {
    MemoryScope scope(*arena);
    simnet::EventLoop loop;
    simnet::Network net(loop, 7);
    simnet::Host client(net, "client");
    simnet::Host server(net, "server");
    simnet::LinkConfig link;
    link.latency = simnet::ms(10);
    net.connect(client.id(), server.id(), link);
    tlssim::ServerConfig server_config;
    server_config.versions = {version};
    server_config.alpn_preference = {"http/1.1"};
    server_config.chain = tlssim::CertificateChain::generic("origin.example");
    std::unique_ptr<tlssim::TlsConnection> accepted;
    server.tcp_listen(443, [&](std::shared_ptr<simnet::TcpConnection> c) {
      accepted = std::make_unique<tlssim::TlsConnection>(
          std::make_unique<simnet::TcpByteStream>(std::move(c)),
          &server_config);
    });
    tlssim::ClientConfig client_config;
    client_config.sni = "origin.example";
    client_config.alpn = {"http/1.1"};

    const std::uint64_t before = allocations(*arena);
    tlssim::TlsConnection tls(std::make_unique<simnet::TcpByteStream>(
                                  client.tcp_connect({server.id(), 443})),
                              std::move(client_config));
    loop.run();
    count = allocations(*arena) - before;
    EXPECT_TRUE(tls.established());
    EXPECT_EQ(tls.version(), version);
    EXPECT_FALSE(tls.resumed());
    EXPECT_TRUE(accepted != nullptr && accepted->established());
  }
  arena->release();
  return count;
}

TEST(HandshakeAllocations, FullTls12AndTls13Pairs) {
  const std::uint64_t tls12 = handshake_allocations(tlssim::TlsVersion::kTls12);
  const std::uint64_t tls13 = handshake_allocations(tlssim::TlsVersion::kTls13);
  // Measured 22 and 22 with GCC 12 and libstdc++; the ceilings are those
  // plus 10 %. Copying every received segment into a growing buffer, the
  // server's copies of the offered ALPN list and the client's copy of a
  // ticket it keeps nowhere made 27 and 27. Two ByteWriters per handshake
  // message, a Bytes per ChangeCipherSpec and alert, the ticket built as a
  // string and copied, a deque's map and node per queue, and the SNI and
  // ALPN list copied into each ClientHello made 58 (TLS 1.2) and 55 (TLS
  // 1.3).
  EXPECT_LE(tls12, 24u);
  EXPECT_LE(tls13, 24u);
  EXPECT_GT(tls12, 0u);
  EXPECT_GT(tls13, 0u);
}

// --- HTTP/1.1 fetch allocations ----------------------------------------------
//
// One 1 MiB object over HTTP/1.1 over TLS over simulated TCP, client and
// server counted together: the path every fig6 object takes. The body is a
// window of a buffer made before counting, as WebFarm serves it, so the
// count is the transport's own work: records, segments, packets, parsing.

TEST(FetchAllocations, OneMibHttp1FetchOverTls) {
  ShardMemory* arena = ShardMemory::create();
  std::uint64_t fetch_allocations = 0;
  {
    MemoryScope scope(*arena);
    simnet::EventLoop loop;
    simnet::Network net(loop, 7);
    simnet::Host client(net, "client");
    simnet::Host server(net, "server");
    simnet::LinkConfig link;
    link.latency = simnet::ms(10);
    link.bandwidth_bps = 50e6;
    net.connect(client.id(), server.id(), link);

    const auto body =
        std::make_shared<const dns::Bytes>(std::size_t{1} << 20, 0x42);
    tlssim::ServerConfig tls_server;
    tls_server.alpn_preference = {"http/1.1"};
    std::unique_ptr<http1::Http1ServerConnection> origin;
    server.tcp_listen(443, [&](std::shared_ptr<simnet::TcpConnection> c) {
      origin = std::make_unique<http1::Http1ServerConnection>(
          std::make_unique<tlssim::TlsConnection>(
              std::make_unique<simnet::TcpByteStream>(std::move(c)),
              &tls_server),
          [&](const http1::Request&,
              http1::Http1ServerConnection::Responder respond) {
            http1::Response response;
            response.headers.add("Content-Type", "application/octet-stream");
            response.body = simnet::BufferSlice(body, 0, body->size());
            respond(std::move(response));
          });
    });
    tlssim::ClientConfig tls_client;
    tls_client.sni = "origin.example";
    tls_client.alpn = {"http/1.1"};
    http1::Http1Client browser(
        std::make_unique<tlssim::TlsConnection>(
            std::make_unique<simnet::TcpByteStream>(
                client.tcp_connect({server.id(), 443})),
            std::move(tls_client)),
        /*pipelining=*/false);
    loop.run();  // connection and TLS handshake, then idle
    ASSERT_TRUE(browser.is_open());

    const std::uint64_t before = allocations(*arena);
    http1::Request request;
    request.target = "/o/1048576";
    request.headers.add("Host", "origin.example");
    std::size_t received = 0;
    browser.request(std::move(request), [&](const http1::Response& r) {
      received = r.body.size();
    });
    loop.run();
    fetch_allocations = allocations(*arena) - before;
    EXPECT_EQ(received, body->size());
  }
  arena->release();
  // Measured 34 with GCC 12 and libstdc++; the ceiling is that plus 10 %.
  // Copying received records into a growing buffer, and the body through
  // the parser's buffer into a Bytes with a count block of its own, made 39
  // (gated at 43). A deque node per 10 unacked segments, a Bytes per
  // HTTP/1.1 head and a string per header made 119 (gated at 425). Copying
  // bodies and records, growing writers a byte at a time and keeping two
  // maps per TCP connection, the same fetch made 2,168.
  EXPECT_LE(fetch_allocations, 37u);
  EXPECT_GT(fetch_allocations, 0u);
}

// --- HTTP/1.1 body allocations ----------------------------------------------------
//
// A response parsed from slices: a body that lies inside the fed slice is a
// window of it and allocates nothing; one that spans feeds is gathered into
// one block. Counted from the first feed to the extracted response, against
// the same head with no body (whose header list is the one allocation).

/// Allocations of feeding `wire` in pieces that end at `cuts` and
/// extracting the one response it holds.
std::uint64_t parse_allocations(const dns::Bytes& wire,
                                const std::vector<std::size_t>& cuts) {
  ShardMemory* arena = ShardMemory::create();
  std::uint64_t count = 0;
  {
    MemoryScope scope(*arena);
    const auto buffer = std::make_shared<const dns::Bytes>(wire);
    std::vector<simnet::BufferSlice> pieces;
    std::size_t from = 0;
    for (const std::size_t cut : cuts) {
      pieces.emplace_back(buffer, from, cut - from);
      from = cut;
    }
    pieces.emplace_back(buffer, from, wire.size() - from);
    http1::Parser parser(http1::Parser::Mode::kResponse);
    std::optional<http1::Response> response;
    const std::uint64_t before = allocations(*arena);
    for (const auto& piece : pieces) {
      parser.feed(piece);
      if (auto r = parser.next_response()) response = std::move(r);
    }
    count = allocations(*arena) - before;
    EXPECT_TRUE(response.has_value());
  }
  arena->release();
  return count;
}

TEST(ParserAllocations, ABodyInOneSliceMakesNoneASpanningBodyOne) {
  http1::Response empty;
  empty.headers.add("Content-Type", "application/octet-stream");
  http1::Response full = empty;
  full.body = dns::Bytes(6000, 0x42);
  http1::WireSizes sizes;
  const dns::Bytes wire = http1::serialize(full, &sizes);
  const std::uint64_t head = parse_allocations(http1::serialize(empty), {});
  EXPECT_EQ(parse_allocations(wire, {}), head);
  const std::size_t body = sizes.header_bytes;
  EXPECT_EQ(parse_allocations(wire, {body + 1000, body + 2500, body + 4000}),
            head + 1);
  EXPECT_EQ(parse_allocations(wire, {body}), head) << "the body alone";
  EXPECT_GT(head, 0u);
}

// --- Closing connections -----------------------------------------------------------
//
// A connection that closes during its own call is parked until the call
// returns; the host keeps the parking vector's room, so closing connections
// one after another allocates nothing for parking once one has closed.

TEST(ParkingAllocations, ClosingConnectionsAfterWarmUpParksWithoutAllocating) {
  constexpr std::size_t kConnections = 8;
  ShardMemory* arena = ShardMemory::create();
  std::uint64_t count = 0;
  {
    MemoryScope scope(*arena);
    simnet::EventLoop loop;
    simnet::Network net(loop, 7);
    simnet::Host client(net, "client");
    simnet::Host server(net, "server");
    net.connect(client.id(), server.id(), simnet::LinkConfig{});
    server.tcp_listen(80, [](std::shared_ptr<simnet::TcpConnection>) {});
    std::vector<std::shared_ptr<simnet::TcpConnection>> conns;
    for (std::size_t i = 0; i <= kConnections; ++i) {
      conns.push_back(client.tcp_connect({server.id(), 80}));
    }
    loop.run();
    conns.front()->abort();  // each host parks one connection
    loop.run();
    const std::uint64_t before = allocations(*arena);
    for (std::size_t i = 1; i <= kConnections; ++i) {
      conns[i]->abort();
      loop.run();
    }
    count = allocations(*arena) - before;
    for (const auto& conn : conns) {
      EXPECT_EQ(conn->state(), simnet::TcpState::kClosed);
    }
  }
  arena->release();
  // A fresh parking vector per release made one allocation per closed end:
  // 16 here.
  EXPECT_EQ(count, 0u);
}

// --- Page-load allocations ------------------------------------------------------
//
// One page load as fig6 makes it: the browser resolves each domain over UDP
// and fetches every object over HTTP/1.1 over TLS from the WebFarm, counted
// from the load's start until the loop is idle again.

std::uint64_t page_load_allocations(std::size_t rank) {
  ShardMemory* arena = ShardMemory::create();
  std::uint64_t count = 0;
  {
    MemoryScope scope(*arena);
    simnet::EventLoop loop;
    simnet::Network net(loop, 11);
    simnet::Host browser_host(net, "browser");
    simnet::Host resolver_host(net, "resolver");
    simnet::LinkConfig link;
    link.latency = simnet::ms(2);
    net.connect(browser_host.id(), resolver_host.id(), link);
    resolver::Engine engine(loop, resolver::EngineConfig{});
    resolver::UdpServer udp_server(resolver_host, engine, 53);
    browser::WebFarmConfig farm_config;
    farm_config.base_latency = simnet::ms(10);
    farm_config.latency_jitter = simnet::ms(5);
    browser::WebFarm farm(net, browser_host, farm_config);
    core::UdpResolverClient resolver(browser_host, udp_server.address());
    const workload::Page page = workload::AlexaPageModel().page(rank);
    browser::PageLoader loader(browser_host, farm, resolver);
    bool loaded = false;
    const std::uint64_t before = allocations(*arena);
    loader.load(page, [&](const browser::PageLoadResult& r) {
      loaded = r.success && r.objects_fetched == page.objects.size() + 1;
    });
    loop.run();
    count = allocations(*arena) - before;
    EXPECT_TRUE(loaded);
  }
  arena->release();
  return count;
}

TEST(PageLoadAllocations, WebFarmPageLoad) {
  const std::uint64_t load_allocations = page_load_allocations(7);
  // Measured 5,620 with GCC 12 and libstdc++; the ceiling is that plus
  // 10 %. Copying every received segment into a growing TLS buffer and
  // every body through the parser's buffer into a Bytes with a count
  // block, copying the SNI, ALPN list and ticket out of each handshake,
  // and a new parking vector per closed connection made 6,850 (gated at
  // 7,535). A deque's map and node per queue, two ByteWriters per
  // handshake message, a string per header, a Bytes per HTTP/1.1 head,
  // span attributes formatted for no tracer and closures past
  // std::function's inline storage made 12,981 (gated at 15,243). A
  // Bytes and a count block per record header, handshake record and
  // coalesced segment, and a copied header list per HTTP/1.1 message, made
  // 17,419.
  EXPECT_LE(load_allocations, 6182u);
  EXPECT_GT(load_allocations, 0u);
}

// --- Resolver-tier allocations -------------------------------------------------
//
// A RecursiveTier driven directly on an event loop, no network, counted per
// query from building the query to its answer: a hit on a warm cache, and a
// miss that goes upstream and evicts an entry from a full cache.

/// Answers every query with one A record (TTL 60 s) after 1 ms.
class FixedUpstream final : public resolver::QueryHandler {
 public:
  explicit FixedUpstream(simnet::EventLoop& loop) : loop_(loop) {}

  void handle(const dns::Message& query, const resolver::QueryContext&,
              Continuation done) override {
    dns::Message response = dns::Message::make_response(
        query, {dns::ResourceRecord::a(query.questions.front().qname,
                                       "192.0.2.1", 60)});
    loop_.schedule_in(simnet::ms(1), [response = std::move(response),
                                      done = std::move(done)]() mutable {
      done(std::move(response));
    });
  }

 private:
  simnet::EventLoop& loop_;
};

TEST(TierAllocations, WarmHitAndEvictingMiss) {
  constexpr std::size_t kEntries = 64;
  ShardMemory* arena = ShardMemory::create();
  double per_hit = 0.0;
  double per_miss = 0.0;
  {
    MemoryScope scope(*arena);
    simnet::EventLoop loop;
    FixedUpstream upstream(loop);
    resolver::TierConfig config;
    config.cache_entries = kEntries;
    resolver::RecursiveTier tier(loop, upstream, config);
    std::vector<dns::Name> names;
    names.reserve(3 * kEntries);
    for (std::size_t i = 0; i < 3 * kEntries; ++i) {
      names.push_back(
          dns::Name::parse("tp" + std::to_string(i) + ".thirdparty.example"));
    }
    std::uint16_t id = 0;
    std::size_t answered = 0;
    // Resolve names [first, first + kEntries) one at a time; returns the
    // allocations per query.
    const auto resolve = [&](std::size_t first) {
      const std::uint64_t before = allocations(*arena);
      for (std::size_t i = first; i < first + kEntries; ++i) {
        tier.handle(dns::Message::make_query(++id, names[i]), {},
                    [&answered](dns::Message) { ++answered; });
        loop.run();
      }
      return static_cast<double>(allocations(*arena) - before) /
             static_cast<double>(kEntries);
    };
    resolve(0);         // fills the cache
    resolve(0);         // warm hits
    resolve(kEntries);  // evicting misses
    per_hit = resolve(kEntries);
    per_miss = resolve(2 * kEntries);
    EXPECT_EQ(answered, 5 * kEntries);
    EXPECT_EQ(tier.stats().cache_hits, 2 * kEntries);
    EXPECT_EQ(tier.stats().cache_evictions, 2 * kEntries);
  }
  arena->release();
  // Measured 8.5 per hit and 20.5 per evicting miss with GCC 12 and
  // libstdc++; the ceilings are those plus 10 %. Copying the cached answer
  // at lookup and again at delivery, a hit made 12 and such a miss 22.
  EXPECT_LE(per_hit, 9.35);
  EXPECT_LE(per_miss, 22.55);
  EXPECT_GT(per_hit, 0.0);
}

// --- Resolver-client allocations -----------------------------------------------
//
// Each transport's client against an Engine over a simulated link, client and
// server counted together: warm queries (connection open, names seen before)
// sent one at a time, each run until the loop is idle.

TEST(ClientAllocations, WarmQueryPerTransport) {
  constexpr std::size_t kQueries = 64;
  ShardMemory* arena = ShardMemory::create();
  std::map<std::string, double> per_query;
  {
    MemoryScope scope(*arena);
    simnet::EventLoop loop;
    simnet::Network net(loop, 7);
    simnet::Host client(net, "client");
    simnet::Host server(net, "server");
    simnet::LinkConfig link;
    link.latency = simnet::ms(5);
    net.connect(client.id(), server.id(), link);

    resolver::Engine engine(loop, {});
    const auto chain = tlssim::CertificateChain::generic("local.resolver");
    resolver::DotServerConfig dot_config;
    dot_config.tls.chain = chain;
    resolver::DohServerConfig doh_config;
    doh_config.tls.chain = chain;
    resolver::DoqServerConfig doq_config;
    doq_config.tls.chain = chain;
    resolver::UdpServer udp_server(server, engine, 53);
    resolver::DotServer dot_server(server, engine, dot_config, 853);
    resolver::DohServer doh_server(server, engine, doh_config, 443);
    resolver::DoqServer doq_server(server, engine, doq_config, 8853);

    core::UdpResolverClient udp(client, {server.id(), 53});
    core::DotClientConfig dot_client;
    dot_client.server_name = "local.resolver";
    core::DotClient dot(client, {server.id(), 853}, dot_client);
    core::DohClientConfig doh_client;
    doh_client.server_name = "local.resolver";
    core::DohClient doh(client, {server.id(), 443}, doh_client);
    core::DoqClientConfig doq_client;
    doq_client.server_name = "local.resolver";
    core::DoqClient doq(client, {server.id(), 8853}, doq_client);

    std::vector<dns::Name> names;
    names.reserve(kQueries);
    for (std::size_t i = 0; i < kQueries; ++i) {
      names.push_back(dns::Name::parse(std::to_string(i) + "w.example"));
    }
    // Resolve every name one at a time; returns the allocations per query.
    const auto resolve_all = [&](core::ResolverClient& stub) {
      std::size_t answered = 0;
      const std::uint64_t before = allocations(*arena);
      for (const dns::Name& name : names) {
        stub.resolve(name, dns::RType::kA,
                     [&answered](const core::ResolutionResult& r) {
                       answered += r.success ? 1 : 0;
                     });
        loop.run();
      }
      EXPECT_EQ(answered, kQueries);
      return static_cast<double>(allocations(*arena) - before) /
             static_cast<double>(kQueries);
    };
    const std::pair<const char*, core::ResolverClient*> clients[] = {
        {"udp", &udp}, {"dot", &dot}, {"doh_h2", &doh}, {"doq", &doq}};
    for (const auto& [transport, stub] : clients) {
      resolve_all(*stub);  // connects and warms the engine
      per_query[transport] = resolve_all(*stub);
    }
  }
  arena->release();
  // Measured 14.0 (UDP), 18.0 (DoT), 44.2 (DoH/h2) and 73.0 (DoQ) with GCC
  // 12 and libstdc++; the ceilings are those plus 10 %. DoT and DoQ made
  // 22.0 and 76.0 while each end framed a message by copying it into a
  // second buffer, and DoT copied each received frame out of its buffer.
  // A std::map per message for DNS name compression, and on DoH/h2 a
  // buffer per frame header, HPACK block and received frame, made 19.0,
  // 27.5, 107.4 and 81.0. Before Recovery kept the queries in flight,
  // DoH/h2, whose attempts lived in a vector, made 122.4, and DoQ, which
  // buffered every response, 82.0.
  EXPECT_LE(per_query["udp"], 15.42);
  EXPECT_LE(per_query["dot"], 19.85);
  EXPECT_LE(per_query["doh_h2"], 48.66);
  EXPECT_LE(per_query["doq"], 80.32);
  for (const auto& [transport, allocs] : per_query) {
    EXPECT_GT(allocs, 0.0) << transport;
  }
}

// One DoH/h2 exchange over a warm persistent connection, client, server and
// Engine counted together: HTTP/2 frames, HPACK blocks and the DNS codec on
// both ends.
TEST(ClientAllocations, DohH2ExchangeOnAWarmConnection) {
  constexpr std::size_t kQueries = 64;
  ShardMemory* arena = ShardMemory::create();
  double per_exchange = 0.0;
  {
    MemoryScope scope(*arena);
    simnet::EventLoop loop;
    simnet::Network net(loop, 7);
    simnet::Host client(net, "client");
    simnet::Host server(net, "server");
    simnet::LinkConfig link;
    link.latency = simnet::ms(5);
    net.connect(client.id(), server.id(), link);
    resolver::Engine engine(loop, {});
    resolver::DohServerConfig server_config;
    server_config.tls.chain =
        tlssim::CertificateChain::generic("local.resolver");
    resolver::DohServer doh_server(server, engine, server_config, 443);
    core::DohClientConfig config;
    config.server_name = "local.resolver";
    core::DohClient doh(client, {server.id(), 443}, config);

    std::vector<dns::Name> names;
    names.reserve(kQueries);
    for (std::size_t i = 0; i < kQueries; ++i) {
      const std::string label = "cdn" + std::to_string(i);
      names.push_back(dns::Name::parse(label + ".thirdparty.example"));
    }
    std::size_t answered = 0;
    const auto resolve_all = [&]() {
      const std::uint64_t before = allocations(*arena);
      for (const dns::Name& name : names) {
        doh.resolve(name, dns::RType::kA,
                    [&answered](const core::ResolutionResult& r) {
                      answered += r.success ? 1 : 0;
                    });
        loop.run();
      }
      return static_cast<double>(allocations(*arena) - before) /
             static_cast<double>(kQueries);
    };
    resolve_all();  // connects, fills both HPACK tables, warms the engine
    per_exchange = resolve_all();
    EXPECT_EQ(answered, 2 * kQueries);
  }
  arena->release();
  // Pinned at the 44.19 measured with GCC 12 and libstdc++. A std::map per
  // message for DNS name compression, a Bytes and a count block per frame
  // header, HPACK block and received frame, and copied header lists and
  // request bodies made 114.27.
  EXPECT_LE(per_exchange, 44.19);
  EXPECT_GT(per_exchange, 0.0);
}

}  // namespace
}  // namespace dohperf
