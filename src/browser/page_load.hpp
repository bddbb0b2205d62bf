// The page-load engine: replays a workload::Page the way a browser does —
// resolve origins through a pluggable ResolverClient (legacy UDP or DoH),
// fetch objects over per-origin HTTPS connection pools (up to 6 parallel
// connections per origin, like Firefox), honour discovery depth, and record
// when the onload event would fire.
//
// This is the machinery behind Figure 6: swapping the ResolverClient is the
// *only* difference between the U/LO, U/CF, U/GO, H/CF and H/GO runs.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "browser/web_farm.hpp"
#include "core/client.hpp"
#include "http1/client.hpp"
#include "obs/metric.hpp"
#include "obs/span.hpp"
#include "simnet/fifo.hpp"
#include "workload/alexa.hpp"

namespace dohperf::browser {

struct PageLoadConfig {
  int max_connections_per_origin = 6;  ///< Firefox's per-origin limit
  simnet::TimeUs parse_delay = simnet::ms(5);  ///< HTML parse before fetches
  obs::SpanContext obs;  ///< tracing/metrics sink (default: off)
};

struct PageLoadResult {
  bool success = false;
  simnet::TimeUs started_at = 0;
  simnet::TimeUs onload_at = 0;
  /// Sum of individual resolution times ("the time it would take to perform
  /// all DNS queries serially", §5).
  simnet::TimeUs cumulative_dns = 0;
  std::size_t dns_queries = 0;
  std::size_t objects_fetched = 0;
  std::size_t fetch_failures = 0;

  simnet::TimeUs onload_time() const noexcept {
    return onload_at - started_at;
  }
};

/// Loads one page, then invokes the completion callback. Create one per
/// page load (its connection pools are the "browser cache purged" state);
/// the ResolverClient is shared so DoH connections persist across pages,
/// as they do in Firefox.
class PageLoader {
 public:
  PageLoader(simnet::Host& browser_host, WebFarm& farm,
             core::ResolverClient& resolver, PageLoadConfig config = {});
  ~PageLoader();

  PageLoader(const PageLoader&) = delete;
  PageLoader& operator=(const PageLoader&) = delete;

  /// Begin loading; `done` fires once every object has been fetched (the
  /// onload event). Only one load per PageLoader.
  void load(const workload::Page& page,
            std::function<void(const PageLoadResult&)> done);

 private:
  struct Connection {
    /// The loader, so a response handler captures only its connection and
    /// object index and fits std::function's inline storage.
    PageLoader* loader = nullptr;
    std::shared_ptr<simnet::TcpConnection> tcp;
    std::unique_ptr<http1::Http1Client> http;
    int outstanding = 0;
  };
  struct Origin {
    simnet::Address address;
    bool resolved = false;
    bool resolving = false;
    simnet::Fifo<int> pending_objects;  ///< object indices awaiting fetch
    std::vector<std::unique_ptr<Connection>> connections;
  };

  void resolve_origin(const dns::Name& domain);
  void on_resolved(const dns::Name& domain, const core::ResolutionResult& r);
  void enqueue_fetch(int object_index);
  void pump_origin(const dns::Name& domain);
  void on_object_done(int object_index, bool success);
  void discover_children(int object_index);
  void maybe_finish();

  simnet::EventLoop& loop();

  simnet::Host& browser_;
  WebFarm& farm_;
  core::ResolverClient& resolver_;
  PageLoadConfig config_;

  workload::Page page_;
  std::function<void(const PageLoadResult&)> done_;
  PageLoadResult result_;
  obs::SpanId page_span_ = 0;
  obs::SpanContext page_obs_;  ///< children hang under the page_load span
  struct Metrics {
    obs::CounterHandle pages{"browser.pages"};
    obs::CounterHandle dns_queries{"browser.dns_queries"};
    obs::CounterHandle fetches{"browser.fetches"};
    obs::CounterHandle fetch_failures{"browser.fetch_failures"};
  } metrics_;
  std::map<dns::Name, obs::SpanId> resolve_spans_;
  std::map<int, obs::SpanId> fetch_spans_;
  std::map<dns::Name, Origin> origins_;
  std::size_t objects_outstanding_ = 0;  ///< fetches not yet finished
  bool finished_ = false;
};

}  // namespace dohperf::browser
