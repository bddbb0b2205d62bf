#include "browser/page_load.hpp"

#include <algorithm>

#include "simnet/stream.hpp"

namespace dohperf::browser {

namespace {
/// Object index used for the root HTML document.
constexpr int kHtmlIndex = -1;
}  // namespace

PageLoader::PageLoader(simnet::Host& browser_host, WebFarm& farm,
                       core::ResolverClient& resolver, PageLoadConfig config)
    : browser_(browser_host), farm_(farm), resolver_(resolver),
      config_(config) {}

PageLoader::~PageLoader() {
  for (auto& [domain, origin] : origins_) {
    for (auto& conn : origin.connections) {
      if (conn->http && conn->http->is_open()) conn->http->close();
    }
  }
}

simnet::EventLoop& PageLoader::loop() { return browser_.loop(); }

void PageLoader::load(const workload::Page& page,
                      std::function<void(const PageLoadResult&)> done) {
  page_ = page;
  done_ = std::move(done);
  result_ = PageLoadResult{};
  result_.started_at = loop().now();
  page_span_ = config_.obs.begin("page_load");
  // Span attributes and span bookkeeping are built only for a tracer.
  if (config_.obs) {
    config_.obs.set_attr(page_span_, "page", page_.primary.to_string());
    config_.obs.set_attr(page_span_, "objects",
                         static_cast<std::int64_t>(page_.objects.size()));
  }
  page_obs_ = config_.obs.child(page_span_);
  metrics_.pages.add(config_.obs);
  // Everything that must complete before onload: the HTML + all objects.
  objects_outstanding_ = page_.objects.size() + 1;

  // Kick off with the primary domain's resolution; the HTML fetch is
  // enqueued once it resolves.
  enqueue_fetch(kHtmlIndex);
}

void PageLoader::resolve_origin(const dns::Name& domain) {
  Origin& origin = origins_[domain];
  if (origin.resolved || origin.resolving) return;
  origin.resolving = true;
  ++result_.dns_queries;
  if (page_obs_) {
    const obs::SpanId span = page_obs_.begin("resolve_origin");
    page_obs_.set_attr(span, "domain", domain.to_string());
    resolve_spans_[domain] = span;
  }
  metrics_.dns_queries.add(config_.obs);
  resolver_.resolve(domain, dns::RType::kA,
                    [this, domain](const core::ResolutionResult& r) {
                      on_resolved(domain, r);
                    });
}

void PageLoader::on_resolved(const dns::Name& domain,
                             const core::ResolutionResult& r) {
  Origin& origin = origins_[domain];
  origin.resolving = false;
  result_.cumulative_dns += r.resolution_time();
  const auto span_it = resolve_spans_.find(domain);
  if (span_it != resolve_spans_.end()) {
    page_obs_.set_attr(span_it->second, "success", r.success);
    page_obs_.end(span_it->second);
  }
  if (!r.success) {
    // Every object waiting on this origin fails.
    while (!origin.pending_objects.empty()) {
      const int index = origin.pending_objects.front();
      origin.pending_objects.pop_front();
      on_object_done(index, false);
    }
    return;
  }
  origin.resolved = true;
  // The DNS answer's address is authoritative in the real world; in the
  // simulation the farm provides the transport address for the origin.
  origin.address = farm_.origin_for(domain);
  pump_origin(domain);
}

void PageLoader::enqueue_fetch(int object_index) {
  const dns::Name& domain = object_index == kHtmlIndex
                                ? page_.primary
                                : page_.objects[static_cast<std::size_t>(
                                                    object_index)]
                                      .domain;
  Origin& origin = origins_[domain];
  origin.pending_objects.push_back(object_index);
  if (origin.resolved) {
    pump_origin(domain);
  } else {
    resolve_origin(domain);
  }
}

void PageLoader::pump_origin(const dns::Name& domain) {
  Origin& origin = origins_[domain];
  std::string host;  // the domain's text, formatted once there is a fetch
  while (!origin.pending_objects.empty()) {
    if (host.empty()) host = domain.to_string();
    // Pick the connection with the least outstanding work; open a new one
    // if all are busy and the per-origin limit allows.
    Connection* best = nullptr;
    for (auto& conn : origin.connections) {
      if (!conn->http->is_open() && conn->outstanding == 0) continue;
      if (best == nullptr || conn->outstanding < best->outstanding) {
        best = conn.get();
      }
    }
    const bool all_busy = best == nullptr || best->outstanding > 0;
    if (all_busy && origin.connections.size() <
                        static_cast<std::size_t>(
                            config_.max_connections_per_origin)) {
      auto conn = std::make_unique<Connection>();
      conn->loader = this;
      conn->tcp = browser_.tcp_connect(origin.address);
      tlssim::ClientConfig tls_config;
      tls_config.sni = host;
      tls_config.alpn = {"http/1.1"};
      auto tls = std::make_unique<tlssim::TlsConnection>(
          std::make_unique<simnet::TcpByteStream>(conn->tcp),
          std::move(tls_config));
      conn->http = std::make_unique<http1::Http1Client>(
          std::move(tls), /*pipelining=*/false);
      best = conn.get();
      origin.connections.push_back(std::move(conn));
    }
    if (best == nullptr) break;  // limit reached, all busy: wait

    const int index = origin.pending_objects.front();
    origin.pending_objects.pop_front();
    const std::size_t bytes =
        index == kHtmlIndex
            ? page_.html_bytes
            : page_.objects[static_cast<std::size_t>(index)].bytes;

    http1::Request request;
    request.method = "GET";
    request.target = WebFarm::object_target(bytes);
    request.headers.add("Host", host);
    request.headers.add("User-Agent", "dohperf-browser/1.0");
    request.headers.add("Accept", "*/*");

    if (page_obs_) {
      const obs::SpanId fetch_span = page_obs_.begin("fetch");
      page_obs_.set_attr(fetch_span, "domain", host);
      page_obs_.set_attr(fetch_span, "bytes",
                         static_cast<std::int64_t>(bytes));
      fetch_spans_[index] = fetch_span;
    }
    metrics_.fetches.add(config_.obs);

    ++best->outstanding;
    Connection* conn_ptr = best;
    best->http->set_error_handler([this, conn_ptr]() {
      // Fail whatever this connection still owes us.
      const int lost = conn_ptr->outstanding;
      conn_ptr->outstanding = 0;
      for (int i = 0; i < lost; ++i) on_object_done(kHtmlIndex - 1, false);
    });
    best->http->request(std::move(request),
                        [conn_ptr, index](const http1::Response& resp) {
                          --conn_ptr->outstanding;
                          conn_ptr->loader->on_object_done(
                              index, resp.status == 200);
                        });
  }
}

void PageLoader::on_object_done(int object_index, bool success) {
  if (finished_) return;
  const auto span_it = fetch_spans_.find(object_index);
  if (span_it != fetch_spans_.end()) {
    page_obs_.set_attr(span_it->second, "success", success);
    page_obs_.end(span_it->second);
    fetch_spans_.erase(span_it);
  }
  if (success) {
    ++result_.objects_fetched;
  } else {
    ++result_.fetch_failures;
    metrics_.fetch_failures.add(config_.obs);
  }
  --objects_outstanding_;

  if (object_index == kHtmlIndex && success) {
    // Parse the HTML, then discover every depth-0 object.
    loop().schedule_in(config_.parse_delay, [this]() {
      for (std::size_t i = 0; i < page_.objects.size(); ++i) {
        if (page_.objects[i].depth == 0) {
          enqueue_fetch(static_cast<int>(i));
        }
      }
      maybe_finish();  // pages with zero objects
    });
    return;
  }
  if (object_index >= 0 && success) discover_children(object_index);
  maybe_finish();
}

void PageLoader::discover_children(int object_index) {
  for (std::size_t i = 0; i < page_.objects.size(); ++i) {
    if (page_.objects[i].parent == object_index) {
      enqueue_fetch(static_cast<int>(i));
    }
  }
}

void PageLoader::maybe_finish() {
  if (finished_ || objects_outstanding_ > 0) return;
  finished_ = true;
  result_.onload_at = loop().now();
  result_.success = result_.fetch_failures == 0;
  config_.obs.set_attr(page_span_, "success", result_.success);
  config_.obs.set_attr(page_span_, "dns_queries",
                       static_cast<std::int64_t>(result_.dns_queries));
  config_.obs.set_attr(page_span_, "objects_fetched",
                       static_cast<std::int64_t>(result_.objects_fetched));
  config_.obs.end(page_span_);
  if (done_) done_(result_);
}

}  // namespace dohperf::browser
