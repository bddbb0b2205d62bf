#include "resolver/engine.hpp"

#include <cmath>

namespace dohperf::resolver {

Engine::Engine(simnet::EventLoop& loop, EngineConfig config)
    : loop_(loop), config_(std::move(config)),
      upstream_latency_(std::log(config_.upstream.upstream_mu_ms),
                        config_.upstream.upstream_sigma, config_.seed),
      cache_rng_(config_.seed ^ 0x9e3779b97f4a7c15ULL),
      fault_rng_(config_.seed ^ 0xc2b2ae3d27d4eb4fULL) {}

void Engine::add_record(const dns::Name& name, const std::string& address) {
  zone_[name] = address;
}

void Engine::add_nxdomain(const dns::Name& name) {
  nxdomain_[name] = true;
}

dns::ResourceRecord Engine::soa_record(const dns::Name& qname) const {
  dns::SoaRdata soa;
  const dns::Name zone =
      qname.label_count() > 1 ? qname.parent() : qname;
  soa.mname = zone.child("ns1");
  soa.rname = zone.child("hostmaster");
  soa.serial = 1;
  soa.refresh = 3600;
  soa.retry = 600;
  soa.expire = 86400;
  soa.minimum = config_.soa_minimum;
  return dns::ResourceRecord{zone, dns::RType::kSOA, dns::RClass::kIN,
                             config_.ttl, soa};
}

dns::Message Engine::answer(const dns::Message& query) const {
  if (query.questions.empty()) {
    return dns::Message::make_error(query, dns::Rcode::kFormErr);
  }
  const auto& q = query.questions.front();
  if (nxdomain_.find(q.qname) != nxdomain_.end()) {
    // RFC 2308: negative responses carry the zone SOA in the authority
    // section so resolvers can derive a negative-cache TTL.
    dns::Message response =
        dns::Message::make_error(query, dns::Rcode::kNxDomain);
    response.authorities.push_back(soa_record(q.qname));
    return response;
  }
  if (q.qtype != dns::RType::kA) {
    // Only A queries are exercised by the experiments; others answer
    // NODATA (NOERROR, no answers) with the SOA negative caching needs.
    dns::Message response = dns::Message::make_response(query, {});
    response.authorities.push_back(soa_record(q.qname));
    return response;
  }
  const auto it = zone_.find(q.qname);
  const std::string& address =
      it != zone_.end() ? it->second : config_.fixed_address;
  std::vector<dns::ResourceRecord> answers;
  dns::ARdata rdata = dns::ARdata::parse(address);
  for (int i = 0; i < std::max(1, config_.answer_count); ++i) {
    answers.push_back(dns::ResourceRecord{q.qname, dns::RType::kA,
                                          dns::RClass::kIN, config_.ttl,
                                          rdata});
    // Subsequent records advertise adjacent addresses.
    rdata.addr[3] = static_cast<std::uint8_t>(rdata.addr[3] + 1);
  }
  dns::Message response = dns::Message::make_response(query, std::move(answers));
  if (config_.ecs_option && !response.additionals.empty()) {
    for (auto& rr : response.additionals) {
      if (rr.type != dns::RType::kOPT) continue;
      auto& opt = std::get<dns::OptRdata>(rr.rdata);
      dns::EdnsOption ecs;
      ecs.code = 8;  // RFC 7871 CLIENT-SUBNET
      ecs.data = dns::Bytes{0x00, 0x01, 0x18, 0x00, 0xc0, 0x00, 0x02};
      opt.options.push_back(std::move(ecs));
    }
  }
  return response;
}

simnet::TimeUs Engine::next_service_time() {
  simnet::TimeUs t = config_.upstream.processing;
  if (config_.upstream.cache_hit_ratio < 1.0 &&
      cache_rng_.next_double() >= config_.upstream.cache_hit_ratio) {
    ++stats_.cache_misses;
    metrics_.cache_misses.add(config_.obs);
    t += simnet::from_sec(upstream_latency_.sample() / 1e3);
  }
  return t;
}

void Engine::handle(const dns::Message& query, const QueryContext& context,
                    Continuation done) {
  (void)context;  // policy-free back-end: the tier consumes the context
  ++stats_.queries;
  metrics_.queries.add(config_.obs);
  simnet::TimeUs service = next_service_time();
  const auto& dp = config_.delay_policy;
  if (dp.every_n > 0 && stats_.queries % dp.every_n == 0) {
    ++stats_.delayed;
    metrics_.delayed.add(config_.obs);
    service += dp.delay;
  }

  // Fault injection: one uniform draw decides among stall / SERVFAIL /
  // REFUSED so the rates partition [0, 1) and compose predictably.
  const auto& fp = config_.faults;
  if (fp.stall_rate > 0.0 || fp.servfail_rate > 0.0 ||
      fp.refused_rate > 0.0) {
    const double u = fault_rng_.next_double();
    if (u < fp.stall_rate) {
      ++stats_.stalled;
      metrics_.stalled.add(config_.obs);
      return;  // accept-then-never-answer: the continuation is dropped
    }
    if (u < fp.stall_rate + fp.servfail_rate) {
      ++stats_.injected_servfail;
      metrics_.servfail_injected.add(config_.obs);
      dns::Message error = dns::Message::make_error(query, dns::Rcode::kServFail);
      loop_.schedule_in(service, [done = std::move(done),
                                  error = std::move(error)]() mutable {
        done(std::move(error));
      });
      return;
    }
    if (u < fp.stall_rate + fp.servfail_rate + fp.refused_rate) {
      ++stats_.injected_refused;
      metrics_.refused_injected.add(config_.obs);
      dns::Message error = dns::Message::make_error(query, dns::Rcode::kRefused);
      loop_.schedule_in(service, [done = std::move(done),
                                  error = std::move(error)]() mutable {
        done(std::move(error));
      });
      return;
    }
  }

  dns::Message response = answer(query);
  if (response.flags.rcode == dns::Rcode::kNxDomain ||
      (response.flags.rcode == dns::Rcode::kNoError &&
       response.answers.empty() && !response.questions.empty())) {
    ++stats_.negative_answers;
    metrics_.negative_answers.add(config_.obs);
  }
  loop_.schedule_in(service, [done = std::move(done),
                              response = std::move(response)]() mutable {
    done(std::move(response));
  });
}

}  // namespace dohperf::resolver
