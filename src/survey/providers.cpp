#include "survey/providers.hpp"

namespace dohperf::survey {

using tlssim::TlsVersion;

std::string to_string(TrafficSteering s) {
  switch (s) {
    case TrafficSteering::kDnsLoadBalancing: return "DNS Load Balancing";
    case TrafficSteering::kAnycast: return "Anycast";
    case TrafficSteering::kUnicast: return "Unicast";
  }
  return "?";
}

const std::vector<ProviderSpec>& paper_providers() {
  static const std::vector<ProviderSpec> kProviders = [] {
    // Strings and sets are built by designated initializers, not assigned:
    // assigning "CF" to a fresh std::string member trips GCC 12's
    // -Wmaybe-uninitialized inside std::string.
    std::vector<ProviderSpec> providers;

    {
      // Google runs two services on one domain: /resolve (JSON only, G1)
      // and /dns-query (wire format only, G2, formerly /experimental).
      ProviderSpec p{.name = "Google (i)",
                     .marker = "G1",
                     .hostname = "dns.google.com",
                     .endpoints = {{"/resolve", /*dns_message=*/false,
                                    /*dns_json=*/true}},
                     .tls_versions = {TlsVersion::kTls12, TlsVersion::kTls13}};
      p.certificate_bytes = 3101;  // measured in §4
      p.dns_caa = true;            // only Google publishes CAA (Table 2)
      p.quic = true;
      p.dns_over_tls = true;
      p.steering = TrafficSteering::kDnsLoadBalancing;
      providers.push_back(p);

      p.name = "Google (ii)";
      p.marker = "G2";
      p.endpoints = {{"/dns-query", /*dns_message=*/true, /*dns_json=*/false}};
      providers.push_back(p);
    }
    {
      ProviderSpec p{.name = "Cloudflare",
                     .marker = "CF",
                     .hostname = "cloudflare-dns.com",
                     .endpoints = {{"/dns-query", true, true}},
                     .tls_versions = {TlsVersion::kTls10, TlsVersion::kTls11,
                                      TlsVersion::kTls12, TlsVersion::kTls13}};
      p.certificate_bytes = 1960;  // measured in §4
      p.quic = false;
      p.dns_over_tls = true;
      p.steering = TrafficSteering::kAnycast;
      providers.push_back(p);
    }
    {
      ProviderSpec p{.name = "Quad9",
                     .marker = "Q9",
                     .hostname = "dns.quad9.net",
                     .endpoints = {{"/dns-query", true, true}},
                     .tls_versions = {TlsVersion::kTls12, TlsVersion::kTls13}};
      p.dns_over_tls = true;
      p.steering = TrafficSteering::kAnycast;
      providers.push_back(p);
    }
    {
      ProviderSpec p{.name = "CleanBrowsing",
                     .marker = "CB",
                     .hostname = "doh.cleanbrowsing.org",
                     .endpoints = {{"/doh/family-filter", true, false}},
                     .tls_versions = {TlsVersion::kTls12}};
      p.dns_over_tls = true;
      p.steering = TrafficSteering::kAnycast;
      providers.push_back(p);
    }
    {
      ProviderSpec p{.name = "PowerDNS",
                     .marker = "PD",
                     .hostname = "doh.powerdns.org",
                     .endpoints = {{"/", true, false}},
                     .tls_versions = {TlsVersion::kTls10, TlsVersion::kTls11,
                                      TlsVersion::kTls12, TlsVersion::kTls13}};
      p.steering = TrafficSteering::kUnicast;
      providers.push_back(p);
    }
    {
      ProviderSpec p{.name = "Blahdns",
                     .marker = "BD",
                     .hostname = "doh-ch.blahdns.com",
                     .endpoints = {{"/dns-query", true, true}},
                     .tls_versions = {TlsVersion::kTls12, TlsVersion::kTls13}};
      p.steering = TrafficSteering::kUnicast;
      providers.push_back(p);
    }
    {
      ProviderSpec p{.name = "SecureDNS",
                     .marker = "SD",
                     .hostname = "doh.securedns.eu",
                     .endpoints = {{"/dns-query", true, false}},
                     .tls_versions = {TlsVersion::kTls10, TlsVersion::kTls11,
                                      TlsVersion::kTls12, TlsVersion::kTls13}};
      p.steering = TrafficSteering::kUnicast;
      providers.push_back(p);
    }
    {
      ProviderSpec p{.name = "Rubyfish",
                     .marker = "RF",
                     .hostname = "dns.rubyfish.cn",
                     .endpoints = {{"/dns-query", true, true}},
                     .tls_versions = {TlsVersion::kTls10, TlsVersion::kTls11,
                                      TlsVersion::kTls12}};
      p.steering = TrafficSteering::kUnicast;
      providers.push_back(p);
    }
    {
      ProviderSpec p{.name = "Commons Host",
                     .marker = "CH",
                     .hostname = "commons.host",
                     .endpoints = {{"/", true, false}},
                     .tls_versions = {TlsVersion::kTls12, TlsVersion::kTls13}};
      p.steering = TrafficSteering::kAnycast;
      providers.push_back(p);
    }
    return providers;
  }();
  return kProviders;
}

const std::vector<ProviderSpec>& paper_providers_2018() {
  static const std::vector<ProviderSpec> kProviders = [] {
    // Start from the 2019 snapshot and roll back the changes §2 reports.
    std::vector<ProviderSpec> providers = paper_providers();
    for (auto& p : providers) {
      // October 2018: only Cloudflare and SecureDNS offered TLS 1.3.
      if (p.marker != "CF" && p.marker != "SD") {
        p.tls_versions.erase(TlsVersion::kTls13);
      }
      // Google's RFC-format service was still called /experimental.
      if (p.marker == "G2") {
        p.endpoints = {{"/experimental", true, false}};
      }
      // Further path differences that made six distinct paths in 2018.
      // The paper reports the count but (beyond /experimental) not the
      // exact 2018 paths; this reconstruction is approximate.
      if (p.marker == "CB") {
        p.endpoints = {{"/doh/family-filter/", true, false}};
      }
      if (p.marker == "CH") {
        p.endpoints = {{"/dns-query", true, false}};
      }
      if (p.marker == "RF") {
        p.endpoints = {{"/dns-query/", true, true}};
      }
    }
    return providers;
  }();
  return kProviders;
}

}  // namespace dohperf::survey
