// Registry-switch checks: a component handed another registry by set_obs()
// while work is in flight must write every later metric there, under its
// own names, and leave the registry it left alone.
#pragma once

#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

#include "obs/registry.hpp"

namespace dohperf::testing {

/// Every metric a registry exports, keyed "<kind>/<name>", with its
/// serialized value (a histogram's is its summary).
inline std::map<std::string, std::string> exported(const obs::Registry& r) {
  std::map<std::string, std::string> out;
  const dns::JsonValue json = r.to_json();
  for (const char* kind : {"counters", "gauges", "histograms"}) {
    for (const auto& [name, value] : json.at(kind).as_object()) {
      out[std::string(kind) + "/" + name] = value.dump();
    }
  }
  return out;
}

/// Give `r` counters, gauges and histograms under names no component
/// writes, so a slot id that another registry issued lands on one of them.
inline void add_foreign_metrics(obs::Registry& r) {
  for (int i = 0; i < 48; ++i) {
    const std::string index = std::to_string(i);
    r.add("other.c" + index, 7);
    if (i < 8) {
      r.set_gauge("other.g" + index, -7);
      r.observe("other.h" + index, 7.0);
    }
  }
}

/// Expect `after` to keep every metric of `before` unchanged and to add
/// only metrics whose names start with one of `families`.
inline void expect_only_added(
    const std::map<std::string, std::string>& before,
    const obs::Registry& after,
    std::initializer_list<std::string_view> families) {
  const std::map<std::string, std::string> now = exported(after);
  for (const auto& [key, value] : before) {
    const auto it = now.find(key);
    EXPECT_TRUE(it != now.end() && it->second == value)
        << "changed: " << key;
  }
  for (const auto& [key, value] : now) {
    if (before.count(key) != 0) continue;
    const std::string_view name =
        std::string_view(key).substr(key.find('/') + 1);
    bool own = false;
    for (const std::string_view family : families) {
      own = own || name.starts_with(family);
    }
    EXPECT_TRUE(own) << "foreign name written: " << key;
  }
}

}  // namespace dohperf::testing
