#include "obs/registry.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>

namespace paramrio::obs {

void MetricsRegistry::add(const std::string& scope, const std::string& name,
                          std::uint64_t delta) {
  scopes_[scope].counters[name] += delta;
}

void MetricsRegistry::add_nonzero(const std::string& scope,
                                  const std::string& name, std::uint64_t n) {
  if (n != 0) add(scope, name, n);
}

void MetricsRegistry::add_value_nonzero(const std::string& scope,
                                        const std::string& name, double v) {
  if (v > 0.0) add_value(scope, name, v);
}

void MetricsRegistry::set(const std::string& scope, const std::string& name,
                          std::uint64_t value) {
  scopes_[scope].counters[name] = value;
}

void MetricsRegistry::observe_max(const std::string& scope,
                                  const std::string& name,
                                  std::uint64_t value) {
  std::uint64_t& slot = scopes_[scope].counters[name];
  if (value > slot) slot = value;
}

void MetricsRegistry::add_value(const std::string& scope,
                                const std::string& name, double delta) {
  scopes_[scope].values[name] += delta;
}

void MetricsRegistry::set_value(const std::string& scope,
                                const std::string& name, double value) {
  scopes_[scope].values[name] = value;
}

std::uint64_t MetricsRegistry::get(const std::string& scope,
                                   const std::string& name) const {
  auto s = scopes_.find(scope);
  if (s == scopes_.end()) return 0;
  auto c = s->second.counters.find(name);
  return c == s->second.counters.end() ? 0 : c->second;
}

double MetricsRegistry::get_value(const std::string& scope,
                                  const std::string& name) const {
  auto s = scopes_.find(scope);
  if (s == scopes_.end()) return 0.0;
  auto v = s->second.values.find(name);
  return v == s->second.values.end() ? 0.0 : v->second;
}

bool MetricsRegistry::has_scope(const std::string& scope) const {
  return scopes_.find(scope) != scopes_.end();
}

std::string MetricsRegistry::format() const {
  std::ostringstream os;
  for (const auto& [scope, sc] : scopes_) {
    os << scope << ":\n";
    for (const auto& [name, v] : sc.counters) {
      os << "  " << name << " = " << v << "\n";
    }
    for (const auto& [name, v] : sc.values) {
      os << "  " << name << " = " << format_double(v) << "\n";
    }
  }
  return os.str();
}

namespace {
void pad(std::ostream& os, int n) {
  for (int i = 0; i < n; ++i) os.put(' ');
}
}  // namespace

void MetricsRegistry::write_json(std::ostream& os, int indent) const {
  const char* nl = indent > 0 ? "\n" : "";
  os << "{" << nl;
  bool first_scope = true;
  for (const auto& [scope, sc] : scopes_) {
    if (!first_scope) os << "," << nl;
    first_scope = false;
    pad(os, indent);
    os << "\"" << json_escape(scope) << "\": {" << nl;
    bool first = true;
    for (const auto& [name, v] : sc.counters) {
      if (!first) os << "," << nl;
      first = false;
      pad(os, indent * 2);
      os << "\"" << json_escape(name) << "\": " << v;
    }
    for (const auto& [name, v] : sc.values) {
      if (!first) os << "," << nl;
      first = false;
      pad(os, indent * 2);
      os << "\"" << json_escape(name) << "\": " << format_double(v);
    }
    os << nl;
    pad(os, indent);
    os << "}";
  }
  os << nl << "}";
}

std::string MetricsRegistry::to_json(int indent) const {
  std::ostringstream os;
  write_json(os, indent);
  return os.str();
}

std::string format_double(double v) {
  // Shortest %.*g that round-trips; falls back to full precision.  All
  // inputs here are finite (virtual times and fractions), but guard anyway
  // since NaN/Inf are not valid JSON.
  if (v != v) return "0";
  if (v == std::numeric_limits<double>::infinity()) return "1e308";
  if (v == -std::numeric_limits<double>::infinity()) return "-1e308";
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  // JSON requires a leading digit ("inf" etc. already excluded above).
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace paramrio::obs
