#include "report.hpp"

#include <cmath>
#include <cstdio>

#include "stats.hpp"

namespace perfbench {

void set(MetricMap& map, const std::string& name, double value,
         const std::string& unit, std::size_t samples) {
  Value& v = map[name];
  v.value = value;
  v.unit = unit;
  v.samples = samples;
}

void set_percentile(MetricMap& map, const std::string& name,
                    const std::vector<double>& samples, double q,
                    const std::string& unit) {
  const Percentile p = percentile(samples, q);
  Value& v = map[name];
  v.value = p.value;
  v.unit = unit;
  v.samples = p.samples;
  if (!p.value) {
    char note[96];
    std::snprintf(note, sizeof(note),
                  "missing: %zu samples, %zu beyond (need %zu); highest "
                  "supported p%.1f",
                  p.samples, p.beyond, kMinSamplesBeyond,
                  highest_supported_percent(p.samples));
    v.note = note;
  }
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(const std::optional<double>& value) {
  if (!value || !std::isfinite(*value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", *value);
  return buf;
}

}  // namespace perfbench
