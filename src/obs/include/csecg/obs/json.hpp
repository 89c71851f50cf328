// Locale-independent JSON fragment builders shared by every obs exporter
// (snapshot_json, trace_json) and by callers that emit machine-readable
// rows (the runners' to_jsonl ledgers, run_report).
//
// Why not printf/iostreams: "%.17g" renders 2.5 as "2,5" under a
// comma-decimal LC_NUMERIC locale, and an imbued std::locale can group
// integer digits — both silently corrupt JSON.  std::to_chars never
// consults a locale, and its default double form is the shortest string
// that round-trips, so output is byte-stable across machines and locales.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace csecg::obs {

/// Appends `value` as a JSON number (shortest round-trip form).  JSON has
/// no spelling for non-finite values; they degrade to null.
inline void append_json_double(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

/// Appends `value` as a JSON integer.
inline void append_json_u64(std::string& out, std::uint64_t value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

/// Appends "true" / "false".
inline void append_json_bool(std::string& out, bool value) {
  out += value ? "true" : "false";
}

/// Appends `text` as a quoted JSON string with the mandatory escapes.
inline void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace csecg::obs
