// JSON string escaping, shared by the wire codec (service/protocol.cc),
// the JSON log format and trace spans, so all three spell an escape the
// same way.

#ifndef KPLEX_UTIL_JSON_ESCAPE_H_
#define KPLEX_UTIL_JSON_ESCAPE_H_

#include <cstdio>
#include <string>
#include <string_view>

namespace kplex {

/// Appends `text` to `out` with JSON string escaping: quote, backslash
/// and the short escapes \n \r \t \b \f; any other control character
/// as \u00XX.
inline void AppendJsonEscaped(std::string& out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace kplex

#endif  // KPLEX_UTIL_JSON_ESCAPE_H_
