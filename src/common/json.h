// JSON string escaping, shared by every hand-rendered JSON surface (trace
// export, metrics registry, coordinator /status, job-service /jobs).
#ifndef ANTIMR_COMMON_JSON_H_
#define ANTIMR_COMMON_JSON_H_

#include <cstdio>
#include <string>
#include <string_view>

namespace antimr {

/// Append `s` to *out as a quoted JSON string. `"` and `\` are
/// backslash-escaped, `\n`/`\r`/`\t` use their short escapes, and every
/// other control character below 0x20 becomes `\u00XX`. Bytes >= 0x20 pass
/// through unchanged.
inline void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace antimr

#endif  // ANTIMR_COMMON_JSON_H_
