#include "service/protocol.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "bench_common/table_printer.h"
#include "util/json_escape.h"

namespace kplex {
namespace {

// ------------------------------------------------------- token utilities
// (the historical ServiceSession helpers, verbatim where it matters for
// error-string compatibility)

/// True for lines the text grammar skips silently (blank / '#' comment).
bool IsBlankOrComment(const std::string& line) {
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    return c == '#';
  }
  return true;
}

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

// Splits "key=value"; value empty when no '=' present.
std::pair<std::string, std::string> SplitKeyValue(const std::string& token) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos) return {token, ""};
  return {token.substr(0, eq), token.substr(eq + 1)};
}

StatusOr<uint64_t> ParseUint(const std::string& key, const std::string& value,
                             uint64_t max = UINT64_MAX) {
  // std::stoull accepts a sign and wraps negatives; digits only here.
  for (char c : value) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return Status::InvalidArgument("malformed value for " + key + ": '" +
                                     value + "'");
    }
  }
  try {
    std::size_t used = 0;
    const unsigned long long parsed = std::stoull(value, &used);
    if (value.empty() || used != value.size() || parsed > max) {
      throw std::out_of_range(value);
    }
    return static_cast<uint64_t>(parsed);
  } catch (const std::exception&) {
    return Status::InvalidArgument("malformed value for " + key + ": '" +
                                   value + "' (expected 0.." +
                                   std::to_string(max) + ")");
  }
}

StatusOr<double> ParseDoubleValue(const std::string& key,
                                  const std::string& value) {
  try {
    std::size_t used = 0;
    const double parsed = std::stod(value, &used);
    // inf/nan have no JSON spelling, so the framed codec could not
    // carry them.
    if (used != value.size() || !std::isfinite(parsed)) {
      throw std::invalid_argument(value);
    }
    return parsed;
  } catch (const std::exception&) {
    return Status::InvalidArgument("malformed value for " + key + ": '" +
                                   value + "'");
  }
}

/// Parses "B:E" into a half-open seed range; E may be the literal
/// "end" (= UINT32_MAX, "to the last seed").
Status ParseSeedRangeValue(const std::string& value, uint32_t* begin,
                           uint32_t* end) {
  const std::size_t colon = value.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument(
        "seed-range must be BEGIN:END (half-open; END may be 'end'), got '" +
        value + "'");
  }
  auto parsed_begin =
      ParseUint("seed-range", value.substr(0, colon), UINT32_MAX);
  if (!parsed_begin.ok()) return parsed_begin.status();
  const std::string end_token = value.substr(colon + 1);
  uint64_t parsed_end = UINT32_MAX;
  if (end_token != "end") {
    auto parsed = ParseUint("seed-range", end_token, UINT32_MAX);
    if (!parsed.ok()) return parsed.status();
    parsed_end = *parsed;
  }
  if (*parsed_begin > parsed_end) {
    return Status::InvalidArgument("seed-range begin must be <= end (got '" +
                                   value + "')");
  }
  *begin = static_cast<uint32_t>(*parsed_begin);
  *end = static_cast<uint32_t>(parsed_end);
  return Status::Ok();
}

/// Renders a seed range as "B:E" ("end" for the open upper bound).
std::string FormatSeedRangeValue(uint32_t begin, uint32_t end) {
  return std::to_string(begin) + ":" +
         (end == UINT32_MAX ? std::string("end") : std::to_string(end));
}

/// Parses the resume-token grammar "SEED:ORDINAL".
Status ParseCursorValue(const std::string& value, uint32_t* seed,
                        uint64_t* ordinal) {
  const std::size_t colon = value.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument(
        "cursor must be SEED:ORDINAL (the resume token a truncated run "
        "returned), got '" + value + "'");
  }
  auto parsed_seed = ParseUint("cursor", value.substr(0, colon), UINT32_MAX);
  if (!parsed_seed.ok()) return parsed_seed.status();
  auto parsed_ordinal = ParseUint("cursor", value.substr(colon + 1));
  if (!parsed_ordinal.ok()) return parsed_ordinal.status();
  *seed = static_cast<uint32_t>(*parsed_seed);
  *ordinal = *parsed_ordinal;
  return Status::Ok();
}

/// Cross-option validation shared by both codecs (the text filter
/// grammar and the framed min_size/max_size fields accumulate into the
/// same request fields).
Status CheckSelectionOptions(const QueryRequest& query) {
  if (query.filter_min_size > 0 && query.filter_max_size > 0 &&
      query.filter_min_size > query.filter_max_size) {
    return Status::InvalidArgument(
        "filter size>=" + std::to_string(query.filter_min_size) +
        " contradicts size<=" + std::to_string(query.filter_max_size));
  }
  return Status::Ok();
}

/// Parses the selection grammar "size>=S[,size<=T]" (terms in either
/// order) into the request's filter bounds.
Status ParseFilterValue(const std::string& value, QueryRequest* request) {
  if (value.empty()) {
    return Status::InvalidArgument(
        "filter must be size>=S or size<=T (comma-separated terms)");
  }
  std::size_t pos = 0;
  while (pos <= value.size()) {
    std::size_t comma = value.find(',', pos);
    if (comma == std::string::npos) comma = value.size();
    const std::string term = value.substr(pos, comma - pos);
    uint64_t* slot = nullptr;
    if (term.rfind("size>=", 0) == 0) {
      slot = &request->filter_min_size;
    } else if (term.rfind("size<=", 0) == 0) {
      slot = &request->filter_max_size;
    } else {
      return Status::InvalidArgument("malformed filter term '" + term +
                                     "' (expected size>=S or size<=T)");
    }
    auto parsed = ParseUint("filter", term.substr(6));
    if (!parsed.ok()) return parsed.status();
    if (*parsed == 0) {
      return Status::InvalidArgument("filter size bound must be >= 1");
    }
    *slot = *parsed;
    pos = comma + 1;
  }
  return CheckSelectionOptions(*request);
}

/// Parses a 64-bit hex value with a required 0x prefix (the wire shape
/// of fingerprints and content hashes).
StatusOr<uint64_t> ParseHexU64(const std::string& key,
                               const std::string& value) {
  if (value.size() < 3 || value.size() > 18 || value[0] != '0' ||
      (value[1] != 'x' && value[1] != 'X')) {
    return Status::InvalidArgument("malformed value for " + key + ": '" +
                                   value + "' (expected 0xHEX)");
  }
  uint64_t parsed = 0;
  for (std::size_t i = 2; i < value.size(); ++i) {
    const char c = value[i];
    uint64_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') digit = static_cast<uint64_t>(c - 'A' + 10);
    else {
      return Status::InvalidArgument("malformed value for " + key + ": '" +
                                     value + "' (expected 0xHEX)");
    }
    parsed = (parsed << 4) | digit;
  }
  return parsed;
}

std::string HumanBytes(std::size_t bytes) {
  char buf[32];
  if (bytes >= (std::size_t{1} << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB",
                  static_cast<double>(bytes) / (1 << 20));
  } else if (bytes >= (std::size_t{1} << 10)) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB",
                  static_cast<double>(bytes) / (1 << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%zuB", bytes);
  }
  return buf;
}

/// Twelve significant digits: the response rendering of seconds and
/// other measured values.
std::string CompactDouble(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

/// Shortest decimal that parses back to exactly `value`: request
/// options must survive the framed codec bit for bit.
std::string ShortestDouble(double value) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

std::string HexFingerprint(uint64_t fingerprint) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

// -------------------------------------------------- text result rendering

/// True when a job's result is meaningful: it finished, or it was
/// cancelled after it started (partial counts).
bool HasResult(const JobInfo& info) {
  return info.state == JobState::kDone ||
         (info.state == JobState::kCancelled && info.started);
}

void WriteMineLine(std::ostream& out, const QueryRequest& query,
                   const QueryResult& result) {
  out << "mined " << DescribeQuery(query) << ": " << result.num_plexes
      << " plexes, max size " << result.max_plex_size << ", "
      << FormatSeconds(result.seconds) << "s";
  if (result.from_cache) out << " [cached]";
  if (result.reduction_precomputed && !result.from_cache) {
    out << " [precomputed reduction]";
  }
  if (result.timed_out) out << " [time limit hit]";
  if (result.stopped_early) out << " [result cap hit]";
  if (result.cancelled) out << " [cancelled]";
  if (result.has_cursor) {
    out << " [cursor "
        << FormatCursorValue(result.cursor_seed, result.cursor_ordinal)
        << "]";
  }
  out << "\n";
}

/// The terminal outcome of a job ("mined ..." / cancellation notice /
/// error line). `prefix` labels asynchronous results ("job 3: ").
void WriteJobOutcome(std::ostream& out, const JobInfo& info,
                     const std::string& prefix) {
  switch (info.state) {
    case JobState::kDone:
      out << prefix;
      WriteMineLine(out, info.request, info.result);
      break;
    case JobState::kCancelled:
      if (!info.started) {
        out << prefix << "cancelled " << DescribeQuery(info.request)
            << " before it started\n";
      } else {
        out << prefix;
        WriteMineLine(out, info.request, info.result);
      }
      break;
    case JobState::kFailed:
      out << prefix << "error: " << info.status.ToString() << "\n";
      break;
    case JobState::kQueued:
    case JobState::kRunning:
      out << prefix << JobStateName(info.state) << "\n";  // unreachable
      break;
  }
}

/// Text rendering of a shard outcome: every number a coordinator (or a
/// human merging by hand) needs — the mergeable xor half, the composite
/// fingerprint, the seed-space size, and the admission hash.
void WriteShardOutcome(std::ostream& out, const ShardResultResponse& shard) {
  const JobInfo& info = shard.job;
  if (info.state == JobState::kFailed) {
    out << "error: " << info.status.ToString() << "\n";
    return;
  }
  if (info.state == JobState::kCancelled && !info.started) {
    out << "cancelled shard " << DescribeQuery(info.request)
        << " before it started\n";
    return;
  }
  out << "shard " << DescribeQuery(info.request) << ": "
      << info.result.num_plexes << " plexes, max size "
      << info.result.max_plex_size << ", xor "
      << HexFingerprint(info.result.fingerprint_xor) << ", fingerprint "
      << HexFingerprint(info.result.fingerprint) << ", total seeds "
      << info.result.total_seeds << ", hash "
      << HexFingerprint(shard.content_hash) << ", "
      << FormatSeconds(info.result.seconds) << "s";
  if (info.result.from_cache) out << " [cached]";
  if (info.result.timed_out) out << " [time limit hit]";
  if (info.result.stopped_early) out << " [result cap hit]";
  if (info.result.cancelled) out << " [cancelled]";
  if (info.result.yielded) {
    out << " [yielded covered=" << info.result.covered_begin << ":"
        << info.result.covered_end << "]";
  }
  out << "\n";
}

// The `store` status line, shared by the store verb and the stats
// rendering so operators read one shape everywhere.
void WriteStoreStatusLine(std::ostream& out, const StoreStatusInfo& info) {
  if (!info.enabled) {
    out << "store: off\n";
    return;
  }
  out << "store: " << info.entries << " entries, "
      << HumanBytes(static_cast<std::size_t>(info.bytes)) << " (budget ";
  if (info.byte_budget > 0) {
    out << HumanBytes(static_cast<std::size_t>(info.byte_budget));
  } else {
    out << "unlimited";
  }
  out << "), " << info.hits << " hits, " << info.misses << " misses, "
      << info.writes << " writes, " << info.evictions << " evictions, "
      << info.corrupt_entries << " corrupt\n";
}

// ----------------------------------------------------------- JSON writing

/// Appends a JSON object or array under construction. Every value goes
/// under `key` in the enclosing object; a null key writes an array
/// element or the outermost value. Keeps the codec dependency-free.
class JsonWriter {
 public:
  void BeginObject(const char* key = nullptr) {
    Key(key);
    out_ += '{';
  }
  void EndObject() { out_ += '}'; }
  void BeginArray(const char* key = nullptr) {
    Key(key);
    out_ += '[';
  }
  void EndArray() { out_ += ']'; }

  void Add(const char* key, std::string_view value) {
    Key(key);
    out_ += '"';
    AppendJsonEscaped(out_, value);
    out_ += '"';
  }
  // Without it a C string would convert to bool rather than to a view.
  void Add(const char* key, const char* value) {
    Add(key, std::string_view(value));
  }
  // One template for every unsigned integer width: uint32_t, uint64_t,
  // and std::size_t (which is a third distinct type on LP64 macOS —
  // fixed-width overloads would be ambiguous there). bool prefers its
  // exact non-template overload below.
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  void Add(const char* key, T value) {
    Key(key);
    out_ += std::to_string(static_cast<uint64_t>(value));
  }
  void Add(const char* key, double value) {
    Key(key);
    out_ += CompactDouble(value);
  }
  void AddExact(const char* key, double value) {
    Key(key);
    out_ += ShortestDouble(value);
  }
  void Add(const char* key, bool value) {
    Key(key);
    out_ += value ? "true" : "false";
  }
  // Exact overload so negative gauge values survive (the integral
  // template above funnels through uint64_t).
  void Add(const char* key, int64_t value) {
    Key(key);
    out_ += std::to_string(value);
  }

  const std::string& str() const { return out_; }

 private:
  /// Separates the value from the one before it and, under a key, names
  /// it.
  void Key(const char* key) {
    if (!out_.empty() && out_.back() != '{' && out_.back() != '[') {
      out_ += ',';
    }
    if (key == nullptr) return;
    out_ += '"';
    AppendJsonEscaped(out_, key);
    out_ += "\":";
  }

  std::string out_;
};

// ----------------------------------------------------------- JSON parsing

/// Minimal JSON value for the framed codec. Integers that fit uint64
/// stay exact (job ids, max_results, fingerprints); everything else
/// numeric is a double.
struct JsonValue {
  enum class Kind { kNull, kBool, kUint, kDouble, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool bool_value = false;
  uint64_t uint_value = 0;
  double double_value = 0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Recursive-descent JSON parser: full string escapes, a depth cap
/// against crafted nesting, and error positions. Crash-free on any
/// byte sequence by construction (no recursion past kMaxDepth, no
/// unchecked indexing).
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    auto value = ParseValue(0);
    if (!value.ok()) return value.status();
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing bytes after the JSON value");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 32;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("malformed frame: " + what +
                                   " at byte " + std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\r' || text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  StatusOr<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return ParseNumber();
    }
    return Error(std::string("unexpected character '") + c + "'");
  }

  StatusOr<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    SkipSpace();
    if (Consume('}')) return value;
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected a string key");
      }
      auto key = ParseString();
      if (!key.ok()) return key.status();
      if (!Consume(':')) return Error("expected ':' after key");
      auto element = ParseValue(depth + 1);
      if (!element.ok()) return element.status();
      value.object.emplace_back(key->string_value, *std::move(element));
      if (Consume(',')) continue;
      if (Consume('}')) return value;
      return Error("expected ',' or '}' in object");
    }
  }

  StatusOr<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    SkipSpace();
    if (Consume(']')) return value;
    for (;;) {
      auto element = ParseValue(depth + 1);
      if (!element.ok()) return element.status();
      value.array.push_back(*std::move(element));
      if (Consume(',')) continue;
      if (Consume(']')) return value;
      return Error("expected ',' or ']' in array");
    }
  }

  StatusOr<JsonValue> ParseString() {
    ++pos_;  // '"'
    JsonValue value;
    value.kind = JsonValue::Kind::kString;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return value;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control byte in string");
      }
      if (c != '\\') {
        value.string_value += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': value.string_value += '"'; break;
        case '\\': value.string_value += '\\'; break;
        case '/': value.string_value += '/'; break;
        case 'n': value.string_value += '\n'; break;
        case 'r': value.string_value += '\r'; break;
        case 't': value.string_value += '\t'; break;
        case 'b': value.string_value += '\b'; break;
        case 'f': value.string_value += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("bad \\u escape digit");
          }
          // BMP code points only (no surrogate-pair recombination);
          // enough for the protocol's field values.
          if (code < 0x80) {
            value.string_value += static_cast<char>(code);
          } else if (code < 0x800) {
            value.string_value += static_cast<char>(0xC0 | (code >> 6));
            value.string_value += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            value.string_value += static_cast<char>(0xE0 | (code >> 12));
            value.string_value +=
                static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            value.string_value += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Error("unknown string escape");
      }
    }
    return Error("unterminated string");
  }

  StatusOr<JsonValue> ParseBool() {
    JsonValue value;
    value.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      value.bool_value = true;
      pos_ += 4;
      return value;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      value.bool_value = false;
      pos_ += 5;
      return value;
    }
    return Error("expected true/false");
  }

  StatusOr<JsonValue> ParseNull() {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return JsonValue{};
    }
    return Error("expected null");
  }

  StatusOr<JsonValue> ParseNumber() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool fractional = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        fractional = true;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    JsonValue value;
    if (!fractional && token[0] != '-') {
      uint64_t parsed = 0;
      bool overflow = token.empty();
      for (char c : token) {
        const uint64_t digit = static_cast<uint64_t>(c - '0');
        if (parsed > (UINT64_MAX - digit) / 10) {
          overflow = true;
          break;
        }
        parsed = parsed * 10 + digit;
      }
      if (!overflow) {
        value.kind = JsonValue::Kind::kUint;
        value.uint_value = parsed;
        return value;
      }
    }
    try {
      std::size_t used = 0;
      value.double_value = std::stod(token, &used);
      if (used != token.size()) throw std::invalid_argument(token);
    } catch (const std::exception&) {
      return Error("malformed number '" + token + "'");
    }
    value.kind = JsonValue::Kind::kDouble;
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// --------------------------------------------- framed field extraction

Status UnknownField(const std::string& cmd, const std::string& key) {
  return Status::InvalidArgument("unknown field '" + key + "' for '" + cmd +
                                 "'");
}

Status WrongType(std::string_view key, const char* expected) {
  return Status::InvalidArgument("field '" + std::string(key) +
                                 "' must be " + expected);
}

StatusOr<std::string> GetString(const JsonValue& value,
                                std::string_view key) {
  if (value.kind != JsonValue::Kind::kString) {
    return WrongType(key, "a string");
  }
  return value.string_value;
}

StatusOr<uint64_t> GetUint(const JsonValue& value, std::string_view key,
                           uint64_t max = UINT64_MAX) {
  if (value.kind != JsonValue::Kind::kUint || value.uint_value > max) {
    return WrongType(key, ("an unsigned integer <= " + std::to_string(max))
                              .c_str());
  }
  return value.uint_value;
}

StatusOr<double> GetDouble(const JsonValue& value, std::string_view key) {
  if (value.kind == JsonValue::Kind::kUint) {
    return static_cast<double>(value.uint_value);
  }
  if (value.kind == JsonValue::Kind::kDouble) return value.double_value;
  return WrongType(key, "a number");
}

StatusOr<bool> GetBool(const JsonValue& value, std::string_view key) {
  if (value.kind != JsonValue::Kind::kBool) {
    return WrongType(key, "a boolean");
  }
  return value.bool_value;
}

// ---------------------------------------------------------- request schema
//
// One table drives the request codecs. A Verb row names a command, the
// RequestPayload alternative it fills and its fields in wire order. A
// Field says how the text grammar spells it (a positional token, a
// key=value option or a bare flag), its framed key, its value grammar
// and where in the typed request it lives. The QueryRequest options are
// one shared list of rows used by mine, submit, shardsubmit and the
// "query" object echoed in response frames. ParseTextRequest,
// ParseFramedRequest, FormatFramedRequest, RequestVerbName and the
// response schema's query echo walk the rows; usage lines, `help` and
// the framed "requires" messages are derived from them.

/// Where a field's value lives in the typed request.
using Slot = std::variant<std::string*, uint32_t*, uint64_t*, double*, bool*,
                          QueryAlgo*, std::optional<WireMode>*,
                          std::optional<uint64_t>*, std::vector<uint32_t>*,
                          QueryRequest*>;

/// The request a field reads or writes: the payload alternative, and
/// the QueryRequest of the verbs that carry one.
struct Target {
  RequestPayload* payload = nullptr;
  QueryRequest* query = nullptr;
};

template <typename>
struct MemberOf;
template <typename Owner, typename T>
struct MemberOf<T Owner::*> {
  using Class = Owner;
  using Type = T;
};

/// Slot of `member`: a QueryRequest member lives in the target's query,
/// any other member in the payload alternative that declares it.
template <auto member>
Slot At(const Target& target) {
  using Owner = typename MemberOf<decltype(member)>::Class;
  if constexpr (std::is_same_v<Owner, QueryRequest>) {
    return &(target.query->*member);
  } else {
    return &(std::get<Owner>(*target.payload).*member);
  }
}

/// The whole query, for the grammars that span several of its members.
Slot WholeQuery(const Target& target) { return target.query; }

/// Value grammars. The last four span several QueryRequest members.
enum Grammar {
  kString,     ///< token / JSON string
  kUint,       ///< decimal token / JSON unsigned integer, <= Field::max
  kDouble,     ///< decimal token / JSON number
  kSwitch,     ///< on|off token / JSON boolean
  kFlag,       ///< bare word (present = true) / JSON boolean
  kChoice,     ///< one of two words in both codecs; Field::on means true
  kHex,        ///< 0xHEX in both codecs (content hashes)
  kAlgo,       ///< algorithm name in both codecs
  kLevels,     ///< C1,C2,... token / JSON array of unsigned integers
  kWireMode,   ///< text|framed in both codecs
  kSeedRange,  ///< B:E token / seed_begin + seed_end
  kFilter,     ///< size>=S,size<=T token / min_size + max_size
  kContain,    ///< vertex id; sets has_contain
  kCursor,     ///< SEED:ORDINAL in both codecs; sets has_cursor
};

/// How the text grammar spells a field.
enum Spelling {
  kPositional,          ///< a required bare token, in field order
  kOptionalPositional,  ///< a trailing bare token that may be absent
  kKeyed,               ///< key=value
  kBare,                ///< a bare word
};

enum FieldFlag : unsigned {
  kRequired = 1,    ///< framed: must be present (a string non-empty)
  kAlways = 2,      ///< framed: written even at its default
  kEchoed = 4,      ///< part of the "query" object of response frames
  kEchoAlways = 8,  ///< written there even at its default
  kNonZero = 16,    ///< kUint: 0 is refused as "<key> must be >= 1"
};

struct Field {
  Spelling spelling;
  const char* text;    ///< positional metavar, option key or bare word
  const char* values;  ///< usage metavar of an option's value ("N")
  const char* json;    ///< framed key
  Grammar grammar;
  Slot (*slot)(const Target&);
  unsigned flags = 0;
  uint64_t max = UINT64_MAX;    ///< bound of the unsigned grammars
  const char* on = "";          ///< kChoice: the word that means true
  const char* json2 = nullptr;  ///< second framed key (kSeedRange, kFilter)

  constexpr Field Max(uint64_t bound) const {
    Field field = *this;
    field.max = bound;
    return field;
  }
  constexpr Field On(const char* word) const {
    Field field = *this;
    field.grammar = kChoice;
    field.on = word;
    return field;
  }
};

/// The grammar a member's type implies (kUint for the integers).
template <auto member>
constexpr Grammar GrammarOf() {
  using T = typename MemberOf<decltype(member)>::Type;
  if constexpr (std::is_same_v<T, std::string>) return kString;
  if constexpr (std::is_same_v<T, double>) return kDouble;
  if constexpr (std::is_same_v<T, bool>) return kSwitch;
  if constexpr (std::is_same_v<T, QueryAlgo>) return kAlgo;
  if constexpr (std::is_same_v<T, std::optional<WireMode>>) return kWireMode;
  if constexpr (std::is_same_v<T, std::vector<uint32_t>>) return kLevels;
  return kUint;
}

template <auto member>
constexpr Field Pos(const char* metavar, const char* json,
                    unsigned flags = kRequired) {
  return {kPositional, metavar, "", json, GrammarOf<member>(), At<member>,
          flags};
}

template <auto member>
constexpr Field Opt(const char* key, const char* values, const char* json,
                    unsigned flags = 0) {
  return {kKeyed, key, values, json, GrammarOf<member>(), At<member>, flags};
}

template <auto member>
constexpr Field Bare(const char* word) {
  return {kBare, word, "", word, kFlag, At<member>};
}

/// A query option spanning several members (framed keys json, json2).
constexpr Field Span(const char* key, const char* values, const char* json,
                     const char* json2, Grammar grammar, unsigned flags = 0) {
  return {kKeyed, key, values, json, grammar, WholeQuery, flags,
          UINT64_MAX, "", json2};
}

/// The fields of mine, submit and shardsubmit: the three positionals,
/// then every QueryRequest option, in wire order.
const std::vector<Field>& QueryFields() {
  static const std::vector<Field> fields = {
      Pos<&QueryRequest::graph>("NAME", "graph", kRequired | kEchoed),
      Pos<&QueryRequest::k>("K", "k", kRequired | kEchoed),
      Pos<&QueryRequest::q>("Q", "q", kRequired | kEchoed),
      Opt<&QueryRequest::algo>("algo", "...", "algo", kEchoed | kEchoAlways),
      Opt<&QueryRequest::threads>("threads", "N", "threads", kEchoed),
      Opt<&QueryRequest::max_results>("max-results", "N", "max_results",
                                      kEchoed),
      Opt<&QueryRequest::time_limit_seconds>("time-limit", "S", "time_limit",
                                             kEchoed),
      Opt<&QueryRequest::tau_ms>("tau-ms", "T", "tau_ms", kEchoed),
      Opt<&QueryRequest::use_cache>("cache", "on|off", "cache", kEchoed),
      Span("seed-range", "B:E", "seed_begin", "seed_end", kSeedRange,
           kEchoed)
          .Max(UINT32_MAX),
      Opt<&QueryRequest::collect_bodies>("results", "stream|count", "results")
          .On("stream"),
      Opt<&QueryRequest::chunk_size>("chunk", "N", "chunk", kNonZero)
          .Max(65536),
      Span("filter", "size>=S,size<=T", "min_size", "max_size", kFilter),
      Span("contain", "V", "contain", nullptr, kContain).Max(UINT32_MAX),
      Opt<&QueryRequest::top_k>("top", "K", "top", kNonZero),
      Opt<&QueryRequest::maximum>("mode", "enumerate|maximum", "mode")
          .On("maximum"),
      Span("cursor", "S:O", "cursor", nullptr, kCursor),
  };
  return fields;
}

QueryRequest* QueryOf(RequestPayload& payload) {
  if (auto* mine = std::get_if<MineRequest>(&payload)) return &mine->query;
  if (auto* submit = std::get_if<SubmitRequest>(&payload)) {
    return &submit->query;
  }
  if (auto* shard = std::get_if<ShardSubmitRequest>(&payload)) {
    return &shard->query;
  }
  return nullptr;
}

/// Slots into `payload`, or into a bare query (the response echo).
/// Parsers write only into the request they are building; formatters
/// read const ones through the same accessors, which is why const is
/// cast away in these two helpers and nowhere else.
Target TargetOf(const RequestPayload& payload) {
  auto& request = const_cast<RequestPayload&>(payload);
  return {&request, QueryOf(request)};
}
Target TargetOf(const QueryRequest& query) {
  return {nullptr, const_cast<QueryRequest*>(&query)};
}

/// Cross-field rules of the query verbs, checked once every field is
/// read (the framed seed range arrives as two separate keys).
Status FinishQuery(RequestPayload& payload) {
  const QueryRequest& query = *QueryOf(payload);
  if (query.seed_begin > query.seed_end) {
    return Status::InvalidArgument(
        "seed_begin must be <= seed_end (got " +
        std::to_string(query.seed_begin) + ":" +
        std::to_string(query.seed_end) + ")");
  }
  return CheckSelectionOptions(query);
}

/// levels implies precompute, whatever order the fields came in.
Status FinishSnapshot(RequestPayload& payload) {
  auto& snapshot = std::get<SnapshotRequest>(payload);
  if (!snapshot.core_mask_levels.empty()) snapshot.include_precompute = true;
  return Status::Ok();
}

struct Verb {
  const char* name;
  RequestPayload prototype;   ///< the alternative it fills, at its defaults
  std::vector<Field> fields;  ///< wire order, positionals first
  /// What `help` says after the synopsis, one line per '\n'.
  const char* summary;
  /// Unknown text options are named ("unknown mine option 'x'") rather
  /// than answered with the usage line.
  bool names_unknown_options = false;
  Status (*finish)(RequestPayload&) = nullptr;
  const char* text_alias = nullptr;  ///< a second text spelling ("exit")

  // Derived from the fields when the table is built.
  std::string usage = {};          ///< "usage: load NAME PATH"
  std::string requires_text = {};  ///< "'load' requires fields name, path"
  std::size_t positionals = 0;     ///< required positional tokens
  bool has_options = false;        ///< has key=value fields
};

std::vector<Verb> BuildVerbs() {
  std::vector<Field> shard_fields = QueryFields();
  shard_fields.push_back({kKeyed, "hash", "0xH", "hash", kHex,
                          At<&ShardSubmitRequest::expected_hash>});
  std::vector<Verb> verbs = {
      {"hello", HelloRequest{},
       {Opt<&HelloRequest::version>("proto", "N", "proto", kAlways),
        Opt<&HelloRequest::mode>("mode", "text|framed", "mode")},
       "negotiate the protocol version; mode=framed\n"
       "switches to the JSON-lines encoding"},
      {"load", LoadRequest{},
       {Pos<&LoadRequest::name>("NAME", "name"),
        Pos<&LoadRequest::path>("PATH", "path")},
       "register + load a graph file"},
      {"dataset", DatasetRequest{},
       {Pos<&DatasetRequest::name>("NAME", "name"),
        Pos<&DatasetRequest::key>("KEY", "key")},
       "register + load a registry dataset"},
      {"snapshot", SnapshotRequest{},
       {Pos<&SnapshotRequest::name>("NAME", "name"),
        Pos<&SnapshotRequest::path>("PATH", "path"),
        Bare<&SnapshotRequest::include_precompute>("precompute"),
        Opt<&SnapshotRequest::core_mask_levels>("levels", "C1,C2,...",
                                                "levels")},
       "write NAME as a binary v2 snapshot;\n"
       "precompute stores reduction sections",
       true, FinishSnapshot},
      {"mine", MineRequest{}, QueryFields(),
       "run a query and wait for its answer; algo is\n"
       "one of ours, ours_p, basic, listplex, fp;\n"
       "results=stream delivers the plex bodies in\n"
       "bounded result chunks before the summary;\n"
       "a max-results-truncated sequential run\n"
       "reports a cursor to resume from",
       true, FinishQuery},
      {"submit", SubmitRequest{}, QueryFields(),
       "run a mine asynchronously; prints a\n"
       "job id immediately",
       true, FinishQuery},
      {"plan", PlanRequest{},
       {Pos<&PlanRequest::graph>("NAME", "graph"),
        Pos<&PlanRequest::k>("K", "k"), Pos<&PlanRequest::q>("Q", "q")},
       "per-seed cost-estimate probe (degeneracy-\n"
       "order degrees + coreness); no enumeration"},
      {"shardsubmit", ShardSubmitRequest{}, shard_fields,
       "mine one shard of the seed space: hash=\n"
       "refuses a mismatched snapshot, then a job\n"
       "id immediately (sharding, work-stealing)",
       true, FinishQuery},
      {"shardwait", ShardWaitRequest{},
       {Pos<&ShardWaitRequest::job>("ID", "job")},
       "block until shard job ID is terminal and\n"
       "print its shard result"},
      {"shardstop", ShardStopRequest{},
       {Pos<&ShardStopRequest::job>("ID", "job")},
       "ask shard job ID to yield at the next seed\n"
       "boundary (its result covers a prefix)"},
      {"register", RegisterRequest{},
       {Pos<&RegisterRequest::endpoint>("HOST:PORT", "endpoint")},
       "join a coordinator's worker pool"},
      {"heartbeat", HeartbeatRequest{},
       {Pos<&HeartbeatRequest::worker>("ID", "worker")},
       "refresh worker ID's liveness (coordinator)"},
      {"drain", DrainRequest{}, {Pos<&DrainRequest::worker>("ID", "worker")},
       "stop scheduling onto worker ID (coordinator)"},
      {"workers", WorkersRequest{}, {}, "the coordinator's worker-pool table"},
      {"cancel", CancelRequest{}, {Pos<&CancelRequest::job>("ID", "job")},
       "cancel a queued or running job"},
      {"jobs", JobsRequest{}, {}, "status of every submitted job"},
      {"wait", WaitRequest{},
       {{kOptionalPositional, "ID", "", "job", kUint, At<&WaitRequest::job>}},
       "block until job ID (or all jobs) done"},
      {"stats", StatsRequest{}, {}, "catalog + cache + dispatcher stats"},
      {"metrics", MetricsRequest{},
       {Opt<&MetricsRequest::format>("format", "table|prom", "format")},
       "scrape the process metrics registry"},
      {"evict", EvictRequest{}, {Pos<&EvictRequest::name>("NAME", "name")},
       "drop the resident copy"},
      {"store", StoreRequest{}, {Bare<&StoreRequest::evict>("evict")},
       "durable result-store status; `store evict`\n"
       "deletes every persisted entry"},
      {"help", HelpRequest{}, {}, "this command summary"},
      {"quit", QuitRequest{}, {}, "end the session (also: exit)", false,
       nullptr, "exit"},
  };
  for (Verb& verb : verbs) {
    verb.usage = std::string("usage: ") + verb.name;
    std::string required;
    std::size_t required_count = 0;
    for (const Field& field : verb.fields) {
      const std::string text = field.text;
      if (field.spelling == kPositional) {
        ++verb.positionals;
        verb.usage += " " + text;
      } else if (field.spelling == kKeyed) {
        verb.has_options = true;
        verb.usage += " [" + text + "=" + field.values + "]";
      } else {
        verb.usage += " [" + text + "]";
      }
      if (field.flags & kRequired) {
        required += (required_count++ == 0 ? "" : ", ") +
                    std::string(field.json);
      }
    }
    verb.requires_text = "'" + std::string(verb.name) + "' requires field" +
                         (required_count > 1 ? "s " : " ") + required;
  }
  return verbs;
}

const std::vector<Verb>& Verbs() {
  static const std::vector<Verb> verbs = BuildVerbs();
  return verbs;
}

/// The `help` reply: each verb's synopsis, spelled from the rows of its
/// usage line and wrapped at option boundaries, then its summary from
/// column 24.
std::string HelpText() {
  constexpr std::size_t kWrap = 72;    // synopsis lines stay below this
  constexpr std::size_t kColumn = 24;  // where summaries start
  std::string text = "commands:\n";
  for (const Verb& verb : Verbs()) {
    std::istringstream words(verb.usage);
    std::string word;
    words >> word;  // "usage:"
    std::string line = " ";
    while (words >> word) {
      if (line.size() + 1 + word.size() > kWrap &&
          line.find_first_not_of(' ') != std::string::npos) {
        text += line + "\n";
        line = std::string(6, ' ');
      }
      line += " " + word;
    }
    std::istringstream summary(verb.summary);
    for (std::string part; std::getline(summary, part);) {
      if (line.size() >= kColumn) {
        text += line + "\n";
        line.clear();
      }
      line.resize(kColumn, ' ');
      text += line + part + "\n";
      line.clear();
    }
  }
  return text;
}

const Verb* FindVerb(const std::string& name, WireMode mode) {
  for (const Verb& verb : Verbs()) {
    if (name == verb.name || (mode == WireMode::kText &&
                              verb.text_alias != nullptr &&
                              name == verb.text_alias)) {
      return &verb;
    }
  }
  return nullptr;
}

const Verb& VerbOf(const RequestPayload& payload) {
  static const auto by_index = [] {
    std::array<const Verb*, std::variant_size_v<RequestPayload>> index{};
    for (const Verb& verb : Verbs()) index[verb.prototype.index()] = &verb;
    return index;
  }();
  return *by_index[payload.index()];
}

/// Bound of an unsigned field: its own, capped by a uint32_t member.
uint64_t MaxOf(const Field& field, const Slot& slot) {
  return std::holds_alternative<uint32_t*>(slot)
             ? std::min<uint64_t>(field.max, UINT32_MAX)
             : field.max;
}

/// The {false, true} words of a kSwitch / kChoice field: its two usage
/// values ("on|off"), `on` (or else the first) meaning true.
std::pair<std::string_view, std::string_view> WordsOf(const Field& field) {
  const std::string_view values = field.values;
  const std::size_t bar = values.find('|');
  const std::string_view first = values.substr(0, bar);
  const std::string_view second = values.substr(bar + 1);
  if (second == field.on) return {first, second};
  return {second, first};
}

/// Stores a parsed unsigned value, refusing 0 for a kNonZero field.
Status StoreUint(const Field& field, uint64_t value, const Slot& slot) {
  if ((field.flags & kNonZero) && value == 0) {
    return Status::InvalidArgument(std::string(field.text) + " must be >= 1");
  }
  std::visit(
      [&](auto* member) {
        using T = std::decay_t<decltype(*member)>;
        if constexpr (std::is_same_v<T, uint32_t> ||
                      std::is_same_v<T, uint64_t> ||
                      std::is_same_v<T, std::optional<uint64_t>>) {
          *member = static_cast<T>(value);
        }
      },
      slot);
  return Status::Ok();
}

/// Stores a parsed value into the slot's `Member`.
template <typename Member, typename T>
Status Store(const Slot& slot, StatusOr<T> parsed) {
  if (!parsed.ok()) return parsed.status();
  *std::get<Member*>(slot) = *std::move(parsed);
  return Status::Ok();
}

/// Reads one text token (a positional, an option's value, or the empty
/// value of a bare word) into the field's slot.
Status ReadText(const Field& field, const std::string& value,
                const Slot& slot) {
  switch (field.grammar) {
    case kString:
      return Store<std::string>(slot, StatusOr<std::string>(value));
    case kUint: {
      auto parsed = ParseUint(field.text, value, MaxOf(field, slot));
      if (!parsed.ok()) return parsed.status();
      return StoreUint(field, *parsed, slot);
    }
    case kDouble:
      return Store<double>(slot, ParseDoubleValue(field.text, value));
    case kSwitch:
    case kChoice: {
      const auto [off, on] = WordsOf(field);
      if (value != on && value != off) {
        std::string words = field.values;
        words.replace(words.find('|'), 1, " or ");
        return Status::InvalidArgument(std::string(field.text) +
                                       " must be " + words);
      }
      return Store<bool>(slot, StatusOr<bool>(value == on));
    }
    case kFlag:
      return Store<bool>(slot, StatusOr<bool>(true));
    case kHex:
      return Store<uint64_t>(slot, ParseHexU64(field.text, value));
    case kAlgo:
      return Store<QueryAlgo>(slot, ParseQueryAlgo(value));
    case kLevels:
      return Store<std::vector<uint32_t>>(slot, ParseCoreLevelList(value));
    case kWireMode:
      return Store<std::optional<WireMode>>(slot, ParseWireMode(value));
    case kSeedRange: {
      QueryRequest& query = *std::get<QueryRequest*>(slot);
      return ParseSeedRangeValue(value, &query.seed_begin, &query.seed_end);
    }
    case kFilter:
      return ParseFilterValue(value, std::get<QueryRequest*>(slot));
    case kContain: {
      auto parsed = ParseUint(field.text, value, field.max);
      if (!parsed.ok()) return parsed.status();
      std::get<QueryRequest*>(slot)->has_contain = true;
      std::get<QueryRequest*>(slot)->contain = static_cast<uint32_t>(*parsed);
      return Status::Ok();
    }
    case kCursor: {
      QueryRequest& query = *std::get<QueryRequest*>(slot);
      KPLEX_RETURN_IF_ERROR(ParseCursorValue(value, &query.cursor_seed,
                                             &query.cursor_ordinal));
      query.has_cursor = true;
      return Status::Ok();
    }
  }
  return Status::Ok();
}

/// Reads one framed value, found under `key` (one of the field's framed
/// keys), into the field's slot.
Status ReadJson(const Field& field, const std::string& key,
                const JsonValue& value, const Slot& slot) {
  switch (field.grammar) {
    case kUint:
    case kSeedRange:
    case kFilter:
    case kContain: {
      auto parsed = GetUint(value, key, MaxOf(field, slot));
      if (!parsed.ok()) return parsed.status();
      if (field.grammar == kUint) return StoreUint(field, *parsed, slot);
      QueryRequest& query = *std::get<QueryRequest*>(slot);
      const bool first = key == field.json;
      if (field.grammar == kSeedRange) {
        (first ? query.seed_begin : query.seed_end) =
            static_cast<uint32_t>(*parsed);
      } else if (field.grammar == kContain) {
        query.has_contain = true;
        query.contain = static_cast<uint32_t>(*parsed);
      } else if (*parsed == 0) {
        return Status::InvalidArgument("filter size bound must be >= 1");
      } else {
        (first ? query.filter_min_size : query.filter_max_size) = *parsed;
      }
      return Status::Ok();
    }
    case kDouble:
      return Store<double>(slot, GetDouble(value, key));
    case kSwitch:
    case kFlag:
      return Store<bool>(slot, GetBool(value, key));
    case kLevels: {
      if (value.kind != JsonValue::Kind::kArray) {
        return WrongType(key, "an array of unsigned integers");
      }
      std::vector<uint32_t>& levels = *std::get<std::vector<uint32_t>*>(slot);
      levels.clear();
      for (const JsonValue& level : value.array) {
        auto parsed = GetUint(level, key, UINT32_MAX);
        if (!parsed.ok()) return parsed.status();
        levels.push_back(static_cast<uint32_t>(*parsed));
      }
      return Status::Ok();
    }
    default: {  // the string-valued grammars share the text reader
      auto text = GetString(value, key);
      if (!text.ok()) return text.status();
      return ReadText(field, *text, slot);
    }
  }
}

/// True when two slots of the same field hold equal values (never for
/// the spanning grammars, which WriteJson writes only when set).
bool SameValue(const Slot& a, const Slot& b) {
  return std::visit(
      [&b](auto* x) {
        if constexpr (std::is_same_v<decltype(x), QueryRequest*>) {
          return false;
        } else {
          return *x == *std::get<decltype(x)>(b);
        }
      },
      a);
}

/// Writes the field under its framed key(s); the spanning grammars only
/// when set.
void WriteJson(const Field& field, const Slot& slot, JsonWriter& json) {
  if (const auto* spanned = std::get_if<QueryRequest*>(&slot)) {
    const QueryRequest& query = **spanned;
    if (field.grammar == kSeedRange && query.HasSeedRange()) {
      json.Add(field.json, query.seed_begin);
      json.Add(field.json2, query.seed_end);
    } else if (field.grammar == kFilter) {
      if (query.filter_min_size > 0) {
        json.Add(field.json, query.filter_min_size);
      }
      if (query.filter_max_size > 0) {
        json.Add(field.json2, query.filter_max_size);
      }
    } else if (field.grammar == kContain && query.has_contain) {
      json.Add(field.json, query.contain);
    } else if (field.grammar == kCursor && query.has_cursor) {
      json.Add(field.json,
               FormatCursorValue(query.cursor_seed, query.cursor_ordinal));
    }
    return;
  }
  switch (field.grammar) {
    case kDouble:
      json.AddExact(field.json, *std::get<double*>(slot));
      return;
    case kChoice: {
      const auto [off, on] = WordsOf(field);
      json.Add(field.json, *std::get<bool*>(slot) ? on : off);
      return;
    }
    case kHex:
      json.Add(field.json, HexFingerprint(*std::get<uint64_t*>(slot)));
      return;
    case kAlgo:
      json.Add(field.json, QueryAlgoName(*std::get<QueryAlgo*>(slot)));
      return;
    case kWireMode:
      json.Add(field.json,
               WireModeName(**std::get<std::optional<WireMode>*>(slot)));
      return;
    case kLevels:
      json.BeginArray(field.json);
      for (uint32_t level : *std::get<std::vector<uint32_t>*>(slot)) {
        json.Add(nullptr, level);
      }
      json.EndArray();
      return;
    default:  // strings, booleans and unsigned integers write as they are
      std::visit(
          [&](auto* member) {
            using T = std::decay_t<decltype(*member)>;
            if constexpr (std::is_same_v<T, std::optional<uint64_t>>) {
              json.Add(field.json, member->value());
            } else if constexpr (std::is_same_v<T, std::string> ||
                                 std::is_same_v<T, bool> ||
                                 std::is_same_v<T, uint32_t> ||
                                 std::is_same_v<T, uint64_t>) {
              json.Add(field.json, *member);
            }
          },
          slot);
  }
}

/// The flags of a field written even at its default value: a request's
/// required and kAlways fields, and in the query echo also kEchoAlways.
unsigned AlwaysWritten(bool echo) {
  return kRequired | kAlways | (echo ? kEchoAlways : 0u);
}

/// Writes `fields` of `target` (a request, or a bare query for the
/// response echo), skipping values equal to those of `defaults`. The
/// echo writes only the kEchoed fields.
void WriteFields(const std::vector<Field>& fields, const Target& target,
                 const Target& defaults, bool echo, JsonWriter& json) {
  const unsigned always = AlwaysWritten(echo);
  for (const Field& field : fields) {
    if (echo && !(field.flags & kEchoed)) continue;
    const Slot slot = field.slot(target);
    if (!(field.flags & always) && SameValue(slot, field.slot(defaults))) {
      continue;
    }
    WriteJson(field, slot, json);
  }
}

// ------------------------------------------------------ response schema
//
// Walk lists the keys of every response frame and nested row once, in
// wire order, and FrameIo runs it in either direction: writing as
// FormatFramedResponse, reading as ParseFramedResponse. In a walk
//   io(key, value)                 is a key the frame always carries,
//   io.Optional(key, value, when)  one written only when `when` holds
//                                  and read whenever it is present,
//   io.Object(key, walk)           a nested object,
// and a plain `if` over values walked before it guards keys both sides
// decide alike. A value is a member of the server's structs, or one of
// the adapters below for a spelling its type does not imply. Reading
// requires every key a frame always carries and ignores keys it does
// not know. The walk takes structs by non-const reference so that one
// walk serves both directions; writing only reads through it.

/// A 64-bit value spelled "0x%016llx" (fingerprints, content hashes).
struct Hex {
  uint64_t& value;
};

/// A resume cursor spelled "SEED:ORDINAL"; reading one sets `has`.
struct Cursor {
  bool& has;
  uint32_t& seed;
  uint64_t& ordinal;
};

/// The number of plex bodies a job buffered. No response struct holds
/// it: the writer counts `plexes`, and the reader hands the count to
/// the caller of ParseFramedResponse.
struct BodyCount {
  const std::shared_ptr<const std::vector<std::vector<VertexId>>>& plexes;
};

template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};

/// The frame "type" that names each ResponsePayload alternative on the
/// wire, in variant order: FormatFramedResponse writes the name of the
/// payload's index, ParseFramedResponse starts the alternative at the
/// index its type names.
constexpr const char* kFrameTypes[] = {
    "hello",        "load",           "snapshot",   "mine",
    "submitted",    "shard_result",   "plan",       "shard_submitted",
    "shard_stopping", "worker_ack",   "workers",    "result_chunk",
    "cancelling",   "jobs",           "wait",       "wait_all",
    "stats",        "metrics",        "evicted",    "store",
    "help",         "bye",            "error"};
static_assert(std::size(kFrameTypes) == std::variant_size_v<ResponsePayload>);

const char* FrameTypeName(const ResponsePayload& payload) {
  return kFrameTypes[payload.index()];
}

/// Alternative `index` of ResponsePayload, at its defaults.
template <std::size_t... I>
ResponsePayload PayloadAt(std::size_t index, std::index_sequence<I...>) {
  static const ResponsePayload kAlternatives[] = {
      ResponsePayload(std::in_place_index<I>)...};
  return kAlternatives[index];
}

/// The response schema: one overload per response struct and nested
/// row, each listing the keys of its frame object in wire order.
template <class Io>
struct Walk {
  Io& io;

  /// Every frame starts with the correlation id, the ok flag and the
  /// type that names the payload.
  void operator()(Response& response) const {
    bool ok = !std::holds_alternative<ErrorResponse>(response.payload);
    io("id", response.request_id);
    io("ok", ok);
    io("type", response.payload);
    io.Check(ok != std::holds_alternative<ErrorResponse>(response.payload),
             "response frame's 'ok' disagrees with its type");
    std::visit(*this, response.payload);
  }
  void operator()(HelloResponse& hello) const {
    io("proto", hello.version);
    io("mode", hello.mode);
  }
  void operator()(LoadResponse& loaded) const {
    io("name", loaded.name);
    io("vertices", loaded.num_vertices);
    io("edges", loaded.num_edges);
    io("seconds", loaded.load_seconds);
    io.Optional("dataset", loaded.dataset_key, !loaded.dataset_key.empty());
  }
  void operator()(SnapshotResponse& snapshot) const {
    io("name", snapshot.name);
    io("path", snapshot.path);
    io("precompute", snapshot.with_precompute);
  }
  void operator()(MineResponse& mine) const { (*this)(mine.job); }
  void operator()(SubmitResponse& submit) const {
    io("job", submit.job);
    io("query", submit.query);
  }
  void operator()(ShardResultResponse& shard) const {
    (*this)(shard.job);
    QueryResult& result = shard.job.result;
    if (HasResult(shard.job)) {
      // The mergeable extras beyond the common job fields: the raw XOR
      // half and the seed-space size (coordinator planning).
      io("fingerprint_xor", Hex{result.fingerprint_xor});
      io("total_seeds", result.total_seeds);
      // Yield outcome (v5 work-stealing): a yielded shard answers its
      // covered prefix completely; the coordinator re-issues the rest.
      io.Optional("yielded", result.yielded, result.yielded);
      if (result.yielded) {
        io("covered_begin", result.covered_begin);
        io("covered_end", result.covered_end);
      }
    }
    io("content_hash", Hex{shard.content_hash});
  }
  void operator()(PlanResponse& plan) const {
    io("graph", plan.graph);
    io("total_seeds", plan.total_seeds);
    io("content_hash", Hex{plan.content_hash});
    io("degeneracy", plan.degeneracy);
    io("precomputed", plan.precomputed);
    io("seconds", plan.seconds);
    io("degrees", plan.degrees);
    io("coreness", plan.coreness);
    io.Check(plan.degrees.size() == plan.coreness.size(),
             "plan frame arrays disagree on seed count");
  }
  void operator()(ShardSubmitResponse& shard) const {
    io("job", shard.job);
    io("content_hash", Hex{shard.content_hash});
  }
  void operator()(ShardStopResponse& stop) const { io("job", stop.job); }
  void operator()(WorkerAckResponse& ack) const {
    io("worker", ack.worker);
    io("state", ack.state);
  }
  void operator()(WorkersResponse& workers) const {
    io("workers", workers.workers);
  }
  void operator()(ResultChunkResponse& chunk) const {
    io("job", chunk.job);
    io("seq", chunk.seq);
    io("last", chunk.last);
    io("plexes", chunk.plexes);
  }
  void operator()(CancelResponse& cancel) const { io("job", cancel.job); }
  void operator()(JobsResponse& jobs) const { io("jobs", jobs.jobs); }
  void operator()(WaitResponse& wait) const { (*this)(wait.job); }
  void operator()(WaitAllResponse& all) const {
    io("done", all.counts.done);
    io("cancelled", all.counts.cancelled);
    io("failed", all.counts.failed);
    io("failed_jobs", all.failed_jobs);
  }
  void operator()(StatsResponse& stats) const {
    io("graphs", stats.graphs);
    io("resident_bytes", stats.resident_bytes);
    io("mapped_resident_bytes", stats.mapped_resident_bytes);
    io("budget_bytes", stats.memory_budget_bytes);
    io.Object("cache", [&] {
      io("entries", stats.cache.entries);
      io("capacity", stats.cache.capacity);
      io("hits", stats.cache.hits);
      io("misses", stats.cache.misses);
    });
    io.Object("dispatcher", [&] {
      io("workers", stats.workers);
      io("queued", stats.jobs.queued);
      io("running", stats.jobs.running);
      io("done", stats.jobs.done);
      io("cancelled", stats.jobs.cancelled);
      io("failed", stats.jobs.failed);
    });
    io("store", stats.store);
  }
  // The text wire's `format` is presentation only: the framed wire
  // always carries the full snapshot.
  void operator()(MetricsResponse& metrics) const {
    io("counters", metrics.snapshot.counters);
    io("gauges", metrics.snapshot.gauges);
    io("histograms", metrics.snapshot.histograms);
  }
  void operator()(EvictResponse& evict) const { io("name", evict.name); }
  void operator()(StoreResponse& store) const {
    io("evicted", store.evicted);
    if (store.evicted) {
      io("evicted_entries", store.evicted_entries);
      io("evicted_bytes", store.evicted_bytes);
    }
    io("store", store.info);
  }
  void operator()(HelpResponse&) const {
    std::string text = HelpText();
    io("text", text);
  }
  void operator()(ByeResponse&) const {}
  void operator()(ErrorResponse& error) const { (*this)(error.status); }

  // Nested objects and array rows.
  void operator()(Status& status) const {
    io.Failure("code", "message", status);
  }
  void operator()(JobInfo& info) const {
    io("job", info.id);
    io("query", info.request);
    io("state", info.state);
    io("started", info.started);
    if (HasResult(info)) (*this)(info.result);
    if (info.state == JobState::kFailed) io("error", info.status);
  }
  void operator()(QueryResult& result) const {
    io("plexes", result.num_plexes);
    io("max_size", result.max_plex_size);
    io("fingerprint", Hex{result.fingerprint});
    io("seconds", result.seconds);
    io("compute_seconds", result.compute_seconds);
    io("cached", result.from_cache);
    io("precomputed", result.reduction_precomputed);
    io("timed_out", result.timed_out);
    io("stopped_early", result.stopped_early);
    io("cancelled", result.cancelled);
    io.Optional("bodies", BodyCount{result.plexes}, result.plexes != nullptr);
    io.Optional("cursor",
                Cursor{result.has_cursor, result.cursor_seed,
                       result.cursor_ordinal},
                result.has_cursor);
  }
  void operator()(StoreStatusInfo& info) const {
    io("enabled", info.enabled);
    if (!info.enabled) return;
    io("entries", info.entries);
    io("bytes", info.bytes);
    io("budget_bytes", info.byte_budget);
    io("hits", info.hits);
    io("misses", info.misses);
    io("writes", info.writes);
    io("evictions", info.evictions);
    io("corrupt", info.corrupt_entries);
  }
  void operator()(CatalogEntryInfo& info) const {
    io("name", info.name);
    io("source", info.source);
    io("resident", info.resident);
    io("evictable", info.evictable);
    io("mapped", info.mapped);
    io("vertices", info.num_vertices);
    io("edges", info.num_edges);
    io("owned_bytes", info.memory_bytes);
    io("mapped_bytes", info.mapped_bytes);
    io("precompute", info.precompute);
    io.Optional("content_hash", Hex{info.content_hash},
                info.content_hash != 0);
    io("loads", info.loads);
    io("load_seconds", info.last_load_seconds);
  }
  void operator()(WorkerInfo& info) const {
    io("worker", info.id);
    io("endpoint", info.endpoint);
    io("state", info.state);
    io("chunks_done", info.chunks_done);
    io("chunks_failed", info.chunks_failed);
  }
  void operator()(CounterSample& counter) const {
    io("name", counter.name);
    io("value", counter.value);
  }
  void operator()(GaugeSample& gauge) const {
    io("name", gauge.name);
    io("value", gauge.value);
  }
  void operator()(HistogramSample& histogram) const {
    io("name", histogram.name);
    io("count", histogram.count);
    io("sum", histogram.sum);
    io("p50", histogram.p50);
    io("p95", histogram.p95);
    io("p99", histogram.p99);
    io("le", histogram.bounds);
    io("buckets", histogram.buckets);
  }
};

/// Runs the walk in one direction. Writing (FormatFramedResponse)
/// appends every value to a JsonWriter; reading (ParseFramedResponse)
/// takes every value back from a decoded frame, where the first failure
/// sticks, later steps do nothing, and status() reports it. Each Value
/// overload is one value grammar in both directions: with a null `json`
/// it writes `value` under `key`, otherwise it reads `value` from
/// `json`.
class FrameIo {
 public:
  explicit FrameIo(JsonWriter& out) : out_(&out) {}
  FrameIo(const JsonValue& frame, uint64_t* bodies)
      : object_(&frame), bodies_(bodies) {}

  const Status& status() const { return status_; }

  template <typename T>
  void operator()(const char* key, T&& value) {
    if (out_ != nullptr) {
      Value(key, nullptr, value);
    } else if (const JsonValue* json = Require(key)) {
      Value(key, json, value);
    }
  }
  template <typename T>
  void Optional(const char* key, T&& value, bool when) {
    const bool present =
        out_ != nullptr ? when : status_.ok() && object_->Find(key);
    if (present) (*this)(key, value);
  }
  template <typename Fn>
  void Object(const char* key, Fn&& walk) {
    if (out_ != nullptr) {
      Nested(key, nullptr, walk);
    } else if (const JsonValue* json = Require(key)) {
      Nested(key, json, walk);
    }
  }
  void Failure(const char* code_key, const char* message_key,
               Status& status) {
    std::string code = StatusCodeName(status.code());
    std::string message = status.message();
    (*this)(code_key, code);
    (*this)(message_key, message);
    if (out_ != nullptr || !status_.ok()) return;
    if (code == StatusCodeName(StatusCode::kOk)) {
      return Record(WrongType(code_key, "an error code other than OK"));
    }
    status = Status(StatusCodeFromName(code), message);
  }
  void Check(bool holds, const char* what) {
    if (out_ == nullptr && !holds) Record(Status::InvalidArgument(what));
  }

 private:
  const JsonValue* Require(const char* key) {
    if (!status_.ok()) return nullptr;
    const JsonValue* value = object_->Find(key);
    if (value == nullptr) {
      Record(Status::InvalidArgument(type_ + " frame is missing '" + key +
                                     "'"));
    }
    return value;
  }
  /// Keeps `status` unless an earlier failure is already kept.
  void Record(Status status) {
    if (status_.ok()) status_ = std::move(status);
  }
  /// A nested object, walked by `walk`.
  template <typename Fn>
  void Nested(const char* key, const JsonValue* json, Fn&& walk) {
    if (json == nullptr) {
      out_->BeginObject(key);
      walk();
      return out_->EndObject();
    }
    if (json->kind != JsonValue::Kind::kObject) {
      return Record(WrongType(key, "an object"));
    }
    const JsonValue* outer = std::exchange(object_, json);
    walk();
    object_ = outer;
  }
  /// A value spelled as a string: `text()` when writing; when reading,
  /// `parse` turns the string read back into the value.
  template <typename Text, typename Parse>
  void Spelled(const char* key, const JsonValue* json, Text&& text,
               Parse&& parse) {
    if (json == nullptr) return out_->Add(key, text());
    std::string read;
    Value(key, json, read);
    if (status_.ok()) Record(parse(read));
  }

  template <typename T>
  void Value(const char* key, const JsonValue* json, T& value) {
    if constexpr (IsVector<T>::value) {
      if (json == nullptr) {
        out_->BeginArray(key);
        for (auto& element : value) Value(nullptr, nullptr, element);
        return out_->EndArray();
      }
      if (json->kind != JsonValue::Kind::kArray) {
        return Record(WrongType(key, "an array"));
      }
      value.clear();
      value.reserve(json->array.size());
      for (const JsonValue& element : json->array) {
        if (status_.ok()) Value(key, &element, value.emplace_back());
      }
    } else if constexpr (std::is_class_v<T> &&
                         !std::is_same_v<T, std::string>) {
      Nested(key, json, [&] { Walk<FrameIo>{*this}(value); });  // a row
    } else if (json == nullptr) {
      out_->Add(key, value);  // strings, booleans, integers and doubles
    } else if constexpr (std::is_same_v<T, std::string>) {
      Record(Parsed(value, GetString(*json, key)));
    } else if constexpr (std::is_same_v<T, bool>) {
      Record(Parsed(value, GetBool(*json, key)));
    } else if constexpr (std::is_same_v<T, double>) {
      Record(Parsed(value, GetDouble(*json, key)));
    } else if constexpr (std::is_same_v<T, int64_t>) {
      // Gauges may be negative, and the JSON parser keeps only unsigned
      // integers exact: a negative one arrives as an integral double.
      const double number = json->double_value;
      if (json->kind == JsonValue::Kind::kUint) {
        Record(Parsed(value, GetUint(*json, key, INT64_MAX)));
      } else if (json->kind == JsonValue::Kind::kDouble &&
                 std::trunc(number) == number && number >= -0x1p63 &&
                 number < 0x1p63) {
        value = static_cast<int64_t>(number);
      } else {
        Record(WrongType(key, "an integer"));
      }
    } else {
      const uint64_t max = std::numeric_limits<T>::max();
      Record(Parsed(value, GetUint(*json, key, max)));
    }
  }
  void Value(const char* key, const JsonValue* json, JobState& state) {
    Spelled(key, json, [&] { return JobStateName(state); },
            [&](const std::string& name) {
              for (JobState known : {JobState::kQueued, JobState::kRunning,
                                     JobState::kDone, JobState::kCancelled,
                                     JobState::kFailed}) {
                if (name == JobStateName(known)) {
                  state = known;
                  return Status::Ok();
                }
              }
              return WrongType(key, "a job state");
            });
  }
  // A framed hello means the session is in (or just switched to)
  // framed mode.
  void Value(const char* key, const JsonValue* json,
             std::optional<WireMode>& mode) {
    Spelled(key, json,
            [&] { return WireModeName(mode.value_or(WireMode::kFramed)); },
            [&](const std::string& name) {
              return Parsed(mode, ParseWireMode(name));
            });
  }
  void Value(const char* key, const JsonValue* json,
             ResponsePayload& payload) {
    Spelled(key, json, [&] { return FrameTypeName(payload); },
            [&](const std::string& name) {
              for (std::size_t i = 0; i < std::size(kFrameTypes); ++i) {
                if (name != kFrameTypes[i]) continue;
                payload = PayloadAt(
                    i, std::make_index_sequence<std::size(kFrameTypes)>());
                type_ = name;
                return Status::Ok();
              }
              return Status::InvalidArgument(
                  "unknown response frame type '" + name + "'");
            });
  }
  void Value(const char* key, const JsonValue* json, Hex hex) {
    Spelled(key, json, [&] { return HexFingerprint(hex.value); },
            [&](const std::string& text) {
              return Parsed(hex.value, ParseHexU64(key, text));
            });
  }
  void Value(const char* key, const JsonValue* json, Cursor cursor) {
    Spelled(key, json,
            [&] { return FormatCursorValue(cursor.seed, cursor.ordinal); },
            [&](const std::string& text) {
              cursor.has = true;
              return ParseCursorValue(text, &cursor.seed, &cursor.ordinal);
            });
  }
  void Value(const char* key, const JsonValue* json, BodyCount count) {
    uint64_t bodies = json == nullptr ? count.plexes->size() : 0;
    Value(key, json, bodies);
    if (json != nullptr && bodies_ != nullptr) *bodies_ = bodies;
  }
  /// The "query" object: the echoed QueryFields rows, written as the
  /// request encoder writes them and read as the request parser does.
  void Value(const char* key, const JsonValue* json, QueryRequest& query) {
    static const QueryRequest defaults;
    const Target target = TargetOf(query);
    Nested(key, json, [&] {
      if (json == nullptr) {
        return WriteFields(QueryFields(), target, TargetOf(defaults),
                           /*echo=*/true, *out_);
      }
      for (const Field& field : QueryFields()) {
        if (!(field.flags & kEchoed)) continue;
        bool present = false;
        for (const char* name : {field.json, field.json2}) {
          const JsonValue* value = name ? object_->Find(name) : nullptr;
          if (value == nullptr) continue;
          present = true;
          Record(ReadJson(field, name, *value, field.slot(target)));
        }
        if (!present && (field.flags & AlwaysWritten(/*echo=*/true))) {
          Require(field.json);  // reports the missing key
        }
      }
    });
  }

  /// Stores a parsed value; its status is the step's outcome.
  template <typename T, typename U>
  static Status Parsed(T& slot, StatusOr<U> parsed) {
    if (parsed.ok()) slot = static_cast<T>(*std::move(parsed));
    return parsed.status();
  }

  JsonWriter* out_ = nullptr;  ///< set when writing
  const JsonValue* object_ = nullptr;  ///< the object a read is in
  uint64_t* bodies_ = nullptr;
  std::string type_ = "response";  ///< the frame type, for messages
  Status status_;
};

}  // namespace

// ----------------------------------------------------------- public API

const char* WireModeName(WireMode mode) {
  switch (mode) {
    case WireMode::kText: return "text";
    case WireMode::kFramed: return "framed";
  }
  return "?";
}

StatusOr<WireMode> ParseWireMode(const std::string& name) {
  if (name == "text") return WireMode::kText;
  if (name == "framed") return WireMode::kFramed;
  return Status::InvalidArgument("mode must be text or framed, got '" + name +
                                 "'");
}

std::string DescribeQuery(const QueryRequest& query) {
  return query.graph + " k=" + std::to_string(query.k) +
         " q=" + std::to_string(query.q) + " algo=" +
         QueryAlgoName(query.algo) +
         (query.HasSeedRange()
              ? " seeds=" +
                    FormatSeedRangeValue(query.seed_begin, query.seed_end)
              : "");
}

StatusOr<SeedRange> ParseSeedRangeText(const std::string& value) {
  SeedRange range;
  KPLEX_RETURN_IF_ERROR(ParseSeedRangeValue(value, &range.begin, &range.end));
  return range;
}

// ------------------------------------------------------------- text parse

StatusOr<Request> ParseTextRequest(const std::string& line) {
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty() || tokens[0][0] == '#') {
    return Status::InvalidArgument("blank or comment line");
  }
  const Verb* verb = FindVerb(tokens[0], WireMode::kText);
  if (verb == nullptr) {
    return Status::InvalidArgument("unknown command '" + tokens[0] +
                                   "' (try 'help')");
  }
  if (tokens.size() - 1 < verb->positionals) {
    return Status::InvalidArgument(verb->usage);
  }
  Request request;
  request.payload = verb->prototype;
  // Verbs without fields ignore trailing tokens.
  if (verb->fields.empty()) return request;
  // Each token's field and value: positionals by position, then options
  // by key (a bare word matches only itself). A verb without key=value
  // options rejects a stray token before reading any value; one with
  // them reports an unknown option in token order, a null field
  // carrying its key.
  std::vector<std::pair<const Field*, std::string>> assigned;
  std::size_t next = 1;
  for (const Field& field : verb->fields) {
    if (field.spelling == kPositional ||
        (field.spelling == kOptionalPositional && next < tokens.size())) {
      assigned.emplace_back(&field, tokens[next++]);
    }
  }
  for (; next < tokens.size(); ++next) {
    auto [key, value] = SplitKeyValue(tokens[next]);
    const Field* match = nullptr;
    for (const Field& field : verb->fields) {
      if ((field.spelling == kKeyed && key == field.text) ||
          (field.spelling == kBare && tokens[next] == field.text)) {
        match = &field;
      }
    }
    if (match == nullptr && !verb->has_options) {
      return Status::InvalidArgument(verb->usage);
    }
    assigned.emplace_back(match, match != nullptr ? value : key);
  }
  const Target target = TargetOf(request.payload);
  for (const auto& [field, value] : assigned) {
    if (field == nullptr) {
      return Status::InvalidArgument(
          verb->names_unknown_options
              ? "unknown " + tokens[0] + " option '" + value + "'"
              : verb->usage);
    }
    KPLEX_RETURN_IF_ERROR(ReadText(*field, value, field->slot(target)));
  }
  if (verb->finish != nullptr) {
    KPLEX_RETURN_IF_ERROR(verb->finish(request.payload));
  }
  return request;
}

// ------------------------------------------------------------ text format

void FormatTextResponse(const Response& response, std::ostream& out) {
  struct Visitor {
    std::ostream& out;

    void operator()(const HelloResponse& hello) const {
      // A hello rendered by the text formatter means the session is in
      // (or just switched to) text mode.
      out << "hello proto=" << hello.version << " mode="
          << WireModeName(hello.mode.value_or(WireMode::kText)) << "\n";
    }
    void operator()(const LoadResponse& loaded) const {
      out << "loaded " << loaded.name << ": " << loaded.num_vertices
          << " vertices, " << loaded.num_edges << " edges (";
      if (loaded.dataset_key.empty()) {
        out << FormatSeconds(loaded.load_seconds) << "s";
      } else {
        out << "dataset " << loaded.dataset_key;
      }
      out << ")\n";
    }
    void operator()(const SnapshotResponse& snapshot) const {
      out << "snapshot " << snapshot.name << " -> " << snapshot.path
          << (snapshot.with_precompute ? " (with precompute sections)" : "")
          << "\n";
    }
    void operator()(const MineResponse& mine) const {
      WriteJobOutcome(out, mine.job, "");
    }
    void operator()(const SubmitResponse& submit) const {
      out << "job " << submit.job << " submitted: mine "
          << DescribeQuery(submit.query) << "\n";
    }
    void operator()(const ShardResultResponse& shard) const {
      WriteShardOutcome(out, shard);
    }
    void operator()(const PlanResponse& plan) const {
      out << "plan " << plan.graph << ": " << plan.total_seeds
          << " seeds, degeneracy " << plan.degeneracy << ", hash "
          << HexFingerprint(plan.content_hash) << ", "
          << FormatSeconds(plan.seconds) << "s";
      if (plan.precomputed) out << " [precomputed reduction]";
      out << "\n";
      // One line per seed keeps the text rendering greppable; the
      // framed codec carries the arrays wholesale.
      for (std::size_t i = 0; i < plan.degrees.size(); ++i) {
        out << "seed " << i << " degree=" << plan.degrees[i]
            << " coreness=" << plan.coreness[i] << "\n";
      }
    }
    void operator()(const ShardSubmitResponse& shard) const {
      out << "shard job " << shard.job << " submitted, hash "
          << HexFingerprint(shard.content_hash) << "\n";
    }
    void operator()(const ShardStopResponse& stop) const {
      out << "yield requested for job " << stop.job << "\n";
    }
    void operator()(const WorkerAckResponse& ack) const {
      out << "worker " << ack.worker << " " << ack.state << "\n";
    }
    void operator()(const WorkersResponse& workers) const {
      TablePrinter table({"id", "endpoint", "state", "done", "failed"});
      for (const WorkerInfo& info : workers.workers) {
        table.AddRow({std::to_string(info.id), info.endpoint, info.state,
                      FormatCount(info.chunks_done),
                      FormatCount(info.chunks_failed)});
      }
      table.Print(out);
    }
    void operator()(const ResultChunkResponse& chunk) const {
      out << "chunk " << chunk.seq;
      if (chunk.last) out << " last";
      out << ":";
      for (std::size_t i = 0; i < chunk.plexes.size(); ++i) {
        out << (i == 0 ? " " : " | ");
        const std::vector<VertexId>& plex = chunk.plexes[i];
        for (std::size_t j = 0; j < plex.size(); ++j) {
          if (j > 0) out << " ";
          out << plex[j];
        }
      }
      out << "\n";
    }
    void operator()(const CancelResponse& cancel) const {
      out << "cancel requested for job " << cancel.job << "\n";
    }
    void operator()(const JobsResponse& jobs) const {
      TablePrinter table({"id", "query", "state", "plexes", "seconds"});
      for (const JobInfo& info : jobs.jobs) {
        const bool has_result = HasResult(info);
        table.AddRow({std::to_string(info.id), DescribeQuery(info.request),
                      JobStateName(info.state),
                      has_result ? FormatCount(info.result.num_plexes) : "-",
                      has_result ? FormatSeconds(info.result.seconds) : "-"});
      }
      table.Print(out);
    }
    void operator()(const WaitResponse& wait) const {
      WriteJobOutcome(out, wait.job,
                      "job " + std::to_string(wait.job.id) + ": ");
    }
    void operator()(const WaitAllResponse& all) const {
      out << "all jobs finished: " << all.counts.done << " done, "
          << all.counts.cancelled << " cancelled, " << all.counts.failed
          << " failed\n";
    }
    void operator()(const StatsResponse& stats) const {
      TablePrinter graphs({"name", "source", "resident", "vertices", "edges",
                           "owned", "mapped", "precompute", "hash",
                           "loads"});
      for (const auto& info : stats.graphs) {
        graphs.AddRow({info.name, info.source, info.resident ? "yes" : "no",
                       FormatCount(info.num_vertices),
                       FormatCount(info.num_edges),
                       HumanBytes(info.memory_bytes),
                       HumanBytes(info.mapped_bytes), info.precompute,
                       info.content_hash != 0
                           ? HexFingerprint(info.content_hash)
                           : "-",
                       FormatCount(info.loads)});
      }
      graphs.Print(out);
      out << "resident: " << HumanBytes(stats.resident_bytes) << " owned";
      if (stats.memory_budget_bytes > 0) {
        out << " / budget " << HumanBytes(stats.memory_budget_bytes);
      }
      out << " + " << HumanBytes(stats.mapped_resident_bytes)
          << " mapped (zero-copy, budget-exempt)\n";
      out << "result cache: " << stats.cache.entries << "/"
          << stats.cache.capacity << " entries, " << stats.cache.hits
          << " hits, " << stats.cache.misses << " misses\n";
      out << "dispatcher: " << stats.workers << " worker(s), "
          << stats.jobs.queued << " queued, " << stats.jobs.running
          << " running, "
          << (stats.jobs.done + stats.jobs.cancelled + stats.jobs.failed)
          << " finished\n";
      WriteStoreStatusLine(out, stats.store);
    }
    void operator()(const MetricsResponse& metrics) const {
      // Deterministic framing for the multi-line body: a header line
      // that announces exactly how many lines follow, so text clients
      // (tools/metrics_smoke.py, kplex_cli metrics) can read the whole
      // scrape without sentinels.
      if (metrics.format == "prom") {
        const std::string body = RenderMetricsPrometheus(metrics.snapshot);
        std::size_t lines = 0;
        for (char c : body) {
          if (c == '\n') ++lines;
        }
        out << "metrics prom " << lines << " lines\n" << body;
      } else {
        out << "metrics " << metrics.snapshot.SeriesCount() << " series\n"
            << RenderMetricsText(metrics.snapshot);
      }
    }
    void operator()(const EvictResponse& evict) const {
      out << "evicted " << evict.name << "\n";
    }
    void operator()(const StoreResponse& store) const {
      if (store.evicted) {
        out << "store evicted: " << store.evicted_entries << " entries, "
            << HumanBytes(static_cast<std::size_t>(store.evicted_bytes))
            << " freed\n";
      }
      WriteStoreStatusLine(out, store.info);
    }
    void operator()(const HelpResponse&) const { out << HelpText(); }
    void operator()(const ByeResponse&) const {}  // quit prints nothing
    void operator()(const ErrorResponse& error) const {
      out << "error: " << error.status.ToString() << "\n";
    }
  };
  std::visit(Visitor{out}, response.payload);
}

// ----------------------------------------------------------- framed parse

StatusOr<Request> ParseFramedRequest(const std::string& line,
                                     uint64_t* error_id) {
  if (error_id != nullptr) *error_id = 0;
  auto parsed = JsonParser(line).Parse();
  if (!parsed.ok()) return parsed.status();
  if (parsed->kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument(
        "malformed frame: expected a JSON object");
  }
  const JsonValue& frame = *parsed;

  Request request;
  const JsonValue* id = frame.Find("id");
  if (id != nullptr) {
    auto value = GetUint(*id, "id");
    if (!value.ok()) return value.status();
    request.id = *value;
    // Publish the id before command validation: a rejected frame still
    // gets a correlated error response.
    if (error_id != nullptr) *error_id = request.id;
  }
  const JsonValue* cmd_field = frame.Find("cmd");
  if (cmd_field == nullptr) {
    return Status::InvalidArgument("frame is missing the 'cmd' field");
  }
  auto cmd = GetString(*cmd_field, "cmd");
  if (!cmd.ok()) return cmd.status();

  const Verb* verb = FindVerb(*cmd, WireMode::kFramed);
  if (verb == nullptr) {
    return Status::InvalidArgument("unknown command '" + *cmd +
                                   "' (try 'help')");
  }
  request.payload = verb->prototype;
  const Target target = TargetOf(request.payload);
  // Any key the verb does not declare is a typo the client should hear
  // about, mirroring the text grammar's unknown-option errors.
  uint64_t seen = 0;  // bit i: verb->fields[i] was present
  for (const auto& [key, value] : frame.object) {
    if (key == "id" || key == "cmd") continue;
    std::size_t i = 0;
    while (i < verb->fields.size() && key != verb->fields[i].json &&
           (verb->fields[i].json2 == nullptr || key != verb->fields[i].json2)) {
      ++i;
    }
    if (i == verb->fields.size()) return UnknownField(*cmd, key);
    const Field& field = verb->fields[i];
    KPLEX_RETURN_IF_ERROR(ReadJson(field, key, value, field.slot(target)));
    seen |= uint64_t{1} << i;
  }
  for (std::size_t i = 0; i < verb->fields.size(); ++i) {
    if (!(verb->fields[i].flags & kRequired)) continue;
    const Slot slot = verb->fields[i].slot(target);
    const auto* text = std::get_if<std::string*>(&slot);
    if (!(seen >> i & 1) || (text != nullptr && (*text)->empty())) {
      return Status::InvalidArgument(verb->requires_text);
    }
  }
  if (verb->finish != nullptr) {
    KPLEX_RETURN_IF_ERROR(verb->finish(request.payload));
  }
  return request;
}

// ---------------------------------------------------------- framed format

std::string FormatFramedRequest(const Request& request) {
  JsonWriter json;
  json.BeginObject();
  if (request.id != 0) json.Add("id", request.id);
  const Verb& verb = VerbOf(request.payload);
  json.Add("cmd", verb.name);
  WriteFields(verb.fields, TargetOf(request.payload),
              TargetOf(verb.prototype), /*echo=*/false, json);
  json.EndObject();
  return json.str();
}

std::string FormatFramedResponse(const Response& response) {
  JsonWriter json;
  json.BeginObject();
  FrameIo writer(json);
  // The walk takes non-const structs so that one walk serves both
  // directions; writing only reads through it.
  Walk<FrameIo>{writer}(const_cast<Response&>(response));
  json.EndObject();
  return json.str();
}

// ----------------------------------------------------------- framed decode

StatusOr<Response> ParseFramedResponse(const std::string& line,
                                       uint64_t* bodies) {
  if (bodies != nullptr) *bodies = 0;
  auto frame = JsonParser(line).Parse();
  if (!frame.ok()) return frame.status();
  if (frame->kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument(
        "malformed frame: expected a JSON object");
  }
  Response response;
  FrameIo reader(*frame, bodies);
  Walk<FrameIo>{reader}(response);
  if (!reader.status().ok()) return reader.status();
  return response;
}

Status ExpectPayload(const Response& response,
                     const ResponsePayload& expected) {
  if (const auto* error = std::get_if<ErrorResponse>(&response.payload)) {
    return error->status;
  }
  if (response.payload.index() != expected.index()) {
    return Status::InvalidArgument(
        std::string("expected a '") + FrameTypeName(expected) +
        "' frame, got '" + FrameTypeName(response.payload) + "'");
  }
  // A failed job of a mine, wait or shard_result frame.
  return std::visit(
      [](const auto& payload) {
        using T = std::decay_t<decltype(payload)>;
        if constexpr (std::is_same_v<T, MineResponse> ||
                      std::is_same_v<T, WaitResponse> ||
                      std::is_same_v<T, ShardResultResponse>) {
          const JobInfo& job = payload.job;
          if (job.state == JobState::kFailed) return job.status;
        }
        return Status::Ok();
      },
      response.payload);
}

StatusOr<std::string> PeekFramedResponseType(const std::string& line) {
  auto response = ParseFramedResponse(line);
  if (!response.ok()) return response.status();
  if (const auto* error = std::get_if<ErrorResponse>(&response->payload)) {
    return error->status;
  }
  return std::string(FrameTypeName(response->payload));
}

StatusOr<ParsedMineResult> ParseFramedMineResult(const std::string& line) {
  ParsedMineResult verdict;
  auto response = ParseFramedResponse(line, &verdict.bodies);
  if (!response.ok()) return response.status();
  KPLEX_RETURN_IF_ERROR(ExpectPayload(*response, MineResponse{}));
  const JobInfo& job = std::get<MineResponse>(response->payload).job;
  verdict.request_id = response->request_id;
  verdict.state = JobStateName(job.state);
  verdict.plexes = job.result.num_plexes;
  verdict.fingerprint = job.result.fingerprint;
  verdict.cached = job.result.from_cache;
  return verdict;
}

// ----------------------------------------------------------- session rules

std::optional<StatusOr<Request>> ParseSessionLine(const std::string& line,
                                                  WireMode mode,
                                                  uint64_t* error_id) {
  *error_id = 0;
  if (mode == WireMode::kText) {
    if (IsBlankOrComment(line)) return std::nullopt;
    return ParseTextRequest(line);
  }
  if (line.find_first_not_of(" \t\r") == std::string::npos) {
    return std::nullopt;
  }
  return ParseFramedRequest(line, error_id);
}

void WriteResponse(const Response& response, WireMode mode,
                   std::ostream& out) {
  if (mode == WireMode::kText) {
    FormatTextResponse(response, out);
  } else {
    out << FormatFramedResponse(response) << "\n";
  }
}

bool EndsSessionSilently(const Request& request, WireMode mode) {
  return mode == WireMode::kText &&
         std::holds_alternative<QuitRequest>(request.payload);
}

WireMode ModeAfter(const Response& response, WireMode mode) {
  const auto* hello = std::get_if<HelloResponse>(&response.payload);
  return hello != nullptr && hello->mode.has_value() ? *hello->mode : mode;
}

StatusOr<ResumeCursor> ParseCursorText(const std::string& value) {
  ResumeCursor cursor;
  KPLEX_RETURN_IF_ERROR(
      ParseCursorValue(value, &cursor.seed, &cursor.ordinal));
  return cursor;
}

std::string FormatCursorValue(uint32_t seed, uint64_t ordinal) {
  return std::to_string(seed) + ":" + std::to_string(ordinal);
}

const char* RequestVerbName(const RequestPayload& payload) {
  return VerbOf(payload).name;
}

// ---------------------------------------------------------- error hygiene

std::string SanitizeErrorMessage(const std::string& message) {
  std::string out;
  out.reserve(message.size());
  std::size_t i = 0;
  while (i < message.size()) {
    const bool at_boundary =
        i == 0 || !(std::isalnum(static_cast<unsigned char>(message[i - 1])) ||
                    message[i - 1] == '.' || message[i - 1] == '_' ||
                    message[i - 1] == '-' || message[i - 1] == '/');
    if (message[i] != '/' || !at_boundary) {
      out += message[i++];
      continue;
    }
    // An absolute path token: consume up to whitespace/quote/paren and
    // keep only its last non-empty component.
    const std::size_t start = i;
    while (i < message.size()) {
      const char c = message[i];
      if (std::isspace(static_cast<unsigned char>(c)) || c == '\'' ||
          c == '"' || c == ')' || c == '(' || c == ',' || c == ';') {
        break;
      }
      ++i;
    }
    std::string token = message.substr(start, i - start);
    while (!token.empty() && token.back() == '/') token.pop_back();
    const std::size_t slash = token.find_last_of('/');
    std::string base =
        slash == std::string::npos ? token : token.substr(slash + 1);
    out += base.empty() ? "/" : base;
  }
  return out;
}

Status SanitizeErrorStatus(const Status& status) {
  if (status.ok()) return status;
  return Status(status.code(), SanitizeErrorMessage(status.message()));
}

}  // namespace kplex
