#include "service/protocol.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "bench_common/table_printer.h"

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

constexpr const char kHelpText[] =
    "commands:\n"
    "  load NAME PATH        register + load a graph file\n"
    "  dataset NAME KEY      register + load a registry dataset\n"
    "  snapshot NAME PATH [precompute] [levels=C1,C2,...]\n"
    "                        write NAME as a binary v2 snapshot;\n"
    "                        precompute stores reduction sections\n"
    "  mine NAME K Q [algo=ours|ours_p|basic|listplex|fp]\n"
    "       [threads=N] [max-results=N] [time-limit=S] [tau-ms=T]\n"
    "       [cache=on|off] [ctcp=on|off] [results=stream|count]\n"
    "       [chunk=N] [filter=size>=S,size<=T] [contain=V] [top=K]\n"
    "       [mode=enumerate|maximum] [cursor=S:O]\n"
    "                        results=stream delivers the plex bodies in\n"
    "                        bounded result chunks before the summary;\n"
    "                        a max-results-truncated sequential run\n"
    "                        reports a cursor to resume from\n"
    "  submit NAME K Q [...] run a mine asynchronously; prints a\n"
    "                        job id immediately\n"
    "  plan NAME K Q [ctcp]  per-seed cost-estimate probe (degeneracy-\n"
    "                        order degrees + coreness); no enumeration\n"
    "  shardsubmit NAME K Q [seed-range=B:E] [hash=0xH] [...]\n"
    "                        mine one shard of the seed space: hash=\n"
    "                        refuses a mismatched snapshot, then a job\n"
    "                        id immediately (sharding, work-stealing)\n"
    "  shardwait ID          block until shard job ID is terminal and\n"
    "                        print its shard result\n"
    "  shardstop ID          ask shard job ID to yield at the next seed\n"
    "                        boundary (its result covers a prefix)\n"
    "  register HOST:PORT    join a coordinator's worker pool\n"
    "  heartbeat ID          refresh worker ID's liveness (coordinator)\n"
    "  drain ID              stop scheduling onto worker ID (coordinator)\n"
    "  workers               the coordinator's worker-pool table\n"
    "  cancel ID             cancel a queued or running job\n"
    "  jobs                  status of every submitted job\n"
    "  wait [ID]             block until job ID (or all jobs) done\n"
    "  stats                 catalog + cache + dispatcher stats\n"
    "  metrics [format=table|prom]\n"
    "                        scrape the process metrics registry\n"
    "  evict NAME            drop the resident copy\n"
    "  store [evict]         durable result-store status; `store evict`\n"
    "                        deletes every persisted entry\n"
    "  hello [proto=N] [mode=text|framed]\n"
    "                        negotiate the protocol version; mode=framed\n"
    "                        switches to the JSON-lines encoding\n"
    "  quit                  end the session\n";

// ----------------------------------------------------------- JSON writing

void JsonEscapeTo(std::string& out, const std::string& value) {
  for (char c : value) {
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

/// Appends `"key":` + primitive values to a flat JSON object/array under
/// construction. Keeps the codec dependency-free.
class JsonWriter {
 public:
  void BeginObject() { Separate(); out_ += '{'; fresh_ = true; }
  void EndObject() { out_ += '}'; fresh_ = false; }
  void BeginArray(const std::string& key) {
    Key(key);
    out_ += '[';
    fresh_ = true;
  }
  void BeginObjectValue(const std::string& key) {
    Key(key);
    out_ += '{';
    fresh_ = true;
  }
  void BeginArrayElementObject() { Separate(); out_ += '{'; fresh_ = true; }
  void BeginArrayElementArray() { Separate(); out_ += '['; fresh_ = true; }
  void EndArray() { out_ += ']'; fresh_ = false; }

  void Add(const std::string& key, const std::string& value) {
    Key(key);
    out_ += '"';
    JsonEscapeTo(out_, value);
    out_ += '"';
  }
  void Add(const std::string& key, const char* value) {
    Add(key, std::string(value));
  }
  // One template for every unsigned integer width: uint32_t, uint64_t,
  // and std::size_t (which is a third distinct type on LP64 macOS —
  // fixed-width overloads would be ambiguous there). bool prefers its
  // exact non-template overload below.
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  void Add(const std::string& key, T value) {
    Key(key);
    out_ += std::to_string(static_cast<uint64_t>(value));
  }
  void Add(const std::string& key, double value) {
    Key(key);
    out_ += CompactDouble(value);
  }
  void AddExact(const std::string& key, double value) {
    Key(key);
    out_ += ShortestDouble(value);
  }
  void Add(const std::string& key, bool value) {
    Key(key);
    out_ += value ? "true" : "false";
  }
  // Exact overload so negative gauge values survive (the integral
  // template above funnels through uint64_t).
  void Add(const std::string& key, int64_t value) {
    Key(key);
    out_ += std::to_string(value);
  }
  // Same template shape as Add: one overload for every unsigned
  // integer width, so uint32_t callers do not see an ambiguity between
  // uint64_t and double.
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  void AddElement(T value) {
    Separate();
    out_ += std::to_string(static_cast<uint64_t>(value));
  }
  void AddElement(double value) {
    Separate();
    out_ += CompactDouble(value);
  }

  const std::string& str() const { return out_; }

 private:
  void Key(const std::string& key) {
    Separate();
    out_ += '"';
    JsonEscapeTo(out_, key);
    out_ += "\":";
  }
  void Separate() {
    if (!fresh_ && !out_.empty() && out_.back() != '{' &&
        out_.back() != '[') {
      out_ += ',';
    }
    fresh_ = false;
  }

  std::string out_;
  bool fresh_ = true;
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

  const JsonValue* Find(const std::string& key) const {
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

Status WrongType(const std::string& key, const char* expected) {
  return Status::InvalidArgument("field '" + key + "' must be " + expected);
}

StatusOr<std::string> GetString(const JsonValue& value,
                                const std::string& key) {
  if (value.kind != JsonValue::Kind::kString) {
    return WrongType(key, "a string");
  }
  return value.string_value;
}

StatusOr<uint64_t> GetUint(const JsonValue& value, const std::string& key,
                           uint64_t max = UINT64_MAX) {
  if (value.kind != JsonValue::Kind::kUint || value.uint_value > max) {
    return WrongType(key, ("an unsigned integer <= " + std::to_string(max))
                              .c_str());
  }
  return value.uint_value;
}

StatusOr<double> GetDouble(const JsonValue& value, const std::string& key) {
  if (value.kind == JsonValue::Kind::kUint) {
    return static_cast<double>(value.uint_value);
  }
  if (value.kind == JsonValue::Kind::kDouble) return value.double_value;
  return WrongType(key, "a number");
}

StatusOr<bool> GetBool(const JsonValue& value, const std::string& key) {
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
// ParseFramedRequest, FormatFramedRequest, RequestVerbName and
// WriteQueryObject walk the rows; usage lines and the framed "requires"
// messages are derived from them.

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
      Opt<&QueryRequest::use_ctcp>("ctcp", "on|off", "ctcp", kEchoed),
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
        Opt<&HelloRequest::mode>("mode", "text|framed", "mode")}},
      {"load", LoadRequest{},
       {Pos<&LoadRequest::name>("NAME", "name"),
        Pos<&LoadRequest::path>("PATH", "path")}},
      {"dataset", DatasetRequest{},
       {Pos<&DatasetRequest::name>("NAME", "name"),
        Pos<&DatasetRequest::key>("KEY", "key")}},
      {"snapshot", SnapshotRequest{},
       {Pos<&SnapshotRequest::name>("NAME", "name"),
        Pos<&SnapshotRequest::path>("PATH", "path"),
        Bare<&SnapshotRequest::include_precompute>("precompute"),
        Opt<&SnapshotRequest::core_mask_levels>("levels", "C1,C2,...",
                                                "levels")},
       true, FinishSnapshot},
      {"mine", MineRequest{}, QueryFields(), true, FinishQuery},
      {"submit", SubmitRequest{}, QueryFields(), true, FinishQuery},
      {"plan", PlanRequest{},
       {Pos<&PlanRequest::graph>("NAME", "graph"),
        Pos<&PlanRequest::k>("K", "k"), Pos<&PlanRequest::q>("Q", "q"),
        Bare<&PlanRequest::use_ctcp>("ctcp")}},
      {"shardsubmit", ShardSubmitRequest{}, shard_fields, true, FinishQuery},
      {"shardwait", ShardWaitRequest{},
       {Pos<&ShardWaitRequest::job>("ID", "job")}},
      {"shardstop", ShardStopRequest{},
       {Pos<&ShardStopRequest::job>("ID", "job")}},
      {"register", RegisterRequest{},
       {Pos<&RegisterRequest::endpoint>("HOST:PORT", "endpoint")}},
      {"heartbeat", HeartbeatRequest{},
       {Pos<&HeartbeatRequest::worker>("ID", "worker")}},
      {"drain", DrainRequest{}, {Pos<&DrainRequest::worker>("ID", "worker")}},
      {"workers", WorkersRequest{}, {}},
      {"cancel", CancelRequest{}, {Pos<&CancelRequest::job>("ID", "job")}},
      {"jobs", JobsRequest{}, {}},
      {"wait", WaitRequest{},
       {{kOptionalPositional, "ID", "", "job", kUint, At<&WaitRequest::job>}}},
      {"stats", StatsRequest{}, {}},
      {"metrics", MetricsRequest{},
       {Opt<&MetricsRequest::format>("format", "table|prom", "format")}},
      {"evict", EvictRequest{}, {Pos<&EvictRequest::name>("NAME", "name")}},
      {"store", StoreRequest{}, {Bare<&StoreRequest::evict>("evict")}},
      {"help", HelpRequest{}, {}},
      {"quit", QuitRequest{}, {}, false, nullptr, "exit"},
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
      json.Add(field.json, std::string(*std::get<bool*>(slot) ? on : off));
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
        json.AddElement(level);
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

/// Writes `fields` of `target` (a request, or a bare query for the
/// response echo), skipping values equal to those of `defaults`. The
/// echo writes only the kEchoed fields.
void WriteFields(const std::vector<Field>& fields, const Target& target,
                 const Target& defaults, bool echo, JsonWriter& json) {
  const unsigned always = kRequired | kAlways | (echo ? kEchoAlways : 0u);
  for (const Field& field : fields) {
    if (echo && !(field.flags & kEchoed)) continue;
    const Slot slot = field.slot(target);
    if (!(field.flags & always) && SameValue(slot, field.slot(defaults))) {
      continue;
    }
    WriteJson(field, slot, json);
  }
}

// ------------------------------------------------- framed job rendering

/// The "query" object of response frames: the echoed QueryFields.
void WriteQueryObject(JsonWriter& json, const std::string& key,
                      const QueryRequest& query) {
  static const QueryRequest defaults;
  json.BeginObjectValue(key);
  WriteFields(QueryFields(), TargetOf(query), TargetOf(defaults),
              /*echo=*/true, json);
  json.EndObject();
}

void WriteJobFields(JsonWriter& json, const JobInfo& info) {
  json.Add("job", info.id);
  WriteQueryObject(json, "query", info.request);
  json.Add("state", JobStateName(info.state));
  json.Add("started", info.started);
  const bool has_result =
      info.state == JobState::kDone ||
      (info.state == JobState::kCancelled && info.started);
  if (has_result) {
    json.Add("plexes", info.result.num_plexes);
    json.Add("max_size", info.result.max_plex_size);
    json.Add("fingerprint", HexFingerprint(info.result.fingerprint));
    json.Add("seconds", info.result.seconds);
    json.Add("compute_seconds", info.result.compute_seconds);
    json.Add("cached", info.result.from_cache);
    json.Add("precomputed", info.result.reduction_precomputed);
    json.Add("timed_out", info.result.timed_out);
    json.Add("stopped_early", info.result.stopped_early);
    json.Add("cancelled", info.result.cancelled);
    if (info.result.plexes != nullptr) {
      json.Add("bodies", info.result.plexes->size());
    }
    if (info.result.has_cursor) {
      json.Add("cursor", FormatCursorValue(info.result.cursor_seed,
                                           info.result.cursor_ordinal));
    }
  }
  if (info.state == JobState::kFailed) {
    json.BeginObjectValue("error");
    json.Add("code", StatusCodeName(info.status.code()));
    json.Add("message", info.status.message());
    json.EndObject();
  }
}

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
        const bool has_result =
            info.state == JobState::kDone ||
            (info.state == JobState::kCancelled && info.started);
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
    void operator()(const HelpResponse&) const { out << kHelpText; }
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

// Nested "store" object shared by the framed stats and store frames.
void WriteStoreStatusObject(JsonWriter& json, const StoreStatusInfo& info) {
  json.BeginObjectValue("store");
  json.Add("enabled", info.enabled);
  if (info.enabled) {
    json.Add("entries", info.entries);
    json.Add("bytes", info.bytes);
    json.Add("budget_bytes", info.byte_budget);
    json.Add("hits", info.hits);
    json.Add("misses", info.misses);
    json.Add("writes", info.writes);
    json.Add("evictions", info.evictions);
    json.Add("corrupt", info.corrupt_entries);
  }
  json.EndObject();
}

std::string FormatFramedResponse(const Response& response) {
  JsonWriter json;
  json.BeginObject();
  json.Add("id", response.request_id);
  json.Add("ok",
           !std::holds_alternative<ErrorResponse>(response.payload));

  struct Visitor {
    JsonWriter& json;

    void operator()(const HelloResponse& hello) const {
      json.Add("type", "hello");
      json.Add("proto", hello.version);
      // A framed-rendered hello means the session is in (or just
      // switched to) framed mode.
      json.Add("mode", WireModeName(hello.mode.value_or(WireMode::kFramed)));
    }
    void operator()(const LoadResponse& loaded) const {
      json.Add("type", "load");
      json.Add("name", loaded.name);
      json.Add("vertices", loaded.num_vertices);
      json.Add("edges", loaded.num_edges);
      json.Add("seconds", loaded.load_seconds);
      if (!loaded.dataset_key.empty()) {
        json.Add("dataset", loaded.dataset_key);
      }
    }
    void operator()(const SnapshotResponse& snapshot) const {
      json.Add("type", "snapshot");
      json.Add("name", snapshot.name);
      json.Add("path", snapshot.path);
      json.Add("precompute", snapshot.with_precompute);
    }
    void operator()(const MineResponse& mine) const {
      json.Add("type", "mine");
      WriteJobFields(json, mine.job);
    }
    void operator()(const SubmitResponse& submit) const {
      json.Add("type", "submitted");
      json.Add("job", submit.job);
      WriteQueryObject(json, "query", submit.query);
    }
    void operator()(const ShardResultResponse& shard) const {
      json.Add("type", "shard_result");
      WriteJobFields(json, shard.job);
      const bool has_result =
          shard.job.state == JobState::kDone ||
          (shard.job.state == JobState::kCancelled && shard.job.started);
      if (has_result) {
        // The mergeable extras beyond the common job fields: the raw
        // XOR half and the seed-space size (coordinator planning).
        json.Add("fingerprint_xor",
                 HexFingerprint(shard.job.result.fingerprint_xor));
        json.Add("total_seeds", shard.job.result.total_seeds);
        // Yield outcome (v5 work-stealing) — additive fields, only on
        // shard_result frames: a yielded shard answers its covered
        // prefix completely; the coordinator re-issues the rest.
        if (shard.job.result.yielded) {
          json.Add("yielded", true);
          json.Add("covered_begin", shard.job.result.covered_begin);
          json.Add("covered_end", shard.job.result.covered_end);
        }
      }
      json.Add("content_hash", HexFingerprint(shard.content_hash));
    }
    void operator()(const PlanResponse& plan) const {
      json.Add("type", "plan");
      json.Add("graph", plan.graph);
      json.Add("total_seeds", plan.total_seeds);
      json.Add("content_hash", HexFingerprint(plan.content_hash));
      json.Add("degeneracy", plan.degeneracy);
      json.Add("precomputed", plan.precomputed);
      json.Add("seconds", plan.seconds);
      json.BeginArray("degrees");
      for (uint32_t degree : plan.degrees) json.AddElement(degree);
      json.EndArray();
      json.BeginArray("coreness");
      for (uint32_t coreness : plan.coreness) json.AddElement(coreness);
      json.EndArray();
    }
    void operator()(const ShardSubmitResponse& shard) const {
      json.Add("type", "shard_submitted");
      json.Add("job", shard.job);
      json.Add("content_hash", HexFingerprint(shard.content_hash));
    }
    void operator()(const ShardStopResponse& stop) const {
      json.Add("type", "shard_stopping");
      json.Add("job", stop.job);
    }
    void operator()(const WorkerAckResponse& ack) const {
      json.Add("type", "worker_ack");
      json.Add("worker", ack.worker);
      json.Add("state", ack.state);
    }
    void operator()(const WorkersResponse& workers) const {
      json.Add("type", "workers");
      json.BeginArray("workers");
      for (const WorkerInfo& info : workers.workers) {
        json.BeginArrayElementObject();
        json.Add("worker", info.id);
        json.Add("endpoint", info.endpoint);
        json.Add("state", info.state);
        json.Add("chunks_done", info.chunks_done);
        json.Add("chunks_failed", info.chunks_failed);
        json.EndObject();
      }
      json.EndArray();
    }
    void operator()(const ResultChunkResponse& chunk) const {
      json.Add("type", "result_chunk");
      json.Add("job", chunk.job);
      json.Add("seq", chunk.seq);
      json.Add("last", chunk.last);
      json.BeginArray("plexes");
      for (const std::vector<VertexId>& plex : chunk.plexes) {
        json.BeginArrayElementArray();
        for (VertexId v : plex) json.AddElement(v);
        json.EndArray();
      }
      json.EndArray();
    }
    void operator()(const CancelResponse& cancel) const {
      json.Add("type", "cancelling");
      json.Add("job", cancel.job);
    }
    void operator()(const JobsResponse& jobs) const {
      json.Add("type", "jobs");
      json.BeginArray("jobs");
      for (const JobInfo& info : jobs.jobs) {
        json.BeginArrayElementObject();
        WriteJobFields(json, info);
        json.EndObject();
      }
      json.EndArray();
    }
    void operator()(const WaitResponse& wait) const {
      json.Add("type", "wait");
      WriteJobFields(json, wait.job);
    }
    void operator()(const WaitAllResponse& all) const {
      json.Add("type", "wait_all");
      json.Add("done", all.counts.done);
      json.Add("cancelled", all.counts.cancelled);
      json.Add("failed", all.counts.failed);
      json.BeginArray("failed_jobs");
      for (uint64_t id : all.failed_jobs) json.AddElement(id);
      json.EndArray();
    }
    void operator()(const StatsResponse& stats) const {
      json.Add("type", "stats");
      json.BeginArray("graphs");
      for (const CatalogEntryInfo& info : stats.graphs) {
        json.BeginArrayElementObject();
        json.Add("name", info.name);
        json.Add("source", info.source);
        json.Add("resident", info.resident);
        json.Add("evictable", info.evictable);
        json.Add("mapped", info.mapped);
        json.Add("vertices", info.num_vertices);
        json.Add("edges", info.num_edges);
        json.Add("owned_bytes", info.memory_bytes);
        json.Add("mapped_bytes", info.mapped_bytes);
        json.Add("precompute", info.precompute);
        if (info.content_hash != 0) {
          json.Add("content_hash", HexFingerprint(info.content_hash));
        }
        json.Add("loads", info.loads);
        json.Add("load_seconds", info.last_load_seconds);
        json.EndObject();
      }
      json.EndArray();
      json.Add("resident_bytes", stats.resident_bytes);
      json.Add("mapped_resident_bytes", stats.mapped_resident_bytes);
      json.Add("budget_bytes", stats.memory_budget_bytes);
      json.BeginObjectValue("cache");
      json.Add("entries", stats.cache.entries);
      json.Add("capacity", stats.cache.capacity);
      json.Add("hits", stats.cache.hits);
      json.Add("misses", stats.cache.misses);
      json.EndObject();
      json.BeginObjectValue("dispatcher");
      json.Add("workers", stats.workers);
      json.Add("queued", stats.jobs.queued);
      json.Add("running", stats.jobs.running);
      json.Add("done", stats.jobs.done);
      json.Add("cancelled", stats.jobs.cancelled);
      json.Add("failed", stats.jobs.failed);
      json.EndObject();
      WriteStoreStatusObject(json, stats.store);
    }
    void operator()(const MetricsResponse& metrics) const {
      json.Add("type", "metrics");
      json.BeginArray("counters");
      for (const CounterSample& counter : metrics.snapshot.counters) {
        json.BeginArrayElementObject();
        json.Add("name", counter.name);
        json.Add("value", counter.value);
        json.EndObject();
      }
      json.EndArray();
      json.BeginArray("gauges");
      for (const GaugeSample& gauge : metrics.snapshot.gauges) {
        json.BeginArrayElementObject();
        json.Add("name", gauge.name);
        json.Add("value", gauge.value);
        json.EndObject();
      }
      json.EndArray();
      json.BeginArray("histograms");
      for (const HistogramSample& histogram : metrics.snapshot.histograms) {
        json.BeginArrayElementObject();
        json.Add("name", histogram.name);
        json.Add("count", histogram.count);
        json.Add("sum", histogram.sum);
        json.Add("p50", histogram.p50);
        json.Add("p95", histogram.p95);
        json.Add("p99", histogram.p99);
        json.BeginArray("le");
        for (double bound : histogram.bounds) json.AddElement(bound);
        json.EndArray();
        json.BeginArray("buckets");
        for (uint64_t count : histogram.buckets) json.AddElement(count);
        json.EndArray();
        json.EndObject();
      }
      json.EndArray();
    }
    void operator()(const EvictResponse& evict) const {
      json.Add("type", "evicted");
      json.Add("name", evict.name);
    }
    void operator()(const StoreResponse& store) const {
      json.Add("type", "store");
      json.Add("evicted", store.evicted);
      if (store.evicted) {
        json.Add("evicted_entries", store.evicted_entries);
        json.Add("evicted_bytes", store.evicted_bytes);
      }
      WriteStoreStatusObject(json, store.info);
    }
    void operator()(const HelpResponse&) const {
      json.Add("type", "help");
      json.Add("text", kHelpText);
    }
    void operator()(const ByeResponse&) const { json.Add("type", "bye"); }
    void operator()(const ErrorResponse& error) const {
      json.Add("type", "error");
      json.Add("code", StatusCodeName(error.status.code()));
      json.Add("message", error.status.message());
    }
  };
  std::visit(Visitor{json}, response.payload);
  json.EndObject();
  return json.str();
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

// ----------------------------------------------- framed client decode

namespace {

/// The structured Status an error object ({"code":...,"message":...})
/// carries; `fallback` stands in for a missing message.
Status EmbeddedStatus(const JsonValue& object, const std::string& fallback) {
  const JsonValue* code = object.Find("code");
  const JsonValue* message = object.Find("message");
  return Status(code != nullptr && code->kind == JsonValue::Kind::kString
                    ? StatusCodeFromName(code->string_value)
                    : StatusCode::kInternal,
                message != nullptr && message->kind == JsonValue::Kind::kString
                    ? message->string_value
                    : fallback);
}

/// Parses a framed response line into its JSON object, surfacing
/// {"ok":false,...} frames as the embedded structured Status.
StatusOr<JsonValue> ParseResponseFrame(const std::string& line) {
  auto parsed = JsonParser(line).Parse();
  if (!parsed.ok()) return parsed.status();
  if (parsed->kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument(
        "malformed frame: expected a JSON object");
  }
  const JsonValue* ok = parsed->Find("ok");
  if (ok == nullptr || ok->kind != JsonValue::Kind::kBool) {
    return Status::InvalidArgument(
        "response frame is missing the 'ok' field");
  }
  if (!ok->bool_value) {
    return EmbeddedStatus(*parsed, "unspecified server error");
  }
  return parsed;
}

/// The "state" of a job frame. A failed job travels inside the frame
/// (state + error object) and comes back as the Status it carries, so
/// clients consume it like any other failure.
StatusOr<std::string> ReadJobState(const JsonValue& frame,
                                   const char* frame_type, const char* job) {
  const JsonValue* state = frame.Find("state");
  if (state == nullptr || state->kind != JsonValue::Kind::kString) {
    return Status::InvalidArgument(std::string(frame_type) +
                                   " frame is missing 'state'");
  }
  if (state->string_value != "failed") return state->string_value;
  const std::string failed = std::string(job) + " job failed";
  const JsonValue* error = frame.Find("error");
  if (error == nullptr || error->kind != JsonValue::Kind::kObject) {
    return Status::Internal(failed);
  }
  return EmbeddedStatus(*error, failed);
}

/// Requires frame["type"] == expected.
Status ExpectFrameType(const JsonValue& frame, const char* expected) {
  const JsonValue* type = frame.Find("type");
  if (type == nullptr || type->kind != JsonValue::Kind::kString ||
      type->string_value != expected) {
    return Status::InvalidArgument(
        std::string("expected a '") + expected + "' frame, got '" +
        (type != nullptr && type->kind == JsonValue::Kind::kString
             ? type->string_value
             : "?") +
        "'");
  }
  return Status::Ok();
}

/// Optional-field readers: absent fields keep the default.
Status ReadUintField(const JsonValue& frame, const char* key,
                     uint64_t* out) {
  const JsonValue* value = frame.Find(key);
  if (value == nullptr) return Status::Ok();
  auto parsed = GetUint(*value, key);
  if (!parsed.ok()) return parsed.status();
  *out = *parsed;
  return Status::Ok();
}

Status ReadHexField(const JsonValue& frame, const char* key, uint64_t* out) {
  const JsonValue* value = frame.Find(key);
  if (value == nullptr) return Status::Ok();
  auto text = GetString(*value, key);
  if (!text.ok()) return text.status();
  auto parsed = ParseHexU64(key, *text);
  if (!parsed.ok()) return parsed.status();
  *out = *parsed;
  return Status::Ok();
}

Status ReadDoubleField(const JsonValue& frame, const char* key,
                       double* out) {
  const JsonValue* value = frame.Find(key);
  if (value == nullptr) return Status::Ok();
  auto parsed = GetDouble(*value, key);
  if (!parsed.ok()) return parsed.status();
  *out = *parsed;
  return Status::Ok();
}

Status ReadBoolField(const JsonValue& frame, const char* key, bool* out) {
  const JsonValue* value = frame.Find(key);
  if (value == nullptr) return Status::Ok();
  auto parsed = GetBool(*value, key);
  if (!parsed.ok()) return parsed.status();
  *out = *parsed;
  return Status::Ok();
}

}  // namespace

StatusOr<uint32_t> ParseFramedHelloVersion(const std::string& line) {
  auto frame = ParseResponseFrame(line);
  if (!frame.ok()) return frame.status();
  KPLEX_RETURN_IF_ERROR(ExpectFrameType(*frame, "hello"));
  const JsonValue* proto = frame->Find("proto");
  if (proto == nullptr) {
    return Status::InvalidArgument("hello frame is missing 'proto'");
  }
  auto version = GetUint(*proto, "proto", UINT32_MAX);
  if (!version.ok()) return version.status();
  return static_cast<uint32_t>(*version);
}

StatusOr<ParsedShardResult> ParseFramedShardResult(const std::string& line) {
  auto frame = ParseResponseFrame(line);
  if (!frame.ok()) return frame.status();
  KPLEX_RETURN_IF_ERROR(ExpectFrameType(*frame, "shard_result"));
  ParsedShardResult result;
  auto state = ReadJobState(*frame, "shard_result", "shard");
  if (!state.ok()) return state.status();
  result.state = *std::move(state);
  KPLEX_RETURN_IF_ERROR(ReadUintField(*frame, "id", &result.request_id));
  KPLEX_RETURN_IF_ERROR(ReadUintField(*frame, "plexes", &result.plexes));
  KPLEX_RETURN_IF_ERROR(ReadUintField(*frame, "max_size", &result.max_size));
  KPLEX_RETURN_IF_ERROR(
      ReadUintField(*frame, "total_seeds", &result.total_seeds));
  KPLEX_RETURN_IF_ERROR(
      ReadHexField(*frame, "fingerprint", &result.fingerprint));
  KPLEX_RETURN_IF_ERROR(
      ReadHexField(*frame, "fingerprint_xor", &result.fingerprint_xor));
  KPLEX_RETURN_IF_ERROR(
      ReadHexField(*frame, "content_hash", &result.content_hash));
  KPLEX_RETURN_IF_ERROR(ReadDoubleField(*frame, "seconds", &result.seconds));
  KPLEX_RETURN_IF_ERROR(
      ReadBoolField(*frame, "timed_out", &result.timed_out));
  KPLEX_RETURN_IF_ERROR(
      ReadBoolField(*frame, "stopped_early", &result.stopped_early));
  KPLEX_RETURN_IF_ERROR(
      ReadBoolField(*frame, "cancelled", &result.cancelled));
  KPLEX_RETURN_IF_ERROR(ReadBoolField(*frame, "yielded", &result.yielded));
  KPLEX_RETURN_IF_ERROR(
      ReadUintField(*frame, "covered_begin", &result.covered_begin));
  KPLEX_RETURN_IF_ERROR(
      ReadUintField(*frame, "covered_end", &result.covered_end));
  return result;
}

StatusOr<ParsedPlan> ParseFramedPlan(const std::string& line) {
  auto frame = ParseResponseFrame(line);
  if (!frame.ok()) return frame.status();
  KPLEX_RETURN_IF_ERROR(ExpectFrameType(*frame, "plan"));
  ParsedPlan plan;
  KPLEX_RETURN_IF_ERROR(ReadUintField(*frame, "id", &plan.request_id));
  KPLEX_RETURN_IF_ERROR(
      ReadUintField(*frame, "total_seeds", &plan.total_seeds));
  KPLEX_RETURN_IF_ERROR(
      ReadHexField(*frame, "content_hash", &plan.content_hash));
  KPLEX_RETURN_IF_ERROR(ReadUintField(*frame, "degeneracy", &plan.degeneracy));
  KPLEX_RETURN_IF_ERROR(
      ReadBoolField(*frame, "precomputed", &plan.precomputed));
  KPLEX_RETURN_IF_ERROR(ReadDoubleField(*frame, "seconds", &plan.seconds));
  for (const char* key : {"degrees", "coreness"}) {
    const JsonValue* array = frame->Find(key);
    if (array == nullptr || array->kind != JsonValue::Kind::kArray) {
      return Status::InvalidArgument(std::string("plan frame is missing the '") +
                                     key + "' array");
    }
    std::vector<uint32_t>& out =
        std::string(key) == "degrees" ? plan.degrees : plan.coreness;
    out.reserve(array->array.size());
    for (const JsonValue& element : array->array) {
      auto parsed = GetUint(element, key, UINT32_MAX);
      if (!parsed.ok()) return parsed.status();
      out.push_back(static_cast<uint32_t>(*parsed));
    }
  }
  if (plan.degrees.size() != plan.coreness.size()) {
    return Status::InvalidArgument(
        "plan frame arrays disagree on seed count");
  }
  return plan;
}

StatusOr<ParsedShardSubmit> ParseFramedShardSubmit(const std::string& line) {
  auto frame = ParseResponseFrame(line);
  if (!frame.ok()) return frame.status();
  KPLEX_RETURN_IF_ERROR(ExpectFrameType(*frame, "shard_submitted"));
  ParsedShardSubmit submit;
  KPLEX_RETURN_IF_ERROR(ReadUintField(*frame, "id", &submit.request_id));
  KPLEX_RETURN_IF_ERROR(ReadUintField(*frame, "job", &submit.job));
  KPLEX_RETURN_IF_ERROR(
      ReadHexField(*frame, "content_hash", &submit.content_hash));
  return submit;
}

StatusOr<uint64_t> ParseFramedShardStop(const std::string& line) {
  auto frame = ParseResponseFrame(line);
  if (!frame.ok()) return frame.status();
  KPLEX_RETURN_IF_ERROR(ExpectFrameType(*frame, "shard_stopping"));
  uint64_t job = 0;
  KPLEX_RETURN_IF_ERROR(ReadUintField(*frame, "job", &job));
  return job;
}

StatusOr<ParsedWorkerAck> ParseFramedWorkerAck(const std::string& line) {
  auto frame = ParseResponseFrame(line);
  if (!frame.ok()) return frame.status();
  KPLEX_RETURN_IF_ERROR(ExpectFrameType(*frame, "worker_ack"));
  ParsedWorkerAck ack;
  KPLEX_RETURN_IF_ERROR(ReadUintField(*frame, "id", &ack.request_id));
  KPLEX_RETURN_IF_ERROR(ReadUintField(*frame, "worker", &ack.worker));
  const JsonValue* state = frame->Find("state");
  if (state != nullptr) {
    auto text = GetString(*state, "state");
    if (!text.ok()) return text.status();
    ack.state = *text;
  }
  return ack;
}

StatusOr<std::string> PeekFramedResponseType(const std::string& line) {
  auto frame = ParseResponseFrame(line);
  if (!frame.ok()) return frame.status();
  const JsonValue* type = frame->Find("type");
  if (type == nullptr || type->kind != JsonValue::Kind::kString) {
    return Status::InvalidArgument("response frame is missing 'type'");
  }
  return type->string_value;
}

StatusOr<ParsedResultChunk> ParseFramedResultChunk(const std::string& line) {
  auto frame = ParseResponseFrame(line);
  if (!frame.ok()) return frame.status();
  KPLEX_RETURN_IF_ERROR(ExpectFrameType(*frame, "result_chunk"));
  ParsedResultChunk chunk;
  KPLEX_RETURN_IF_ERROR(ReadUintField(*frame, "id", &chunk.request_id));
  KPLEX_RETURN_IF_ERROR(ReadUintField(*frame, "job", &chunk.job));
  KPLEX_RETURN_IF_ERROR(ReadUintField(*frame, "seq", &chunk.seq));
  KPLEX_RETURN_IF_ERROR(ReadBoolField(*frame, "last", &chunk.last));
  const JsonValue* plexes = frame->Find("plexes");
  if (plexes == nullptr || plexes->kind != JsonValue::Kind::kArray) {
    return Status::InvalidArgument(
        "result_chunk frame is missing the 'plexes' array");
  }
  chunk.plexes.reserve(plexes->array.size());
  for (const JsonValue& plex : plexes->array) {
    if (plex.kind != JsonValue::Kind::kArray) {
      return WrongType("plexes", "an array of vertex-id arrays");
    }
    std::vector<VertexId> vertices;
    vertices.reserve(plex.array.size());
    for (const JsonValue& vertex : plex.array) {
      auto parsed = GetUint(vertex, "plexes", UINT32_MAX);
      if (!parsed.ok()) return parsed.status();
      vertices.push_back(static_cast<VertexId>(*parsed));
    }
    chunk.plexes.push_back(std::move(vertices));
  }
  return chunk;
}

StatusOr<ParsedMineResult> ParseFramedMineResult(const std::string& line) {
  auto frame = ParseResponseFrame(line);
  if (!frame.ok()) return frame.status();
  KPLEX_RETURN_IF_ERROR(ExpectFrameType(*frame, "mine"));
  ParsedMineResult result;
  auto state = ReadJobState(*frame, "mine", "mine");
  if (!state.ok()) return state.status();
  result.state = *std::move(state);
  KPLEX_RETURN_IF_ERROR(ReadUintField(*frame, "id", &result.request_id));
  KPLEX_RETURN_IF_ERROR(ReadUintField(*frame, "plexes", &result.plexes));
  KPLEX_RETURN_IF_ERROR(ReadUintField(*frame, "max_size", &result.max_size));
  KPLEX_RETURN_IF_ERROR(ReadUintField(*frame, "bodies", &result.bodies));
  KPLEX_RETURN_IF_ERROR(
      ReadHexField(*frame, "fingerprint", &result.fingerprint));
  KPLEX_RETURN_IF_ERROR(ReadDoubleField(*frame, "seconds", &result.seconds));
  KPLEX_RETURN_IF_ERROR(ReadBoolField(*frame, "cached", &result.cached));
  KPLEX_RETURN_IF_ERROR(
      ReadBoolField(*frame, "timed_out", &result.timed_out));
  KPLEX_RETURN_IF_ERROR(
      ReadBoolField(*frame, "stopped_early", &result.stopped_early));
  KPLEX_RETURN_IF_ERROR(
      ReadBoolField(*frame, "cancelled", &result.cancelled));
  const JsonValue* cursor = frame->Find("cursor");
  if (cursor != nullptr) {
    auto text = GetString(*cursor, "cursor");
    if (!text.ok()) return text.status();
    KPLEX_RETURN_IF_ERROR(ParseCursorValue(*text, &result.cursor_seed,
                                           &result.cursor_ordinal));
    result.has_cursor = true;
  }
  return result;
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
