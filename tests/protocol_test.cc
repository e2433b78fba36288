// Protocol codec tests: golden text/framed pairs pin every request
// verb on both wire encodings (and the framed format -> parse -> format
// identity), malformed lines and frames come back as pinned structured
// errors instead of crashes, response formatting is pinned against
// golden strings (the byte-compatibility contract of both wires), the
// framed response goldens decode back to themselves through
// ParseFramedResponse while malformed response frames are structured
// errors, seeded mutation tests drive both framed decoders, `help`
// lists every verb's usage, and error sanitation strips absolute host
// paths.

#include "service/protocol.h"

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "coord/coordinator.h"
#include "util/rng.h"

namespace kplex {
namespace {

// ------------------------------------------------------- golden pairs

/// The wire contract of the request codecs: one canonical text line and
/// its framed encoding for every RequestPayload alternative (some more
/// than once). Each text line must parse to a request whose framed
/// encoding is the paired frame — `coordctl` parses text and sends
/// framed, so the two codecs must agree on every verb.
struct GoldenPair {
  const char* text;
  const char* framed;
};

const std::vector<GoldenPair>& GoldenPairs() {
  static const std::vector<GoldenPair> pairs = {
      {"hello proto=6", R"({"cmd":"hello","proto":6})"},
      {"hello proto=3 mode=framed",
       R"({"cmd":"hello","proto":3,"mode":"framed"})"},
      {"hello proto=1 mode=text", R"({"cmd":"hello","proto":1,"mode":"text"})"},
      {"load web /data/web.kpx",
       R"({"cmd":"load","name":"web","path":"/data/web.kpx"})"},
      {"dataset kc karate", R"({"cmd":"dataset","name":"kc","key":"karate"})"},
      {"snapshot web /tmp/web.kpx",
       R"({"cmd":"snapshot","name":"web","path":"/tmp/web.kpx"})"},
      {"snapshot web /tmp/web.kpx precompute",
       R"({"cmd":"snapshot","name":"web","path":"/tmp/web.kpx",)"
       R"("precompute":true})"},
      {"snapshot web /tmp/web.kpx levels=4,8,10",
       R"({"cmd":"snapshot","name":"web","path":"/tmp/web.kpx",)"
       R"("precompute":true,"levels":[4,8,10]})"},
      {"mine web 2 12", R"({"cmd":"mine","graph":"web","k":2,"q":12})"},
      {"mine web 3 9 algo=listplex threads=8 max-results=1000 "
       "time-limit=2.5 tau-ms=0.25 cache=off",
       R"({"cmd":"mine","graph":"web","k":3,"q":9,"algo":"listplex",)"
       R"("threads":8,"max_results":1000,"time_limit":2.5,"tau_ms":0.25,)"
       R"("cache":false})"},
      {"submit g 1 4 algo=fp",
       R"({"cmd":"submit","graph":"g","k":1,"q":4,"algo":"fp"})"},
      {"mine web 2 12 seed-range=100:250",
       R"({"cmd":"mine","graph":"web","k":2,"q":12,"seed_begin":100,)"
       R"("seed_end":250})"},
      {"mine web 2 12 max-results=50 results=stream chunk=7 "
       "filter=size>=13,size<=20 contain=33",
       R"({"cmd":"mine","graph":"web","k":2,"q":12,"max_results":50,)"
       R"("results":"stream","chunk":7,"min_size":13,"max_size":20,)"
       R"("contain":33})"},
      {"mine web 2 12 results=stream top=5",
       R"({"cmd":"mine","graph":"web","k":2,"q":12,"results":"stream",)"
       R"("top":5})"},
      {"mine web 3 2 results=stream mode=maximum",
       R"({"cmd":"mine","graph":"web","k":3,"q":2,"results":"stream",)"
       R"("mode":"maximum"})"},
      {"mine web 2 12 max-results=7 results=stream cursor=17:4",
       R"({"cmd":"mine","graph":"web","k":2,"q":12,"max_results":7,)"
       R"("results":"stream","cursor":"17:4"})"},
      {"plan web 2 12", R"({"cmd":"plan","graph":"web","k":2,"q":12})"},
      {"shardsubmit web 2 12 threads=4 seed-range=0:1000 "
       "hash=0xbe7c0cfa5f1eee74",
       R"({"cmd":"shardsubmit","graph":"web","k":2,"q":12,"threads":4,)"
       R"("seed_begin":0,"seed_end":1000,"hash":"0xbe7c0cfa5f1eee74"})"},
      {"shardsubmit web 2 12 seed-range=0:0",  // an empty range
       R"({"cmd":"shardsubmit","graph":"web","k":2,"q":12,"seed_begin":0,)"
       R"("seed_end":0})"},
      {"shardwait 7", R"({"cmd":"shardwait","job":7})"},
      {"shardstop 7", R"({"cmd":"shardstop","job":7})"},
      {"register 127.0.0.1:7001",
       R"({"cmd":"register","endpoint":"127.0.0.1:7001"})"},
      {"heartbeat 3", R"({"cmd":"heartbeat","worker":3})"},
      {"drain 3", R"({"cmd":"drain","worker":3})"},
      {"workers", R"({"cmd":"workers"})"},
      {"cancel 17", R"({"cmd":"cancel","job":17})"},
      {"jobs", R"({"cmd":"jobs"})"},
      {"wait", R"({"cmd":"wait"})"},
      {"wait 12", R"({"cmd":"wait","job":12})"},
      {"stats", R"({"cmd":"stats"})"},
      {"metrics", R"({"cmd":"metrics"})"},
      {"metrics format=prom", R"({"cmd":"metrics","format":"prom"})"},
      {"evict web", R"({"cmd":"evict","name":"web"})"},
      {"store", R"({"cmd":"store"})"},
      {"store evict", R"({"cmd":"store","evict":true})"},
      {"help", R"({"cmd":"help"})"},
      {"quit", R"({"cmd":"quit"})"},
  };
  return pairs;
}

TEST(ProtocolText, GoldenLinesParseToTheirFramedPairs) {
  std::set<std::size_t> covered;
  for (const GoldenPair& pair : GoldenPairs()) {
    auto parsed = ParseTextRequest(pair.text);
    ASSERT_TRUE(parsed.ok()) << pair.text << ": "
                             << parsed.status().ToString();
    EXPECT_EQ(parsed->id, 0u) << pair.text;  // no id channel on text
    EXPECT_EQ(FormatFramedRequest(*parsed), pair.framed) << pair.text;
    covered.insert(parsed->payload.index());
  }
  EXPECT_EQ(covered.size(), std::variant_size_v<RequestPayload>);
}

TEST(ProtocolFramed, EveryRequestRoundTrips) {
  uint64_t id = 0;
  for (const GoldenPair& pair : GoldenPairs()) {
    auto parsed = ParseFramedRequest(pair.framed);
    ASSERT_TRUE(parsed.ok()) << pair.framed << ": "
                             << parsed.status().ToString();
    EXPECT_EQ(parsed->id, 0u) << pair.framed;
    EXPECT_EQ(FormatFramedRequest(*parsed), pair.framed);
    auto text = ParseTextRequest(pair.text);
    ASSERT_TRUE(text.ok()) << pair.text;
    EXPECT_EQ(parsed->payload.index(), text->payload.index()) << pair.text;

    // The correlation id rides in front of the command and survives.
    const std::string with_id = "{\"id\":" + std::to_string(++id) + "," +
                                std::string(pair.framed + 1);
    auto correlated = ParseFramedRequest(with_id);
    ASSERT_TRUE(correlated.ok()) << with_id;
    EXPECT_EQ(correlated->id, id);
    EXPECT_EQ(FormatFramedRequest(*correlated), with_id);
  }
}

TEST(ProtocolFramed, ArbitraryStringsSurviveFraming) {
  // Paths with spaces, quotes, backslashes, and control bytes cannot
  // ride the text grammar; the framed codec must carry them exactly.
  LoadRequest load;
  load.name = "weird graph";
  load.path = "/data dir/we\"ird\\file\twith\nnewline";
  Request request;
  request.payload = load;
  auto parsed = ParseFramedRequest(FormatFramedRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& round = std::get<LoadRequest>(parsed->payload);
  EXPECT_EQ(round.name, load.name);
  EXPECT_EQ(round.path, load.path);
}

// ------------------------------------------------------- malformed input

TEST(ProtocolText, MalformedLinesAreStructuredErrors) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"frobnicate", "unknown command 'frobnicate' (try 'help')"},
      {"load onlyname", "usage: load NAME PATH"},
      {"dataset a b c", "usage: dataset NAME KEY"},
      {"snapshot g", "usage: snapshot NAME PATH [precompute] "
                     "[levels=C1,C2,...]"},
      {"snapshot g p bogus", "unknown snapshot option 'bogus'"},
      {"mine", "usage: mine NAME K Q [algo=...] [threads=N] "
               "[max-results=N] [time-limit=S] [tau-ms=T] "
               "[cache=on|off] "
               "[seed-range=B:E] [results=stream|count] [chunk=N] "
               "[filter=size>=S,size<=T] [contain=V] [top=K] "
               "[mode=enumerate|maximum] [cursor=S:O]"},
      {"mine g -1 5", "malformed value for K: '-1'"},
      {"mine g 2 5 threads=-2", "malformed value for threads: '-2'"},
      {"mine g 2 99999999999",
       "malformed value for Q: '99999999999' (expected 0..4294967295)"},
      {"mine g 2 5 bogus=1", "unknown mine option 'bogus'"},
      {"mine g 2 5 cache=maybe", "cache must be on or off"},
      {"mine g 2 5 ctcp=on", "unknown mine option 'ctcp'"},  // removed
      {"plan web 2 12 ctcp", "usage: plan NAME K Q"},       // removed
      {"submit g 2 5 bogus=1", "unknown submit option 'bogus'"},
      {"mine g 2 5 seed-range=5",
       "seed-range must be BEGIN:END (half-open; END may be 'end'), "
       "got '5'"},
      {"mine g 2 5 seed-range=x:9", "malformed value for seed-range: 'x'"},
      {"mine g 2 5 seed-range=9:3",
       "seed-range begin must be <= end (got '9:3')"},
      {"shardsubmit g 2 5 hash=beef",
       "malformed value for hash: 'beef' (expected 0xHEX)"},
      {"shardsubmit g 2 5 hash=0xzz",
       "malformed value for hash: '0xzz' (expected 0xHEX)"},
      {"shardsubmit g 2 5 bogus=1", "unknown shardsubmit option 'bogus'"},
      {"mine g 2 5 results=maybe", "results must be stream or count"},
      {"mine g 2 5 chunk=0", "chunk must be >= 1"},
      {"mine g 2 5 chunk=999999",
       "malformed value for chunk: '999999' (expected 0..65536)"},
      {"mine g 2 5 filter=garbage",
       "malformed filter term 'garbage' (expected size>=S or size<=T)"},
      {"mine g 2 5 filter=size>=0", "filter size bound must be >= 1"},
      {"mine g 2 5 filter=size>=x", "malformed value for filter: 'x'"},
      {"mine g 2 5 filter=size>=9,size<=3",
       "filter size>=9 contradicts size<=3"},
      {"mine g 2 5 contain=x", "malformed value for contain: 'x'"},
      {"mine g 2 5 top=0", "top must be >= 1"},
      {"mine g 2 5 mode=banana", "mode must be enumerate or maximum"},
      {"mine g 2 5 cursor=7",
       "cursor must be SEED:ORDINAL (the resume token a truncated run "
       "returned), got '7'"},
      {"mine g 2 5 cursor=a:3", "malformed value for cursor: 'a'"},
      {"cancel", "usage: cancel ID"},
      {"cancel nope", "malformed value for ID: 'nope'"},
      {"wait 1 2", "usage: wait [ID]"},
      {"evict", "usage: evict NAME"},
      {"store sideways", "usage: store [evict]"},
      {"store evict now", "usage: store [evict]"},
      {"hello proto=x", "malformed value for proto: 'x'"},
      {"hello mode=binary", "mode must be text or framed, got 'binary'"},
      {"hello frob", "usage: hello [proto=N] [mode=text|framed]"},
  };
  for (const auto& [line, message] : cases) {
    auto parsed = ParseTextRequest(line);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_EQ(parsed.status().message(), message) << line;
  }
}

TEST(ProtocolFramed, MalformedFramesAreStructuredErrorsNeverCrashes) {
  const std::string kUint32 = "an unsigned integer <= 4294967295";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"", "malformed frame: unexpected end of input at byte 0"},
      {"not json at all", "malformed frame: expected null at byte 0"},
      {"{", "malformed frame: expected a string key at byte 1"},
      {"{}", "frame is missing the 'cmd' field"},
      {"[]", "malformed frame: expected a JSON object"},
      {"42", "malformed frame: expected a JSON object"},
      {R"("just a string")", "malformed frame: expected a JSON object"},
      {R"({"cmd":})", "malformed frame: unexpected character '}' at byte 7"},
      {R"({"cmd":42})", "field 'cmd' must be a string"},
      {R"({"cmd":"mine"})", "'mine' requires fields graph, k, q"},
      {R"({"cmd":"mine","graph":"g","k":2})",  // missing q
       "'mine' requires fields graph, k, q"},
      {R"({"cmd":"mine","graph":"g","k":-2,"q":5})",
       "field 'k' must be " + kUint32},
      {R"({"cmd":"mine","graph":"g","k":2.5,"q":5})",
       "field 'k' must be " + kUint32},
      {R"({"cmd":"mine","graph":"g","k":2,"q":5,"bogus":1})",
       "unknown field 'bogus' for 'mine'"},
      {R"({"cmd":"mine","graph":"g","k":2,"q":5,"ctcp":true})",
       "unknown field 'ctcp' for 'mine'"},  // removed
      {R"({"cmd":"mine","graph":"g","k":99999999999,"q":5})",
       "field 'k' must be " + kUint32},
      {R"({"cmd":"load","name":"g"})", "'load' requires fields name, path"},
      {R"({"cmd":"load","name":"g","path":7})",
       "field 'path' must be a string"},
      {R"({"cmd":"cancel"})", "'cancel' requires field job"},
      {R"({"cmd":"jobs","extra":true})", "unknown field 'extra' for 'jobs'"},
      {R"({"cmd":"nope"})", "unknown command 'nope' (try 'help')"},
      {R"({"id":"seven","cmd":"jobs"})",
       "field 'id' must be an unsigned integer <= 18446744073709551615"},
      {R"({"cmd":"quit"} trailing)",
       "malformed frame: trailing bytes after the JSON value at byte 15"},
      {R"({"cmd":"quit",})",
       "malformed frame: expected a string key at byte 14"},
      {R"({"cmd" "quit"})",
       "malformed frame: expected ':' after key at byte 7"},
      {R"({"cmd":"snapshot","name":"g","path":"p","levels":[1,"x"]})",
       "field 'levels' must be " + kUint32},
      {R"({"cmd":"hello","mode":"binary"})",
       "mode must be text or framed, got 'binary'"},
      {R"({"cmd":"mine","graph":"g","k":2,"q":5,"seed_begin":9,)"
       R"("seed_end":3})",  // inverted range
       "seed_begin must be <= seed_end (got 9:3)"},
      {R"({"cmd":"mine","graph":"g","k":2,"q":5,"seed_begin":"x"})",
       "field 'seed_begin' must be " + kUint32},
      {R"({"cmd":"mine","graph":"g","k":2,"q":5,"hash":"0xbeef"})",
       "unknown field 'hash' for 'mine'"},  // hash is shard-only
      {R"({"cmd":"shardsubmit","graph":"g","k":2,"q":5,"hash":"beef"})",
       "malformed value for hash: 'beef' (expected 0xHEX)"},  // missing 0x
      {R"({"cmd":"shardsubmit","graph":"g","k":2,"q":5,"hash":12})",
       "field 'hash' must be a string"},
      {R"({"cmd":"shardsubmit","graph":"g"})",  // missing k/q
       "'shardsubmit' requires fields graph, k, q"},
      {R"({"cmd":"mine","graph":"g","k":2,"q":5,"results":"maybe"})",
       "results must be stream or count"},
      {R"({"cmd":"mine","graph":"g","k":2,"q":5,"chunk":0})",
       "chunk must be >= 1"},
      {R"({"cmd":"mine","graph":"g","k":2,"q":5,"chunk":"seven"})",
       "field 'chunk' must be an unsigned integer <= 65536"},
      {R"({"cmd":"mine","graph":"g","k":2,"q":5,"min_size":0})",
       "filter size bound must be >= 1"},
      {R"({"cmd":"mine","graph":"g","k":2,"q":5,"min_size":9,)"
       R"("max_size":3})",  // contradictory filter
       "filter size>=9 contradicts size<=3"},
      {R"({"cmd":"mine","graph":"g","k":2,"q":5,"top":0})",
       "top must be >= 1"},
      {R"({"cmd":"mine","graph":"g","k":2,"q":5,"mode":"banana"})",
       "mode must be enumerate or maximum"},
      {R"({"cmd":"mine","graph":"g","k":2,"q":5,"cursor":"bogus"})",
       "cursor must be SEED:ORDINAL (the resume token a truncated run "
       "returned), got 'bogus'"},  // no SEED:ORDINAL shape
      {R"({"cmd":"mine","graph":"g","k":2,"q":5,"cursor":7})",
       "field 'cursor' must be a string"},
      {R"({"cmd":"mine","graph":"g","k":2,"q":5,"cursor":"3:x"})",
       "malformed value for cursor: 'x'"},
      {R"({"cmd":"store","bogus":1})", "unknown field 'bogus' for 'store'"},
      {R"({"cmd":"store","evict":"yes"})",  // evict must be bool
       "field 'evict' must be a boolean"},
      {R"({"cmd":"quit","cmd")",
       "malformed frame: expected ':' after key at byte 19"},
      {R"({"a":"\u12"})", "malformed frame: bad \\u escape digit at byte 11"},
      {R"({"a":"\q"})", "malformed frame: unknown string escape at byte 8"},
      {R"({"a":"unterminated)",
       "malformed frame: unterminated string at byte 18"},
      {R"({"a":truu})", "malformed frame: expected true/false at byte 5"},
      {R"({"a":nul})", "malformed frame: expected null at byte 5"},
      {R"({"a":1e})", "malformed frame: malformed number '1e' at byte 7"},
      {std::string(64, '['),  // nesting bomb
       "malformed frame: nesting too deep at byte 33"},
      {std::string(R"({"cmd":"evict","name":")") + '\x01' + R"("})",
       "malformed frame: raw control byte in string at byte 24"},
  };
  for (const auto& [frame, message] : cases) {
    auto parsed = ParseFramedRequest(frame);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << frame;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << frame;
    EXPECT_EQ(parsed.status().message(), message) << frame;
  }
}

TEST(ProtocolFramed, FingerprintsAreExactUint64) {
  // 2^53-breaking values must survive the integer path (no double
  // round-trip): job ids and max_results use raw uint64.
  auto parsed = ParseFramedRequest(
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,"
      "\"max_results\":18446744073709551615}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(std::get<MineRequest>(parsed->payload).query.max_results,
            UINT64_MAX);
  // One past UINT64_MAX falls back to double and is rejected as
  // non-integer.
  EXPECT_FALSE(ParseFramedRequest("{\"cmd\":\"cancel\",\"job\":"
                                  "18446744073709551616}")
                   .ok());
}

TEST(ProtocolFramed, SnapshotLevelsImplyPrecomputeInEitherFieldOrder) {
  // "levels implies precompute" applies once every field is read, as
  // on the text wire: a precompute:false on either side of the levels
  // cannot drop the sections the levels ask for.
  auto levels_first = ParseFramedRequest(
      R"({"cmd":"snapshot","name":"kc","path":"p","levels":[4],)"
      R"("precompute":false})");
  auto levels_last = ParseFramedRequest(
      R"({"cmd":"snapshot","name":"kc","path":"p","precompute":false,)"
      R"("levels":[4]})");
  ASSERT_TRUE(levels_first.ok()) << levels_first.status().ToString();
  ASSERT_TRUE(levels_last.ok()) << levels_last.status().ToString();
  EXPECT_TRUE(
      std::get<SnapshotRequest>(levels_first->payload).include_precompute);
  const std::string canonical =
      R"({"cmd":"snapshot","name":"kc","path":"p","precompute":true,)"
      R"("levels":[4]})";
  EXPECT_EQ(FormatFramedRequest(*levels_first), canonical);
  EXPECT_EQ(FormatFramedRequest(*levels_last), canonical);
}

TEST(ProtocolFramed, RequestDoublesSurviveTheFramedCodec) {
  // Request doubles travel in their shortest exact form, so a
  // coordinator forwards a query to its workers unrounded (and the
  // response echo shows what was asked for).
  auto parsed = ParseTextRequest(
      "mine g 2 5 time-limit=2.0000000000000004 tau-ms=0.1000000000001");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string frame = FormatFramedRequest(*parsed);
  EXPECT_EQ(frame,
            R"({"cmd":"mine","graph":"g","k":2,"q":5,)"
            R"("time_limit":2.0000000000000004,"tau_ms":0.1000000000001})");
  auto round = ParseFramedRequest(frame);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  const QueryRequest& query = std::get<MineRequest>(round->payload).query;
  EXPECT_EQ(query.time_limit_seconds, 2.0000000000000004);
  EXPECT_EQ(query.tau_ms, 0.1000000000001);

  Response response;
  response.payload = SubmitResponse{1, query};
  EXPECT_NE(FormatFramedResponse(response).find("\"tau_ms\":0.1000000000001"),
            std::string::npos);

  // inf and nan have no JSON spelling, so the text grammar refuses them.
  auto infinite = ParseTextRequest("mine g 2 5 time-limit=inf");
  ASSERT_FALSE(infinite.ok());
  EXPECT_EQ(infinite.status().message(),
            "malformed value for time-limit: 'inf'");
  EXPECT_FALSE(ParseTextRequest("mine g 2 5 tau-ms=nan").ok());
}

// ------------------------------------------------------- mutation fuzzing

/// The codec properties over one input line: parsing never crashes, a
/// rejection is a non-empty INVALID_ARGUMENT, and an accepted request's
/// framed encoding is a fixpoint of the framed codec.
void CheckCodecProperties(const std::string& line) {
  for (const bool framed : {false, true}) {
    auto parsed = framed ? ParseFramedRequest(line) : ParseTextRequest(line);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
      EXPECT_FALSE(parsed.status().message().empty()) << line;
      continue;
    }
    const std::string wire = FormatFramedRequest(*parsed);
    auto reparsed = ParseFramedRequest(wire);
    ASSERT_TRUE(reparsed.ok()) << line << " -> " << wire << ": "
                               << reparsed.status().ToString();
    EXPECT_EQ(FormatFramedRequest(*reparsed), wire) << line;
  }
}

/// Splits on `separator`, keeping empty pieces.
std::vector<std::string> Split(const std::string& line, char separator) {
  std::vector<std::string> pieces(1);
  for (char c : line) {
    if (c == separator) {
      pieces.emplace_back();
    } else {
      pieces.back() += c;
    }
  }
  return pieces;
}

std::string Join(const std::vector<std::string>& pieces, char separator) {
  std::string line;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) line += separator;
    line += pieces[i];
  }
  return line;
}

/// One random mutation of `line`: a bit flip, a byte insert or delete,
/// a truncation, a dropped or duplicated token, or a splice with
/// `other`.
std::string Mutate(std::string line, const std::string& other, Rng& rng) {
  static const std::string kBytes = "\"{}[]:,= \\0123456789-.exu#";
  switch (rng.NextBounded(7)) {
    case 0:
      if (!line.empty()) {
        line[rng.NextBounded(line.size())] ^=
            static_cast<char>(1u << rng.NextBounded(8));
      }
      return line;
    case 1: {
      const char byte = rng.NextBernoulli(0.7)
                            ? kBytes[rng.NextBounded(kBytes.size())]
                            : static_cast<char>(rng.NextBounded(256));
      line.insert(line.begin() + rng.NextBounded(line.size() + 1), byte);
      return line;
    }
    case 2:
      if (!line.empty()) line.erase(rng.NextBounded(line.size()), 1);
      return line;
    case 3:
      return line.substr(0, rng.NextBounded(line.size() + 1));
    case 4:
    case 5: {  // drop or duplicate one token (words, or frame members)
      const char separator = !line.empty() && line[0] == '{' ? ',' : ' ';
      std::vector<std::string> tokens = Split(line, separator);
      const std::size_t at = rng.NextBounded(tokens.size());
      if (tokens.size() > 1 && rng.NextBounded(2) == 0) {
        tokens.erase(tokens.begin() + at);
      } else {
        tokens.insert(tokens.begin() + at, tokens[at]);
      }
      return Join(tokens, separator);
    }
    default:
      return line.substr(0, rng.NextBounded(line.size() + 1)) +
             other.substr(rng.NextBounded(other.size() + 1));
  }
}

TEST(ProtocolFuzz, MutatedRequestsFailStructuredOrReencodeToAFixpoint) {
  std::vector<std::string> seeds = {
      // Fixed cases: a field order and a double the framed encoding
      // once lost, and a value it cannot spell.
      R"({"cmd":"snapshot","name":"kc","path":"p","levels":[4],)"
      R"("precompute":false})",
      "mine g 2 5 tau-ms=0.1000000000001",
      "mine g 2 5 time-limit=inf",
  };
  for (const GoldenPair& pair : GoldenPairs()) {
    seeds.push_back(pair.text);
    seeds.push_back(pair.framed);
  }
  for (const std::string& seed : seeds) CheckCodecProperties(seed);

  Rng rng(20260417);
  for (int i = 0; i < 20000 && !HasFailure(); ++i) {
    std::string line = seeds[rng.NextBounded(seeds.size())];
    const int mutations = 1 + static_cast<int>(rng.NextBounded(3));
    for (int m = 0; m < mutations; ++m) {
      line = Mutate(line, seeds[rng.NextBounded(seeds.size())], rng);
    }
    CheckCodecProperties(line);
  }
}

// ------------------------------------------------------- response goldens

std::string TextOf(ResponsePayload payload) {
  Response response;
  response.payload = std::move(payload);
  std::ostringstream out;
  FormatTextResponse(response, out);
  return out.str();
}

TEST(ProtocolText, ResponseGoldens) {
  LoadResponse loaded;
  loaded.name = "web";
  loaded.num_vertices = 875713;
  loaded.num_edges = 4322051;
  loaded.load_seconds = 0.0021;
  EXPECT_EQ(TextOf(loaded),
            "loaded web: 875713 vertices, 4322051 edges (0.0021s)\n");

  LoadResponse dataset = loaded;
  dataset.name = "kc";
  dataset.num_vertices = 34;
  dataset.num_edges = 78;
  dataset.dataset_key = "karate";
  EXPECT_EQ(TextOf(dataset),
            "loaded kc: 34 vertices, 78 edges (dataset karate)\n");

  SnapshotResponse snapshot;
  snapshot.name = "web";
  snapshot.path = "/tmp/web.kpx";
  snapshot.with_precompute = true;
  EXPECT_EQ(TextOf(snapshot),
            "snapshot web -> /tmp/web.kpx (with precompute sections)\n");

  JobInfo done;
  done.id = 3;
  done.request.graph = "web";
  done.request.k = 2;
  done.request.q = 12;
  done.state = JobState::kDone;
  done.started = true;
  done.result.num_plexes = 2566;
  done.result.max_plex_size = 14;
  done.result.seconds = 1.8102;
  EXPECT_EQ(TextOf(MineResponse{done}),
            "mined web k=2 q=12 algo=ours: 2566 plexes, max size 14, "
            "1.810s\n");
  EXPECT_EQ(TextOf(WaitResponse{done}),
            "job 3: mined web k=2 q=12 algo=ours: 2566 plexes, max size 14, "
            "1.810s\n");

  JobInfo cached = done;
  cached.result.from_cache = true;
  cached.result.reduction_precomputed = true;  // suppressed when cached
  EXPECT_EQ(TextOf(MineResponse{cached}),
            "mined web k=2 q=12 algo=ours: 2566 plexes, max size 14, "
            "1.810s [cached]\n");

  JobInfo partial = done;
  partial.result.timed_out = true;
  partial.result.stopped_early = true;
  EXPECT_EQ(TextOf(MineResponse{partial}),
            "mined web k=2 q=12 algo=ours: 2566 plexes, max size 14, "
            "1.810s [time limit hit] [result cap hit]\n");

  JobInfo never_ran = done;
  never_ran.state = JobState::kCancelled;
  never_ran.started = false;
  EXPECT_EQ(TextOf(WaitResponse{never_ran}),
            "job 3: cancelled web k=2 q=12 algo=ours before it started\n");

  JobInfo failed = done;
  failed.state = JobState::kFailed;
  failed.status = Status::NotFound("no graph named 'web' is registered");
  EXPECT_EQ(TextOf(MineResponse{failed}),
            "error: NOT_FOUND: no graph named 'web' is registered\n");

  SubmitResponse submit;
  submit.job = 4;
  submit.query = done.request;
  EXPECT_EQ(TextOf(submit), "job 4 submitted: mine web k=2 q=12 algo=ours\n");

  EXPECT_EQ(TextOf(CancelResponse{4}), "cancel requested for job 4\n");
  EXPECT_EQ(TextOf(EvictResponse{"web"}), "evicted web\n");

  WaitAllResponse all;
  all.counts.done = 2;
  all.counts.cancelled = 1;
  all.counts.failed = 1;
  all.failed_jobs = {9};
  EXPECT_EQ(TextOf(all),
            "all jobs finished: 2 done, 1 cancelled, 1 failed\n");

  EXPECT_EQ(TextOf(ErrorResponse{Status::InvalidArgument("boom")}),
            "error: INVALID_ARGUMENT: boom\n");
  EXPECT_EQ(TextOf(ByeResponse{}), "");  // quit prints nothing on text

  EXPECT_EQ(TextOf(HelloResponse{}), "hello proto=6 mode=text\n");

  // v6 store verbs: status line, evict outcome, and the off state.
  StoreResponse store_status;
  store_status.info.enabled = true;
  store_status.info.entries = 3;
  store_status.info.bytes = 2048;
  store_status.info.byte_budget = 4 << 20;
  store_status.info.hits = 7;
  store_status.info.misses = 2;
  store_status.info.writes = 5;
  store_status.info.evictions = 1;
  store_status.info.corrupt_entries = 0;
  EXPECT_EQ(TextOf(store_status),
            "store: 3 entries, 2.0KiB (budget 4.0MiB), 7 hits, 2 misses, "
            "5 writes, 1 evictions, 0 corrupt\n");

  StoreResponse store_evicted = store_status;
  store_evicted.evicted = true;
  store_evicted.evicted_entries = 3;
  store_evicted.evicted_bytes = 2048;
  store_evicted.info.entries = 0;
  store_evicted.info.bytes = 0;
  store_evicted.info.evictions = 4;
  EXPECT_EQ(TextOf(store_evicted),
            "store evicted: 3 entries, 2.0KiB freed\n"
            "store: 0 entries, 0B (budget 4.0MiB), 7 hits, 2 misses, "
            "5 writes, 4 evictions, 0 corrupt\n");

  StoreResponse store_off;
  EXPECT_EQ(TextOf(store_off), "store: off\n");

  // Shard outcomes carry every number a merge needs.
  JobInfo shard_done = done;
  shard_done.request.seed_begin = 100;
  shard_done.request.seed_end = 200;
  shard_done.result.fingerprint = 0x0123456789abcdefULL;
  shard_done.result.fingerprint_xor = 0x00000000deadbeefULL;
  shard_done.result.total_seeds = 5000;
  ShardResultResponse shard;
  shard.job = shard_done;
  shard.content_hash = 0x00000000c0ffee00ULL;
  EXPECT_EQ(TextOf(shard),
            "shard web k=2 q=12 algo=ours seeds=100:200: 2566 plexes, "
            "max size 14, xor 0x00000000deadbeef, fingerprint "
            "0x0123456789abcdef, total seeds 5000, hash 0x00000000c0ffee00, "
            "1.810s\n");

  ShardResultResponse failed_shard;
  failed_shard.job = failed;
  EXPECT_EQ(TextOf(failed_shard),
            "error: NOT_FOUND: no graph named 'web' is registered\n");
}

TEST(ProtocolFramed, ResponseShape) {
  JobInfo done;
  done.id = 3;
  done.request.graph = "web";
  done.request.k = 2;
  done.request.q = 12;
  done.state = JobState::kDone;
  done.started = true;
  done.result.num_plexes = 7;
  done.result.fingerprint = 0x0123456789abcdefULL;

  Response response;
  response.request_id = 9;
  response.payload = MineResponse{done};
  const std::string frame = FormatFramedResponse(response);
  EXPECT_EQ(frame.find('\n'), std::string::npos) << frame;
  EXPECT_NE(frame.find("\"id\":9"), std::string::npos) << frame;
  EXPECT_NE(frame.find("\"ok\":true"), std::string::npos) << frame;
  EXPECT_NE(frame.find("\"type\":\"mine\""), std::string::npos) << frame;
  EXPECT_NE(frame.find("\"fingerprint\":\"0x0123456789abcdef\""),
            std::string::npos)
      << frame;

  StoreResponse store_response;
  store_response.info.enabled = true;
  store_response.info.entries = 2;
  store_response.info.bytes = 258;
  store_response.evicted = true;
  store_response.evicted_entries = 1;
  store_response.evicted_bytes = 129;
  response.payload = store_response;
  const std::string store_frame = FormatFramedResponse(response);
  EXPECT_NE(store_frame.find("\"type\":\"store\""), std::string::npos)
      << store_frame;
  EXPECT_NE(store_frame.find("\"evicted\":true"), std::string::npos)
      << store_frame;
  EXPECT_NE(store_frame.find("\"evicted_entries\":1"), std::string::npos)
      << store_frame;
  EXPECT_NE(store_frame.find("\"store\":{\"enabled\":true"),
            std::string::npos)
      << store_frame;

  // A server without --store reports the tier as disabled in stats.
  response.payload = StatsResponse{};
  EXPECT_NE(FormatFramedResponse(response)
                .find("\"store\":{\"enabled\":false}"),
            std::string::npos);

  response.payload = ErrorResponse{Status::NotFound("nope")};
  const std::string error = FormatFramedResponse(response);
  EXPECT_NE(error.find("\"ok\":false"), std::string::npos) << error;
  EXPECT_NE(error.find("\"code\":\"NOT_FOUND\""), std::string::npos)
      << error;
  EXPECT_NE(error.find("\"message\":\"nope\""), std::string::npos) << error;
}

// ----------------------------------------------- framed response goldens

/// One pinned response frame: the struct and its exact framed bytes.
struct FramedGolden {
  const char* name;
  Response response;
  std::string frame;
};

Response Framed(uint64_t id, ResponsePayload payload) {
  Response response;
  response.request_id = id;
  response.payload = std::move(payload);
  return response;
}

/// A mine job as the dispatcher reports it: the echoed query with a few
/// non-default options, and a result wherever the state carries one.
JobInfo GoldenJob(uint64_t id, JobState state) {
  JobInfo job;
  job.id = id;
  job.request.graph = "web";
  job.request.k = 2;
  job.request.q = 12;
  job.request.threads = 4;
  job.request.tau_ms = 0.25;
  job.request.use_cache = false;
  job.state = state;
  job.started = state != JobState::kQueued;
  job.result.num_plexes = 2566;
  job.result.max_plex_size = 14;
  job.result.fingerprint = 0x0123456789abcdefULL;
  job.result.fingerprint_xor = 0x00000000deadbeefULL;
  job.result.total_seeds = 5000;
  job.result.seconds = 1.8102;
  job.result.compute_seconds = 1.75;
  job.result.reduction_precomputed = true;
  if (state == JobState::kFailed) {
    job.status = Status::NotFound("no graph named 'web' is registered");
  }
  return job;
}

/// The response side's wire contract: one framed response per
/// ResponsePayload alternative, job frames in every state a client
/// sees, and a yielded shard, each pinned byte for byte.
const std::vector<FramedGolden>& FramedResponseGoldens() {
  static const std::vector<FramedGolden> goldens = [] {
    std::vector<FramedGolden> out;
    HelloResponse hello;
    hello.mode = WireMode::kFramed;
    out.push_back({"hello", Framed(0, hello),
                   R"({"id":0,"ok":true,"type":"hello","proto":6,)"
                   R"("mode":"framed"})"});

    LoadResponse loaded;
    loaded.name = "web";
    loaded.num_vertices = 875713;
    loaded.num_edges = 4322051;
    loaded.load_seconds = 0.0021;
    out.push_back({"load", Framed(1, loaded),
                   R"({"id":1,"ok":true,"type":"load","name":"web",)"
                   R"("vertices":875713,"edges":4322051,"seconds":0.0021})"});
    loaded.name = "kc";
    loaded.dataset_key = "karate";
    out.push_back({"load dataset", Framed(2, loaded),
                   R"({"id":2,"ok":true,"type":"load","name":"kc",)"
                   R"("vertices":875713,"edges":4322051,"seconds":0.0021,)"
                   R"("dataset":"karate"})"});

    SnapshotResponse snapshot;
    snapshot.name = "web";
    snapshot.path = "/tmp/web \"snap\".kpx";
    snapshot.with_precompute = true;
    out.push_back({"snapshot", Framed(3, snapshot),
                   R"({"id":3,"ok":true,"type":"snapshot",)"
                   R"("name":"web","path":"/tmp/web \"snap\".kpx",)"
                   R"("precompute":true})"});

    JobInfo done = GoldenJob(3, JobState::kDone);
    done.result.from_cache = true;
    done.result.timed_out = true;
    out.push_back({"mine done", Framed(4, MineResponse{done}),
                   R"({"id":4,"ok":true,"type":"mine","job":3,)"
                   R"("query":{"graph":"web","k":2,"q":12,)"
                   R"("algo":"ours","threads":4,"tau_ms":0.25,)"
                   R"("cache":false},"state":"done","started":true,)"
                   R"("plexes":2566,"max_size":14,"fingerprint":"0x01234567)"
                   R"(89abcdef","seconds":1.8102,"compute_seconds":1.75,)"
                   R"("cached":true,"precomputed":true,"timed_out":true,)"
                   R"("stopped_early":false,"cancelled":false})"});

    JobInfo paged = GoldenJob(5, JobState::kDone);
    paged.request.collect_bodies = true;
    paged.request.max_results = 3;
    paged.result.num_plexes = 3;
    paged.result.stopped_early = true;
    paged.result.plexes =
        std::make_shared<std::vector<std::vector<VertexId>>>(
            std::vector<std::vector<VertexId>>{{1, 2}, {3, 4}, {5, 6}});
    paged.result.has_cursor = true;
    paged.result.cursor_seed = 17;
    paged.result.cursor_ordinal = 4;
    out.push_back({"mine done with a cursor and bodies",
                   Framed(5, MineResponse{paged}),
                   R"({"id":5,"ok":true,"type":"mine","job":5,)"
                   R"("query":{"graph":"web","k":2,"q":12,)"
                   R"("algo":"ours","threads":4,"max_results":3,)"
                   R"("tau_ms":0.25,"cache":false},"state":"done",)"
                   R"("started":true,"plexes":3,"max_size":14,)"
                   R"("fingerprint":"0x0123456789abcdef",)"
                   R"("seconds":1.8102,"compute_seconds":1.75,)"
                   R"("cached":false,"precomputed":true,"timed_out":false,)"
                   R"("stopped_early":true,"cancelled":false,)"
                   R"("bodies":3,"cursor":"17:4"})"});

    out.push_back({"mine failed",
                   Framed(6, MineResponse{GoldenJob(6, JobState::kFailed)}),
                   R"({"id":6,"ok":true,"type":"mine","job":6,)"
                   R"("query":{"graph":"web","k":2,"q":12,)"
                   R"("algo":"ours","threads":4,"tau_ms":0.25,)"
                   R"("cache":false},"state":"failed","started":true,)"
                   R"("error":{"code":"NOT_FOUND","message":"no graph named)"
                   R"( 'web' is registered"}})"});

    SubmitResponse submit;
    submit.job = 7;
    submit.query = done.request;
    submit.query.seed_begin = 10;
    submit.query.seed_end = 20;
    submit.query.time_limit_seconds = 2.5;
    out.push_back({"submitted", Framed(7, submit),
                   R"({"id":7,"ok":true,"type":"submitted",)"
                   R"("job":7,"query":{"graph":"web","k":2,)"
                   R"("q":12,"algo":"ours","threads":4,"time_limit":2.5,)"
                   R"("tau_ms":0.25,"cache":false,"seed_begin":10,)"
                   R"("seed_end":20}})"});

    JobInfo shard = GoldenJob(8, JobState::kDone);
    shard.request.seed_begin = 100;
    shard.request.seed_end = 200;
    out.push_back({"shard_result",
                   Framed(8, ShardResultResponse{shard, 0xc0ffee00ULL}),
                   R"({"id":8,"ok":true,"type":"shard_result",)"
                   R"("job":8,"query":{"graph":"web","k":2,)"
                   R"("q":12,"algo":"ours","threads":4,"tau_ms":0.25,)"
                   R"("cache":false,"seed_begin":100,"seed_end":200},)"
                   R"("state":"done","started":true,"plexes":2566,)"
                   R"("max_size":14,"fingerprint":"0x0123456789abcdef",)"
                   R"("seconds":1.8102,"compute_seconds":1.75,)"
                   R"("cached":false,"precomputed":true,"timed_out":false,)"
                   R"("stopped_early":false,"cancelled":false,)"
                   R"("fingerprint_xor":"0x00000000deadbeef",)"
                   R"("total_seeds":5000,"content_hash":"0x00000000c0ffee00)"
                   R"("})"});
    shard.result.yielded = true;
    shard.result.covered_begin = 100;
    shard.result.covered_end = 150;
    out.push_back({"shard_result yielded",
                   Framed(9, ShardResultResponse{shard, 0xc0ffee00ULL}),
                   R"({"id":9,"ok":true,"type":"shard_result",)"
                   R"("job":8,"query":{"graph":"web","k":2,)"
                   R"("q":12,"algo":"ours","threads":4,"tau_ms":0.25,)"
                   R"("cache":false,"seed_begin":100,"seed_end":200},)"
                   R"("state":"done","started":true,"plexes":2566,)"
                   R"("max_size":14,"fingerprint":"0x0123456789abcdef",)"
                   R"("seconds":1.8102,"compute_seconds":1.75,)"
                   R"("cached":false,"precomputed":true,"timed_out":false,)"
                   R"("stopped_early":false,"cancelled":false,)"
                   R"("fingerprint_xor":"0x00000000deadbeef",)"
                   R"("total_seeds":5000,"yielded":true,"covered_begin":100)"
                   R"(,"covered_end":150,"content_hash":"0x00000000c0ffee00)"
                   R"("})"});

    PlanResponse plan;
    plan.graph = "web";
    plan.total_seeds = 3;
    plan.content_hash = 0xc0ffee00ULL;
    plan.degeneracy = 7;
    plan.degrees = {5, 0, 4294967295u};
    plan.coreness = {7, 1, 2};
    plan.precomputed = true;
    plan.seconds = 0.0005;
    out.push_back({"plan", Framed(10, plan),
                   R"({"id":10,"ok":true,"type":"plan","graph":"web",)"
                   R"("total_seeds":3,"content_hash":"0x00000000c0ffee00",)"
                   R"("degeneracy":7,"precomputed":true,"seconds":0.0005,)"
                   R"("degrees":[5,0,4294967295],"coreness":[7,)"
                   R"(1,2]})"});

    out.push_back({"shard_submitted",
                   Framed(11, ShardSubmitResponse{12, 0xc0ffee00ULL}),
                   R"({"id":11,"ok":true,"type":"shard_submitted",)"
                   R"("job":12,"content_hash":"0x00000000c0ffee00"})"});
    out.push_back({"shard_stopping", Framed(12, ShardStopResponse{12}),
                   R"({"id":12,"ok":true,"type":"shard_stopping",)"
                   R"("job":12})"});
    out.push_back({"worker_ack",
                   Framed(13, WorkerAckResponse{2, "draining"}),
                   R"({"id":13,"ok":true,"type":"worker_ack",)"
                   R"("worker":2,"state":"draining"})"});

    WorkersResponse workers;
    workers.workers = {{1, "127.0.0.1:7001", "idle", 12, 0},
                       {2, "10.0.0.2:7002", "dead", 3, 1}};
    out.push_back({"workers", Framed(14, workers),
                   R"({"id":14,"ok":true,"type":"workers",)"
                   R"("workers":[{"worker":1,"endpoint":"127.0.0.1:7001",)"
                   R"("state":"idle","chunks_done":12,"chunks_failed":0},)"
                   R"({"worker":2,"endpoint":"10.0.0.2:7002",)"
                   R"("state":"dead","chunks_done":3,"chunks_failed":1}]})"});

    ResultChunkResponse chunk;
    chunk.job = 5;
    chunk.seq = 1;
    chunk.last = true;
    chunk.plexes = {{1, 2, 3}, {}, {4294967295u}};
    out.push_back({"result_chunk", Framed(15, chunk),
                   R"({"id":15,"ok":true,"type":"result_chunk",)"
                   R"("job":5,"seq":1,"last":true,"plexes":[[1,)"
                   R"(2,3],[],[4294967295]]})"});

    out.push_back({"cancelling", Framed(16, CancelResponse{4}),
                   R"({"id":16,"ok":true,"type":"cancelling",)"
                   R"("job":4})"});

    JobsResponse jobs;
    jobs.jobs = {GoldenJob(1, JobState::kQueued),
                 GoldenJob(2, JobState::kRunning), done};
    out.push_back({"jobs queued, running, done", Framed(17, jobs),
                   R"({"id":17,"ok":true,"type":"jobs","jobs":[{"job":1,)"
                   R"("query":{"graph":"web","k":2,"q":12,)"
                   R"("algo":"ours","threads":4,"tau_ms":0.25,)"
                   R"("cache":false},"state":"queued","started":false},)"
                   R"({"job":2,"query":{"graph":"web","k":2,)"
                   R"("q":12,"algo":"ours","threads":4,"tau_ms":0.25,)"
                   R"("cache":false},"state":"running","started":true},)"
                   R"({"job":3,"query":{"graph":"web","k":2,)"
                   R"("q":12,"algo":"ours","threads":4,"tau_ms":0.25,)"
                   R"("cache":false},"state":"done","started":true,)"
                   R"("plexes":2566,"max_size":14,"fingerprint":"0x01234567)"
                   R"(89abcdef","seconds":1.8102,"compute_seconds":1.75,)"
                   R"("cached":true,"precomputed":true,"timed_out":true,)"
                   R"("stopped_early":false,"cancelled":false}]})"});

    JobInfo never_ran = GoldenJob(4, JobState::kCancelled);
    never_ran.started = false;
    out.push_back({"wait cancelled before it started",
                   Framed(18, WaitResponse{never_ran}),
                   R"({"id":18,"ok":true,"type":"wait","job":4,)"
                   R"("query":{"graph":"web","k":2,"q":12,)"
                   R"("algo":"ours","threads":4,"tau_ms":0.25,)"
                   R"("cache":false},"state":"cancelled",)"
                   R"("started":false})"});

    WaitAllResponse all;
    all.counts.done = 2;
    all.counts.cancelled = 1;
    all.counts.failed = 1;
    all.failed_jobs = {9};
    out.push_back({"wait_all", Framed(19, all),
                   R"({"id":19,"ok":true,"type":"wait_all",)"
                   R"("done":2,"cancelled":1,"failed":1,"failed_jobs":[9]})"});

    StatsResponse stats;
    CatalogEntryInfo graph;
    graph.name = "web";
    graph.source = "file:web.kpx";
    graph.resident = true;
    graph.evictable = true;
    graph.mapped = true;
    graph.num_vertices = 875713;
    graph.num_edges = 4322051;
    graph.memory_bytes = 1024;
    graph.mapped_bytes = 52428800;
    graph.precompute = "order+core";
    graph.content_hash = 0xc0ffee00ULL;
    graph.loads = 2;
    graph.last_load_seconds = 0.125;
    stats.graphs.push_back(graph);
    graph.name = "kc";
    graph.source = "dataset:karate";
    graph.resident = false;
    graph.mapped = false;
    graph.precompute = "unknown";
    graph.content_hash = 0;
    stats.graphs.push_back(graph);
    stats.resident_bytes = 1024;
    stats.mapped_resident_bytes = 52428800;
    stats.memory_budget_bytes = 1 << 30;
    stats.cache = {5, 3, 2, 64};
    stats.jobs = {1, 2, 3, 4, 5};
    stats.workers = 4;
    stats.store.enabled = true;
    stats.store.entries = 3;
    stats.store.bytes = 2048;
    stats.store.byte_budget = 4 << 20;
    stats.store.hits = 7;
    stats.store.misses = 2;
    stats.store.writes = 5;
    stats.store.evictions = 1;
    out.push_back({"stats", Framed(20, stats),
                   R"({"id":20,"ok":true,"type":"stats","graphs":[{"name":")"
                   R"(web","source":"file:web.kpx","resident":true,)"
                   R"("evictable":true,"mapped":true,"vertices":875713,)"
                   R"("edges":4322051,"owned_bytes":1024,)"
                   R"("mapped_bytes":52428800,"precompute":"order+core",)"
                   R"("content_hash":"0x00000000c0ffee00",)"
                   R"("loads":2,"load_seconds":0.125},{"name":"kc",)"
                   R"("source":"dataset:karate","resident":false,)"
                   R"("evictable":true,"mapped":false,"vertices":875713,)"
                   R"("edges":4322051,"owned_bytes":1024,)"
                   R"("mapped_bytes":52428800,"precompute":"unknown",)"
                   R"("loads":2,"load_seconds":0.125}],"resident_bytes":102)"
                   R"(4,"mapped_resident_bytes":52428800,)"
                   R"("budget_bytes":1073741824,"cache":{"entries":2,)"
                   R"("capacity":64,"hits":5,"misses":3},)"
                   R"("dispatcher":{"workers":4,"queued":1,)"
                   R"("running":2,"done":3,"cancelled":4,)"
                   R"("failed":5},"store":{"enabled":true,)"
                   R"("entries":3,"bytes":2048,"budget_bytes":4194304,)"
                   R"("hits":7,"misses":2,"writes":5,"evictions":1,)"
                   R"("corrupt":0}})"});

    MetricsResponse metrics;
    metrics.format = "prom";  // presentation only: not on the framed wire
    metrics.snapshot.counters = {{"kplex_requests_total", 42}};
    metrics.snapshot.gauges = {{"kplex_jobs_running", 2},
                               {"kplex_drift", -3}};
    HistogramSample histogram;
    histogram.name = "kplex_request_seconds";
    histogram.count = 4;
    histogram.sum = 0.5;
    histogram.p50 = 0.001;
    histogram.p95 = 0.25;
    histogram.p99 = 0.25;
    histogram.bounds = {0.001, 0.01, 0.1};
    histogram.buckets = {1, 0, 1, 2};
    metrics.snapshot.histograms = {histogram};
    out.push_back({"metrics", Framed(21, metrics),
                   R"({"id":21,"ok":true,"type":"metrics",)"
                   R"("counters":[{"name":"kplex_requests_total",)"
                   R"("value":42}],"gauges":[{"name":"kplex_jobs_running",)"
                   R"("value":2},{"name":"kplex_drift","value":-3}],)"
                   R"("histograms":[{"name":"kplex_request_seconds",)"
                   R"("count":4,"sum":0.5,"p50":0.001,"p95":0.25,)"
                   R"("p99":0.25,"le":[0.001,0.01,0.1],"buckets":[1,)"
                   R"(0,1,2]}]})"});

    out.push_back({"evicted", Framed(22, EvictResponse{"web"}),
                   R"({"id":22,"ok":true,"type":"evicted",)"
                   R"("name":"web"})"});

    StoreResponse store;
    store.info = stats.store;
    store.evicted = true;
    store.evicted_entries = 3;
    store.evicted_bytes = 2048;
    out.push_back({"store evicted", Framed(23, store),
                   R"({"id":23,"ok":true,"type":"store","evicted":true,)"
                   R"("evicted_entries":3,"evicted_bytes":2048,)"
                   R"("store":{"enabled":true,"entries":3,)"
                   R"("bytes":2048,"budget_bytes":4194304,)"
                   R"("hits":7,"misses":2,"writes":5,"evictions":1,)"
                   R"("corrupt":0}})"});
    out.push_back({"store off", Framed(24, StoreResponse{}),
                   R"({"id":24,"ok":true,"type":"store","evicted":false,)"
                   R"("store":{"enabled":false}})"});

    // The frame spelled one help line per piece.
    const std::string help_frame =
        R"({"id":25,"ok":true,"type":"help","text":"commands:\n)"
        R"(  hello [proto=N] [mode=text|framed]\n)"
        R"(                        negotiate the protocol version; mode=frame)"
        R"(d\n)"
        R"(                        switches to the JSON-lines encoding\n)"
        R"(  load NAME PATH        register + load a graph file\n)"
        R"(  dataset NAME KEY      register + load a registry dataset\n)"
        R"(  snapshot NAME PATH [precompute] [levels=C1,C2,...]\n)"
        R"(                        write NAME as a binary v2 snapshot;\n)"
        R"(                        precompute stores reduction sections\n)"
        R"(  mine NAME K Q [algo=...] [threads=N] [max-results=N] [time-limit)"
        R"(=S]\n)"
        R"(       [tau-ms=T] [cache=on|off] [seed-range=B:E] [results=stream|)"
        R"(count]\n)"
        R"(       [chunk=N] [filter=size>=S,size<=T] [contain=V] [top=K]\n)"
        R"(       [mode=enumerate|maximum] [cursor=S:O]\n)"
        R"(                        run a query and wait for its answer; algo )"
        R"(is\n)"
        R"(                        one of ours, ours_p, basic, listplex, fp;\n)"
        R"(                        results=stream delivers the plex bodies in)"
        R"(\n)"
        R"(                        bounded result chunks before the summary;\n)"
        R"(                        a max-results-truncated sequential run\n)"
        R"(                        reports a cursor to resume from\n)"
        R"(  submit NAME K Q [algo=...] [threads=N] [max-results=N] [time-lim)"
        R"(it=S]\n)"
        R"(       [tau-ms=T] [cache=on|off] [seed-range=B:E] [results=stream|)"
        R"(count]\n)"
        R"(       [chunk=N] [filter=size>=S,size<=T] [contain=V] [top=K]\n)"
        R"(       [mode=enumerate|maximum] [cursor=S:O]\n)"
        R"(                        run a mine asynchronously; prints a\n)"
        R"(                        job id immediately\n)"
        R"(  plan NAME K Q         per-seed cost-estimate probe (degeneracy-\n)"
        R"(                        order degrees + coreness); no enumeration\n)"
        R"(  shardsubmit NAME K Q [algo=...] [threads=N] [max-results=N]\n)"
        R"(       [time-limit=S] [tau-ms=T] [cache=on|off] [seed-range=B:E]\n)"
        R"(       [results=stream|count] [chunk=N] [filter=size>=S,size<=T]\n)"
        R"(       [contain=V] [top=K] [mode=enumerate|maximum] [cursor=S:O]\n)"
        R"(       [hash=0xH]       mine one shard of the seed space: hash=\n)"
        R"(                        refuses a mismatched snapshot, then a job\n)"
        R"(                        id immediately (sharding, work-stealing)\n)"
        R"(  shardwait ID          block until shard job ID is terminal and\n)"
        R"(                        print its shard result\n)"
        R"(  shardstop ID          ask shard job ID to yield at the next seed)"
        R"(\n)"
        R"(                        boundary (its result covers a prefix)\n)"
        R"(  register HOST:PORT    join a coordinator's worker pool\n)"
        R"(  heartbeat ID          refresh worker ID's liveness (coordinator))"
        R"(\n)"
        R"(  drain ID              stop scheduling onto worker ID (coordinato)"
        R"(r)\n)"
        R"(  workers               the coordinator's worker-pool table\n)"
        R"(  cancel ID             cancel a queued or running job\n)"
        R"(  jobs                  status of every submitted job\n)"
        R"(  wait [ID]             block until job ID (or all jobs) done\n)"
        R"(  stats                 catalog + cache + dispatcher stats\n)"
        R"(  metrics [format=table|prom]\n)"
        R"(                        scrape the process metrics registry\n)"
        R"(  evict NAME            drop the resident copy\n)"
        R"(  store [evict]         durable result-store status; `store evict`)"
        R"(\n)"
        R"(                        deletes every persisted entry\n)"
        R"(  help                  this command summary\n)"
        R"(  quit                  end the session (also: exit)\n)"
        R"("})";
    out.push_back({"help", Framed(25, HelpResponse{}), help_frame});
    out.push_back({"bye", Framed(26, ByeResponse{}),
                   R"({"id":26,"ok":true,"type":"bye"})"});
    out.push_back({"error",
                   Framed(27, ErrorResponse{Status::FailedPrecondition(
                                  "graph content hash mismatch for 'web'")}),
                   R"({"id":27,"ok":false,"type":"error",)"
                   R"("code":"FAILED_PRECONDITION","message":"graph content)"
                   R"( hash mismatch for 'web'"})"});
    return out;
  }();
  return goldens;
}

TEST(ProtocolFramed, ResponseGoldensFormatToTheirPinnedBytes) {
  std::set<std::size_t> covered;
  for (const FramedGolden& golden : FramedResponseGoldens()) {
    EXPECT_EQ(FormatFramedResponse(golden.response), golden.frame)
        << golden.name << "\nR\"(" << FormatFramedResponse(golden.response)
        << ")\"";
    covered.insert(golden.response.payload.index());
  }
  EXPECT_EQ(covered.size(), std::variant_size_v<ResponsePayload>);
}

TEST(ProtocolFramed, ResponseGoldensDecodeAndReencodeToThemselves) {
  for (const FramedGolden& golden : FramedResponseGoldens()) {
    uint64_t bodies = 0;
    auto decoded = ParseFramedResponse(golden.frame, &bodies);
    ASSERT_TRUE(decoded.ok()) << golden.name << ": "
                              << decoded.status().ToString();
    EXPECT_EQ(decoded->payload.index(), golden.response.payload.index())
        << golden.name;
    // The bodies count rides beside the structs: a frame with one
    // decodes to the same structs without their plex bodies.
    Response expected = golden.response;
    std::shared_ptr<const std::vector<std::vector<VertexId>>> plexes;
    if (auto* mine = std::get_if<MineResponse>(&expected.payload)) {
      plexes = std::exchange(mine->job.result.plexes, nullptr);
    }
    EXPECT_EQ(bodies, plexes != nullptr ? plexes->size() : 0u)
        << golden.name;
    EXPECT_EQ(FormatFramedResponse(*decoded), FormatFramedResponse(expected))
        << golden.name;
    if (plexes == nullptr) {
      EXPECT_EQ(FormatFramedResponse(*decoded), golden.frame) << golden.name;
    } else {
      auto verdict = ParseFramedMineResult(golden.frame);
      ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
      EXPECT_EQ(verdict->bodies, plexes->size()) << golden.name;
    }
  }
}

/// `golden` with its first `from` replaced by `to`.
std::string Edited(const std::string& golden, const std::string& from,
                   const std::string& to) {
  const std::size_t at = golden.find(from);
  EXPECT_NE(at, std::string::npos) << from << " not in " << golden;
  if (at == std::string::npos) return golden;
  return golden.substr(0, at) + to + golden.substr(at + from.size());
}

const std::string& GoldenFrame(const std::string& name) {
  for (const FramedGolden& golden : FramedResponseGoldens()) {
    if (golden.name == name) return golden.frame;
  }
  ADD_FAILURE() << "no golden named " << name;
  static const std::string none;
  return none;
}

TEST(ProtocolFramed, ResponseDecoderRejectsMalformedFrames) {
  const std::string hello = GoldenFrame("hello");
  const std::string mine = GoldenFrame("mine done");
  const std::string paged = GoldenFrame("mine done with a cursor and bodies");
  const std::string plan = GoldenFrame("plan");
  const std::string chunk = GoldenFrame("result_chunk");
  const std::string shard = GoldenFrame("shard_result");
  const std::string error = GoldenFrame("error");
  const std::vector<std::pair<std::string, std::string>> frames = {
      {"not json", "malformed frame"},
      {"[1,2]", "expected a JSON object"},
      {"\"hello\"", "expected a JSON object"},
      // The frame header.
      {Edited(hello, "\"ok\":true,", ""), "missing 'ok'"},
      {Edited(hello, "\"ok\":true", "\"ok\":\"yes\""), "'ok' must be"},
      {Edited(hello, "\"ok\":true", "\"ok\":false"), "disagrees"},
      {Edited(error, "\"ok\":false", "\"ok\":true"), "disagrees"},
      {Edited(hello, "\"type\":\"hello\",", ""), "missing 'type'"},
      {Edited(hello, "\"hello\"", "\"nope\""), "unknown response frame"},
      {Edited(hello, "\"id\":0", "\"id\":-1"), "'id' must be"},
      {Edited(error, "FAILED_PRECONDITION", "OK"), "'code' must be"},
      // Keys a frame always carries.
      {Edited(hello, "\"proto\":6,", ""), "missing 'proto'"},
      {Edited(mine, "\"state\":\"done\",", ""), "missing 'state'"},
      {Edited(mine, "\"plexes\":2566,", ""), "missing 'plexes'"},
      {Edited(mine, "\"graph\":\"web\",", ""), "missing 'graph'"},
      {Edited(plan, "\"degrees\":[5,0,4294967295],", ""),
       "missing 'degrees'"},
      {Edited(plan, ",\"coreness\":[7,1,2]", ""), "missing 'coreness'"},
      {Edited(chunk, ",\"plexes\":[[1,2,3],[],[4294967295]]", ""),
       "missing 'plexes'"},
      // A control: a shard that did not yield reads no covered range.
      {Edited(shard, "\"content_hash\"",
              "\"covered_end\":\"x\",\"content_hash\""),
       ""},
      {Edited(GoldenFrame("shard_result yielded"), "\"covered_end\":150,",
              ""),
       "missing 'covered_end'"},
      {Edited(GoldenFrame("mine failed"), ",\"error\":{", ",\"oops\":{"),
       "missing 'error'"},
      // Wrongly typed values.
      {Edited(chunk, "\"seq\":1", "\"seq\":\"zero\""), "'seq' must be"},
      {Edited(chunk, "\"last\":true", "\"last\":\"yes\""), "'last' must be"},
      {Edited(chunk, "[[1,2,3],[],[4294967295]]", "[1,2]"),
       "'plexes' must be"},
      {Edited(chunk, "[[1,2,3],", "[[1,\"x\"],"), "'plexes' must be"},
      {Edited(mine, "\"seconds\":1.8102", "\"seconds\":\"slow\""),
       "'seconds' must be"},
      {Edited(mine, "\"started\":true", "\"started\":1"), "'started' must be"},
      {Edited(mine, "\"state\":\"done\"", "\"state\":\"finished\""),
       "'state' must be"},
      {Edited(mine, "\"query\":{", "\"query\":[{"), "malformed frame"},
      {Edited(mine, "\"algo\":\"ours\"", "\"algo\":\"fastest\""), "algo"},
      {Edited(GoldenFrame("metrics"), "\"value\":-3", "\"value\":-3.5"),
       "'value' must be"},
      // Values beyond their field's range.
      {Edited(hello, "\"proto\":6", "\"proto\":4294967296"),
       "'proto' must be"},
      {Edited(plan, "4294967295]", "4294967296]"), "'degrees' must be"},
      {Edited(chunk, "[4294967295]", "[4294967296]"), "'plexes' must be"},
      {Edited(mine, "\"k\":2", "\"k\":4294967296"), "'k' must be"},
      {Edited(GoldenFrame("shard_result yielded"), "\"covered_end\":150",
              "\"covered_end\":4294967296"),
       "'covered_end' must be"},
      // Plan arrays of unequal length.
      {Edited(plan, "\"coreness\":[7,1,2]", "\"coreness\":[7,1]"),
       "disagree on seed count"},
      // Malformed hex and cursor tokens.
      {Edited(mine, "0x0123456789abcdef", "0x0123456789abcdeg"),
       "expected 0xHEX"},
      {Edited(shard, "\"0x00000000c0ffee00\"", "\"c0ffee00\""),
       "expected 0xHEX"},
      {Edited(shard, "0x00000000deadbeef", "0x00000000000deadbeef"),
       "expected 0xHEX"},
      {Edited(paged, "\"cursor\":\"17:4\"", "\"cursor\":\"bogus\""),
       "SEED:ORDINAL"},
      {Edited(paged, "\"cursor\":\"17:4\"", "\"cursor\":7"),
       "'cursor' must be"},
      {Edited(paged, "\"cursor\":\"17:4\"", "\"cursor\":\"4294967296:4\""),
       "cursor"},
  };
  for (const auto& [frame, message] : frames) {
    auto decoded = ParseFramedResponse(frame);
    if (message.empty()) {  // a control: a key the shape does not read
      EXPECT_TRUE(decoded.ok()) << frame << ": "
                                << decoded.status().ToString();
      continue;
    }
    ASSERT_FALSE(decoded.ok()) << "accepted: " << frame;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << frame;
    EXPECT_NE(decoded.status().message().find(message), std::string::npos)
        << frame << ": " << decoded.status().ToString();
  }

  // Frames carrying a failure decode; a client expecting an answer gets
  // the Status they carry.
  auto refused = ParseFramedPayload<PlanResponse>(error);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  auto failed = ParseFramedPayload<MineResponse>(GoldenFrame("mine failed"));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(failed.status().message(), "no graph named 'web' is registered");
  auto wrong = ParseFramedPayload<ShardResultResponse>(mine);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().message(),
            "expected a 'shard_result' frame, got 'mine'");

  // Unknown keys are ignored: responses grow by adding keys.
  const std::string grown =
      Edited(Edited(plan, "\"graph\"", "\"added\":[{\"x\":1}],\"graph\""),
             "\"degeneracy\"", "\"later\":true,\"degeneracy\"");
  auto decoded = ParseFramedResponse(grown);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(FormatFramedResponse(*decoded), plan);
}

// --------------------------------------------- response mutation fuzzing

/// Replaces one number of `frame` with an edge value: the unsigned and
/// signed bounds, just past them, a fraction or an overflow.
std::string EditNumber(const std::string& frame, Rng& rng) {
  static const std::vector<std::string> kEdges = {
      "0",          "1",          "4294967295", "4294967296",
      "18446744073709551615",     "18446744073709551616",
      "-1",         "-0",         "1.5",        "1e999",
      "9223372036854775807",      "-9223372036854775808"};
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(frame[i])) &&
        (i == 0 || !std::isalnum(static_cast<unsigned char>(frame[i - 1])))) {
      starts.push_back(i);
    }
  }
  if (starts.empty()) return frame;
  const std::size_t at = starts[rng.NextBounded(starts.size())];
  std::size_t end = at;
  while (end < frame.size() &&
         std::isdigit(static_cast<unsigned char>(frame[end]))) {
    ++end;
  }
  return frame.substr(0, at) + kEdges[rng.NextBounded(kEdges.size())] +
         frame.substr(end);
}

/// The decoder's properties over one line: it never crashes, a
/// rejection is a non-empty INVALID_ARGUMENT, and an accepted frame
/// re-encodes to a fixpoint of the response codec.
void CheckResponseDecode(const std::string& line) {
  auto decoded = ParseFramedResponse(line);
  if (!decoded.ok()) {
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_FALSE(decoded.status().message().empty()) << line;
    return;
  }
  const std::string wire = FormatFramedResponse(*decoded);
  auto redecoded = ParseFramedResponse(wire);
  ASSERT_TRUE(redecoded.ok()) << line << " -> " << wire << ": "
                              << redecoded.status().ToString();
  EXPECT_EQ(FormatFramedResponse(*redecoded), wire) << line;
}

TEST(ProtocolFuzz, MutatedResponsesFailStructuredOrReencodeToAFixpoint) {
  std::vector<std::string> seeds = {
      // Fixed cases: unequal plan arrays and malformed nested plexes.
      R"({"id":1,"ok":true,"type":"plan","graph":"g","total_seeds":2,)"
      R"("content_hash":"0x1","degeneracy":1,"precomputed":false,)"
      R"("seconds":0,"degrees":[1,2],"coreness":[1]})",
      R"({"id":1,"ok":true,"type":"result_chunk","job":1,"seq":0,)"
      R"("last":true,"plexes":[[1,[2]],3,[]]})",
      R"({"id":1,"ok":true,"type":"metrics","counters":[],)"
      R"("gauges":[{"name":"g","value":-1e3}],"histograms":[]})",
  };
  for (const FramedGolden& golden : FramedResponseGoldens()) {
    seeds.push_back(golden.frame);
  }
  for (const std::string& seed : seeds) CheckResponseDecode(seed);

  Rng rng(20261017);
  for (int i = 0; i < 20000 && !HasFailure(); ++i) {
    std::string line = seeds[rng.NextBounded(seeds.size())];
    const int mutations = 1 + static_cast<int>(rng.NextBounded(3));
    for (int m = 0; m < mutations; ++m) {
      line = rng.NextBounded(4) == 0
                 ? EditNumber(line, rng)
                 : Mutate(line, seeds[rng.NextBounded(seeds.size())], rng);
    }
    CheckResponseDecode(line);
  }
}

// ------------------------------------------------------- help and usage

/// The synopsis of `verb`'s usage line, as its malformed text spellings
/// report it; a verb without fields ignores trailing tokens and its
/// synopsis is its name.
std::string SynopsisOf(const std::string& verb) {
  for (const std::string& line : {verb, verb + " 0 stray"}) {
    auto parsed = ParseTextRequest(line);
    if (!parsed.ok() && parsed.status().message().rfind("usage: ", 0) == 0) {
      return parsed.status().message().substr(7);
    }
  }
  return verb;
}

/// `text` with every run of whitespace collapsed to one space.
std::string Collapsed(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (!std::isspace(static_cast<unsigned char>(c))) {
      out += c;
    } else if (!out.empty() && out.back() != ' ') {
      out += ' ';
    }
  }
  return out;
}

TEST(ProtocolText, HelpListsEveryVerbsUsage) {
  const std::string help = Collapsed(TextOf(HelpResponse{}));
  std::set<std::string> verbs;
  for (const GoldenPair& pair : GoldenPairs()) {
    auto parsed = ParseTextRequest(pair.text);
    ASSERT_TRUE(parsed.ok()) << pair.text;
    verbs.insert(RequestVerbName(parsed->payload));
  }
  EXPECT_EQ(verbs.size(), std::variant_size_v<RequestPayload>);
  for (const std::string& verb : verbs) {
    const std::string synopsis = SynopsisOf(verb);
    EXPECT_NE(help.find(" " + synopsis + " "), std::string::npos)
        << "help does not list '" << synopsis << "'";
  }
}

// -------------------------------------------- framed client-side decode

TEST(ProtocolFramed, ShardResultRoundTripsThroughTheClientDecoder) {
  JobInfo done;
  done.id = 3;
  done.request.graph = "web";
  done.request.k = 2;
  done.request.q = 12;
  done.request.seed_begin = 100;
  done.request.seed_end = 200;
  done.state = JobState::kDone;
  done.started = true;
  done.result.num_plexes = 2566;
  done.result.max_plex_size = 14;
  done.result.fingerprint = 0x0123456789abcdefULL;
  done.result.fingerprint_xor = 0x00000000deadbeefULL;
  done.result.total_seeds = 5000;
  done.result.seconds = 0.25;

  Response response;
  response.request_id = 7;
  response.payload = ShardResultResponse{done, 0x00000000c0ffee00ULL};
  const std::string frame = FormatFramedResponse(response);
  EXPECT_NE(frame.find("\"type\":\"shard_result\""), std::string::npos)
      << frame;
  EXPECT_NE(frame.find("\"seed_begin\":100"), std::string::npos) << frame;

  auto decoded = ParseFramedResponse(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->request_id, 7u);
  const auto& shard = std::get<ShardResultResponse>(decoded->payload);
  EXPECT_EQ(shard.job.state, JobState::kDone);
  EXPECT_EQ(shard.job.result.num_plexes, 2566u);
  EXPECT_EQ(shard.job.result.max_plex_size, 14u);
  EXPECT_EQ(shard.job.result.fingerprint, 0x0123456789abcdefULL);
  EXPECT_EQ(shard.job.result.fingerprint_xor, 0x00000000deadbeefULL);
  EXPECT_EQ(shard.job.result.total_seeds, 5000u);
  EXPECT_EQ(shard.content_hash, 0x00000000c0ffee00ULL);
  EXPECT_DOUBLE_EQ(shard.job.result.seconds, 0.25);
  EXPECT_EQ(shard.job.request.seed_begin, 100u);
  EXPECT_EQ(shard.job.request.seed_end, 200u);
  EXPECT_TRUE(ShardIsComplete(shard.job));

  // Truncation flags survive the decode: a kDone-but-timed-out (or
  // result-capped) shard must never look complete to a coordinator.
  done.result.timed_out = true;
  response.payload = ShardResultResponse{done, 0x00000000c0ffee00ULL};
  auto truncated =
      ParseFramedPayload<ShardResultResponse>(FormatFramedResponse(response));
  ASSERT_TRUE(truncated.ok());
  EXPECT_TRUE(truncated->job.result.timed_out);
  EXPECT_FALSE(ShardIsComplete(truncated->job));

  done.result.timed_out = false;
  done.result.stopped_early = true;
  response.payload = ShardResultResponse{done, 0x00000000c0ffee00ULL};
  truncated =
      ParseFramedPayload<ShardResultResponse>(FormatFramedResponse(response));
  ASSERT_TRUE(truncated.ok());
  EXPECT_TRUE(truncated->job.result.stopped_early);
  EXPECT_FALSE(ShardIsComplete(truncated->job));

  // A yielded shard answers its covered prefix only.
  done.result.stopped_early = false;
  done.result.yielded = true;
  done.result.covered_begin = 100;
  done.result.covered_end = 150;
  response.payload = ShardResultResponse{done, 0x00000000c0ffee00ULL};
  truncated =
      ParseFramedPayload<ShardResultResponse>(FormatFramedResponse(response));
  ASSERT_TRUE(truncated.ok());
  EXPECT_TRUE(truncated->job.result.yielded);
  EXPECT_EQ(truncated->job.result.covered_end, 150u);
  EXPECT_FALSE(ShardIsComplete(truncated->job));
}

TEST(ProtocolFramed, ClientDecoderSurfacesStructuredFailures) {
  // An error frame decodes as itself, and as the embedded Status, code
  // preserved, wherever a client expects another frame.
  Response response;
  response.payload = ErrorResponse{Status::FailedPrecondition(
      "graph content hash mismatch for 'web'")};
  const std::string error_frame = FormatFramedResponse(response);
  auto error = ParseFramedResponse(error_frame);
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_EQ(std::get<ErrorResponse>(error->payload).status.code(),
            StatusCode::kFailedPrecondition);
  auto decoded = ParseFramedPayload<ShardResultResponse>(error_frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(decoded.status().message().find("hash mismatch"),
            std::string::npos);

  // A failed shard job rides inside an ok frame; the decoder unwraps
  // its error the same way.
  JobInfo failed;
  failed.request.graph = "web";
  failed.state = JobState::kFailed;
  failed.status = Status::NotFound("no graph named 'web' is registered");
  response.payload = ShardResultResponse{failed, 0};
  decoded =
      ParseFramedPayload<ShardResultResponse>(FormatFramedResponse(response));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kNotFound);

  // Wrong frame type and garbage are structured errors, never a crash.
  EXPECT_FALSE(ParseFramedPayload<ShardResultResponse>(
                   "{\"id\":1,\"ok\":true,\"type\":\"bye\"}")
                   .ok());
  EXPECT_FALSE(ParseFramedResponse("not json").ok());
  EXPECT_FALSE(ParseFramedResponse("{}").ok());
}

TEST(ProtocolFramed, HelloVersionDecoder) {
  Response response;
  HelloResponse hello;
  hello.version = 2;
  hello.mode = WireMode::kFramed;
  response.payload = hello;
  auto decoded =
      ParseFramedPayload<HelloResponse>(FormatFramedResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->version, 2u);
  EXPECT_EQ(decoded->mode, WireMode::kFramed);

  // A v1 server's hello decodes to 1 (the coordinator's refusal path).
  hello.version = 1;
  response.payload = hello;
  decoded = ParseFramedPayload<HelloResponse>(FormatFramedResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->version, 1u);

  EXPECT_FALSE(ParseFramedPayload<HelloResponse>(
                   "{\"id\":0,\"ok\":true,\"type\":\"bye\"}")
                   .ok());
  EXPECT_FALSE(ParseFramedPayload<HelloResponse>("nope").ok());
}

// ------------------------------------------- v4 streamed result delivery

TEST(ProtocolText, ResultChunkGoldens) {
  ResultChunkResponse chunk;
  chunk.job = 3;
  chunk.seq = 0;
  chunk.plexes = {{1, 2, 3}, {4, 5}};
  EXPECT_EQ(TextOf(chunk), "chunk 0: 1 2 3 | 4 5\n");

  ResultChunkResponse last;
  last.job = 3;
  last.seq = 2;
  last.last = true;
  last.plexes = {{7}};
  EXPECT_EQ(TextOf(last), "chunk 2 last: 7\n");

  // An empty result's single terminating chunk.
  ResultChunkResponse empty;
  empty.seq = 0;
  empty.last = true;
  EXPECT_EQ(TextOf(empty), "chunk 0 last:\n");
}

TEST(ProtocolText, TruncatedMineLineCarriesTheResumeCursor) {
  JobInfo truncated;
  truncated.id = 3;
  truncated.request.graph = "web";
  truncated.request.k = 2;
  truncated.request.q = 12;
  truncated.state = JobState::kDone;
  truncated.started = true;
  truncated.result.num_plexes = 7;
  truncated.result.max_plex_size = 9;
  truncated.result.seconds = 0.1;
  truncated.result.stopped_early = true;
  truncated.result.has_cursor = true;
  truncated.result.cursor_seed = 17;
  truncated.result.cursor_ordinal = 4;
  EXPECT_EQ(TextOf(MineResponse{truncated}),
            "mined web k=2 q=12 algo=ours: 7 plexes, max size 9, 0.100s "
            "[result cap hit] [cursor 17:4]\n");
}

TEST(ProtocolFramed, ResultChunkFrameGoldenAndClientDecode) {
  ResultChunkResponse chunk;
  chunk.job = 3;
  chunk.seq = 1;
  chunk.last = true;
  chunk.plexes = {{1, 2, 3}, {4, 5}};
  Response response;
  response.request_id = 9;
  response.payload = chunk;
  const std::string frame = FormatFramedResponse(response);
  // The golden streamed transcript unit: nested vertex-id arrays.
  EXPECT_EQ(frame,
            "{\"id\":9,\"ok\":true,\"type\":\"result_chunk\",\"job\":3,"
            "\"seq\":1,\"last\":true,\"plexes\":[[1,2,3],[4,5]]}");

  auto type = PeekFramedResponseType(frame);
  ASSERT_TRUE(type.ok()) << type.status().ToString();
  EXPECT_EQ(*type, "result_chunk");

  auto response_id = ParseFramedResponse(frame);
  ASSERT_TRUE(response_id.ok()) << response_id.status().ToString();
  EXPECT_EQ(response_id->request_id, 9u);
  auto decoded = ParseFramedResultChunk(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->job, 3u);
  EXPECT_EQ(decoded->seq, 1u);
  EXPECT_TRUE(decoded->last);
  EXPECT_EQ(decoded->plexes, chunk.plexes);

  // An empty chunk round-trips as an empty plexes array.
  ResultChunkResponse empty;
  empty.last = true;
  response.payload = empty;
  const std::string empty_frame = FormatFramedResponse(response);
  EXPECT_NE(empty_frame.find("\"plexes\":[]"), std::string::npos)
      << empty_frame;
  decoded = ParseFramedResultChunk(empty_frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->plexes.empty());
  EXPECT_TRUE(decoded->last);
}

TEST(ProtocolFramed, MalformedResultChunkFramesAreErrorsNeverCrashes) {
  const std::vector<std::string> frames = {
      "",
      "not json",
      "{}",
      "{\"ok\":true,\"type\":\"mine\"}",  // wrong frame type
      // Truncated mid-plexes (a cut TCP stream's final partial line).
      "{\"id\":1,\"ok\":true,\"type\":\"result_chunk\",\"plexes\":[[1",
      // Missing the plexes array entirely.
      "{\"id\":1,\"ok\":true,\"type\":\"result_chunk\",\"job\":3,"
      "\"seq\":0,\"last\":false}",
      // Flat array where nested vertex-id arrays are required.
      "{\"id\":1,\"ok\":true,\"type\":\"result_chunk\",\"job\":3,"
      "\"seq\":0,\"last\":false,\"plexes\":[1,2]}",
      // Non-numeric vertex id.
      "{\"id\":1,\"ok\":true,\"type\":\"result_chunk\",\"job\":3,"
      "\"seq\":0,\"last\":false,\"plexes\":[[1,\"x\"]]}",
      // Wrong-typed seq / last.
      "{\"id\":1,\"ok\":true,\"type\":\"result_chunk\",\"job\":3,"
      "\"seq\":\"zero\",\"last\":false,\"plexes\":[]}",
      "{\"id\":1,\"ok\":true,\"type\":\"result_chunk\",\"job\":3,"
      "\"seq\":0,\"last\":\"yes\",\"plexes\":[]}",
      // An error frame surfaces as its embedded status, not a chunk.
      "{\"id\":1,\"ok\":false,\"type\":\"error\","
      "\"code\":\"INTERNAL\",\"message\":\"boom\"}",
  };
  for (const std::string& frame : frames) {
    auto decoded = ParseFramedResultChunk(frame);
    EXPECT_FALSE(decoded.ok()) << "accepted: " << frame;
  }
}

TEST(ProtocolFramed, MineResultDecoderReadsBodiesAndCursor) {
  JobInfo done;
  done.id = 3;
  done.request.graph = "web";
  done.request.k = 2;
  done.request.q = 12;
  done.request.collect_bodies = true;
  done.state = JobState::kDone;
  done.started = true;
  done.result.num_plexes = 7;
  done.result.max_plex_size = 9;
  done.result.fingerprint = 0x0123456789abcdefULL;
  done.result.seconds = 0.25;
  done.result.stopped_early = true;
  done.result.plexes =
      std::make_shared<std::vector<std::vector<VertexId>>>(
          std::vector<std::vector<VertexId>>{{1, 2}, {3, 4}, {5, 6}});
  done.result.has_cursor = true;
  done.result.cursor_seed = 17;
  done.result.cursor_ordinal = 4;

  Response response;
  response.request_id = 2;
  response.payload = MineResponse{done};
  const std::string frame = FormatFramedResponse(response);
  EXPECT_NE(frame.find("\"bodies\":3"), std::string::npos) << frame;
  EXPECT_NE(frame.find("\"cursor\":\"17:4\""), std::string::npos) << frame;

  auto decoded = ParseFramedMineResult(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->request_id, 2u);
  EXPECT_EQ(decoded->state, "done");
  EXPECT_EQ(decoded->plexes, 7u);
  EXPECT_EQ(decoded->bodies, 3u);
  EXPECT_EQ(decoded->fingerprint, 0x0123456789abcdefULL);
  auto job = ParseFramedPayload<MineResponse>(frame);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  EXPECT_EQ(job->job.result.max_plex_size, 9u);
  EXPECT_TRUE(job->job.result.stopped_early);
  EXPECT_TRUE(job->job.result.has_cursor);
  EXPECT_EQ(job->job.result.cursor_seed, 17u);
  EXPECT_EQ(job->job.result.cursor_ordinal, 4u);

  // Without bodies or truncation both extras are absent and default.
  done.result.plexes = nullptr;
  done.result.has_cursor = false;
  done.result.stopped_early = false;
  response.payload = MineResponse{done};
  decoded = ParseFramedMineResult(FormatFramedResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->bodies, 0u);
  job = ParseFramedPayload<MineResponse>(FormatFramedResponse(response));
  ASSERT_TRUE(job.ok());
  EXPECT_FALSE(job->job.result.has_cursor);

  // A failed mine surfaces its embedded status.
  JobInfo failed;
  failed.request.graph = "web";
  failed.state = JobState::kFailed;
  failed.status = Status::NotFound("no graph named 'web' is registered");
  response.payload = MineResponse{failed};
  auto error = ParseFramedMineResult(FormatFramedResponse(response));
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kNotFound);

  // Wrong type / garbage / bogus cursor token are structured errors,
  // each edited into an otherwise complete frame.
  const std::pair<std::string, std::string> rejected[] = {
      {GoldenFrame("hello"), "expected a 'mine' frame"},
      {"nope", "malformed frame"},
      {Edited(frame, "\"cursor\":\"17:4\"", "\"cursor\":\"bogus\""),
       "SEED:ORDINAL"},
      {Edited(frame, "\"cursor\":\"17:4\"", "\"cursor\":7"),
       "'cursor' must be"},
  };
  for (const auto& [line, message] : rejected) {
    auto verdict = ParseFramedMineResult(line);
    ASSERT_FALSE(verdict.ok()) << "accepted: " << line;
    EXPECT_EQ(verdict.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(verdict.status().message().find(message), std::string::npos)
        << line << ": " << verdict.status().ToString();
  }
}

TEST(ProtocolText, CursorTextParser) {
  auto cursor = ParseCursorText("17:4");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  EXPECT_EQ(cursor->seed, 17u);
  EXPECT_EQ(cursor->ordinal, 4u);
  EXPECT_EQ(FormatCursorValue(cursor->seed, cursor->ordinal), "17:4");
  EXPECT_FALSE(ParseCursorText("17").ok());
  EXPECT_FALSE(ParseCursorText("x:4").ok());
  EXPECT_FALSE(ParseCursorText("17:y").ok());
  EXPECT_FALSE(ParseCursorText("").ok());
}

TEST(ProtocolText, SeedRangeTextParser) {
  auto range = ParseSeedRangeText("100:200");
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->begin, 100u);
  EXPECT_EQ(range->end, 200u);
  range = ParseSeedRangeText("0:end");
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->begin, 0u);
  EXPECT_EQ(range->end, UINT32_MAX);
  EXPECT_TRUE(range->IsFull());
  EXPECT_FALSE(ParseSeedRangeText("5").ok());
  EXPECT_FALSE(ParseSeedRangeText("9:3").ok());
  EXPECT_FALSE(ParseSeedRangeText("a:b").ok());
}

// ------------------------------------------------------------- sanitation

TEST(ProtocolSanitize, AbsolutePathsLoseTheirDirectories) {
  EXPECT_EQ(SanitizeErrorMessage(
                "cannot open '/srv/secret/layout/web.txt' for reading: "
                "No such file or directory"),
            "cannot open 'web.txt' for reading: No such file or directory");
  EXPECT_EQ(SanitizeErrorMessage("cannot map /var/data/g.kpx: EACCES"),
            "cannot map g.kpx: EACCES");
  // Relative paths, options, and fractions pass through untouched.
  EXPECT_EQ(SanitizeErrorMessage("cannot open 'data/karate.txt'"),
            "cannot open 'data/karate.txt'");
  EXPECT_EQ(SanitizeErrorMessage("cache must be on or off"),
            "cache must be on or off");
  EXPECT_EQ(SanitizeErrorMessage("ratio 3/4 is fine"), "ratio 3/4 is fine");
  EXPECT_EQ(SanitizeErrorMessage("bare / stays"), "bare / stays");

  const Status sanitized = SanitizeErrorStatus(
      Status::IoError("cannot open '/a/b/c.txt' for writing"));
  EXPECT_EQ(sanitized.code(), StatusCode::kIoError);
  EXPECT_EQ(sanitized.message(), "cannot open 'c.txt' for writing");
  EXPECT_TRUE(SanitizeErrorStatus(Status::Ok()).ok());
}

}  // namespace
}  // namespace kplex
