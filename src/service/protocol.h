// Structured service protocol v1: the typed Request/Response vocabulary
// of the query service, shared by every front end — the scriptable
// ServiceSession, `kplex_cli serve`, and the TCP transport
// (service/tcp_server.h). The protocol separates three concerns that
// used to live tangled inside ServiceSession::ExecuteLine:
//
//   1. *Messages*: one struct per operation (LoadRequest, MineRequest,
//      ...) with explicit typed fields, wrapped in a std::variant. This
//      is the API a network client or a future sharding coordinator
//      programs against.
//   2. *Codecs*: two interchangeable wire encodings of the same
//      messages, both newline-delimited:
//        - text: the historical human session grammar
//          ("mine web 2 12 threads=8"). ParseTextRequest/
//          FormatTextResponse round-trip it byte-for-byte, so existing
//          scripts and transcripts are unaffected.
//        - framed: one JSON object per line ("JSON lines"), carrying a
//          client correlation id, machine-readable field names, and a
//          structured error shape. Arbitrary strings (spaces in paths)
//          survive framing; the text grammar cannot express them.
//      A session starts in text mode; the `hello` handshake
//      (HelloRequest) negotiates the protocol version and may switch
//      the connection to framed mode. One verb table in protocol.cc
//      lists every request's fields once and drives the text parser,
//      the framed parser and the framed encoder, so the two encodings
//      cannot drift apart. On the response side one walk per response
//      struct lists its frame keys once and drives both the framed
//      encoder and the client's decoder (ParseFramedResponse); the
//      text renderings are written by hand, as nothing reads them
//      back.
//   3. *Errors*: every failure is a structured Status (code + message)
//      echoed with the request id — formatted as "error: CODE: msg" on
//      the text wire and as {"ok":false,"code":...} on the framed wire.
//      SanitizeErrorStatus scrubs absolute filesystem paths out of
//      error messages before they reach a client (a service must not
//      leak its host layout through strerror strings).
//
// Version/compat policy: kProtocolVersion bumps when the message
// vocabulary grows (additive — v5 added the coordination verbs) and is
// how a client discovers a capability: `hello proto=N` negotiates
// min(N, kProtocolVersion), so a coordinator that needs the
// coordination vocabulary sends proto=5 and refuses a server that
// negotiates down to 4. Message *shapes*, once shipped, never change
// (breaking changes would require a new command name); unknown
// *fields* in framed requests are rejected (typo safety), unknown
// *commands* report INVALID_ARGUMENT. Clients ignore unknown keys in
// response frames, since responses grow by adding keys. A verb or
// option with no remaining sender may be removed without a version bump
// (v2's `mineshard` verb was, and so was the `ctcp` option); a request
// that still sends it gets INVALID_ARGUMENT. See docs/SERVE.md for the
// full message reference and wire examples.

#ifndef KPLEX_SERVICE_PROTOCOL_H_
#define KPLEX_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

#include "obs/metrics.h"
#include "service/dispatcher.h"
#include "service/graph_catalog.h"
#include "service/query_engine.h"
#include "util/status.h"

namespace kplex {

/// Current protocol version (see the compat policy above). v2 added the
/// sharded-mining vocabulary (shard_result frames, via the since-removed
/// mineshard verb); v3 added the
/// `metrics` scrape verb; v4 added streamed result bodies
/// (results=stream / result_chunk frames / cursor resume) and the
/// server-side selection options (filter / contain / top / mode); v5
/// added the coordination vocabulary — the planning probe (plan), the
/// split shard round trip (shardsubmit / shardwait / shardstop, which
/// makes work-stealing possible), and the worker-lifecycle verbs a
/// coordinator daemon serves (register / heartbeat / drain / workers);
/// v6 added the durable result-store verbs (store / store evict).
inline constexpr uint32_t kProtocolVersion = 6;

/// First protocol version that streams result bodies and understands
/// the selection options; what a streaming client requires its server
/// to negotiate.
inline constexpr uint32_t kProtocolVersionStreaming = 4;

/// First protocol version with the coordination vocabulary (plan /
/// shardsubmit / shardwait / shardstop and the worker-lifecycle verbs);
/// what the coordinator requires its workers to negotiate.
inline constexpr uint32_t kProtocolVersionCoordination = 5;

/// Wire encoding of a session. Text is the default; framed is opted
/// into through the hello handshake.
enum class WireMode { kText, kFramed };

/// "text" / "framed".
const char* WireModeName(WireMode mode);
StatusOr<WireMode> ParseWireMode(const std::string& name);

// ---------------------------------------------------------------- requests

/// `hello [proto=N] [mode=text|framed]` — protocol handshake. The
/// response carries the negotiated version min(N, kProtocolVersion);
/// when `mode` is present the connection switches encodings for every
/// subsequent message (the hello response itself is already sent in the
/// new mode).
struct HelloRequest {
  uint32_t version = kProtocolVersion;
  std::optional<WireMode> mode;
};

/// `load NAME PATH` — register + materialize a graph file (snapshots
/// auto-detected by magic, else SNAP edge list).
struct LoadRequest {
  std::string name;
  std::string path;
};

/// `dataset NAME KEY` — register + materialize a registry dataset.
struct DatasetRequest {
  std::string name;
  std::string key;
};

/// `snapshot NAME PATH [precompute] [levels=C1,C2,...]` — write NAME as
/// a v2 binary snapshot (levels implies precompute).
struct SnapshotRequest {
  std::string name;
  std::string path;
  bool include_precompute = false;
  std::vector<uint32_t> core_mask_levels;
};

/// `mine NAME K Q [key=value ...]` — synchronous query (submit + wait
/// on the service dispatcher). The embedded QueryRequest's cancel
/// pointer is ignored; cancellation goes through CancelRequest.
struct MineRequest {
  QueryRequest query;
};

/// `submit NAME K Q [key=value ...]` — asynchronous query; the response
/// carries the job id immediately.
struct SubmitRequest {
  QueryRequest query;
};

/// `plan NAME K Q` — the coordinator's cost-estimate probe (v5):
/// returns the seed-space size plus, per canonical seed index, the
/// forward degree (neighbors later in degeneracy order — a proxy for
/// the seed's candidate-pool size) and the coreness, both read from the
/// v2 precompute sections when present. No enumeration happens; the
/// probe is cheap even on graphs where a mine runs for minutes. A
/// coordinator turns the arrays into per-seed cost estimates
/// (SeedPlanCost) and cuts the seed space into balanced chunks.
struct PlanRequest {
  std::string graph;
  uint32_t k = 2;
  uint32_t q = 4;
};

/// `shardsubmit NAME K Q [seed-range=B:E] [hash=0xH] [key=value ...]` —
/// one shard of a coordinated enumeration (v5): a mine restricted to
/// the query's seed range (QueryRequest::seed_begin/seed_end —
/// half-open indices into the canonical seed order of the reduced
/// graph; see docs/SHARDING.md). When `expected_hash` is non-zero the
/// worker first compares it against its own content hash of the named
/// graph and refuses a mismatched snapshot with FAILED_PRECONDITION —
/// the admission check that makes a merged result trustworthy. The
/// shard is then submitted and the response carries the job id and
/// verified content hash immediately; `shardwait` delivers the result.
/// The split round trip is what makes work-stealing possible: while the
/// submitting connection waits in `shardwait`, a second connection can
/// `shardstop` the job to make it yield.
struct ShardSubmitRequest {
  QueryRequest query;
  uint64_t expected_hash = 0;  ///< 0 skips the admission check
};

/// `shardwait ID` — block until shard job ID is terminal, then respond
/// with its shard_result frame (including the covered seed range of a
/// yielded run).
struct ShardWaitRequest {
  uint64_t job = 0;
};

/// `shardstop ID` — request a cooperative yield of shard job ID
/// (ServiceDispatcher::Yield): a running enumeration stops cleanly at
/// the next stage boundary (the next seed when sequential; every
/// worker of a `threads=N` run at the same one) and its shard_result
/// reports the covered prefix, letting a coordinator re-issue the
/// remainder to an idle worker.
struct ShardStopRequest {
  uint64_t job = 0;
};

/// `register HOST:PORT` — a worker joins a coordinator daemon's pool
/// (v5, coordinator-side verb): the daemon connects back to the
/// advertised endpoint, content-hash gates admission per job, and
/// starts scheduling chunks onto the worker. Responds with the assigned
/// worker id.
struct RegisterRequest {
  std::string endpoint;  ///< "host:port" the worker serves on
};

/// `heartbeat ID` — refreshes worker ID's liveness on a coordinator; a
/// dead-marked worker that heartbeats again is revived for future jobs.
struct HeartbeatRequest {
  uint64_t worker = 0;
};

/// `drain ID` — asks the coordinator to stop scheduling new chunks onto
/// worker ID; in-flight chunks finish (or are re-queued on failure) and
/// the worker leaves the pool cleanly.
struct DrainRequest {
  uint64_t worker = 0;
};

/// `workers` — the coordinator's worker-pool table.
struct WorkersRequest {};

/// `cancel ID` — request cancellation of a queued/running job.
struct CancelRequest {
  uint64_t job = 0;
};

/// `jobs` — status of every retained job.
struct JobsRequest {};

/// `wait [ID]` — block until job ID (absent: every job) is terminal.
struct WaitRequest {
  std::optional<uint64_t> job;
};

/// `stats` — catalog + result-cache + dispatcher tables.
struct StatsRequest {};

/// `metrics [format=table|prom]` — scrape the process-wide
/// MetricsRegistry (obs/metrics.h). `format` chooses the text-wire
/// rendering: "table" (default) is one `counter|gauge|histogram` line
/// per series, "prom" is the Prometheus text exposition format. The
/// framed wire always carries the full structured snapshot and ignores
/// `format`. v3 verb.
struct MetricsRequest {
  std::string format;  ///< "", "table", or "prom"
};

/// `evict NAME` — drop the resident copy (reloads on next use).
struct EvictRequest {
  std::string name;
};

/// `store [evict]` (v6) — the durable result-store tier. Bare `store`
/// reports occupancy and counters; `store evict` deletes every entry
/// (the files, crash-safely — not just the in-memory index). Both fail
/// with FAILED_PRECONDITION when the server runs without `--store`.
struct StoreRequest {
  bool evict = false;
};

/// `help` — command summary.
struct HelpRequest {};

/// `quit` / `exit` — end the session (the transport closes after the
/// ByeResponse).
struct QuitRequest {};

using RequestPayload =
    std::variant<HelloRequest, LoadRequest, DatasetRequest, SnapshotRequest,
                 MineRequest, SubmitRequest, PlanRequest,
                 ShardSubmitRequest, ShardWaitRequest, ShardStopRequest,
                 RegisterRequest, HeartbeatRequest, DrainRequest,
                 WorkersRequest, CancelRequest, JobsRequest, WaitRequest,
                 StatsRequest, MetricsRequest, EvictRequest, StoreRequest,
                 HelpRequest, QuitRequest>;

struct Request {
  /// Client-chosen correlation id, echoed in the response. Framed mode
  /// only; always 0 on the text wire.
  uint64_t id = 0;
  RequestPayload payload;
};

// --------------------------------------------------------------- responses

struct HelloResponse {
  /// min(client version, kProtocolVersion).
  uint32_t version = kProtocolVersion;
  /// Set when the handshake switches the wire encoding (the adapter
  /// applies it); absent when hello carried no mode.
  std::optional<WireMode> mode;
};

struct LoadResponse {
  std::string name;
  std::size_t num_vertices = 0;
  std::size_t num_edges = 0;
  double load_seconds = 0;
  /// Registry key for dataset loads; empty for file loads.
  std::string dataset_key;
};

struct SnapshotResponse {
  std::string name;
  std::string path;
  bool with_precompute = false;
};

/// Terminal outcome of a synchronous mine (the job ran to done,
/// cancelled, or failed state before the response was produced).
struct MineResponse {
  JobInfo job;
};

struct SubmitResponse {
  uint64_t job = 0;
  QueryRequest query;  ///< as submitted (echoed in the confirmation)
};

/// Terminal outcome of one shard (`shardwait`). The job's request
/// echoes the seed range; its result carries the mergeable pieces — the
/// plex count, the raw XOR fingerprint half (fingerprint_xor), and the
/// seed-space size (total_seeds) — plus the content hash the worker
/// verified, so a coordinator can fold ShardResults into one verified
/// total (core/sink.h MergeableResult).
struct ShardResultResponse {
  JobInfo job;
  uint64_t content_hash = 0;  ///< the worker's hash of the mined graph
};

/// Outcome of the `plan` probe (v5): the per-seed cost inputs in
/// canonical seed order, plus the content hash that anchors every
/// subsequent shardsubmit admission check.
struct PlanResponse {
  std::string graph;
  uint64_t total_seeds = 0;
  uint64_t content_hash = 0;
  uint32_t degeneracy = 0;
  /// Per canonical seed index: forward degree in degeneracy order.
  std::vector<uint32_t> degrees;
  /// Per canonical seed index: coreness of the seed vertex.
  std::vector<uint32_t> coreness;
  /// True when the ordering came from precompute sections (no peel).
  bool precomputed = false;
  double seconds = 0;
};

/// Acknowledges a shardsubmit: the shard job is queued (admission
/// already passed) and `shardwait job` will deliver its shard_result.
struct ShardSubmitResponse {
  uint64_t job = 0;
  uint64_t content_hash = 0;  ///< the worker's verified graph hash
};

/// Acknowledges a shardstop (the yield flag is set; the job's
/// shard_result delivers the covered prefix).
struct ShardStopResponse {
  uint64_t job = 0;
};

/// Acknowledges register / heartbeat / drain on a coordinator: the
/// worker id plus its pool state after the verb applied.
struct WorkerAckResponse {
  uint64_t worker = 0;
  std::string state;  ///< "idle" / "busy" / "draining" / "dead"
};

/// One row of the coordinator's worker-pool table.
struct WorkerInfo {
  uint64_t id = 0;
  std::string endpoint;
  std::string state;  ///< "idle" / "busy" / "draining" / "dead"
  uint64_t chunks_done = 0;
  uint64_t chunks_failed = 0;
};

struct WorkersResponse {
  std::vector<WorkerInfo> workers;
};

struct CancelResponse {
  uint64_t job = 0;
};

struct JobsResponse {
  std::vector<JobInfo> jobs;  ///< submission order
};

/// Outcome of `wait ID` (terminal snapshot of that job).
struct WaitResponse {
  JobInfo job;
};

/// Outcome of bare `wait`: per-state tallies after the drain, plus the
/// ids of failed jobs so adapters can count each failure exactly once
/// toward a batch exit code.
struct WaitAllResponse {
  ServiceDispatcher::JobCounts counts;
  std::vector<uint64_t> failed_jobs;
};

/// Occupancy + counters of the durable result store (`store` verb and
/// the store row of `stats`). Mirrors ResultStore::Stats without making
/// the protocol depend on the store header.
struct StoreStatusInfo {
  bool enabled = false;  ///< false when the server runs without --store
  uint64_t entries = 0;
  uint64_t bytes = 0;
  uint64_t byte_budget = 0;  ///< 0 = unlimited
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t writes = 0;
  uint64_t evictions = 0;
  uint64_t corrupt_entries = 0;
};

struct StatsResponse {
  std::vector<CatalogEntryInfo> graphs;
  std::size_t resident_bytes = 0;        ///< owned, budget-relevant
  std::size_t mapped_resident_bytes = 0; ///< zero-copy, budget-exempt
  std::size_t memory_budget_bytes = 0;   ///< 0 = unlimited
  QueryEngine::CacheStats cache;
  ServiceDispatcher::JobCounts jobs;
  uint32_t workers = 0;
  StoreStatusInfo store;  ///< disk tier occupancy (v6)
};

/// One MetricsRegistry scrape. `format` echoes the request's choice so
/// the text codec knows which rendering to write.
struct MetricsResponse {
  std::string format;  ///< "", "table", or "prom"
  MetricsSnapshot snapshot;
};

/// One bounded slice of a streamed result body (`results=stream`, v4):
/// up to chunk-size plexes, each a sorted vertex-id list. `seq` numbers
/// the chunks of one response from 0 and `last` marks the final slice;
/// every chunk frame precedes the final mine/verdict frame of the same
/// request id, so a client drains chunks until `last` and then reads
/// the verdict. An empty result still sends one empty last chunk — the
/// body stream is always present when bodies were requested.
struct ResultChunkResponse {
  uint64_t job = 0;
  uint64_t seq = 0;
  bool last = false;
  std::vector<std::vector<VertexId>> plexes;
};

struct EvictResponse {
  std::string name;
};

/// Outcome of the `store` verbs (v6): the tier's status after the verb
/// applied; for `store evict` additionally what was freed.
struct StoreResponse {
  StoreStatusInfo info;
  bool evicted = false;  ///< true for `store evict`
  uint64_t evicted_entries = 0;
  uint64_t evicted_bytes = 0;
};

struct HelpResponse {};

/// Acknowledges QuitRequest; the transport closes after sending it.
struct ByeResponse {};

/// Structured failure: Status code + sanitized message, echoed with the
/// request id like every other response.
struct ErrorResponse {
  Status status;
};

using ResponsePayload =
    std::variant<HelloResponse, LoadResponse, SnapshotResponse, MineResponse,
                 SubmitResponse, ShardResultResponse, PlanResponse,
                 ShardSubmitResponse, ShardStopResponse, WorkerAckResponse,
                 WorkersResponse, ResultChunkResponse, CancelResponse,
                 JobsResponse, WaitResponse, WaitAllResponse, StatsResponse,
                 MetricsResponse, EvictResponse, StoreResponse, HelpResponse,
                 ByeResponse, ErrorResponse>;

struct Response {
  uint64_t request_id = 0;  ///< mirrors Request::id
  ResponsePayload payload;
};

// -------------------------------------------------------------- text codec

/// Parses one line of the session grammar into a typed request.
/// Returns InvalidArgument with the historical error strings ("usage:
/// ...", "unknown command '...' (try 'help')") on malformed input.
/// `line` must not be blank or a comment (ParseSessionLine skips
/// those).
StatusOr<Request> ParseTextRequest(const std::string& line);

/// Writes the human text rendering of a response — byte-identical to
/// the historical ServiceSession output (ByeResponse prints nothing).
void FormatTextResponse(const Response& response, std::ostream& out);

// ------------------------------------------------------------ framed codec

/// Parses one JSON-lines frame ({"cmd":"mine","graph":...}). Malformed
/// JSON, wrong field types, and unknown fields all return structured
/// InvalidArgument errors — never a crash. When `error_id` is non-null
/// it receives the frame's correlation id whenever one was readable
/// (even if validation failed afterwards), so error responses can stay
/// correlated; 0 when no id could be extracted.
StatusOr<Request> ParseFramedRequest(const std::string& line,
                                     uint64_t* error_id = nullptr);

/// One-line JSON encoding of a request (no trailing newline).
std::string FormatFramedRequest(const Request& request);

/// One-line JSON encoding of a response (no trailing newline).
std::string FormatFramedResponse(const Response& response);

// ----------------------------------------------------------- session rules
// The wire rules every session shares: the worker's ServiceSession and
// the coordinator daemon's CoordSession.

/// Parses one session line in `mode`. Returns std::nullopt for a line
/// the mode skips: text skips blank lines and '#' comments, framed only
/// whitespace-only keep-alives ('#' is no comment there, so every
/// non-blank frame gets a correlated response). A rejected frame's
/// correlation id, when readable, lands in `error_id`.
std::optional<StatusOr<Request>> ParseSessionLine(const std::string& line,
                                                  WireMode mode,
                                                  uint64_t* error_id);

/// Writes `response` in `mode`: its text rendering, or one framed line.
void WriteResponse(const Response& response, WireMode mode, std::ostream& out);

/// The quit rule: on the text wire `quit` ends the session without a
/// response; the framed wire acknowledges it with a bye frame.
bool EndsSessionSilently(const Request& request, WireMode mode);

/// The hello rule: a hello response that carries a mode switches the
/// session to it, and is itself written in the new mode.
WireMode ModeAfter(const Response& response, WireMode mode);

// ------------------------------------------- framed client-side decode
// The coordinator, `mine --endpoint`, coordctl and the metrics scrape
// read framed response lines. One walk per response struct drives both
// FormatFramedResponse and ParseFramedResponse, so a client decodes into
// the server's own structs.

/// The inverse of FormatFramedResponse. An error frame decodes to
/// ErrorResponse and a failed job keeps its state and status. Malformed
/// JSON, an unknown frame type, a missing key the frame always carries
/// and a wrongly typed or out-of-range value are INVALID_ARGUMENT;
/// unknown keys are ignored. A non-null `bodies` receives a job frame's
/// "bodies" count, which no response struct holds (0 when absent).
StatusOr<Response> ParseFramedResponse(const std::string& line,
                                       uint64_t* bodies = nullptr);

/// OK when `response` has `expected`'s frame type. An error frame comes
/// back as its status, another frame type as INVALID_ARGUMENT, and a
/// failed job (mine, wait, shard_result) as the status it failed with.
Status ExpectPayload(const Response& response,
                     const ResponsePayload& expected);

/// Decodes a framed response line that must carry a T (ExpectPayload).
template <typename T>
StatusOr<T> ParseFramedPayload(const std::string& line) {
  auto response = ParseFramedResponse(line);
  if (!response.ok()) return response.status();
  KPLEX_RETURN_IF_ERROR(ExpectPayload(*response, T{}));
  return std::get<T>(std::move(response->payload));
}

/// The "type" of a framed response line ("mine", "result_chunk", ...)
/// that ParseFramedResponse decodes; an error frame comes back as its
/// status.
StatusOr<std::string> PeekFramedResponseType(const std::string& line);

inline StatusOr<ResultChunkResponse> ParseFramedResultChunk(
    const std::string& line) {
  return ParseFramedPayload<ResultChunkResponse>(line);
}

/// The verdict of a framed mine line that a streaming client reads after
/// draining the chunk frames of the same request id, with the job
/// frame's bodies count. ParseFramedResponse carries the rest.
struct ParsedMineResult {
  uint64_t request_id = 0;
  std::string state;    ///< "done" / "cancelled" (failed is an error)
  uint64_t plexes = 0;  ///< served count (post-filter / post-top)
  uint64_t fingerprint = 0;
  bool cached = false;
  /// Number of bodies the server buffered (and streamed, for a
  /// results=stream request) — what the chunk frames should reassemble
  /// to. 0 when the request did not ask for bodies.
  uint64_t bodies = 0;
};

/// Decodes a framed mine line into a ParsedMineResult (ExpectPayload).
StatusOr<ParsedMineResult> ParseFramedMineResult(const std::string& line);

// ------------------------------------------------------------ error hygiene

/// Replaces every absolute filesystem path in `message` with its last
/// component ("cannot open '/srv/data/web.txt'" -> "cannot open
/// 'web.txt'"), so service errors never leak the host's directory
/// layout. Relative paths and non-path tokens pass through untouched.
std::string SanitizeErrorMessage(const std::string& message);

/// SanitizeErrorMessage applied to a Status (code preserved).
Status SanitizeErrorStatus(const Status& status);

// ---------------------------------------------------------------- helpers

/// One-line summary of a query ("web k=2 q=12 algo=ours"), shared by
/// submit confirmations, job tables, and result lines. Sharded queries
/// append " seeds=B:E".
std::string DescribeQuery(const QueryRequest& query);

/// Wire verb of a request payload ("mine", "stats", ...). Stable names:
/// they key the per-verb request metrics (kplex_requests_<verb>_total).
const char* RequestVerbName(const RequestPayload& payload);

/// Parses the wire seed-range grammar "B:E" (E may be the literal
/// "end" for the open upper bound) into a half-open SeedRange. Shared
/// by the protocol codecs and the CLI's --seed-range flag.
StatusOr<SeedRange> ParseSeedRangeText(const std::string& value);

/// A parsed resume token (wire grammar "SEED:ORDINAL").
struct ResumeCursor {
  uint32_t seed = 0;
  uint64_t ordinal = 0;
};

/// Parses the cursor grammar "SEED:ORDINAL". Shared by the protocol
/// codecs and the CLI's --cursor flag.
StatusOr<ResumeCursor> ParseCursorText(const std::string& value);

/// Formats a cursor as its wire token "SEED:ORDINAL".
std::string FormatCursorValue(uint32_t seed, uint64_t ordinal);

/// Default result_chunk size when the request left `chunk` unset.
inline constexpr uint32_t kDefaultResultChunkSize = 32;

}  // namespace kplex

#endif  // KPLEX_SERVICE_PROTOCOL_H_
