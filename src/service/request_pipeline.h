// RequestPipeline: the one path a stream of JSONL request lines takes
// to the session and back. stdin/stdout is one stream (ServeStream
// below); each TCP connection is one stream (net/socket_server.h).
//
// The thread that owns the stream hands received bytes to Feed(),
// which frames them into lines: newline-delimited, blank and
// whitespace-only lines skipped, CR before LF tolerated, and a final
// unterminated line served by Finish(). Each line is admitted into a
// window of kWindowPerWorker lines per pool worker, stamped, and run
// on the shared ThreadPool. Responses leave in input order: the worker
// that completes the oldest outstanding line writes it, and every
// completed successor, through `emit`. A slow early request therefore
// holds later responses back, and once the window is full it stops
// the reading too (on TCP, that backpressure reaches the client).
//
// A line longer than kMaxLineBytes is never buffered whole: it is
// answered in order with RESOURCE_EXHAUSTED and id null, its bytes are
// dropped through the next newline, and the stream keeps serving.
#ifndef FAIRTOPK_SERVICE_REQUEST_PIPELINE_H_
#define FAIRTOPK_SERVICE_REQUEST_PIPELINE_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>

#include "common/thread_pool.h"
#include "service/jsonl_service.h"

namespace fairtopk {

/// Frames, admits, runs and emits in order the request lines of one
/// stream, with one JsonlService::Context for the stream. Feed() and
/// Finish() belong to the thread that owns the stream.
class RequestPipeline {
 public:
  /// Longest request line, newline excluded, that is served. A
  /// full-table `update` of 10^6 rows is about 30 MB.
  static constexpr size_t kMaxLineBytes = size_t{64} << 20;
  /// Lines admitted but not yet answered, per pool worker.
  static constexpr size_t kWindowPerWorker = 4;

  /// Writes one response line, newline included; returns false once
  /// the consumer is gone, after which responses are dropped. Called
  /// one line at a time, in input order.
  using Emit = std::function<bool(const std::string& line)>;

  /// `service` and `pool` must outlive the pipeline.
  RequestPipeline(JsonlService* service, ThreadPool* pool, Emit emit);
  /// Waits until every admitted line is answered.
  ~RequestPipeline();

  RequestPipeline(const RequestPipeline&) = delete;
  RequestPipeline& operator=(const RequestPipeline&) = delete;

  /// Frames `size` received bytes, scanning only these, and admits
  /// each complete line, blocking while the window is full.
  void Feed(const char* data, size_t size);

  /// End of input: serves a final unterminated line, then blocks until
  /// every admitted line is answered.
  void Finish();

 private:
  /// Admits one line (blank ones are skipped) and runs it on the pool.
  void Serve(std::string line);
  /// Answers the line being received, which outgrew kMaxLineBytes.
  void RejectOverlong();
  /// Blocks until the window has room; returns the line's sequence.
  size_t Admit();
  /// Records response `seq`, then emits every response now next in
  /// input order.
  void Complete(size_t seq, std::string response);
  void AwaitAnswered();

  JsonlService* const service_;
  ThreadPool* const pool_;
  const Emit emit_;
  const size_t window_;
  JsonlService::Context context_;

  // Framing state, touched only by the thread that owns the stream.
  std::string partial_;      ///< bytes of the line being received
  bool discarding_ = false;  ///< dropping an overlong line's bytes

  std::mutex mutex_;  ///< guards the members below
  std::condition_variable answered_;  ///< signaled as responses leave
  size_t admitted_ = 0;  ///< lines admitted; the next line's sequence
  size_t emitted_ = 0;   ///< lines answered, in input order
  std::map<size_t, std::string> held_;  ///< done, awaiting predecessors
  bool consumer_gone_ = false;          ///< emit failed once
};

/// Serves `in` to `out` as one stream on a pool of `workers` threads
/// (0 means hardware concurrency) until EOF and every line is
/// answered. Each response is flushed, so a pipe can drive the loop
/// interactively.
void ServeStream(JsonlService* service, std::istream& in, std::ostream& out,
                 int workers);

}  // namespace fairtopk

#endif  // FAIRTOPK_SERVICE_REQUEST_PIPELINE_H_
