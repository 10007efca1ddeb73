#include "service/request_pipeline.h"

#include <chrono>
#include <cstring>
#include <istream>
#include <ostream>
#include <string_view>
#include <utility>

#include "common/metrics/metrics.h"

namespace fairtopk {

namespace {

bool IsBlank(std::string_view line) {
  for (char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

/// Process-global pipeline metrics, resolved once; they sum over every
/// stream, stdin and TCP alike.
struct PipelineMetrics {
  metrics::Gauge& reorder_depth;
  metrics::Counter& backpressure_stalls;

  static PipelineMetrics& Get() {
    static PipelineMetrics* m = [] {
      auto& registry = metrics::MetricsRegistry::Global();
      return new PipelineMetrics{
          registry
              .GaugeFamily("fairtopk_reorder_buffer_depth",
                           "Completed responses held for in-order emission "
                           "across all streams")
              .With({}),
          registry
              .CounterFamily("fairtopk_backpressure_stalls_total",
                             "Times a stream's reader blocked on the "
                             "admission window")
              .With({})};
    }();
    return *m;
  }
};

}  // namespace

RequestPipeline::RequestPipeline(JsonlService* service, ThreadPool* pool,
                                 Emit emit)
    : service_(service),
      pool_(pool),
      emit_(std::move(emit)),
      window_(kWindowPerWorker * static_cast<size_t>(pool->num_threads())) {
  // Registers both series, so a scrape shows them before any stall.
  if (metrics::Enabled()) PipelineMetrics::Get();
}

RequestPipeline::~RequestPipeline() { AwaitAnswered(); }

void RequestPipeline::Feed(const char* data, size_t size) {
  while (size > 0) {
    const char* newline =
        static_cast<const char*>(std::memchr(data, '\n', size));
    const size_t take =
        newline != nullptr ? static_cast<size_t>(newline - data) : size;
    if (discarding_) {
      // Still inside an overlong line that was already answered.
    } else if (partial_.size() + take > kMaxLineBytes) {
      std::string().swap(partial_);  // give the buffer back
      RejectOverlong();
      discarding_ = true;
    } else if (newline != nullptr && partial_.empty()) {
      Serve(std::string(data, take));
    } else {
      partial_.append(data, take);
      if (newline != nullptr) {
        Serve(std::move(partial_));
        partial_.clear();
      }
    }
    if (newline == nullptr) return;
    discarding_ = false;
    data = newline + 1;
    size -= take + 1;
  }
}

void RequestPipeline::Finish() {
  // A final unterminated line is still a request.
  if (!discarding_) Serve(std::move(partial_));
  AwaitAnswered();
}

void RequestPipeline::Serve(std::string line) {
  if (IsBlank(line)) return;
  const size_t seq = Admit();
  pool_->Submit([this, seq, admitted = std::chrono::steady_clock::now(),
                 line = std::move(line)] {
    Complete(seq, service_->HandleLine(line, context_, admitted));
  });
}

void RequestPipeline::RejectOverlong() {
  const size_t seq = Admit();
  Complete(seq, service_->RejectLine(Status::ResourceExhausted(
                    "request line exceeds " + std::to_string(kMaxLineBytes) +
                    " bytes; dropped through its newline")));
}

size_t RequestPipeline::Admit() {
  std::unique_lock<std::mutex> lock(mutex_);
  // The window counts the reorder buffer too: one slow early request
  // throttles admission instead of letting `held_` absorb everything
  // the client writes.
  const auto has_room = [this] { return admitted_ - emitted_ < window_; };
  if (!has_room()) {
    if (metrics::Enabled()) PipelineMetrics::Get().backpressure_stalls.Inc();
    answered_.wait(lock, has_room);
  }
  return admitted_++;
}

void RequestPipeline::Complete(size_t seq, std::string response) {
  // `emit_` runs under the lock: responses must leave in sequence
  // order, one at a time.
  std::lock_guard<std::mutex> lock(mutex_);
  if (seq != emitted_) {
    held_.emplace(seq, std::move(response));
    if (metrics::Enabled()) PipelineMetrics::Get().reorder_depth.Inc();
    return;
  }
  const auto send = [this](std::string& line) {
    line.push_back('\n');
    if (!consumer_gone_ && !emit_(line)) consumer_gone_ = true;
    ++emitted_;
  };
  send(response);
  for (auto it = held_.begin(); it != held_.end() && it->first == emitted_;
       it = held_.erase(it)) {
    send(it->second);
    if (metrics::Enabled()) PipelineMetrics::Get().reorder_depth.Dec();
  }
  // Under the lock: the owner may destroy the pipeline as soon as it
  // sees the last response leave.
  answered_.notify_all();
}

void RequestPipeline::AwaitAnswered() {
  std::unique_lock<std::mutex> lock(mutex_);
  answered_.wait(lock, [this] { return emitted_ == admitted_; });
}

void ServeStream(JsonlService* service, std::istream& in, std::ostream& out,
                 int workers) {
  ThreadPool pool(workers);
  RequestPipeline pipeline(service, &pool, [&out](const std::string& line) {
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
    out.flush();
    return out.good();
  });
  char buffer[4096];
  for (;;) {
    // getline stops after one newline, so the reading never runs more
    // than one line ahead of admission. It consumes the newline but
    // stores '\0': put the newline back for the framing.
    in.getline(buffer, sizeof(buffer));
    const size_t size = static_cast<size_t>(in.gcount());
    if (in.good()) buffer[size - 1] = '\n';
    pipeline.Feed(buffer, size);
    if (in.eof() || in.bad()) break;
    in.clear();  // failbit alone: the buffer filled up inside a line
  }
  pipeline.Finish();
}

}  // namespace fairtopk
