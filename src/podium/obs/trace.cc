#include "podium/obs/trace.h"

#include <utility>

#include "podium/telemetry/telemetry.h"

namespace podium::obs {

namespace {

thread_local TraceContext* t_current_trace = nullptr;

/// `name`'s histogram (default latency bounds) while telemetry is
/// enabled, else null.
telemetry::Histogram* SpanHistogram(std::string_view name) {
  if (!telemetry::Enabled()) return nullptr;
  return &telemetry::MetricsRegistry::Global().histogram(
      telemetry::SpanMetricName(name));
}

}  // namespace

TraceContext::TraceContext(TraceId id)
    : id_(id), start_(std::chrono::steady_clock::now()) {}

int TraceContext::BeginSpan(std::string_view name) {
  TraceSpan span;
  span.name = std::string(name);
  span.parent = open_stack_.empty() ? -1 : open_stack_.back();
  span.start_seconds = ElapsedSeconds();
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  open_stack_.push_back(index);
  return index;
}

void TraceContext::EndSpan(int index) {
  if (index < 0 || index >= static_cast<int>(spans_.size())) return;
  TraceSpan& span = spans_[static_cast<std::size_t>(index)];
  span.duration_seconds = ElapsedSeconds() - span.start_seconds;
  // Pop through any unclosed children so a missed EndSpan cannot wedge
  // the open stack for the rest of the request.
  while (!open_stack_.empty() && open_stack_.back() >= index) {
    open_stack_.pop_back();
  }
}

int TraceContext::AddCompletedSpan(std::string_view name,
                                   double start_seconds,
                                   double duration_seconds) {
  TraceSpan span;
  span.name = std::string(name);
  span.parent = open_stack_.empty() ? -1 : open_stack_.back();
  span.start_seconds = start_seconds;
  span.duration_seconds = duration_seconds;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  return index;
}

void TraceContext::SetAttribute(int index, std::string_view key,
                                double value) {
  if (index < 0 || index >= static_cast<int>(spans_.size())) return;
  spans_[static_cast<std::size_t>(index)].attributes.push_back(
      SpanAttribute{std::string(key), value});
}

double TraceContext::ElapsedSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

TraceContext* CurrentTrace() { return t_current_trace; }

TraceScope::TraceScope(TraceContext* context) : previous_(t_current_trace) {
  t_current_trace = context;
}

TraceScope::~TraceScope() { t_current_trace = previous_; }

Span::Span(std::string_view name)
    : trace_(t_current_trace),
      histogram_(SpanHistogram(name)),
      start_(std::chrono::steady_clock::now()) {
  if (trace_ != nullptr) index_ = trace_->BeginSpan(name);
}

Span::~Span() {
  if (histogram_ != nullptr) histogram_->Observe(ElapsedSeconds());
  if (trace_ != nullptr) trace_->EndSpan(index_);
}

void Span::SetAttribute(std::string_view key, double value) {
  if (trace_ != nullptr) trace_->SetAttribute(index_, key, value);
}

double Span::ElapsedSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void RecordSpan(std::string_view name, double start_seconds,
                double duration_seconds, SpanAttributes attributes) {
  if (telemetry::Histogram* histogram = SpanHistogram(name)) {
    histogram->Observe(duration_seconds);
  }
  TraceContext* trace = t_current_trace;
  if (trace == nullptr) return;
  const int index =
      trace->AddCompletedSpan(name, start_seconds, duration_seconds);
  for (const auto& [key, value] : attributes) {
    trace->SetAttribute(index, key, value);
  }
}

}  // namespace podium::obs
