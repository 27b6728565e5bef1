#include "perfbench/spans.h"

#include <cstdio>

#include "perfbench/harness.h"

namespace perfbench {

int SpanRecorder::Begin(const char* name, uint64_t op) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  span.start_ns = NowNs();
  spans_.push_back(span);
  int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close in LIFO order (ScopedSpan); tolerate a mismatch by popping
  // down to the closed span so later spans still nest correctly.
  while (!open_.empty()) {
    int top = open_.back();
    open_.pop_back();
    if (top == index) {
      break;
    }
  }
}

int SpanRecorder::Add(const char* name, int64_t start_ns, int64_t end_ns, int parent,
                      uint32_t tid, uint64_t op) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = parent;
  span.tid = tid;
  span.op = op;
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

namespace {

bool SpanCheckFailed(const std::string& what) {
  std::fprintf(stderr, "perfbench: span check failed: %s\n", what.c_str());
  return false;
}

}  // namespace

bool SpanRecorder::Summarize(std::map<std::string, LayerTime>* out) const {
  if (!open_.empty()) {
    return SpanCheckFailed(std::string("span left open: ") +
                           spans_[static_cast<size_t>(open_.back())].name);
  }
  // Same-thread child time per span.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.end_ns < span.start_ns) {
      return SpanCheckFailed(std::string("span ends before it starts: ") + span.name);
    }
    if (span.parent < 0) {
      continue;
    }
    const Span& parent = spans_[static_cast<size_t>(span.parent)];
    if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns) {
      return SpanCheckFailed(std::string("span ") + span.name + " lies outside its parent " +
                             parent.name);
    }
    if (span.tid == parent.tid) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    int64_t duration = span.end_ns - span.start_ns;
    if (child_ns[i] > duration) {
      return SpanCheckFailed(std::string("children of ") + span.name + " exceed its duration");
    }
    LayerTime& layer = (*out)[span.name];
    ++layer.calls;
    layer.self_ns += duration - child_ns[i];
  }
  return true;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) {
    if (span.start_ns < origin) {
      origin = span.start_ns;
    }
  }
  std::fprintf(file, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d,\"op\":%llu}}",
                 i == 0 ? "" : ",", span.name, span.tid,
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3, i, span.parent,
                 static_cast<unsigned long long>(span.op));
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

void SpanRecorder::Clear() {
  spans_.clear();
  open_.clear();
}

}  // namespace perfbench
