// In-memory span recorder for the benchmark's traced runs.
//
// A span is one timed call across a layer boundary: name, start, end, the
// span that caused it (parent) and the operation it belongs to. Spans are
// recorded by the benchmark's own wrappers around the calls into each
// layer, kept in memory, and written as Chrome trace-event JSON at exit.
// Begin/End nest through a stack and are single-threaded; spans of other
// threads (par workers) are added whole with Add after they have joined.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // Index of the causing span, -1 for a root.
  uint32_t tid = 0;     // Host thread lane (0 = the driving thread).
  uint64_t op = 0;      // Operation id; spans of one operation share it.
};

// Summed time of all spans with one name.
struct LayerTime {
  uint64_t calls = 0;
  // Duration minus the part of it covered by same-thread child spans.
  int64_t self_ns = 0;
};

class SpanRecorder {
 public:
  // Opens a span under the innermost open one; returns its index.
  int Begin(const char* name, uint64_t op);
  void End(int index);
  // Adds a finished span (e.g. one par worker's loop).
  int Add(const char* name, int64_t start_ns, int64_t end_ns, int parent, uint32_t tid,
          uint64_t op);

  // Per-name totals and self times. Returns false, and says why on
  // stderr, if any span is unclosed, lies outside its parent, or its
  // same-thread children add up to more than the parent's duration.
  bool Summarize(std::map<std::string, LayerTime>* out) const;

  bool WriteChromeTrace(const std::string& path) const;

  void Clear();

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a no-op when the recorder is null (untraced episodes).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t op)
      : recorder_(recorder), index_(recorder != nullptr ? recorder->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
