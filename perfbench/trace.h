// Span recording for the traced run.
//
// Spans are taken by the benchmark around its own calls into each module's
// public functions (nothing inside src/ is instrumented). They are kept in
// memory and written as JSON lines when the run ends, one span per line:
//
//   {"id":7,"parent":3,"op":12,"name":"platform.upload_bundle",
//    "start_us":1523.25,"end_us":1601.50}
//
// `parent` is -1 for a root. Every operation's root span is named "op";
// stage replays made after an operation hang under a root named "replay"
// with the same op id, so they never count toward the operation's wall
// (nor do spans of the final checks, whose roots have other names). All
// spans are recorded from the driving thread only.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

/// Microseconds on the steady clock since the first call in this process.
double now_us();

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::uint64_t op = 0;
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_op(std::uint64_t op) { op_ = op; }

  /// Opens a span under the innermost open one; closed by the destructor.
  /// A no-op (no clock read) when tracing is off.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Duration so far in microseconds (0 when tracing is off).
    double elapsed_us() const;

   private:
    Tracer* tracer_;
    std::int64_t index_ = -1;
  };

  /// Records a finished span under the innermost open one (used for spans
  /// whose bounds come from callbacks, such as solver epochs).
  void record(const char* name, double start_us, double end_us);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as one JSON line; false when the file cannot be
  /// written.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;  // indices into spans_, innermost last
};

}  // namespace pb
