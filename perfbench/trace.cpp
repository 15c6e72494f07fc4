#include "trace.h"

#include <cstdio>

namespace pb {

double now_us() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) : tracer_(&tracer) {
  if (!tracer.enabled_) return;
  Span span;
  span.id = static_cast<std::int64_t>(tracer.spans_.size());
  span.parent = tracer.open_.empty() ? -1 : tracer.open_.back();
  span.op = tracer.op_;
  span.name = name;
  span.start_us = now_us();
  index_ = span.id;
  tracer.spans_.push_back(std::move(span));
  tracer.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_us = now_us();
  tracer_->open_.pop_back();
}

double Tracer::Scope::elapsed_us() const {
  if (index_ < 0) return 0.0;
  return now_us() - tracer_->spans_[static_cast<std::size_t>(index_)].start_us;
}

void Tracer::record(const char* name, double start_us, double end_us) {
  if (!enabled_) return;
  Span span;
  span.id = static_cast<std::int64_t>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  span.name = name;
  span.start_us = start_us;
  span.end_us = end_us;
  spans_.push_back(std::move(span));
}

bool Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return false;
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"id\":%lld,\"parent\":%lld,\"op\":%llu,\"name\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.name.c_str(), s.start_us,
                 s.end_us);
  }
  return std::fclose(out) == 0;
}

}  // namespace pb
