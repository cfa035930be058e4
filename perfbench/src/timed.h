// Forwarding adapters that time calls into one layer's public interface.
//
// The traced run puts these between the benchmark and the library: each
// forwards every call unchanged to the object it wraps and adds the
// call's duration to a Span. They hold no state of their own that could
// reach an output, so a traced op produces the same bytes as an untraced
// one; the main loop checks that on every traced op.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>

#include "campaign/campaign.h"
#include "harness.h"
#include "measure/sinks.h"
#include "signal/stream.h"
#include "util/serde.h"

namespace perfbench {

/// A SampleSource whose read() is timed (the `signal` layer).
class TimedSource final : public gdelay::sig::SampleSource {
 public:
  TimedSource(gdelay::sig::SampleSource& inner, Span& span)
      : inner_(inner), span_(span) {}
  double t0_ps() const override { return inner_.t0_ps(); }
  double dt_ps() const override { return inner_.dt_ps(); }
  std::size_t size() const override { return inner_.size(); }
  void rewind() override { inner_.rewind(); }
  std::size_t read(double* dst, std::size_t max_n) override {
    ScopedSpan s(span_);
    return inner_.read(dst, max_n);
  }

 private:
  gdelay::sig::SampleSource& inner_;
  Span& span_;
};

/// A Pipeline stage around a borrowed element; process_block() is timed.
template <typename T>
class TimedStage {
 public:
  TimedStage(T& inner, Span& span) : inner_(inner), span_(span) {}
  void reset() { inner_.reset(); }
  void process_block(const double* in, double* out, std::size_t n,
                     double dt_ps) {
    ScopedSpan s(span_);
    inner_.process_block(in, out, n, dt_ps);
  }

 private:
  T& inner_;
  Span& span_;
};

/// An ISampleSink whose begin/consume/finish are timed (the `measure`
/// layer).
class TimedSink final : public gdelay::meas::ISampleSink {
 public:
  TimedSink(gdelay::meas::ISampleSink& inner, Span& span)
      : inner_(inner), span_(span) {}
  void begin(double t0_ps, double dt_ps, std::size_t total_n) override {
    ScopedSpan s(span_);
    inner_.begin(t0_ps, dt_ps, total_n);
  }
  void consume(const double* samples, std::size_t n) override {
    ScopedSpan s(span_);
    inner_.consume(samples, n);
  }
  void finish() override {
    ScopedSpan s(span_);
    inner_.finish();
  }

 private:
  gdelay::meas::ISampleSink& inner_;
  Span& span_;
};

/// Spans of the campaign accumulator interface. Shards save and load
/// their accumulators from pool threads, so every update takes the lock.
struct AccumulatorSpans {
  std::mutex mu;
  Span save, load, merge;
  double saved_bytes = 0.0;
  void add(Span& span, double ns, double bytes = 0.0) {
    std::lock_guard<std::mutex> lk(mu);
    span.add(ns);
    saved_bytes += bytes;
  }
};

/// An IAccumulator around a RecordAccumulator; save/load/merge_from are
/// timed and the serialized bytes counted (the `campaign` checkpoint
/// path).
class TimedAccumulator final : public gdelay::campaign::IAccumulator {
 public:
  TimedAccumulator(std::size_t width, AccumulatorSpans& spans)
      : inner_(width), spans_(&spans) {}
  gdelay::campaign::RecordAccumulator& records() { return inner_; }
  const gdelay::campaign::RecordAccumulator& records() const {
    return inner_;
  }

  void save(gdelay::util::ByteWriter& w) const override {
    const std::size_t before = w.bytes().size();
    const auto t0 = Clock::now();
    inner_.save(w);
    spans_->add(spans_->save, ns_between(t0, Clock::now()),
                static_cast<double>(w.bytes().size() - before));
  }
  void load(gdelay::util::ByteReader& r) override {
    const auto t0 = Clock::now();
    inner_.load(r);
    spans_->add(spans_->load, ns_between(t0, Clock::now()));
  }
  void merge_from(const gdelay::campaign::IAccumulator& other) override {
    const auto& o = static_cast<const TimedAccumulator&>(other).inner_;
    const auto t0 = Clock::now();
    inner_.merge_from(o);
    spans_->add(spans_->merge, ns_between(t0, Clock::now()));
  }

 private:
  gdelay::campaign::RecordAccumulator inner_;
  AccumulatorSpans* spans_;
};

}  // namespace perfbench
