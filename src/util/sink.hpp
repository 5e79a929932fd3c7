// The result-sink contract every grid runner shares (core sweep, sim
// validation, cell validation, analysis leakage sweep), plus the generic
// sinks each of them needs: a stream-writing base for the format sinks,
// an in-memory collector and a fan-out.
#pragma once

#include <iosfwd>
#include <vector>

namespace tv::util {

/// Consumer of a runner's results.  The runner serializes the calls and
/// makes them strictly in index order — begin(spec), then cell() once per
/// result, then end() — so implementations need no locking and their
/// output is deterministic at any thread count.
template <class Spec, class Item>
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void begin(const Spec& /*spec*/) {}
  virtual void cell(const Item& item) = 0;
  virtual void end() {}
};

/// Base of the format sinks: writes to a stream the caller owns and keeps
/// alive for the sink's lifetime.
template <class Spec, class Item>
class StreamSink : public Sink<Spec, Item> {
 public:
  explicit StreamSink(std::ostream& out) : out_(out) {}

 protected:
  std::ostream& out_;
};

/// In-memory sink for programmatic consumers (benches, tests).
template <class Spec, class Item>
class CollectSink : public Sink<Spec, Item> {
 public:
  void cell(const Item& item) override { results.push_back(item); }
  std::vector<Item> results;
};

/// Fans one result stream out to several sinks; the runner still sees a
/// single sink and keeps its in-order delivery.
template <class Spec, class Item>
class TeeSink : public Sink<Spec, Item> {
 public:
  /// Ignores nullptr, so optional sinks can be added unconditionally.
  void add(Sink<Spec, Item>* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }
  void begin(const Spec& spec) override {
    for (auto* s : sinks_) s->begin(spec);
  }
  void cell(const Item& item) override {
    for (auto* s : sinks_) s->cell(item);
  }
  void end() override {
    for (auto* s : sinks_) s->end();
  }

 private:
  std::vector<Sink<Spec, Item>*> sinks_;
};

}  // namespace tv::util
