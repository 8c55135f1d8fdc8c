#include "runtime/transport/inproc.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <string>
#include <utility>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace aces::runtime::transport {

namespace {

/// One direction of the pipe: the encoded sends in FIFO order, each one or
/// more whole frames, plus a closed latch. The consumer splits each send
/// with wire::frame_extent, as the socket backend splits its stream, so
/// the in-process backend cannot silently diverge from the socket one.
struct FrameQueue {
  Mutex mu;
  std::condition_variable_any cv;
  std::deque<std::vector<std::uint8_t>> frames ACES_GUARDED_BY(mu);
  bool closed ACES_GUARDED_BY(mu) = false;
};

class InprocEndpoint final : public Endpoint {
 public:
  InprocEndpoint(std::shared_ptr<FrameQueue> tx, std::shared_ptr<FrameQueue> rx)
      : tx_(std::move(tx)), rx_(std::move(rx)) {}

  ~InprocEndpoint() override { close(); }

  bool send(std::vector<std::uint8_t> frame) override {
    {
      MutexLock lock(tx_->mu);
      if (tx_->closed) return false;
      tx_->frames.push_back(std::move(frame));
    }
    tx_->cv.notify_one();
    return true;
  }

  RecvStatus recv(wire::Frame* out, int timeout_ms) override {
    if (at_ == held_.size()) {
      // Explicit wait loop (not wait_for(pred)): the thread-safety
      // analysis cannot see through predicate lambdas — same idiom as
      // runtime/channel.h.
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(timeout_ms < 0 ? 0
                                                                     : timeout_ms);
      MutexLock lock(rx_->mu);
      while (rx_->frames.empty() && !rx_->closed) {
        if (timeout_ms < 0) {
          rx_->cv.wait(rx_->mu);
        } else if (rx_->cv.wait_until(rx_->mu, deadline) ==
                   std::cv_status::timeout) {
          if (!rx_->frames.empty() || rx_->closed) break;
          return RecvStatus::kTimeout;
        }
      }
      if (rx_->frames.empty()) return RecvStatus::kClosed;
      held_ = std::move(rx_->frames.front());
      rx_->frames.pop_front();
      at_ = 0;
    }
    return next_frame(out);
  }

  void close() override {
    for (FrameQueue* q : {tx_.get(), rx_.get()}) {
      {
        MutexLock lock(q->mu);
        q->closed = true;
      }
      q->cv.notify_all();
    }
  }

  [[nodiscard]] std::string_view last_error() const override {
    return last_error_;
  }

 private:
  /// Splits the frame at held_[at_] off the send it came in. A send that
  /// is one frame moves into `out` whole; a frame of a multi-frame send
  /// copies only its own payload. A send must end on a frame boundary.
  RecvStatus next_frame(wire::Frame* out) {
    const std::size_t left = held_.size() - at_;
    wire::WireError error;
    const auto extent = wire::frame_extent(held_.data() + at_, left, &error);
    if (!extent.has_value()) {
      last_error_ = error.reason;
      at_ = held_.size();
      return RecvStatus::kError;
    }
    if (extent->bytes > left) {
      last_error_ = "send ends mid-frame";
      at_ = held_.size();
      return RecvStatus::kError;
    }
    out->type = extent->type;
    if (at_ == 0 && extent->bytes == left) {
      held_.erase(held_.begin(), held_.begin() + wire::kHeaderBytes);
      out->payload = std::move(held_);
      held_.clear();
      return RecvStatus::kOk;
    }
    const std::uint8_t* front = held_.data() + at_;
    out->payload.assign(front + wire::kHeaderBytes, front + extent->bytes);
    at_ += extent->bytes;
    return RecvStatus::kOk;
  }

  std::shared_ptr<FrameQueue> tx_;
  std::shared_ptr<FrameQueue> rx_;
  /// The send being split (consumer side only): frames before at_ are
  /// returned. Empty once fully split.
  std::vector<std::uint8_t> held_;
  std::size_t at_ = 0;
  std::string last_error_;
};

/// The connections made to one listener and not yet accepted.
struct Backlog {
  Mutex mu;
  std::condition_variable_any cv;
  std::deque<std::unique_ptr<Endpoint>> pending ACES_GUARDED_BY(mu);
  bool closed ACES_GUARDED_BY(mu) = false;
};

/// Every live in-process listener, by name.
struct Registry {
  Mutex mu;
  std::map<std::string, std::shared_ptr<Backlog>> listeners ACES_GUARDED_BY(mu);
  std::uint64_t next_name ACES_GUARDED_BY(mu) = 0;
};

Registry& registry() {
  static Registry r;
  return r;
}

class InprocListener final : public Listener {
 public:
  InprocListener(std::string name, std::shared_ptr<Backlog> backlog)
      : name_(std::move(name)), backlog_(std::move(backlog)) {}

  ~InprocListener() override {
    Registry& r = registry();
    {
      MutexLock lock(r.mu);
      r.listeners.erase(name_);
    }
    // Connections never accepted close here, outside the lock: their
    // connectors see kClosed.
    std::deque<std::unique_ptr<Endpoint>> unaccepted;
    {
      MutexLock lock(backlog_->mu);
      backlog_->closed = true;
      unaccepted.swap(backlog_->pending);
    }
    backlog_->cv.notify_all();
  }

  std::unique_ptr<Endpoint> accept(int timeout_ms) override {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(std::max(0, timeout_ms));
    MutexLock lock(backlog_->mu);
    while (backlog_->pending.empty() && !backlog_->closed) {
      if (backlog_->cv.wait_until(backlog_->mu, deadline) ==
          std::cv_status::timeout) {
        break;
      }
    }
    if (backlog_->pending.empty()) return nullptr;
    std::unique_ptr<Endpoint> ep = std::move(backlog_->pending.front());
    backlog_->pending.pop_front();
    return ep;
  }

  [[nodiscard]] std::string address() const override { return name_; }

 private:
  std::string name_;
  std::shared_ptr<Backlog> backlog_;
};

}  // namespace

std::pair<std::unique_ptr<Endpoint>, std::unique_ptr<Endpoint>>
make_inproc_pair() {
  auto a_to_b = std::make_shared<FrameQueue>();
  auto b_to_a = std::make_shared<FrameQueue>();
  return {std::make_unique<InprocEndpoint>(a_to_b, b_to_a),
          std::make_unique<InprocEndpoint>(b_to_a, a_to_b)};
}

std::unique_ptr<Listener> listen_inproc() {
  auto backlog = std::make_shared<Backlog>();
  Registry& r = registry();
  std::string name;
  {
    MutexLock lock(r.mu);
    name = "inproc-" + std::to_string(r.next_name++);
    r.listeners.emplace(name, backlog);
  }
  return std::make_unique<InprocListener>(std::move(name), std::move(backlog));
}

std::unique_ptr<Endpoint> connect_inproc(const std::string& name,
                                         std::string* error) {
  std::shared_ptr<Backlog> backlog;
  Registry& r = registry();
  {
    MutexLock lock(r.mu);
    const auto it = r.listeners.find(name);
    if (it != r.listeners.end()) backlog = it->second;
  }
  auto [mine, theirs] = make_inproc_pair();
  if (backlog != nullptr) {
    MutexLock lock(backlog->mu);
    if (!backlog->closed) {
      backlog->pending.push_back(std::move(theirs));
    }
  }
  if (theirs != nullptr) {
    if (error != nullptr) *error = "no in-process listener named " + name;
    return nullptr;
  }
  backlog->cv.notify_one();
  return std::move(mine);
}

}  // namespace aces::runtime::transport
