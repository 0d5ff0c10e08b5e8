#include "core/async_executor.h"

#include <stdexcept>
#include <utility>

#include "obs/trace.h"

namespace autodml::core {

AsyncEvalExecutor::AsyncEvalExecutor(std::size_t workers, bool serialize_runs)
    : serialize_runs_(serialize_runs),
      pool_(std::make_unique<util::ThreadPool>(workers < 1 ? 1 : workers)) {}

AsyncEvalExecutor::~AsyncEvalExecutor() {
  // ~ThreadPool drains the queue; every submitted task runs to completion
  // (the start gate only ever waits on tickets that are running or done, so
  // the drain cannot deadlock). It must run here, not as a member
  // destructor: the tasks use mu_ and cv_, which are declared after pool_
  // and so destroyed before it. Uncollected results are discarded — the
  // caller abandoning mid-pipeline is an exception path.
  pool_.reset();
  results_.clear();
}

void AsyncEvalExecutor::submit(std::function<Trial()> run) {
  const std::size_t ticket = next_ticket_;
  ++next_ticket_;
  results_.push_back(pool_->submit([this, ticket, run = std::move(run)] {
    {
      util::MutexLock lock(mu_);
      while (next_to_start_ != ticket) cv_.wait(mu_);
      if (!serialize_runs_) {
        // Start order enforced, completion free to race: release the next
        // ticket before running.
        ++next_to_start_;
      }
    }
    if (!serialize_runs_) {
      cv_.notify_all();
      ADML_SPAN("tuner.async_eval");
      return run();
    }
    // Serialized mode: hold the ticket through the run, so evaluation
    // i+1 cannot touch the (non-thread-safe) objective until i is done.
    // The ticket must advance even if the objective throws, or the drain
    // in ~ThreadPool would deadlock behind the dead ticket.
    const auto release = [this] {
      {
        util::MutexLock lock(mu_);
        ++next_to_start_;
      }
      cv_.notify_all();
    };
    try {
      ADML_SPAN("tuner.async_eval");
      Trial trial = run();
      release();
      return trial;
    } catch (...) {
      release();
      throw;
    }
  }));
}

Trial AsyncEvalExecutor::next_result() {
  if (results_.empty()) {
    throw std::logic_error(
        "AsyncEvalExecutor::next_result: nothing in flight");
  }
  std::future<Trial> front = std::move(results_.front());
  results_.pop_front();
  ADML_SPAN("tuner.async_wait");
  return front.get();
}

}  // namespace autodml::core
