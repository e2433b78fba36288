#include "core/task_queue.h"

namespace kplex {

void TaskQueue::Push(ParallelTask&& task) {
  std::lock_guard<std::mutex> lock(mutex_);
  tasks_.push_front(std::move(task));
}

bool TaskQueue::TryPop(ParallelTask& out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (tasks_.empty()) return false;
  out = std::move(tasks_.front());
  tasks_.pop_front();
  return true;
}

bool TaskQueue::TrySteal(ParallelTask& out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (tasks_.empty()) return false;
  out = std::move(tasks_.back());
  tasks_.pop_back();
  return true;
}

bool TaskQueue::Empty() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tasks_.empty();
}

std::size_t TaskQueue::Size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tasks_.size();
}

}  // namespace kplex
