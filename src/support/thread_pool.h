// A fixed-size FIFO thread pool for running independent experiment cells.
//
// Deliberately work-stealing-free: tasks are dispatched from a single queue
// in submission order, so with one worker the execution order is exactly the
// submission order. Determinism of results never depends on the pool anyway —
// each task must own its state and RNG streams — but a predictable dispatch
// order keeps logs and failures reproducible.
#ifndef SRC_SUPPORT_THREAD_POOL_H_
#define SRC_SUPPORT_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace diablo {

class ThreadPool {
 public:
  // Spawns `threads` workers (clamped to at least 1).
  explicit ThreadPool(int threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Drains every pending task, then joins the workers.
  ~ThreadPool();

  // Enqueues `task`; the future reports completion and rethrows any
  // exception the task raised.
  std::future<void> Submit(std::function<void()> task);

  // std::thread::hardware_concurrency with a sane floor of 1.
  static int HardwareConcurrency();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::packaged_task<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace diablo

#endif  // SRC_SUPPORT_THREAD_POOL_H_
