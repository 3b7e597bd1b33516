//===----------------------------------------------------------------------===//
///
/// \file
/// Work-stealing thread pool for running independent queries in parallel:
/// the daemon's query workers and the fuzz campaign's --jobs. Each query
/// runs its engines sequentially on the worker that picked it up.
///
/// The pool owns N worker threads, each with its own task deque. A worker
/// pushes and pops its own deque LIFO and steals FIFO from other workers.
/// Tasks are grouped into TaskGroups for fork/join: a thread that waits on
/// a group executes the group's pending tasks itself instead of blocking,
/// so a waiter never deadlocks on pool starvation.
///
/// The pool is deliberately oblivious to what tasks compute: determinism
/// of the callers comes from their merge structure (per-index slots),
/// never from scheduling order.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_SUPPORT_THREADPOOL_H
#define TRACESAFE_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tracesafe {

class ThreadPool {
public:
  class TaskGroup;

  /// Creates a pool with \p Workers threads; 0 means defaultWorkerCount().
  explicit ThreadPool(unsigned Workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned workerCount() const { return static_cast<unsigned>(Queues.size()); }

  /// Worker count used by ThreadPool() and the callers' 0-width default:
  /// the TRACESAFE_WORKERS environment variable when set and positive,
  /// otherwise std::thread::hardware_concurrency().
  static unsigned defaultWorkerCount();

  /// Lazily constructed process-wide pool with defaultWorkerCount()
  /// workers; shared so repeated campaigns do not pay thread creation.
  /// Never destroyed before exit.
  static ThreadPool &shared();

  /// Fork/join scope. Spawned tasks may themselves spawn into the same
  /// group; wait() returns once every task spawned so far has finished.
  /// The destructor waits.
  ///
  /// Exception containment: a task that throws does not unwind the worker
  /// thread (which would std::terminate the process). The group captures
  /// the *first* exception, marks itself faulted, and *drains* the rest —
  /// remaining tasks of a faulted group are popped and retired without
  /// running — so wait() still returns promptly and the pool stays
  /// reusable for the next query. Callers inspect faulted() /
  /// takeException() after wait() and surface the query as
  /// Unknown(EngineFault); wait() itself never throws. A drained (or
  /// partially run) group's results are by construction incomplete and
  /// must be treated as truncated, never as a completed search.
  class TaskGroup {
  public:
    explicit TaskGroup(ThreadPool &Pool) : Pool(Pool) {}
    ~TaskGroup() { wait(); }

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    void spawn(std::function<void()> Fn);
    void wait();

    /// True once any task of this group has thrown.
    bool faulted() const {
      return Faulted.load(std::memory_order_acquire);
    }
    /// The first captured exception (null if none). Clears the fault so
    /// the group is reusable; call after wait().
    std::exception_ptr takeException();

  private:
    friend class ThreadPool;
    void noteException(std::exception_ptr E);

    ThreadPool &Pool;
    std::atomic<uint64_t> Outstanding{0};
    std::mutex DoneM;
    std::condition_variable DoneCv;
    std::atomic<bool> Faulted{false};
    std::mutex ExcM;          ///< guards Exc
    std::exception_ptr Exc;   ///< first task exception
  };

private:
  struct Task {
    std::function<void()> Fn;
    TaskGroup *Group = nullptr;
  };

  struct WorkerQueue {
    std::mutex M;
    std::deque<Task> Q;
  };

  void workerMain(unsigned Index);
  /// Runs (or, for a faulted group, drains) one task with exception
  /// containment, then retires it.
  void runTask(Task &T);
  void push(Task T);
  /// Pops a task: own queue back first (when \p Self is a worker), then
  /// other queues front. \p GroupOnly restricts to tasks of that group.
  bool pop(Task &Out, int Self, TaskGroup *GroupOnly);
  void finish(TaskGroup *Group);

  std::vector<std::unique_ptr<WorkerQueue>> Queues;
  std::vector<std::thread> Workers;
  std::mutex SleepM;
  std::condition_variable SleepCv;
  std::atomic<bool> Stopping{false};
};

} // namespace tracesafe

#endif // TRACESAFE_SUPPORT_THREADPOOL_H
