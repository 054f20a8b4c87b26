#include "parallel/task_graph.h"

#include <atomic>
#include <cassert>
#include <exception>
#include <mutex>
#include <utility>

#include "common/timer.h"

namespace ls3df {

int TaskGraph::add(std::function<void()> fn, const std::vector<int>& deps) {
  const int id = static_cast<int>(tasks_.size());
  tasks_.push_back(Node{std::move(fn), {}, 0});
  for (int d : deps) {
    assert(d >= 0 && d < id);
    tasks_[d].dependents.push_back(id);
    ++tasks_[id].n_deps;
  }
  return id;
}

void TaskGraph::set_task_observer(
    std::function<void(int, double, double)> observer) {
  observer_ = std::move(observer);
}

void TaskGraph::run(ThreadPool& pool, int max_lanes) {
  const int n = size();
  if (n == 0) return;
  const int lanes = max_lanes > 0 ? max_lanes : pool.thread_count() + 1;

  // All scheduling state lives on the runner's stack; tasks posted to
  // the pool hold references into it. run() returns only once every
  // posted task has retired (inflight == 0), so nothing dangles — even
  // on the failure path, where already-posted tasks run their skip
  // branch before the runner wakes.
  struct RunState {
    std::mutex mu;
    std::vector<int> ready;     // armed, not yet claimed (LIFO stack)
    std::vector<int> deps_left;
    int remaining = 0;          // tasks that have not finished their fn
    int inflight = 0;           // claimed (posted or executing) tasks
    bool abandoned = false;
    std::exception_ptr error;
    std::atomic<bool> finished{false};
  } st;
  st.deps_left.resize(n);
  st.remaining = n;
  for (int i = 0; i < n; ++i) {
    st.deps_left[i] = tasks_[i].n_deps;
    if (st.deps_left[i] == 0) st.ready.push_back(i);
  }
  Timer clock;

  // Claim ready tasks up to the lane cap; returns them for posting
  // outside the lock. Claiming increments inflight, so "queue empty and
  // graph unfinished" implies every claimed task is running on some
  // thread — the invariant that makes help_while's sleep safe.
  // The ready set is a stack: newly armed successors are claimed before
  // older roots, so execution runs depth-first down chains. That bounds
  // the live working set (a chain's intermediates die before the next
  // chain opens) and keeps pipelines interleaved — phase windows overlap
  // even when a single lane serializes the whole graph.
  const auto claim = [&](std::unique_lock<std::mutex>&) {
    std::vector<int> out;
    while (!st.abandoned && st.inflight < lanes && !st.ready.empty()) {
      out.push_back(st.ready.back());
      st.ready.pop_back();
      ++st.inflight;
    }
    return out;
  };

  std::function<void(int)> exec = [&](int id) {
    // Once completion is published below, the runner may return and
    // destroy this closure; nothing may read captures after that point,
    // so take the pool address into a local up front.
    ThreadPool* const pool_ptr = &pool;
    for (;;) {
      bool skip;
      {
        std::unique_lock<std::mutex> lock(st.mu);
        skip = st.abandoned;
      }
      bool ok = false;
      double t0 = 0, t1 = 0;
      if (!skip) {
        t0 = clock.seconds();
        try {
          tasks_[id].fn();
          t1 = clock.seconds();
          ok = true;
        } catch (...) {
          std::unique_lock<std::mutex> lock(st.mu);
          if (!st.error) st.error = std::current_exception();
          st.abandoned = true;
          st.ready.clear();
        }
        if (ok && observer_) observer_(id, t0, t1);
      }
      std::vector<int> to_post;
      bool done;
      {
        std::unique_lock<std::mutex> lock(st.mu);
        --st.inflight;
        if (ok) {
          --st.remaining;
          if (!st.abandoned)
            for (int d : tasks_[id].dependents)
              if (--st.deps_left[d] == 0) st.ready.push_back(d);
        }
        to_post = claim(lock);
        done = st.remaining == 0 || (st.abandoned && st.inflight == 0);
      }
      if (done) {
        // Nothing is claimable once the graph finished, so to_post is
        // empty. Publishing completion is this task's last access to
        // `st`: the runner may return and the next run() rebuild its
        // state at the same address, so the store must come after the
        // lock scope (an unlock after it would touch a dead mutex). Wake
        // the runner after that (wake() takes the pool lock; taking it
        // while holding st.mu would invert the order help_while uses).
        // Locals only.
        st.finished.store(true, std::memory_order_release);
        pool_ptr->wake();
        return;
      }
      if (to_post.empty()) return;
      // Continue on this lane with the top of the ready stack — a
      // chain's successor runs without a queue round trip and the
      // wake-up latency of whichever lane would dequeue it. It stays
      // claimed, so the graph (and this closure) outlive it.
      id = to_post.front();
      for (std::size_t k = 1; k < to_post.size(); ++k) {
        const int next = to_post[k];
        pool_ptr->post([&exec, next]() { exec(next); });
      }
    }
  };

  std::vector<int> first;
  {
    std::unique_lock<std::mutex> lock(st.mu);
    first = claim(lock);
  }
  // Keep one initial task for the runner itself: help_while executes it
  // immediately instead of round-tripping through the queue.
  for (std::size_t i = 1; i < first.size(); ++i) {
    const int next = first[i];
    pool.post([&exec, next]() { exec(next); });
  }
  if (!first.empty()) exec(first[0]);
  pool.help_while(
      [&st]() { return st.finished.load(std::memory_order_acquire); });
  if (st.error) std::rethrow_exception(st.error);
}

}  // namespace ls3df
