// Fragment-to-group assignment. The paper divides the machine into Ng
// processor groups of Np cores and assigns fragments to groups; balanced
// assignment is what keeps PEtot_F's parallel efficiency near-perfect
// (Sec. VI: 95.8% for PEtot_F at 17,280 cores). We implement the classic
// longest-processing-time (LPT) greedy heuristic, used both by the real
// threaded executor and by the performance simulator.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace ls3df {

// == Lane donation protocol ==
//
// The LPT assignment above fixes *which* group solves each batch, but the
// paper's near-perfect PEtot_F efficiency also depends on lanes never
// idling at the makespan tail. With a fixed `inner = n_workers / n_groups`
// split, lanes freed when a short group (or a retired chain node) finishes
// sit idle while the longest batches grind on at their original width.
// LaneBudget makes the inner-lane count *live*:
//
//   reset(total, holders)   arm the budget for one dispatch round: `total`
//                           pool lanes shared by `holders` concurrent
//                           batch/group holders.
//   allowance()             lanes a still-running holder may use *right
//                           now* = max(1, total / min(live, total)) — the
//                           same quotient as the fixed split while every
//                           holder is live, widening as holders retire.
//   retire(holder)          idempotent: the holder's solve retired (patch
//                           committed / batch left the lockstep); its
//                           lanes are donated back to the survivors. Each
//                           retire that leaves live holders behind counts
//                           one donation event.
//
// Batched kernels re-read allowance() at every sweep boundary (each
// apply_batched / gemm_batched / per-member fan-out inside the
// lockstep Davidson driver — see dft/eigensolver.h), so tail solves widen
// mid-flight. The engine's determinism contract (thread_pool.h) makes the
// worker count arithmetically invisible, so donation is bit-identical to
// the fixed split for any retirement order; with total == 1 the allowance
// is pinned at 1 and donation is a structural no-op. All state is atomic:
// retiring chains and sweeping readers never take a lock.
class LaneBudget {
 public:
  // Arm the budget: `total_lanes` pool lanes (>= 1 after clamping) shared
  // by `n_holders` holders, all initially live. Must not race with
  // allowance()/retire() — call between dispatch rounds.
  void reset(int total_lanes, int n_holders);

  // Lanes a live holder may use right now. Never less than 1, never more
  // than the total; equals the fixed LPT split until a holder retires.
  int allowance() const;

  // Donate `holder`'s lanes back. Idempotent; out-of-range ids ignored.
  void retire(int holder);

  int live() const { return live_.load(std::memory_order_relaxed); }
  int total() const { return total_; }
  // Cumulative count of retirements that left live holders to widen
  // (never cleared by reset — a per-solve probe diffs it).
  long donation_events() const {
    return donations_.load(std::memory_order_relaxed);
  }

 private:
  int total_ = 1;
  int n_holders_ = 0;
  int capacity_ = 0;
  std::atomic<int> live_{0};
  std::atomic<long> donations_{0};
  std::unique_ptr<std::atomic<bool>[]> retired_;
};

// == Cross-job lane sharing (the SolverService layer) ==
//
// LaneBudget splits one dispatch round's lanes across a FIXED holder set;
// a service splits the machine's lanes across jobs that join and leave at
// arbitrary times. SharedLaneBudget is the dynamic sibling: each running
// job is one live holder, allowance(cap) is the even split of the total
// clamped by the job's own max_lanes cap, and a finishing job's leave()
// donates its lanes to the survivors — which pick them up at their next
// allowance() read (the solver re-reads it at every outer-iteration
// boundary via Ls3dfOptions::lane_allowance, and per sweep through its
// own LaneBudget). Execution width is arithmetically
// invisible (thread_pool.h determinism contract), so the split schedule
// can never change a bit of any job's result. All state is atomic:
// join/leave/allowance never take a lock.
class SharedLaneBudget {
 public:
  explicit SharedLaneBudget(int total_lanes = 1) {
    total_.store(total_lanes < 1 ? 1 : total_lanes,
                 std::memory_order_relaxed);
  }

  // Resize the pool (quiescent only — between jobs, not mid-read).
  void set_total(int total_lanes) {
    total_.store(total_lanes < 1 ? 1 : total_lanes,
                 std::memory_order_relaxed);
  }
  int total() const { return total_.load(std::memory_order_relaxed); }

  // A job starts running: one more live holder.
  void join() { live_.fetch_add(1, std::memory_order_acq_rel); }

  // A running job finished: its lanes flow to the survivors. Counts one
  // donation event when any survive.
  void leave();

  int live() const { return live_.load(std::memory_order_relaxed); }

  // Lanes a live holder may use right now: the even split of the total
  // over the live holders, clamped to [1, min(cap, total)].
  int allowance(int cap) const;

  // Cumulative count of leaves that had live survivors to widen.
  long donation_events() const {
    return donations_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int> total_{1};
  std::atomic<int> live_{0};
  std::atomic<long> donations_{0};
};

struct GroupAssignment {
  // group_of[f] = group index of fragment f.
  std::vector<int> group_of;
  // Total cost per group.
  std::vector<double> group_cost;
  double max_cost = 0;   // makespan
  double total_cost = 0;
  // Load balance efficiency: total / (groups * makespan). 1.0 = perfect.
  double efficiency = 0;
};

// Assign fragments with the given costs to n_groups groups, minimizing the
// makespan greedily (LPT: sort descending, place on least-loaded group).
GroupAssignment assign_fragments(const std::vector<double>& costs,
                                 int n_groups);

// A batch of same-size-class fragments: the schedulable unit of the
// batched PEtot_F path. Every member shares the (ng, nb) shape class, so
// one fused Hamiltonian application / GEMM sweep serves all of them.
struct FragmentBatch {
  int size_class = 0;
  std::vector<int> members;  // ascending fragment indices
  double cost = 0;           // sum of member costs (set by the scheduler
                             // from the current fragment costs)
};

// Chunk each size class's fragments into batches of at most `width`
// members, preserving ascending fragment order within a class. class_of
// is any labeling where equal labels mean identical solve shapes.
// Deterministic: batch composition depends only on class_of and width,
// so batches — and their persistent workspaces — are stable across outer
// SCF iterations even as measured costs drift; each dispatch fills
// FragmentBatch::cost from the costs current at that moment. Batches are
// ordered by their first member's index.
std::vector<FragmentBatch> make_batches(const std::vector<int>& class_of,
                                        int width);

// LPT over batches (the batch is the schedulable unit; its cost is the
// sum of member costs). `batches` holds the batch-level assignment;
// fragment_group_of flattens it back to per-fragment groups for
// introspection and the patching phases.
struct BatchAssignment {
  GroupAssignment batches;
  std::vector<int> fragment_group_of;
};
BatchAssignment assign_batches(const std::vector<FragmentBatch>& batches,
                               int n_fragments, int n_groups);

}  // namespace ls3df
