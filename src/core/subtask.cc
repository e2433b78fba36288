#include "core/subtask.h"

#include "core/bounds.h"

namespace kplex {
namespace {

class SubtaskEnumerator {
 public:
  SubtaskEnumerator(const SeedGraph& sg, const EnumOptions& options,
                    AlgoCounters& counters, const TaskConsumer& consume)
      : sg_(sg), options_(options), counters_(counters), consume_(consume),
        saturated_(sg.universe) {}

  void Run() {
    // C = N1; X = N2 and the fringe, which are adjacent ranges; S grows
    // from N2.
    const uint32_t n1_end = 1 + sg_.num_n1;
    TaskState base = TaskState::MakeEmpty(sg_);
    base.AddToP(sg_, SeedGraph::kSeed);
    base.c.SetRange(1, n1_end);
    base.x.SetRange(n1_end, sg_.universe);
    DynamicBitset ext(sg_.universe);
    ext.SetRange(n1_end, sg_.num_vi);
    Recurse(base, ext, /*s_size=*/0);
  }

 private:
  void EmitSubtask(const TaskState& state) {
    ++counters_.subtasks;
    if (options_.use_subtask_bound_r1) {
      if (UbSubtask(sg_, state, options_.k, bound_scratch_) < options_.q) {
        ++counters_.subtasks_pruned_r1;
        return;
      }
    }
    TaskState task = state;
    consume_(std::move(task));
  }

  // `state` has P = {v_i} ∪ S (a valid k-plex), C and X already filtered
  // through the pair matrix rows of every S member. `ext` holds the N²
  // vertices that may still extend S (pair-compatible, id > last added).
  void Recurse(TaskState& state, const DynamicBitset& ext,
               uint32_t s_size) {
    EmitSubtask(state);
    if (s_size + 1 >= options_.k) return;  // |S| <= k - 1

    for (std::size_t u = ext.FindFirst(); u != DynamicBitset::kNpos;
         u = ext.FindNext(u + 1)) {
      // {v_i} ∪ S ∪ {u} must itself be a k-plex (hereditariness kills
      // the whole subtree otherwise). The saturation mask of the current
      // P is recomputed lazily because recursion below clobbers it.
      state.Saturated(options_.k, saturated_.data());
      if (!state.CanAdd(sg_, saturated_.data(), static_cast<uint32_t>(u),
                        options_.k)) {
        continue;
      }
      TaskState child = state;
      child.x.Reset(u);
      child.AddToP(sg_, static_cast<uint32_t>(u));
      DynamicBitset child_ext = ext;
      child_ext.ResetBelow(u + 1);
      if (sg_.pairs.has_value()) {
        const BitSpan allowed = sg_.pairs->Row(static_cast<uint32_t>(u));
        child.c.AndWith(allowed);   // Theorem 5.14
        child.x.AndWith(allowed);   // dropped pairs cannot extend results
        child_ext.AndWith(allowed); // Theorem 5.13
      }
      Recurse(child, child_ext, s_size + 1);
    }
  }

  const SeedGraph& sg_;
  const EnumOptions& options_;
  AlgoCounters& counters_;
  const TaskConsumer& consume_;
  DynamicBitset saturated_;
  BoundScratch bound_scratch_;
};

}  // namespace

void EnumerateSubtasks(const SeedGraph& sg, const EnumOptions& options,
                       AlgoCounters& counters, const TaskConsumer& consume) {
  SubtaskEnumerator(sg, options, counters, consume).Run();
}

void EnumerateWholeSeed(const SeedGraph& sg, const EnumOptions&,
                        AlgoCounters&, const TaskConsumer& consume) {
  TaskState task = TaskState::MakeEmpty(sg);
  task.AddToP(sg, SeedGraph::kSeed);
  task.c.SetRange(1, sg.num_vi);
  task.x.SetRange(sg.num_vi, sg.universe);
  consume(std::move(task));
}

}  // namespace kplex
