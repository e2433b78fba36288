#include "bench_common/harness.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

#include "baselines/fp.h"
#include "baselines/listplex.h"
#include "core/stage_runner.h"
#include "parallel/parallel_enumerator.h"
#include "util/memory.h"

namespace kplex {

AlgoFn MakeSequentialAlgo(const std::string& name, uint32_t k, uint32_t q) {
  if (name == "FP") {
    return [k, q](const Graph& g, ResultSink& sink) {
      return FpEnumerate(g, FpOptions(k, q), sink);
    };
  }
  if (name == "ListPlex") {
    return [k, q](const Graph& g, ResultSink& sink) {
      return ListPlexEnumerate(g, k, q, sink);
    };
  }
  EnumOptions options;
  if (name == "Ours") {
    options = EnumOptions::Ours(k, q);
  } else if (name == "Ours_P") {
    options = EnumOptions::OursP(k, q);
  } else if (name == "Basic") {
    options = EnumOptions::Basic(k, q);
  } else if (name == "Basic+R1") {
    options = EnumOptions::Basic(k, q);
    options.use_subtask_bound_r1 = true;
  } else if (name == "Basic+R2") {
    options = EnumOptions::Basic(k, q);
    options.use_pair_pruning_r2 = true;
  } else if (name == "Ours\\ub") {
    options = EnumOptions::OursNoUb(k, q);
  } else if (name == "Ours\\ub+fp") {
    options = EnumOptions::OursFpUb(k, q);
  } else {
    std::fprintf(stderr, "unknown algorithm variant '%s'\n", name.c_str());
    std::abort();
  }
  return [options](const Graph& g, ResultSink& sink) {
    return EnumerateMaximalKPlexes(g, options, sink);
  };
}

AlgoFn MakeParallelAlgo(const std::string& name, uint32_t k, uint32_t q,
                        uint32_t threads, double tau_ms) {
  if (name == "FP-par") {
    // FP's parallel form (Dai et al.): each seed's whole two-hop set is
    // one task, run to completion by one worker.
    const EnumOptions fp = FpOptions(k, q);
    return [fp, threads](const Graph& g, ResultSink& sink) {
      return RunSeedStages(g, fp, threads, /*timeout_ms=*/0,
                           EnumerateWholeSeed, sink);
    };
  }
  ParallelOptions parallel;
  parallel.num_threads = threads;
  EnumOptions options;
  if (name == "Ours-par") {
    options = EnumOptions::Ours(k, q);
    parallel.timeout_ms = tau_ms;
  } else if (name == "ListPlex-par") {
    options = ListPlexOptions(k, q);
    parallel.timeout_ms = 0.0;  // no straggler elimination
  } else {
    std::fprintf(stderr, "unknown parallel variant '%s'\n", name.c_str());
    std::abort();
  }
  return [options, parallel](const Graph& g, ResultSink& sink) {
    return ParallelEnumerateMaximalKPlexes(g, options, parallel, sink);
  };
}

RunOutcome TimeAlgo(const Graph& graph, const AlgoFn& algo) {
  RunOutcome outcome;
  HashingSink sink;
  auto result = algo(graph, sink);
  if (!result.ok()) {
    outcome.error = result.status().ToString();
    return outcome;
  }
  outcome.ok = true;
  outcome.num_plexes = result->num_plexes;
  outcome.seconds = result->seconds;
  outcome.fingerprint = sink.fingerprint();
  outcome.branch_calls = result->counters.branch_calls;
  return outcome;
}

int64_t MeasurePeakRssKib(const std::function<void()>& fn) {
  int pipefd[2];
  if (pipe(pipefd) != 0) return -1;
  pid_t pid = fork();
  if (pid < 0) {
    close(pipefd[0]);
    close(pipefd[1]);
    return -1;
  }
  if (pid == 0) {
    // Child: run the workload and report how much the peak RSS *grew*
    // beyond the inherited pre-fork footprint, so the measurement
    // captures the workload's own memory rather than the process
    // baseline. Exit without cleanup.
    close(pipefd[0]);
    const int64_t baseline = PeakRssKib();
    fn();
    int64_t peak = PeakRssKib() - baseline;
    if (peak < 0) peak = 0;
    ssize_t ignored = write(pipefd[1], &peak, sizeof(peak));
    (void)ignored;
    close(pipefd[1]);
    _exit(0);
  }
  close(pipefd[1]);
  int64_t peak = -1;
  ssize_t got = read(pipefd[0], &peak, sizeof(peak));
  close(pipefd[0]);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  if (got != sizeof(peak)) return -1;
  return peak;
}

}  // namespace kplex
