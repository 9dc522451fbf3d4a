// The unified parallel runtime: caller-participating work-stealing
// Scheduler shared by kernel-level parallel_for and task-level
// parallel_map, including the nested-parallelism guarantees the FL
// simulator relies on and stress tests for the Chase–Lev deques
// (steal-order races, parking, exception propagation under stealing).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/engine.h"
#include "nn/models.h"
#include "runtime/scheduler.h"

namespace goldfish {
namespace {

TEST(Scheduler, RunsAllTasks) {
  runtime::Scheduler sched(4);
  std::atomic<int> count{0};
  sched.parallel_map(100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(Scheduler, SubmitReturnsValue) {
  runtime::Scheduler sched(2);
  auto fut = sched.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(Scheduler, SubmitOnSerialSchedulerRunsInline) {
  // A zero-worker scheduler has no queue consumer; submit must still
  // complete the future (inline) rather than deadlock.
  runtime::Scheduler sched(1);
  auto fut = sched.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(Scheduler, ExceptionsPropagate) {
  runtime::Scheduler sched(2);
  EXPECT_THROW(
      sched.parallel_map(4,
                         [](std::size_t i) {
                           if (i == 2) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
}

TEST(Scheduler, ActuallyParallel) {
  runtime::Scheduler sched(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  sched.parallel_map(8, [&](std::size_t) {
    const int now = concurrent.fetch_add(1) + 1;
    int expect = peak.load();
    while (now > expect && !peak.compare_exchange_weak(expect, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    concurrent.fetch_sub(1);
  });
  EXPECT_GT(peak.load(), 1);
}

TEST(Scheduler, SerialSchedulerSpawnsNoThreads) {
  runtime::Scheduler sched(1);
  EXPECT_EQ(sched.parallelism(), 1u);
  const auto caller = std::this_thread::get_id();
  sched.parallel_for(100, [&](long, long) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(Scheduler, ParallelForCoversEveryIndexOnce) {
  runtime::Scheduler sched(4);
  std::vector<std::atomic<int>> hits(1000);
  sched.parallel_for(
      1000,
      [&](long lo, long hi) {
        for (long i = lo; i < hi; ++i)
          hits[static_cast<std::size_t>(i)].fetch_add(1);
      },
      /*grain=*/7);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Scheduler, ChunksRespectGrain) {
  runtime::Scheduler sched(4);
  std::atomic<long> calls{0};
  sched.parallel_for(
      100,
      [&](long lo, long hi) {
        EXPECT_GE(hi - lo, 1L);
        EXPECT_LE(hi - lo, 30L);
        calls.fetch_add(1);
      },
      /*grain=*/30);
  EXPECT_EQ(calls.load(), 4);  // ceil(100/30)
}

// The property the single-pool design exists for: a parallel_for opened
// from inside a parallel_map task (kernel inside an FL client) completes
// without deadlock and without spawning extra threads, even when every
// worker is busy with client tasks.
TEST(Scheduler, NestedParallelismDoesNotDeadlock) {
  runtime::Scheduler sched(3);
  std::atomic<long> total{0};
  sched.parallel_map(8, [&](std::size_t) {
    sched.parallel_for(
        64, [&](long lo, long hi) { total.fetch_add(hi - lo); },
        /*grain=*/4);
  });
  EXPECT_EQ(total.load(), 8 * 64);
}

TEST(Scheduler, DeeplyNestedRegionsComplete) {
  runtime::Scheduler sched(2);
  std::atomic<long> leaves{0};
  sched.parallel_map(4, [&](std::size_t) {
    sched.parallel_map(4, [&](std::size_t) {
      sched.parallel_for(4, [&](long lo, long hi) {
        leaves.fetch_add(hi - lo);
      });
    });
  });
  EXPECT_EQ(leaves.load(), 4 * 4 * 4);
}

TEST(Scheduler, GlobalIsSingleInstance) {
  runtime::Scheduler& a = runtime::Scheduler::global();
  runtime::Scheduler& b = runtime::Scheduler::global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.parallelism(), 1u);
}

TEST(Scheduler, FreeParallelForRunsInlineBelowGrain) {
  const auto caller = std::this_thread::get_id();
  long covered = 0;
  // n < default grain → must run inline on the caller, zero scheduling.
  parallel_for(100, [&](long lo, long hi) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    covered += hi - lo;
  });
  EXPECT_EQ(covered, 100);
}

TEST(Scheduler, ParallelMapHonorsExplicitGrain) {
  // Indices inside one chunk run on one thread in ascending order; an
  // explicit grain must control the chunk width exactly.
  runtime::Scheduler sched(4);
  std::vector<std::thread::id> ran_on(100);
  sched.parallel_map(
      100, [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); },
      /*grain=*/25);
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_EQ(ran_on[i], ran_on[(i / 25) * 25]);
}

TEST(Scheduler, ParallelMapAutoGrainCoversEveryIndexOnce) {
  // grain=0 picks n/(4·parallelism); whatever the chunking, every index
  // must still run exactly once.
  runtime::Scheduler sched(4);
  std::vector<std::atomic<int>> hits(10000);
  sched.parallel_map(10000,
                     [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// -- work-stealing stress ---------------------------------------------------

// Three levels of nesting with fan-outs wide enough that helper tasks pile
// into the deques and must be stolen across slots to finish in reasonable
// time. Every leaf must run exactly once regardless of who stole what.
TEST(SchedulerStress, DeepNestedRegionsCoverAllLeaves) {
  runtime::Scheduler sched(4);
  std::atomic<long> leaves{0};
  sched.parallel_map(
      8,
      [&](std::size_t) {
        sched.parallel_for(
            8,
            [&](long lo, long hi) {
              for (long j = lo; j < hi; ++j)
                sched.parallel_for(
                    32,
                    [&](long l2, long h2) { leaves.fetch_add(h2 - l2); },
                    /*grain=*/4);
            },
            /*grain=*/1);
      },
      /*grain=*/1);
  EXPECT_EQ(leaves.load(), 8 * 8 * 32);
}

// The FedBuff engine's shape: worker tasks themselves submit() subtasks and
// drain their futures while other workers (and the main thread) are doing
// the same — claiming external slots, stealing, and parking concurrently.
TEST(SchedulerStress, SubmitAndDrainFromInsideWorkerTasks) {
  runtime::Scheduler sched(4);
  std::atomic<long> sum{0};
  sched.parallel_map(
      16,
      [&](std::size_t i) {
        std::vector<std::future<long>> futs;
        futs.reserve(8);
        for (long j = 0; j < 8; ++j)
          futs.push_back(
              sched.submit([i, j] { return static_cast<long>(i) * j; }));
        for (auto& f : futs) {
          sched.drain_until_ready(f);
          sum.fetch_add(f.get());
        }
      },
      /*grain=*/1);
  long want = 0;
  for (long i = 0; i < 16; ++i)
    for (long j = 0; j < 8; ++j) want += i * j;
  EXPECT_EQ(sum.load(), want);
}

// Many tiny regions opened back-to-back from several external threads at
// once: exercises the external-slot claim/release path, slot handoff with
// stale helpers left behind, and the producer/sleeper wake protocol.
TEST(SchedulerStress, ConcurrentExternalCallers) {
  runtime::Scheduler sched(4);
  std::atomic<long> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t)
    callers.emplace_back([&] {
      for (int rep = 0; rep < 200; ++rep)
        sched.parallel_for(
            64, [&](long lo, long hi) { total.fetch_add(hi - lo); },
            /*grain=*/8);
    });
  for (auto& c : callers) c.join();
  EXPECT_EQ(total.load(), 4L * 200 * 64);
}

// An exception thrown by a stolen chunk must abort the region and resurface
// at the opener — repeatedly, so some reps throw from the caller's lane and
// some from a thief's.
TEST(SchedulerStress, ExceptionPropagatesUnderStealing) {
  runtime::Scheduler sched(4);
  for (int rep = 0; rep < 50; ++rep) {
    EXPECT_THROW(
        sched.parallel_for(
            256,
            [&](long lo, long) {
              if (lo == 128) throw std::runtime_error("boom");
            },
            /*grain=*/1),
        std::runtime_error);
  }
}

TEST(SchedulerStress, SubmitExceptionSurfacesAtFuture) {
  runtime::Scheduler sched(2);
  auto fut = sched.submit([]() -> int { throw std::logic_error("bad"); });
  sched.drain_until_ready(fut);
  EXPECT_THROW(fut.get(), std::logic_error);
}

#if defined(__linux__)
TEST(SchedulerStress, PinnedWorkersStillCoverAllWork) {
  // GOLDFISH_PIN_THREADS=1 pins workers to the affinity mask's CPUs; on any
  // mask (including a 1-CPU container) work must still complete correctly.
  ::setenv("GOLDFISH_PIN_THREADS", "1", 1);
  {
    runtime::Scheduler sched(3);
    std::atomic<long> covered{0};
    sched.parallel_for(
        1000, [&](long lo, long hi) { covered.fetch_add(hi - lo); },
        /*grain=*/16);
    EXPECT_EQ(covered.load(), 1000);
  }
  ::unsetenv("GOLDFISH_PIN_THREADS");
}
#endif

// The repo's determinism contract, hammered: a full engine scenario run
// ≥100 times across 1/2/8 threads must produce one bit-identical
// StepResult stream and final model no matter how steals interleave.
TEST(SchedulerStress, EngineScenarioDeterministicOver100Reps) {
  const auto run_once = [](std::size_t threads) {
    auto tt = data::make_synthetic(
        data::default_spec(data::DatasetKind::Mnist, 41, 120, 30));
    Rng rng(41);
    auto parts = data::partition_iid(tt.train, 3, rng);
    nn::Model global = nn::make_mlp({1, 28, 28}, 16, 10, rng);
    fl::FlConfig cfg;
    cfg.local.epochs = 1;
    cfg.local.batch_size = 40;
    cfg.local.lr = 0.05f;
    cfg.threads = threads;
    cfg.async.buffer_size = 2;
    cfg.async.duration_log_jitter = 0.5;
    fl::Engine eng(global, parts, tt.test, cfg);
    auto results = eng.collect(eng.async_scenario(3));
    return std::make_pair(std::move(results),
                          eng.global_model().snapshot());
  };

  const auto want = run_once(1);
  ASSERT_EQ(want.first.size(), 3u);
  int reps_done = 1;
  for (std::size_t threads : {1u, 2u, 8u}) {
    for (int rep = 0; rep < 34; ++rep, ++reps_done) {
      const auto got = run_once(threads);
      ASSERT_EQ(got.first.size(), want.first.size());
      for (std::size_t a = 0; a < want.first.size(); ++a) {
        EXPECT_EQ(std::memcmp(&got.first[a].global_accuracy,
                              &want.first[a].global_accuracy,
                              sizeof(double)),
                  0)
            << "accuracy diverged at step " << a << " threads " << threads
            << " rep " << rep;
        EXPECT_EQ(std::memcmp(&got.first[a].virtual_time,
                              &want.first[a].virtual_time, sizeof(double)),
                  0);
        EXPECT_EQ(got.first[a].updates_consumed,
                  want.first[a].updates_consumed);
      }
      ASSERT_EQ(got.second.size(), want.second.size());
      for (std::size_t t = 0; t < want.second.size(); ++t) {
        ASSERT_TRUE(got.second[t].same_shape(want.second[t]));
        EXPECT_EQ(std::memcmp(got.second[t].data(), want.second[t].data(),
                              got.second[t].numel() * sizeof(float)),
                  0)
            << "weights diverged in tensor " << t << " threads " << threads
            << " rep " << rep;
      }
    }
  }
  EXPECT_GE(reps_done, 100);
}

}  // namespace
}  // namespace goldfish
