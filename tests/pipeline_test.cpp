// Differential coverage for the pipelined sliding-window campaign
// executor (core/session.cpp) and its plumbing: the shared job and
// completion queues (util/work_queue.hpp) and the covered shadow
// (util/atomic_bitset.hpp).
//
// The contract under test: the window executor (jobs >= 2) and the
// definitional serial loop (jobs == 1) implement the same generation
// schedule — job k is generated from merged state through iteration
// k - batch_size — so their CampaignResults are bit-identical for every
// worker count, under adversarial worker timing, and across mid-window
// stops. The serial loop is the oracle. Workers pull from one shared
// queue, so an idle worker never waits while a job sits queued.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign_equal.hpp"
#include "core/session.hpp"
#include "util/atomic_bitset.hpp"
#include "util/work_queue.hpp"

namespace specure::core {
namespace {

CampaignSpec make_spec(const std::string& preset, std::size_t jobs,
                       std::uint64_t iterations, std::uint64_t seed) {
  CampaignSpec spec = CampaignSpec::preset(preset);
  spec.rng_seed = seed;
  spec.jobs = jobs;
  spec.batch_size = 16;
  spec.budget.iterations = iterations;
  spec.progress_interval = 0;
  return spec;
}

CampaignResult run_campaign(const std::string& preset, std::size_t jobs,
                            std::uint64_t iterations, std::uint64_t seed) {
  Session session(make_spec(preset, jobs, iterations, seed));
  return session.run();
}

/// The serial loop's result, after checking the window executor at
/// jobs 2 and 4 reproduces it.
CampaignResult expect_window_matches_serial(const std::string& preset,
                                            std::uint64_t iterations,
                                            std::uint64_t seed) {
  const CampaignResult serial = run_campaign(preset, 1, iterations, seed);
  for (const std::size_t jobs : {2u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    expect_identical(serial, run_campaign(preset, jobs, iterations, seed));
  }
  return serial;
}

TEST(Pipeline, WindowMatchesSerialDefaultSeed7) {
  expect_window_matches_serial("default", 120, 7);
}

TEST(Pipeline, WindowMatchesSerialDefaultSeed9) {
  expect_window_matches_serial("default", 120, 9);
}

TEST(Pipeline, WindowMatchesSerialFullSeed7) {
  expect_window_matches_serial("full", 80, 7);
}

TEST(Pipeline, WindowMatchesSerialFullSeed9) {
  // The full preset reliably produces findings at this seed, so the
  // comparison covers the detector/dedup/VCD-pending path end to end.
  const CampaignResult serial = expect_window_matches_serial("full", 80, 9);
  EXPECT_FALSE(serial.vulns.empty());
}

TEST(Pipeline, InOrderMergeUnderAdversarialWorkerDelays) {
  // Per-job pseudo-random delays force completions back into the merger
  // far out of iteration order; the reorder window must still merge in
  // strict iteration order and reproduce the serial loop.
  const CampaignResult reference = run_campaign("default", 1, 80, 7);
  Session delayed(make_spec("default", 4, 80, 7));
  delayed.set_test_job_delay([](const fuzz::FuzzJob& job, std::size_t) {
    const std::uint64_t h = job.iteration * 2654435761u;
    std::this_thread::sleep_for(
        std::chrono::microseconds(100 * ((h >> 16) % 6)));
  });
  expect_identical(reference, delayed.run());
}

TEST(Pipeline, IdleWorkerTakesQueuedJobWhileAnotherIsBusy) {
  // Job 1 holds its worker until all 16 jobs of the first window have
  // started, or for at most 5 s. The other worker must take jobs 2..16
  // meanwhile; a job stranded behind job 1 in a queue only that worker
  // serves could not start before the hold timed out.
  Session session(make_spec("default", 2, 32, 7));
  constexpr std::uint64_t kWindow = 16;
  std::atomic<std::uint64_t> started{0};
  std::atomic<std::uint64_t> started_during_hold{0};
  session.set_test_job_delay([&](const fuzz::FuzzJob& job, std::size_t) {
    if (job.iteration <= kWindow) started.fetch_add(1);
    if (job.iteration != 1) return;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (started.load() < kWindow &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    started_during_hold.store(started.load());
  });
  const CampaignResult result = session.run();
  EXPECT_EQ(started_during_hold.load(), kWindow)
      << "first-window jobs sat queued while job 1 held its worker";
  expect_identical(run_campaign("default", 1, 32, 7), result);
}

TEST(Pipeline, StopConditionMidWindowIsConsistentAcrossExecutors) {
  // A stop that fires mid-window (7 merges into a 16-wide window) must
  // leave both executors at exactly the same campaign state.
  const auto run_stopped = [](std::size_t jobs) {
    Session session(make_spec("default", jobs, 200, 7));
    session.add_stop([](const CampaignResult& r) {
      return r.history.size() >= 7;
    });
    return session.run();
  };
  const CampaignResult serial = run_stopped(1);
  EXPECT_EQ(serial.history.size(), 7u);
  expect_identical(serial, run_stopped(4));
}

std::string error_of_run(Session& session) {
  try {
    session.run();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "(no exception)";
}

TEST(Pipeline, MergeStrandExceptionPropagatesAtEveryJobsCount) {
  // An exception on the merge strand — a frontier sink whose state write
  // fails, a stop condition that throws — must reach run()'s caller
  // unchanged at every jobs count: the window executor joins its
  // workers before it unwinds, rather than terminating the process.
  for (const std::size_t jobs : {1u, 2u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    Session sink_fails(make_spec("default", jobs, 200, 7));
    sink_fails.on_frontier([](const CampaignFrontier& f) {
      if (f.merged == 20) throw std::runtime_error("state write failed");
    });
    EXPECT_EQ(error_of_run(sink_fails), "state write failed");

    Session stop_fails(make_spec("default", jobs, 200, 7));
    stop_fails.add_stop([](const CampaignResult& r) -> bool {
      if (r.history.size() == 20) throw std::runtime_error("stop failed");
      return false;
    });
    EXPECT_EQ(error_of_run(stop_fails), "stop failed");
  }
}

TEST(Pipeline, WorkerExceptionPropagatesAtEveryJobsCount) {
  // A job that throws on a worker thread travels back in its slot and
  // is rethrown on the caller after the workers joined.
  for (const std::size_t jobs : {1u, 2u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    Session session(make_spec("default", jobs, 200, 7));
    session.set_test_job_delay([](const fuzz::FuzzJob& job, std::size_t) {
      if (job.iteration == 20) throw std::runtime_error("simulate failed");
    });
    EXPECT_EQ(error_of_run(session), "simulate failed");
  }
}

TEST(Pipeline, PipelineStatsCoverEveryJob) {
  Session session(make_spec("default", 2, 48, 7));
  session.run();
  const PipelineStats& stats = session.pipeline_stats();
  ASSERT_EQ(stats.workers.size(), 2u);
  std::uint64_t jobs = 0;
  for (const PipelineWorkerStats& ws : stats.workers) jobs += ws.jobs;
  EXPECT_EQ(jobs, 48u);
  EXPECT_GT(stats.workers[0].execute_seconds +
                stats.workers[1].execute_seconds,
            0.0);
}

// ----------------------------------------------------------- work queue --

TEST(WorkQueue, FifoOrder) {
  util::WorkQueue<std::uint32_t> queue;
  for (std::uint32_t i = 0; i < 100; ++i) queue.push(i);
  std::uint32_t out = 0;
  for (std::uint32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(queue.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(queue.try_pop(out));  // empty again
  // Interleaved pushes and blocking pops keep arrival order too.
  queue.push(7);
  queue.push(8);
  ASSERT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 7u);
  queue.push(9);
  ASSERT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 8u);
  ASSERT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 9u);
}

TEST(WorkQueue, PopDrainsAfterCloseThenReturnsFalse) {
  util::WorkQueue<std::uint32_t> queue;
  queue.push(1);
  queue.push(2);
  queue.close();
  std::uint32_t out = 0;
  ASSERT_TRUE(queue.pop(out));  // closed but not drained
  EXPECT_EQ(out, 1u);
  ASSERT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 2u);
  EXPECT_FALSE(queue.pop(out));  // closed and drained: returns, no hang
  EXPECT_FALSE(queue.try_pop(out));

  // A consumer already blocked on an empty queue wakes on close().
  util::WorkQueue<std::uint32_t> idle;
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    std::uint32_t value = 0;
    EXPECT_FALSE(idle.pop(value));
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(returned.load());
  idle.close();
  consumer.join();
  EXPECT_TRUE(returned.load());
}

TEST(WorkQueue, ProducersAndConsumersDeliverEveryItemExactlyOnce) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 3;
  constexpr std::uint32_t kPerProducer = 20000;
  util::WorkQueue<std::uint32_t> queue;
  std::vector<std::vector<std::uint32_t>> received(kConsumers);
  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&queue, &received, c] {
      std::uint32_t value = 0;
      while (queue.pop(value)) received[c].push_back(value);
    });
  }
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (std::uint32_t i = 0; i < kPerProducer; ++i) {
        queue.push(static_cast<std::uint32_t>(p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.close();
  for (auto& t : consumers) t.join();

  std::vector<std::uint8_t> seen(kProducers * kPerProducer, 0);
  std::size_t total = 0;
  for (const std::vector<std::uint32_t>& items : received) {
    // FIFO: each consumer sees every producer's items in push order.
    std::vector<std::int64_t> last(kProducers, -1);
    for (const std::uint32_t value : items) {
      ASSERT_LT(value, seen.size());
      ASSERT_EQ(seen[value], 0) << "duplicate delivery of " << value;
      seen[value] = 1;
      ++total;
      const std::size_t p = value / kPerProducer;
      ASSERT_GT(static_cast<std::int64_t>(value), last[p]);
      last[p] = value;
    }
  }
  EXPECT_EQ(total, kProducers * kPerProducer);
}

TEST(AtomicBitset, SetTestClear) {
  util::AtomicBitset bits(200);
  EXPECT_EQ(bits.size(), 200u);
  EXPECT_FALSE(bits.test(0));
  EXPECT_FALSE(bits.test(199));
  bits.set(0);
  bits.set(63);
  bits.set(64);  // word boundary
  bits.set(199);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(63));
  EXPECT_TRUE(bits.test(64));
  EXPECT_TRUE(bits.test(199));
  EXPECT_FALSE(bits.test(1));
  bits.clear();
  EXPECT_FALSE(bits.test(0));
  EXPECT_FALSE(bits.test(199));
}

TEST(AtomicBitset, ConcurrentSettersConverge) {
  constexpr std::size_t kBits = 4096;
  util::AtomicBitset bits(kBits);
  std::vector<std::thread> setters;
  for (std::size_t t = 0; t < 4; ++t) {
    setters.emplace_back([&bits, t] {
      for (std::size_t i = t; i < kBits; i += 4) bits.set(i);
    });
  }
  for (auto& s : setters) s.join();
  for (std::size_t i = 0; i < kBits; ++i) {
    ASSERT_TRUE(bits.test(i)) << "bit " << i << " lost";
  }
}

}  // namespace
}  // namespace specure::core
