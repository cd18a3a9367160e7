/**
 * @file
 * Tests for the ExperimentPool determinism contract: the same batch
 * seed must yield byte-identical merged results for 1, 2, and 8 worker
 * threads, task failures must not poison the batch or deadlock the
 * pool, and the pooled harness sweeps must be thread-count invariant.
 */

#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/stats.hh"
#include "platform/chip.hh"
#include "platform/experiment_pool.hh"
#include "platform/harness.hh"
#include "platform/simulator.hh"

namespace vspec
{
namespace
{

constexpr std::uint64_t kBatchSeed = 0xBA7C4ULL;

/** Per-task result exercising both merge() APIs. */
struct TaskStats
{
    RunningStats stats;
    std::vector<std::uint64_t> draws;
};

TaskStats
statsTask(ExperimentTaskContext &ctx)
{
    TaskStats result;
    for (int i = 0; i < 256; ++i) {
        result.stats.add(ctx.rng.gaussian(double(ctx.index), 1.0));
        result.draws.push_back(ctx.rng.next());
    }
    return result;
}

/** Run the stats batch and merge outcomes in task order. */
struct MergedBatch
{
    RunningStats stats;
    Histogram hist{-8.0, 40.0, 96};
    std::vector<std::uint64_t> draws;
};

MergedBatch
runStatsBatch(unsigned threads, std::size_t tasks)
{
    ExperimentPool pool(threads);
    auto outcomes = pool.run(kBatchSeed, tasks, statsTask);

    MergedBatch merged;
    for (const auto &outcome : outcomes) {
        EXPECT_TRUE(outcome.ok());
        RunningStats per_task;
        for (std::uint64_t d : outcome.value->draws) {
            merged.draws.push_back(d);
            merged.hist.add(double(d >> 56));
        }
        merged.stats.merge(outcome.value->stats);
    }
    return merged;
}

TEST(ExperimentPool, MergedResultsIdenticalAcrossThreadCounts)
{
    const MergedBatch one = runStatsBatch(1, 24);
    const MergedBatch two = runStatsBatch(2, 24);
    const MergedBatch eight = runStatsBatch(8, 24);

    // Raw streams byte-identical.
    ASSERT_EQ(one.draws, two.draws);
    ASSERT_EQ(one.draws, eight.draws);

    // Merged Welford state bit-identical (exact double equality).
    for (const MergedBatch *other : {&two, &eight}) {
        EXPECT_EQ(one.stats.count(), other->stats.count());
        EXPECT_EQ(one.stats.mean(), other->stats.mean());
        EXPECT_EQ(one.stats.variance(), other->stats.variance());
        EXPECT_EQ(one.stats.min(), other->stats.min());
        EXPECT_EQ(one.stats.max(), other->stats.max());
        EXPECT_EQ(one.stats.sum(), other->stats.sum());
        for (std::size_t i = 0; i < one.hist.numBins(); ++i)
            EXPECT_EQ(one.hist.binCount(i), other->hist.binCount(i));
    }
}

TEST(ExperimentPool, TaskSeedsDependOnlyOnBatchSeedAndIndex)
{
    ExperimentPool pool(3);
    auto seeds = pool.run(7, 16, [](ExperimentTaskContext &ctx) {
        EXPECT_EQ(ctx.seed, mix64(std::uint64_t(7), ctx.index));
        return ctx.seed;
    });
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        ASSERT_TRUE(seeds[i].ok());
        EXPECT_EQ(*seeds[i].value, mix64(std::uint64_t(7), i));
        // Adjacent task seeds must be decorrelated, not sequential.
        if (i > 0) {
            EXPECT_GT(*seeds[i].value ^ *seeds[i - 1].value, 1u);
        }
    }
}

TEST(ExperimentPool, ThrowingTaskFailsAloneWithoutDeadlock)
{
    ExperimentPool pool(4);
    auto outcomes =
        pool.run(1, 8, [](ExperimentTaskContext &ctx) -> int {
            if (ctx.index == 3)
                throw std::runtime_error("boom in task 3");
            return int(ctx.index) * 2;
        });

    ASSERT_EQ(outcomes.size(), 8u);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (i == 3) {
            EXPECT_FALSE(outcomes[i].ok());
            EXPECT_NE(outcomes[i].error.find("boom"), std::string::npos);
        } else {
            ASSERT_TRUE(outcomes[i].ok());
            EXPECT_EQ(*outcomes[i].value, int(i) * 2);
        }
    }

    // The pool must stay usable for further batches.
    auto again = pool.run(2, 4, [](ExperimentTaskContext &ctx) {
        return ctx.index;
    });
    for (std::size_t i = 0; i < again.size(); ++i) {
        ASSERT_TRUE(again[i].ok());
        EXPECT_EQ(*again[i].value, i);
    }
}

TEST(ExperimentPool, ZeroTasksAndThreadCountResolution)
{
    ExperimentPool pool(2);
    EXPECT_EQ(pool.numThreads(), 2u);
    auto outcomes =
        pool.run(1, 0, [](ExperimentTaskContext &) { return 0; });
    EXPECT_TRUE(outcomes.empty());

    ExperimentPool defaulted(0);
    EXPECT_GE(defaulted.numThreads(), 1u);
}

/** Chip-per-task determinism: simulate a tiny chip from the task seed. */
std::vector<std::uint64_t>
runChipBatch(unsigned threads)
{
    ExperimentPool pool(threads);
    auto outcomes = pool.run(
        0xC41FULL, 4, [](ExperimentTaskContext &ctx) {
            ChipConfig cfg;
            cfg.seed = ctx.seed;
            Chip chip(cfg);
            harness::assignSuite(chip, Suite::stress, 1.0);
            for (unsigned d = 0; d < chip.numDomains(); ++d) {
                chip.domain(d).regulator().request(650.0);
                chip.domain(d).regulator().advance(1.0);
            }
            Simulator sim(chip, 0.005);
            sim.run(0.25);
            std::uint64_t events = 0;
            for (unsigned c = 0; c < chip.numCores(); ++c)
                events += sim.coreCorrectableEvents(c);
            return events;
        });

    std::vector<std::uint64_t> events;
    for (const auto &outcome : outcomes) {
        EXPECT_TRUE(outcome.ok()) << outcome.error;
        events.push_back(outcome.ok() ? *outcome.value : 0);
    }
    return events;
}

TEST(ExperimentPool, ChipSimulationTasksAreThreadCountInvariant)
{
    const auto one = runChipBatch(1);
    const auto eight = runChipBatch(8);
    EXPECT_EQ(one, eight);
}

TEST(PooledExperiments, ErrorRateSweepThreadCountInvariant)
{
    ChipConfig cfg;
    cfg.seed = 99;

    ExperimentPool one(1), four(4);
    const auto a = experiments::errorRateVsDepthPooled(
        cfg, Suite::stress, 1.0, /*max_depth=*/60.0, /*step=*/20.0,
        /*window=*/0.2, /*tick=*/0.005, one);
    const auto b = experiments::errorRateVsDepthPooled(
        cfg, Suite::stress, 1.0, /*max_depth=*/60.0, /*step=*/20.0,
        /*window=*/0.2, /*tick=*/0.005, four);

    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), 4u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].depthMv, b[i].depthMv);
        EXPECT_EQ(a[i].vdd, b[i].vdd);
        EXPECT_EQ(a[i].coresAlive, b[i].coresAlive);
        EXPECT_EQ(a[i].errorsPerCore.count(),
                  b[i].errorsPerCore.count());
        EXPECT_EQ(a[i].errorsPerCore.mean(), b[i].errorsPerCore.mean());
        EXPECT_EQ(a[i].errorsPerCore.sum(), b[i].errorsPerCore.sum());
    }
}

} // namespace
} // namespace vspec
